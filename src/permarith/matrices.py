"""Exact permanents and determinants, run on each ring's int lowering.

per_ryser walks the 2^n - 1 nonempty column subsets once in Gray-code
order, maintaining row sums incrementally (one column toggled per step).
At 2^n steps it refuses matrices above RYSER_LIMIT rows with a
SizeLimitError, which callers report as out of domain; check_ryser_size
lets a caller refuse before it builds the matrix.

det_divfree is Bird's iterated-matrix-product determinant (only +, -, *;
Bird, IPL 111, 2011), valid over rings with zero divisors such as Z/p^2.

Both engines add and multiply plain Python ints: Ring.lower (see the rings
module docstring) maps the rows to ints, the Ryser or Bird loop runs on
them, and the ring's lift decodes the one result.  Each lowering is a ring
map, or a ring map after clearing row denominators and row powers of q, so
the loops compute the image of the exact permanent or determinant, and
each lift is exact on it.  Over Q(zeta_m) the lowering is Kronecker
packing (cyclotomic.pack_rows), and Ryser folds each row product mod
2^(mB) - 1, the image of x^m - 1.

det_field is Bird's loop on the same lowering over Q(zeta_m), so no pivot
is inverted there, and elimination with exact pivots over Q and F_p.
per_naive stays on ring elements, an oracle independent of every lowering.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import permutations

from .cyclotomic import CyclotomicField
from .errors import DomainError, SizeLimitError, UnsupportedRingError
from .ntheory import binomial
from .rings import Ring

NAIVE_LIMIT = 9
RYSER_LIMIT = 20


class Mat:
    """Immutable dense square matrix over a tagged ring."""

    __slots__ = ("ring", "n", "rows")

    def __init__(self, ring: Ring, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0:
            raise DomainError("empty matrix")
        if any(len(r) != n for r in rows):
            raise DomainError("matrix must be square")
        self.ring = ring
        self.n = n
        self.rows = rows

    @classmethod
    def from_fn(cls, ring: Ring, n: int, fn) -> "Mat":
        """Entries fn(j, k) with 1-based indices."""
        return cls(ring, [[fn(j, k) for k in range(1, n + 1)]
                          for j in range(1, n + 1)])

    def entry(self, j: int, k: int):
        """1-based access."""
        return self.rows[j - 1][k - 1]

    def transpose(self) -> "Mat":
        return Mat(self.ring, list(zip(*self.rows)))

    def __eq__(self, other):
        return (isinstance(other, Mat) and other.n == self.n
                and other.rows == self.rows)

    __hash__ = None

    def __repr__(self):
        return f"Mat({self.ring.name}, {self.n}x{self.n})"


# ---------------------------------------------------------------------------
# Permanents
# ---------------------------------------------------------------------------

def _ryser(cols, n, product):
    """Signed Gray-code sum over the nonempty column subsets of int columns;
    `product` multiplies out one list of row sums."""
    prev = 0
    row = [0] * n
    parity = 0
    acc = 0
    for s in range(1, 1 << n):
        k = (s & -s).bit_length() - 1
        col = cols[k]
        if prev >> k & 1:
            row = [r - c for r, c in zip(row, col)]
            prev &= ~(1 << k)
        else:
            row = [r + c for r, c in zip(row, col)]
            prev |= 1 << k
        parity ^= 1
        prod = product(row)
        acc = acc - prod if parity else acc + prod
    return acc if n % 2 == 0 else -acc


def check_ryser_size(n: int):
    """Raise SizeLimitError if per_ryser would refuse an n-row matrix."""
    if n > RYSER_LIMIT:
        raise SizeLimitError(f"Ryser permanent limited to n <= {RYSER_LIMIT}"
                             f" (2^n subsets), got n = {n}")


def per_ryser(mat: Mat):
    """Permanent via Ryser's inclusion-exclusion with Gray-code updates."""
    n = mat.n
    check_ryser_size(n)
    rows, product, lift = mat.ring.lower(mat.rows)
    return lift(_ryser(list(zip(*rows)), n, product))


def per_naive(mat: Mat):
    """Permanent as the literal sum over all n! permutations (oracle, n <= 9)."""
    n = mat.n
    if n > NAIVE_LIMIT:
        raise SizeLimitError(f"naive permanent limited to n <= {NAIVE_LIMIT}")
    rows = mat.rows
    acc = mat.ring.zero
    mul = operator.mul
    for perm in permutations(range(n)):
        acc = acc + reduce(mul, [rows[j][perm[j]] for j in range(n)])
    return acc


def per_sum_matrix(u, v):
    """Exact integer permanent of the rank-2 matrix [u_j + v_k].

    Ryser's row sums depend only on (|S|, sum of v over S), so the subset
    enumeration collapses to a subset-sum counting table: far cheaper than
    2^n when n is around 20.  Equals per_ryser on the same matrix.
    """
    u = list(u)
    v = list(v)
    n = len(u)
    if n == 0 or len(v) != n:
        raise DomainError("need two equal-length nonempty integer vectors")
    ways: list[dict[int, int]] = [dict() for _ in range(n + 1)]
    ways[0][0] = 1
    for x in v:
        for s in range(n - 1, -1, -1):
            level = ways[s]
            if level:
                nxt = ways[s + 1]
                for sig, cnt in level.items():
                    key = sig + x
                    nxt[key] = nxt.get(key, 0) + cnt
    acc = 0
    for s in range(1, n + 1):
        sub = 0
        for sig, cnt in ways[s].items():
            prod = 1
            for uj in u:
                prod *= s * uj + sig
            sub += cnt * prod
        acc += -sub if s & 1 else sub
    return acc if n % 2 == 0 else -acc


def per_sum_coeffs(u, w) -> tuple[int, ...]:
    """Exact integers C_0..C_n with per[u_j + d*w_k] = sum_i C_i d^i.

    Ryser's row sum over a column set S of size s is s*u_j + d*sigma_S with
    sigma_S the sum of w over S, so expanding the product over j gives
    C_i = (-1)^n sum_s (-1)^s s^(n-i) e_(n-i)(u) M_i(s), where e is the
    elementary symmetric function and M_i(s) = sum over |S| = s of
    sigma_S^i.  M comes from adding the w_k one at a time,
    (sigma + x)^i = sum_t binom(i, t) x^(i-t) sigma^t, in O(n^4) int
    operations; one vector then serves every d by Horner.  Equals
    per_sum_matrix(u, [d*x for x in w]) at every integer d.
    """
    u = list(u)
    w = list(w)
    n = len(u)
    if n == 0 or len(w) != n:
        raise DomainError("need two equal-length nonempty integer vectors")
    e = [1] + [0] * n
    for x in u:
        for k in range(n, 0, -1):
            e[k] += x * e[k - 1]
    binom = [[binomial(i, t) for t in range(i + 1)] for i in range(n + 1)]
    # m[s][i] = M_i(s) over the elements of w added so far.
    m = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(n)]
    for count, x in enumerate(w):
        powers = [x ** k for k in range(n + 1)]
        shift = [[c * powers[i - t] for t, c in enumerate(row)]
                 for i, row in enumerate(binom)]
        for s in range(count, -1, -1):
            src = m[s]
            dst = m[s + 1]
            for i in range(n + 1):
                dst[i] += sum(map(operator.mul, shift[i], src))
    coeffs = []
    for i in range(n + 1):
        acc = 0
        for s in range(1, n + 1):
            term = s ** (n - i) * m[s][i]
            acc += -term if s & 1 else term
        coeffs.append(e[n - i] * acc if n % 2 == 0 else -e[n - i] * acc)
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Determinants
# ---------------------------------------------------------------------------

def _bird(rows):
    # Bird's loop on int rows: n - 1 products with mu(x), which keeps the
    # strict upper triangle of x and puts -(x[i+1][i+1] + ... + x[n-1][n-1])
    # at (i, i).
    n = len(rows)
    if n == 1:
        return rows[0][0]
    x = [list(r) for r in rows]
    for _ in range(n - 1):
        mu = [[0] * n for _ in range(n)]
        tail = 0
        for i in range(n - 1, -1, -1):
            mu[i][i] = tail
            tail = tail - x[i][i]
            for j in range(i + 1, n):
                mu[i][j] = x[i][j]
        nxt = [[0] * n for _ in range(n)]
        for i in range(n):
            mrow = mu[i]
            out = nxt[i]
            for t in range(i, n):
                c = mrow[t]
                if not c:
                    continue
                arow = rows[t]
                for j in range(n):
                    out[j] = out[j] + c * arow[j]
        x = nxt
    return x[0][0] if n % 2 else -x[0][0]


def _lowered_det(mat: Mat):
    rows, _, lift = mat.ring.lower(mat.rows)
    return lift(_bird(rows))


def det_divfree(mat: Mat):
    """Determinant using only +, -, * (Bird's algorithm); safe over rings
    with zero divisors."""
    return _lowered_det(mat)


def det_field(mat: Mat):
    """Determinant over a field.

    Over Q(zeta_m) it is Bird's loop on the Kronecker images of the rows, so
    no pivot is inverted; over Q and F_p, Gaussian elimination with exact
    pivot inversion.
    """
    ring = mat.ring
    if not ring.is_field:
        raise UnsupportedRingError(f"{ring.name} is not a field")
    if isinstance(ring, CyclotomicField):
        return _lowered_det(mat)
    n = mat.n
    a = [list(r) for r in mat.rows]
    zero = ring.zero
    det = ring.one
    sign = 1
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if not a[r][col] == zero:
                pivot_row = r
                break
        if pivot_row is None:
            return zero
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        pivot = a[col][col]
        det = det * pivot
        inv_p = ring.inv(pivot)
        for r in range(col + 1, n):
            factor = a[r][col]
            if factor == zero:
                continue
            scaled = factor * inv_p
            a[r] = [x - scaled * y for x, y in zip(a[r], a[col])]
    return det if sign == 1 else -det
