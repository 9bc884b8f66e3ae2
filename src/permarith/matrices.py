"""Exact permanents and determinants, run on each ring's int lowering.

per_ryser is Glynn's formula (Glynn, European J. Combin. 31, 2010),
    per A = 2^-(n-1) sum over delta in {+-1}^n with delta_1 = 1 of
            (prod_k delta_k) prod_j sum_k delta_k a_jk,
walked in Gray-code order: each of the 2^(n-1) steps negates one delta_k,
adding or subtracting twice column k to the row sums.  From 7 rows on the
walk is blocked: the Gray code runs over the outer free columns only, and
each of its states yields 2^b terms at once (b = 5), one per subset S of
the first b free columns, whose row sums are the state's plus the offset
-2 * sum_{k in S} column k.  The offsets are built once and grouped by the
parity of |S|, so the state adds the products of the even group and
subtracts those of the odd one, all times the sign of the outer deltas.
Each term is the same product of the same int row sums, only summed in
another order, so the int each lift receives is the same and every
exactness argument below carries over unchanged.  per_ryser keeps the name
of the Ryser loop it replaced and refuses matrices above RYSER_LIMIT rows
with a SizeLimitError, which callers report as out of domain.  It is the
one entry point for a permanent: it reads the matrix and takes the orbit
sum, the rational lowering or the ring's own lowering, in that order, as
described below.

per_orbits is the same sum for the matrices [T(jk mod n)], 1 <= j, k <= h,
h = (n-1)/2, over Q(zeta_n) whose table satisfies T(n - r) = sign * T(r)
as coefficient lists for sign 1 or -1 (the six families cos2, sec2, sin2,
csc2, tan_jk and cot_jk).  A unit a mod n maps delta to a.delta with
(a.delta)_fold(ak) = delta_k * sign^[ak mod n > h], fold(x) = min(x, n-x).
Row j of a.delta is then sign^[aj mod n > h] times row fold(aj) of delta,
entry by entry on the lattice, and the column factor prod_k delta_k picks
up sign once for each k with ak mod n > h: the same count, so the two
cancel and the term of a.delta equals the term of delta.  -delta has the
same term too, since both products change by (-1)^h.  Every step is an
equality of coefficient lists, so the terms are equal in Z[x]/(x^n - 1),
not only in the field, and so are their images under any ring map from
it.  Summing one term per orbit, times the orbit's size, therefore gives
the full sum 2^h per A on either lowering below: on Kronecker images the
bound L is the one of the plain sum, and unpack still checks every digit.
One pass over the entries reads the sign off the table, checking the
lattice symmetry; per_ryser takes the orbit sum for every h x h matrix
over Q(zeta_(2h+1)) that has it, and per_orbits raises ArithmeticError
for one that has it for neither sign.

det_divfree and det_field are fraction-free elimination (Bareiss, Math.
Comp. 22, 1968) in Z: step k replaces every entry below and right of the
pivot by a (k+1) x (k+1) minor of the input, so the division by the
previous pivot is exact.  Rings with zero divisors such as Z/p^2 are safe,
since no ring element is ever inverted.

Both kinds of engine add and multiply plain Python ints: Ring.lower (see
the rings module docstring) maps the rows to ints, the Glynn or Bareiss
loop runs on them, and the ring's lift decodes the one result, dividing
Glynn's sum by 2^(n-1) exactly.  After clearing row denominators and
row powers of q, the int rows are least residues (Z -> Z/m is a ring map)
or images at x = 2^B (evaluation on Z[x] is a ring map), so the loops
compute an int that maps to the exact permanent or determinant, and each
lift is exact on it.  Over Q(zeta_m) the ring's lowering is Kronecker
packing (cyclotomic.pack_rows): Glynn folds its products mod 2^(mB) - 1,
the image of x^m - 1, and Bareiss works on the unfolded images, whose
determinant is the image of the determinant in Z[x]; unpack folds it once
at the end.

per_ryser over Q(zeta_m), m >= 3, takes a smaller lowering
(CyclotomicField.lower_rational) for a matrix that is not such a table but
is Galois-invariant: its n rows are labelled by the residues mod q, 1..n
with label q standing for residue 0, where q = m for n = m - 1 or m, and
q = n for m = 2n (the shape of sec2_diff and tan2_diff, whose tables over
Q(zeta_2n) have period n); and for every generator a of (Z/m)^*
(unit_generators) the check finds
sigma_a(M[j][k]) == M[pi(j)][tau(k)] in the field for all j, k, with
pi(j) = a*j mod q, a permutation of the labels since a is prime to q, and
tau = pi or the identity.  Then sigma_a(per M) is the permanent of M with
its rows and columns permuted, which is per M; the generators generate the
Galois group, so per M is rational.  Let
P in Z[x]/(x^m - 1) be the lattice permanent of the cleared rows (row j
times d_j), so that P(zeta) = prod d_j * per M is a rational algebraic
integer, an int v, with |v| <= |P|_1 <= L (L as in pack_rows).  Let
N = Phi_m(2^e).  Phi_m divides x^m - 1, so x -> 2^e mod N is a ring map
from Z[x]/(x^m - 1) to Z/N that factors through Z[x]/Phi_m = Z[zeta];
it sends P to v mod N, and Glynn's sum, 2^(n-1) P, to 2^(n-1) v mod N.
N is odd, since Phi_m(0) = 1 for m >= 2, so halving mod N is exact.
The primitive m-th roots of unity are not real for m >= 3, so
N = prod |2^e - zeta^k| >= (2^e - 1)^phi(m) >= 2^((e-1) phi(m)), which
with e = ceil((bitlen(L) + 2)/phi(m)) + 1 is at least 2^(bitlen(L) + 2)
> 4L.  So v is the balanced residue mod N, and the lift returns
v / prod d_j.  The lift also refuses a residue over L, but that is only a
guard: a permanent off Q can still leave one within L, so the check alone
makes the lowering exact.  Every other matrix stays on Kronecker images.

det_divfree and det_field take the same lowering under the same check with
tau = pi alone.  Then sigma_a(det M) = det(S M S^T) = sgn(pi)^2 det M =
det M for the permutation matrix S of pi, so det M is rational.  (With tau
the identity, sigma_a(det M) = sgn(pi) det M, which need not be rational:
[1 - zeta^j x_k] is such a matrix, and stays on Kronecker.)  Let D be the
lattice determinant of the cleared rows, so that D(zeta) = prod d_j det M
is a rational algebraic integer, an int v, with |v| <= |D|_1 <= L, since D
is a signed sum of the products that make up P.  Bareiss returns the
determinant of the int residues, which x -> 2^e mod N, a ring map, makes
congruent to D(2^e), that is to v, mod N; the lift takes the balanced
residue as above.  A matrix that fails the check stays on Kronecker
images.

The orbit sum takes the same lowering, twisted by a carrier W, for a
table whose Galois character it finds (_carrier).  Let R be the residues
jk mod n of the table's entries.  For a unit a and r = jk in R,
a*r = +-fold(aj)*k mod n, so a*r or n - a*r lies in R; where only n - x
does, read T[x] as sign * T[n - x], the folded entry.  The check asks,
for every generator a of (Z/n)^* and every r in R, that
sigma_a(T[r]) == T[a*r mod n] in the field.  Then sigma_a maps row j of M
to sign^[aj mod n > h] times row fold(aj) (where both a*r and n - a*r
lie in R, _jk_sign's lattice symmetry makes the two readings agree), so
sigma_a(per M) = chi(a) per M with chi(a) = sign^#{j <= h : aj mod n > h},
counted from the table.  W is 1 for sign 1, where chi = 1, and
sqrt_element(n) for sign -1, and the check asks sigma_a(W) == chi(a) W in
the field too.  (For sign -1, chi(a) is the Jacobi symbol (a/n) by Gauss's
lemma, and the Gauss sum has that character (Berndt, Evans and Williams,
Gauss and Jacobi Sums, 1998), so the six families pass; the engine checks
it rather than trusting it.)  So every sigma_a fixes W per M, which is
rational.  With w = W.num over den_W and P the lattice permanent of the
cleared rows, (P w)(zeta) = prod d_j den_W W per M is a rational
algebraic integer v, and |v| <= |P|_1 |w|_1 <= L |w|_1.  The checks hold
in the field, not on the lattice, and that suffices once the sum runs
mod N: x -> 2^e mod N maps Z[x]/(x^n - 1) to Z/N through Z[x]/Phi_n =
Z[zeta], so the residue of a lattice vector depends only on the field
element it stands for.  The orbit sum is 2^h P on the lattice, so its
residue times w(2^e) is 2^h (P w)(2^e) = 2^h v mod N.  With L |w|_1 in
place of L, e is chosen and v recovered as above, and the lift returns
v W / (W^2 prod d_j den_W) = per M.  A table that fails any check, and a
one-row table, stay on Kronecker images.

per_sum_coeffs and per_sum_values are the rank-2 permanents over Z in
closed form (Minc, Permanents, 1978): per[u_j + d*w_k] = sum_i i!(n-i)!
e_i(w) e_(n-i)(u) d^i, two elementary symmetric passes of O(n^2) int
operations, or one when w equals u; per_sum_values shares the pass over
u among several w.

det_field is det_divfree behind a check that the ring is a field.
per_naive stays on ring elements, an oracle independent of every lowering.
"""

from __future__ import annotations

import operator
from functools import lru_cache, partial, reduce
from itertools import permutations
from math import gcd

from .cyclotomic import CyclotomicField, sqrt_element
from .errors import DomainError, SizeLimitError, UnsupportedRingError
from .ntheory import factorial
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

def _glynn(rows, product):
    """Glynn's signed sum over delta in {+-1}^n with delta_1 = 1, in Gray-code
    order on int rows: 2^(n-1) products of row sums, totalling 2^(n-1) per.

    Row sum j is sum_k delta_k a_jk; each step negates one delta_k, so it
    adds or subtracts twice column k, and the sign prod delta_k alternates.
    From 7 rows on, the Gray code walks only the outer free columns, and
    each of its states yields the 2^5 terms of the inner block: the row
    sums plus each precomputed offset, grouped by the parity of the inner
    deltas it negates (see the module docstring).
    """
    add = operator.add
    n = len(rows)
    # What negating delta_k adds to the row sums, and what restoring it adds.
    steps = [([-2 * c for c in col], [2 * c for c in col])
             for col in list(zip(*rows))[1:]]
    # Below 7 rows the block's set-up costs more than it saves.
    b = 5 if n >= 7 else 0
    if b:
        # Offset -2 * (sum of the negated inner columns), by parity.
        even, odd = [[0] * n], []
        for negate, _ in steps[:b]:
            even, odd = (even + [list(map(add, o, negate)) for o in odd],
                         odd + [list(map(add, o, negate)) for o in even])

        def terms(sums):
            shifted = partial(map, add, sums)
            return (sum(map(product, map(shifted, even)))
                    - sum(map(product, map(shifted, odd))))
    else:
        terms = product
    outer = steps[b:]
    sums = [sum(row) for row in rows]
    acc = terms(sums)
    negated = 0
    for s in range(1, 1 << (n - 1 - b)):
        k = (s & -s).bit_length() - 1
        sums = list(map(add, sums, outer[k][negated >> k & 1]))
        negated ^= 1 << k
        # s and the number of negated outer deltas have the same parity.
        acc = acc - terms(sums) if s & 1 else acc + terms(sums)
    return acc


def check_ryser_size(n: int):
    """Raise SizeLimitError if per_ryser would refuse an n-row matrix."""
    if n > RYSER_LIMIT:
        raise SizeLimitError(f"Ryser permanent limited to n <= {RYSER_LIMIT}"
                             f" (2^n subsets), got n = {n}")


def per_ryser(mat: Mat):
    """Permanent by Glynn's formula with Gray-code updates (the name is
    kept from the Ryser loop it replaced, as is the size limit): the orbit
    sum for a symmetric [T(jk mod n)] table, else Glynn on
    CyclotomicField.lower_rational for a Galois-invariant matrix, else on
    the ring's lowering (see the module docstring)."""
    n = mat.n
    check_ryser_size(n)
    sign = _jk_shaped(mat) and _jk_sign(mat)[0]
    if sign:
        return _orbit_sum(mat, sign)
    ring = mat.ring
    lower = ring.lower_rational if _galois_invariant(mat) else ring.lower
    rows, product, lift = lower(mat.rows)
    return lift(_glynn(rows, product), n - 1)


@lru_cache(maxsize=None)
def unit_generators(m: int) -> tuple[int, ...]:
    """A generating set of (Z/m)^*, taken greedily from 2, 3, ..., m - 1
    (empty for m <= 2)."""
    gens, reached = [], {1}
    for a in range(2, m):
        if gcd(a, m) == 1 and a not in reached:
            gens.append(a)
            while True:
                more = {x * g % m for x in reached for g in gens} - reached
                if not more:
                    break
                reached |= more
    return tuple(gens)


def _galois_invariant(mat: Mat, det: bool = False) -> bool:
    # True if mat is over Q(zeta_m), m >= 3, with its n rows labelled by the
    # residues mod q, 1..n with label q for residue 0, where q = m for
    # n = m - 1 or m and q = n for m = 2n; and every generator a of (Z/m)^*
    # satisfies sigma_a(M[j][k]) == M[pi(j)][tau(k)] in the field, where
    # pi(j) = a*j mod q and tau is pi, or for a permanent (det False) pi or
    # the identity.
    ring = mat.ring
    if not isinstance(ring, CyclotomicField) or ring.m < 3:
        return False
    m, n, rows = ring.m, mat.n, mat.rows
    if n in (m - 1, m):
        q = m
    elif m == 2 * n:
        q = n
    else:
        return False
    same = list(range(n))
    for a in unit_generators(m):
        pi = [a * j % q - 1 for j in range(1, n + 1)]  # index -1 is label q
        # sigma_a sends coefficient e to a*e, so image[f] = num[f / a].
        b = pow(a, -1, m)
        back = [b * f % m for f in range(m)]
        # id(entry) -> [sigma_a(entry).num, sigma_a(entry) once the field is
        # asked]; rows keep entries alive.
        images = {}

        def maps_onto(tau):
            for j, row in enumerate(rows):
                for k, z in enumerate(row):
                    image = images.get(id(z))
                    if image is None:
                        num = z.num
                        image = images[id(z)] = [[num[i] for i in back], None]
                    w = rows[pi[j]][tau[k]]
                    # Equal normal-form pairs are equal; else ask the field.
                    if image[0] != w.num or z.den != w.den:
                        if image[1] is None:
                            image[1] = z.galois(a)
                        if image[1] != w:
                            return False
            return True
        if not (maps_onto(pi) or not det and maps_onto(same)):
            return False
    return True


def _jk_shaped(mat: Mat) -> bool:
    # h x h over Q(zeta_(2h+1)), the shape of the [T(jk mod n)] tables.
    ring = mat.ring
    return isinstance(ring, CyclotomicField) and ring.m == 2 * mat.n + 1


def _jk_sign(mat: Mat) -> tuple[int, str]:
    # (sign, "") if entry (j, k) is T[jk mod n] with T[n - r] = sign * T[r]
    # as coefficient lists, sign 1 where both hold; else (0, why).  That is
    # what makes every orbit's terms equal.  Each (num, den) pair is in
    # normal form, so equal pairs are equal lists.
    n = mat.ring.m
    table = {}
    for j, row in enumerate(mat.rows, 1):
        for k, z in enumerate(row, 1):
            r = j * k % n
            t = table.setdefault(r, z)
            if t is not z and (t.num, t.den) != (z.num, z.den):
                return 0, (f"entry ({j}, {k}) differs from another T[{r}] on"
                           f" the exponent lattice of Q(zeta_{n})")
    why = {}
    for r, z in table.items():
        w = table.get(-r % n)
        if w is None:
            continue
        if w is z or (w.num, w.den) == (z.num, z.den):
            if any(z.num):
                why.setdefault(-1, f"T[{-r % n}] != -T[{r}]")
        else:
            why.setdefault(1, f"T[{-r % n}] != T[{r}]")
            if w.den != z.den or any(map(operator.add, w.num, z.num)):
                why.setdefault(-1, f"T[{-r % n}] != -T[{r}]")
    sign = next((s for s in (1, -1) if s not in why), 0)
    return sign, "" if sign else (
        f"[T(jk mod n)] breaks T[n - r] = +T[r] ({why[1]}) and = -T[r]"
        f" ({why[-1]}) on the exponent lattice of Q(zeta_{n})")


@lru_cache(maxsize=None)
def _orbits(n: int, sign: int) -> tuple[tuple[int, int], ...]:
    """(representative, size) of each orbit of {+-1}^h, h = (n-1)/2, under
    delta -> -delta and the units a mod n, which act by
    (a delta)_fold(ak) = delta_k * sign^[ak mod n > h], fold(x) = min(x, n-x).

    A mask has bit k-1 set where delta_k = -1.  Each generator's action is
    tabulated once as the image of every mask, a bit permutation followed
    by a fixed flip, built by doubling the list one bit at a time;
    negation flips every bit.  Each orbit grows from its least mask, the
    first that no earlier orbit reached, by reading those lists.
    """
    h = (n - 1) // 2
    full = (1 << h) - 1
    images = []
    for a in unit_generators(n):
        bits = []
        flip = 0
        for k in range(1, h + 1):
            r = a * k % n
            bit = 1 << (min(r, n - r) - 1)
            bits.append(bit)
            if sign < 0 and r > h:
                flip |= bit
        image = [flip]
        for bit in bits:
            image += [y ^ bit for y in image]
        images.append(image)
    seen = bytearray(1 << h)
    orbits = []
    start = seen.find(0)
    while start >= 0:
        seen[start] = 1
        orbit = [start]
        for x in orbit:  # grows as it is read
            y = x ^ full
            if not seen[y]:
                seen[y] = 1
                orbit.append(y)
            for image in images:
                y = image[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        orbits.append((start, len(orbit)))
        start = seen.find(0, start)
    return tuple(orbits)


def per_orbits(mat: Mat):
    """Permanent of [T(jk mod n)], 1 <= j, k <= h = (n-1)/2, over Q(zeta_n),
    where T(n - r) = sign * T(r) as coefficient lists for one sign, which
    is read off the table: Glynn's sum over all of {+-1}^h, one term per
    orbit times the orbit's size.

    Every delta in an orbit has the same term on the exponent lattice (see
    the module docstring), so this is the full sum 2^h per, and the
    lowering's lift halves and decodes it as it does per_ryser's.  The sum
    runs on one residue mod Phi_n(2^e) per entry when the table's Galois
    character checks out (the twisted rational lowering), else on
    Kronecker images.  Raises
    ArithmeticError if the table is symmetric for neither sign.  per_ryser
    takes this sum itself for such a table.
    """
    if not _jk_shaped(mat):
        raise DomainError(f"per_orbits needs an h x h matrix over "
                          f"Q(zeta_(2h+1)), got {mat!r}")
    check_ryser_size(mat.n)
    sign, why = _jk_sign(mat)
    if not sign:
        raise ArithmeticError(why)
    return _orbit_sum(mat, sign)


def _carrier(mat: Mat, sign: int):
    # For a table that passed _jk_sign: the carrier W of the twisted rational
    # lowering (1 for sign 1, sqrt_element(n) for sign -1) if, for every
    # generator a of (Z/n)^*, sigma_a(T[r]) == T[a*r mod n] in the field for
    # every residue r of the table, with T[x] = sign * T[n - x] for the x
    # that no entry has, and sigma_a(W) == chi(a) W for
    # chi(a) = sign^#{j <= h : a*j mod n > h}; else None.
    ring, h = mat.ring, mat.n
    n = ring.m
    table = {j * k % n: z for j, row in enumerate(mat.rows, 1)
             for k, z in enumerate(row, 1)}
    carrier = ring.one if sign > 0 else sqrt_element(n)
    for a in unit_generators(n):
        for r, z in table.items():
            x = a * r % n
            want = table.get(x)
            if want is None:
                want = table[n - x] if sign > 0 else -table[n - x]
            if z.galois(a) != want:
                return None
        chi = sign ** sum(a * j % n > h for j in range(1, h + 1))
        if carrier.galois(a) != (carrier if chi > 0 else -carrier):
            return None
    return carrier


def _orbit_sum(mat: Mat, sign: int):
    # per_orbits' sum, for a table already checked for the sign: on one
    # residue mod Phi_n(2^e) per entry where _carrier finds the character,
    # else on Kronecker images.  A one-row table keeps Kronecker: its sum is
    # its one entry, which the lift returns as it stands.
    ring = mat.ring
    carrier = _carrier(mat, sign) if mat.n > 1 else None
    if carrier is None:
        rows, product, lift = ring.lower(mat.rows)
    else:
        rows, product, lift = ring.lower_rational(mat.rows, carrier)
    return lift(_orbit_glynn(rows, product, sign), mat.n)


def _orbit_glynn(rows, product, sign):
    # Glynn's signed sum over all of {+-1}^h on int rows, one term per orbit
    # times the orbit's size: 2^h per.  The row sums move from one
    # representative to the next by the columns where the masks differ.
    h = len(rows)
    # What negating delta_k adds to the row sums, and what restoring it adds.
    steps = [([-2 * c for c in col], [2 * c for c in col])
             for col in zip(*rows)]
    sums = [sum(row) for row in rows]
    acc = 0
    prev = 0
    for mask, size in _orbits(2 * h + 1, sign):
        moved = prev ^ mask
        prev = mask
        while moved:
            bit = moved & -moved
            moved ^= bit
            negate, restore = steps[bit.bit_length() - 1]
            sums = list(map(operator.add, sums,
                            negate if mask & bit else restore))
        term = size * product(sums)
        acc = acc - term if mask.bit_count() & 1 else acc + term
    return acc


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


def _elementary(xs):
    # e_0..e_n of the n values xs, adding one x at a time: e_k += x*e_(k-1).
    e = [1] + [0] * len(xs)
    for count, x in enumerate(xs, 1):
        for k in range(count, 0, -1):
            e[k] += x * e[k - 1]
    return e


def per_sum_coeffs(u, w) -> tuple[int, ...]:
    """Exact integers C_0..C_n with per[u_j + d*w_k] = sum_i C_i d^i.

    Expanding the product over j picks w from a row set J and u from the
    rest.  For |J| = i, the permutations sending J onto a column set K
    number i!(n-i)!, so C_i = i!(n-i)! e_i(w) e_(n-i)(u), with e the
    elementary symmetric polynomials (Minc, Permanents, 1978): two O(n^2)
    passes (one when w equals u), and one vector then serves every d by
    Horner.  Equals per_ryser on [u_j + d*w_k] at every integer d.
    """
    u = list(u)
    return _closed_form(u, _elementary(u), w)


def per_sum_values(u, ws) -> list[int]:
    """per[u_j + w_k] (per_sum_coeffs(u, w) summed) for each w in ws,
    sharing one elementary symmetric pass over u."""
    u = list(u)
    eu = _elementary(u)
    return [sum(_closed_form(u, eu, w)) for w in ws]


def _closed_form(u, eu, w) -> tuple[int, ...]:
    # C_0..C_n of per[u_j + d*w_k], given eu = e(u).
    w = list(w)
    n = len(u)
    if n == 0 or len(w) != n:
        raise DomainError("need two equal-length nonempty integer vectors")
    ew = eu if w == u else _elementary(w)
    return tuple(factorial(i) * factorial(n - i) * ew[i] * eu[n - i]
                 for i in range(n + 1))


# ---------------------------------------------------------------------------
# Determinants
# ---------------------------------------------------------------------------

def _bareiss(rows):
    # Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) on int rows.
    # After each step the entries are minors of the input, so the division
    # by the previous pivot is exact in Z.  A zero pivot is swapped for a
    # lower row with a nonzero entry in its column, which flips the sign.
    a = [list(r) for r in rows]
    sign = prev = 1
    while len(a) > 1:
        k = next((i for i, row in enumerate(a) if row[0]), None)
        if k is None:
            return 0
        if k:
            a[0], a[k] = a[k], a[0]
            sign = -sign
        pivot, *top = a[0]
        a = [[(pivot * x - row[0] * y) // prev for x, y in zip(row[1:], top)]
             for row in a[1:]]
        prev = pivot
    return sign * a[0][0]


def _lowered_det(mat: Mat):
    # Bareiss on one residue mod Phi_m(2^e) per entry for a matrix whose
    # Galois images permute its rows and columns alike, else on the ring's
    # lowering (see the module docstring).
    ring = mat.ring
    lower = (ring.lower_rational if _galois_invariant(mat, det=True)
             else ring.lower)
    rows, _, lift = lower(mat.rows)
    return lift(_bareiss(rows))


def det_divfree(mat: Mat):
    """Determinant with no division in the ring: fraction-free elimination
    on the ring's int lowering, so rings with zero divisors are safe."""
    return _lowered_det(mat)


def det_field(mat: Mat):
    """Determinant over a field: the same elimination as det_divfree, which
    it keeps apart for callers that require a field."""
    ring = mat.ring
    if not ring.is_field:
        raise UnsupportedRingError(f"{ring.name} is not a field")
    return _lowered_det(mat)
