"""Exact permanents and determinants, run on each ring's int lowering.

per_ryser is Glynn's formula (Glynn, European J. Combin. 31, 2010),
    per A = 2^-(n-1) sum over delta in {+-1}^n with delta_1 = 1 of
            (prod_k delta_k) prod_j sum_k delta_k a_jk,
walked in Gray-code order: each of the 2^(n-1) steps negates one delta_k,
adding or subtracting twice column k to the row sums.  From 7 rows on the
walk is blocked: the Gray code runs over the outer free columns only, and
each of its states yields 2^b terms at once (b = 5, or 4 for the mirror
sum below at even n), one per subset S of the b middle columns, whose row
sums are the state's plus the offset -2 * sum_{k in S} column k.  The
offsets are built once and grouped by the parity of |S|, so the state adds
the products of the even group and subtracts those of the odd one, all
times the sign of the outer deltas.  Each term is the same product of the
same int row sums, only summed in another order, so the int each lift
receives is the same (the mirror sum below changes it only by a multiple
of the lowering's modulus) and every exactness argument below carries over
unchanged.  per_ryser keeps the name of the Ryser loop it replaced and
refuses matrices above RYSER_LIMIT rows with a SizeLimitError, which
callers report as out of domain.  It is the one entry point for a
permanent: it reads the matrix, takes an orbit sum where the [T(jk mod n)]
table or a circulant has one and Glynn's sum elsewhere, and runs either on
one residue per entry where the Galois check below finds a carrier, else
on the ring's own lowering.

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
over Q(zeta_(2h+1)) that has it.  per_orbits is per_ryser behind that
check: it raises ArithmeticError for a table that has the symmetry for
neither sign.

per_ryser sums a circulant once per necklace: after the lowering, when
the n >= 3 int rows satisfy a_jk = c_(k-j mod n), row j being row j - 1
rotated right by one place.  Rotating delta, (r.delta)_k = delta_(k-1),
turns row sum j into sum_k delta_(k-1) c_(k-j) = sum_k delta_k c_(k+1-j),
row sum j - 1 of delta: the row sums rotate, so the term multiplies the
same ints in another order, and prod_k delta_k stays.  -delta negates
the n row sums and prod_k delta_k, (-1)^n each, so its term is the same
too.  With a mask's bit k set where delta_k = -1, _necklaces lists each
binary necklace once, by the FKM algorithm: one lighter than n/2 stands
for its rotations and its complement's (size twice its period), one of
weight n/2 for its rotations alone (size its period), and heavier ones,
the complements of lighter ones, are left out.  The sets are disjoint
and cover {0,1}^n, so the sizes sum to 2^n, and one term per necklace
times its size is Glynn's sum over all of {+-1}^n, 2^n per A, which the
lift divides by 2^n.  The test reads the lowered ints, not the ring
elements, so the argument is about the very ints the loop multiplies and
holds for every ring and every lowering: each member of an orbit gives
the same int term (the Kronecker fold after each factor gives one
congruent mod 2^(mB) - 1, which its lift reduces by), whereas entries
equal in the ring need not lower to equal ints (one field element on two
lattice vectors); such a matrix fails the test and takes Glynn's sum.
Over Z/m no term is reduced, so the sum is 2^n times an int permanent,
and halving it needs no even orbit size.

Glynn's blocked sum skips half of a mirror-symmetric matrix: from 7 rows
on, when the int rows satisfy a_(n-1-j, n-1-k) = s a_jk (0-based) for all
j, k, with s = 1 or, for even n, s = -1, exactly for exact images and mod
the lowering's odd modulus for residues and Kronecker images.  Reversing
delta, (R.delta)_k = delta_(n-1-k), turns row sum j into
sum_k delta_k a_(j, n-1-k) = s times row sum n-1-j of delta, so the
product of the n row sums gains s^n = 1 and prod_k delta_k stays; negating
delta changes both by (-1)^n.  So J'.delta = delta_(n-1) R.delta, the
reversal followed by the negation that restores delta_1 = +1, has the same
term as delta, and J' is an involution.  In bits (bit k set where
delta_k = -1), bit k of J'(x) is bit n-1-k of x xor bit n-1 of x: J'
swaps paired bits, keeps the bit of column n-1, and complements the
others when that bit is set.  The inner block is then the b middle
columns, closed under k -> n-1-k (b = 5 for odd n, 4 for even n), so J'
maps the outer columns onto themselves and, for a fixed outer mask x, the
subsets of the block onto themselves: the block at x, the sum of its 2^b
terms, equals the block at J'(x).  The walk still steps through every
outer mask, keeping J'(x) beside x (negating paired column k flips bit
n-1-k of J'(x), and column n-1 flips all of it), but evaluates the block
only where x <= J'(x), twice where x < J'(x) (masks compared as ints).
That is the full sum as an int on exact images, and an int congruent to
it mod the modulus otherwise, which the lift reduces by.  Like the
circulant test, this one reads the very ints the loop multiplies; a matrix
that breaks the relation at one entry takes the plain sum, and so does
s = -1 at odd n, where the relation forces per A = (-1)^n per A = 0.
Where it holds, the block runs at 2^(o-1) + 2^((o-1)/2) of the 2^o outer
masks, o = n - 1 - b (odd, as b has n's parity): 72 of 128 at 13 rows,
4,160 of 8,192 at 18 or 19.

det_divfree and det_field are fraction-free elimination (Bareiss, Math.
Comp. 22, 1968) in Z: step k replaces every entry below and right of the
pivot by a (k+1) x (k+1) minor of the input, so the division by the
previous pivot is exact.  Rings with zero divisors such as Z/p^2 are safe,
since no ring element is ever inverted.

Both kinds of engine add and multiply plain Python ints: Ring.lower
returns a Lowering of the rows, the Glynn or Bareiss loop runs on its
ints, and Lowering.lift divides the one result by 2^k (2^(n-1) for
Glynn's sum) and decodes it (see the rings module docstring).  After
clearing row denominators and row powers of q, the int rows are least
residues (Z -> Z/m is a ring map) or images at x = 2^B (evaluation on Z[x]
is a ring map), so the loops compute an int that maps to the exact
permanent or determinant, and each lift is exact on it.  Over Q(zeta_m)
the ring's lowering is Kronecker packing (cyclotomic.pack_rows): Glynn
folds its products mod 2^(mB) - 1, the image of x^m - 1, and Bareiss
works on the unfolded images, whose determinant is the image of the
determinant in Z[x]; unpack folds it once at the end.  An engine takes it
only for a matrix that the Galois check below refuses.  A one-row matrix
takes no lowering: its permanent and determinant are its entry, coerced
into the ring (ring.zero + entry).

Over Q(zeta_m) every engine first asks one Galois check (_carrier) for the
carrier W of a smaller lowering (CyclotomicField.lower_rational).  W = 1
at once when m <= 2, where Q(zeta_m) = Q, and when every entry's lattice
vector is constant (num[1:] all zero): then every sigma_a fixes every
entry, so X below is rational.  Else the n rows carry labels in one of
three shapes; for a unit a mod m the labels give a permutation pi of the
rows and a sign s_j for each row:
  - n = m - 1 or m: labels 1..n mod m (label m is residue 0), and
    pi(j) = a*j mod m, s_j = 1;
  - m = 2n + 1, the shape of the [T(jk mod m)] tables: pi(j) = fold(a*j),
    and s_j = sign where a*j mod m > n, sign being the table's lattice
    sign for the orbit sum and 1 otherwise.
pi permutes the labels since a is prime to m.  The check asks, for every
generator a of (Z/m)^* (unit_generators), that
    sigma_a(M[j][k]) == s_j M[pi(j)][tau(k)]
in the field for all j, k, with tau = pi, or for a permanent tau = pi or
the identity.  Then sigma_a(M) is M with its rows permuted by pi and
signed by s, and its columns permuted by tau, so sigma_a(per M) =
chi(a) per M with chi(a) = prod_j s_j, and with tau = pi sigma_a(det M) =
chi(a) sgn(pi)^2 det M = chi(a) det M.  (With tau the identity,
sigma_a(det M) = chi(a) sgn(pi) det M, which need not be rational:
[1 - zeta^j x_k] is such a matrix, and its determinant stays on
Kronecker.)  Let X be per M or det M.  The carrier W is 1 if every
chi(a) is 1; else (only the folded shape has signs, and its m is odd)
W = sqrt_element(m) if the check also finds sigma_a(W) == chi(a) W for
every generator; else there is none, and the matrix stays on Kronecker
images.  The generators generate the Galois group, so every sigma_a
fixes W X, which is therefore rational.  (For a [T(jk mod m)] table of
sign -1, chi(a) is the Jacobi symbol (a/m) by Gauss's lemma, which is 1
for every a when m is a square, and the Gauss sum has that character
(Berndt, Evans and Williams, Gauss and Jacobi Sums, 1998), so the six
families pass; the engine checks this rather than trusting it.)

Let w = W.num over den_W, and let P be the lattice permanent or
determinant of the cleared rows (row j times d_j) in Z[x]/(x^m - 1), so
that (P w)(zeta) = prod d_j den_W W X is a rational algebraic integer, an
int v, with |v| <= |P|_1 |w|_1 <= L |w|_1 =: L' (L as in pack_rows; the
determinant is a signed sum of the products that make up the
permanent).  Let N = Phi_m(2^e).  Phi_m divides x^m - 1, so
x -> 2^e mod N is a ring map from Z[x]/(x^m - 1) to Z/N that factors
through Z[x]/Phi_m = Z[zeta]: the residue of a lattice vector depends only
on the field element it stands for, which is why checks in the field
suffice.  Glynn's sum is 2^(n-1) P on the lattice and the orbit sum 2^h P
(its terms are equal as lattice vectors), so their residues times
w(2^e) are 2^(n-1) v and 2^h v mod N; Bareiss returns the determinant of
the int residues, which the ring map makes congruent to P(2^e), so times
w(2^e) it is v mod N.  N is odd, as N = Phi_m(0) = +-1 mod 2, so halving
mod N is exact.  Every root of unity has absolute value 1, so for every m
N = prod |2^e - zeta^k| >= (2^e - 1)^phi(m) >= 2^((e-1) phi(m)), which
with e = ceil((bitlen(L') + 2)/phi(m)) + 1 is at least
2^(bitlen(L') + 2) > 4L'.  So v is the balanced residue mod N, and the
lift returns v W / (W^2 prod d_j den_W) = X.  The lift also refuses a
residue over L', but that is only a guard: a value off Q can still leave
one within L', so the check alone makes the lowering exact.  An entry
whose value at 2^e lies within N/2 of 0 lowers to that value, so a
rational entry (|cleared int| <= L) lowers to itself, and Bareiss's
minors stay those of the rational matrix.

per_sum_coeffs and per_sum_values are the rank-2 permanents over Z in
closed form (Minc, Permanents, 1978): per[u_j + d*w_k] = sum_i i!(n-i)!
e_i(w) e_(n-i)(u) d^i, two elementary symmetric passes of O(n^2) int
operations, or one when w equals u; per_sum_values shares the pass over
u among several w.

per_naive stays on ring elements, an oracle independent of every lowering.
"""

from __future__ import annotations

import operator
from functools import lru_cache, partial, reduce
from itertools import permutations
from math import gcd
from operator import itemgetter, neg

from .cyclotomic import CyclotomicField, _cyc, sqrt_element
from .errors import DomainError, SizeLimitError, UnsupportedRingError
from .ntheory import factorial
from .rings import Lowering, Ring

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

    def __eq__(self, other):
        return (isinstance(other, Mat) and other.n == self.n
                and other.rows == self.rows)

    __hash__ = None

    def __repr__(self):
        return f"Mat({self.ring.name}, {self.n}x{self.n})"


# ---------------------------------------------------------------------------
# Permanents
# ---------------------------------------------------------------------------

def _glynn(rows, product, modulus=None):
    """Glynn's signed sum over delta in {+-1}^n with delta_1 = 1, in Gray-code
    order on int rows: 2^(n-1) products of row sums, totalling 2^(n-1) per,
    or, for mirror-symmetric rows with an odd modulus, an int congruent to
    it mod the modulus.

    Row sum j is sum_k delta_k a_jk; each step negates one delta_k, so it
    adds or subtracts twice column k, and the sign prod delta_k alternates.
    From 7 rows on, the Gray code walks only the outer free columns, and
    each of its states yields the 2^b terms of the inner block of middle
    columns: the row sums plus each precomputed offset, grouped by the
    parity of the inner deltas it negates.  Where _mirror_sign finds the
    rows equal to their reversal up to a sign, the block at an outer mask
    equals the block at its twin, so only one of the two is evaluated (see
    the module docstring).
    """
    add = operator.add
    n = len(rows)
    cols = list(zip(*rows))
    mirror = n >= 7 and _mirror_sign(rows, modulus)
    # Below 7 rows the block's set-up costs more than it saves.  A mirror
    # block is closed under k -> n - 1 - k.
    b = 0 if n < 7 else 4 if mirror and n % 2 == 0 else 5
    inner = range((n - b) // 2, (n + b) // 2)
    outer = [k for k in range(1, n) if k not in inner]
    if b:
        # Offset -2 * (sum of the negated inner columns), by parity.
        even, odd = [[0] * n], []
        for negate, _ in _column_steps(cols[k] for k in inner):
            even, odd = (even + [list(map(add, o, negate)) for o in odd],
                         odd + [list(map(add, o, negate)) for o in even])

        def terms(sums):
            shifted = partial(map, add, sums)
            return (sum(map(product, map(shifted, even)))
                    - sum(map(product, map(shifted, odd))))
    else:
        terms = product
    steps = _column_steps(cols[k] for k in outer)
    # What negating or restoring outer column k does to the twin mask:
    # without a mirror the twin is the mask itself.
    bit = {k: 1 << i for i, k in enumerate(outer)}
    flips = [bit[n - 1 - k] if k < n - 1 else (1 << len(outer)) - 1
             for k in outer] if mirror else list(bit.values())
    sums = [sum(row) for row in rows]
    acc = terms(sums)
    negated = twin = 0
    for s in range(1, 1 << len(outer)):
        k = (s & -s).bit_length() - 1
        sums = list(map(add, sums, steps[k][negated >> k & 1]))
        negated ^= 1 << k
        twin ^= flips[k]
        if negated <= twin:
            t = terms(sums)
            if negated < twin:
                t += t
            # s and the number of negated outer deltas have the same parity.
            acc = acc - t if s & 1 else acc + t
    return acc


def _mirror_sign(rows, modulus):
    # 1 or -1 if rows[n-1-j][n-1-k] == sign * rows[j][k] for all j, k, mod
    # the modulus if there is one, and sign^n = 1; else 0.  Reversing the
    # flattened rows maps entry (j, k) to entry (n-1-j, n-1-k).
    flat = [x for row in rows for x in row]
    for sign in (1, -1) if len(rows) % 2 == 0 else (1,):
        if all(d == 0 or modulus and d % modulus == 0
               for d in map(lambda a, b: a - sign * b, flat, reversed(flat))):
            return sign
    return 0


def _column_steps(cols):
    # What negating delta_k adds to the row sums, and what restoring it
    # adds, for each column k.
    return [([-2 * c for c in col], [2 * c for c in col]) for col in cols]


def per_ryser(mat: Mat):
    """Permanent by Glynn's formula with Gray-code updates (the name is
    kept from the Ryser loop it replaced, as is the size limit): the orbit
    sum for a symmetric [T(jk mod n)] table or a circulant, else Glynn's
    sum, each on the lowering _lowered picks (see the module docstring).
    A one-row matrix is its entry, coerced into the ring."""
    n = mat.n
    if n > RYSER_LIMIT:
        raise SizeLimitError(f"Ryser permanent limited to n <= {RYSER_LIMIT}"
                             f" (2^n subsets), got n = {n}")
    if n == 1:
        return mat.ring.zero + mat.rows[0][0]
    sign = _jk_shaped(mat) and _jk_sign(mat)[0]
    low = _lowered(mat, sign or 1)
    rows, product, lift = low.ints, low.product, low.lift
    if sign:
        return lift(_orbit_glynn(rows, product, _orbits(2 * n + 1, sign)), n)
    if n > 2 and all(row == prev[-1:] + prev[:-1]
                     for prev, row in zip(rows, rows[1:])):
        # Row j is row j - 1 rotated right by one place: circulant.  Two
        # rows have two orbits, as many as Glynn's terms.
        return lift(_orbit_glynn(rows, product, _necklaces(n)), n)
    return lift(_glynn(rows, product, low.modulus), n - 1)


@lru_cache(maxsize=None)
def unit_generators(m: int) -> tuple[int, ...]:
    """A generating set of (Z/m)^* (empty for m <= 2), taken greedily from
    the units in order of decreasing multiplicative order, then value: a
    cyclic group gets one generator."""
    def order(a):
        k, x = 1, a
        while x != 1:
            k, x = k + 1, x * a % m
        return -k
    gens, reached = [], {1}
    for a in sorted((a for a in range(2, m) if gcd(a, m) == 1), key=order):
        if a not in reached:
            gens.append(a)
            # The subgroup reached, times every power of a.
            more = reached
            while more:
                more = {x * a % m for x in more} - reached
                reached = reached | more
    return tuple(gens)


def _carrier(mat: Mat, sign: int = 1, det: bool = False):
    # The carrier W of the residue lowering if mat is over Q(zeta_m): 1 if
    # m <= 2 (Q(zeta_m) = Q) or every entry's lattice vector is constant
    # (every sigma_a fixes it); else, in one of the three label shapes of
    # the module docstring, if every generator a of (Z/m)^* satisfies
    # sigma_a(M[j][k]) == s_j M[pi(j)][tau(k)] in the field, with tau = pi,
    # or for a permanent (det False) pi or the identity: W = 1 where every
    # chi(a) = prod s_j is 1, else sqrt_element(m) if
    # sigma_a(W) == chi(a) W for every generator; else None.  sign is the
    # row sign of the folded shape, m = 2n + 1.
    ring = mat.ring
    if not isinstance(ring, CyclotomicField):
        return None
    m, n, rows = ring.m, mat.n, mat.rows
    if m < 3 or not any(any(z.num[1:]) for row in rows for z in row):
        return ring.one
    folded = m == 2 * n + 1
    if not (folded or n in (m - 1, m)):
        return None
    same = list(range(n))
    chis = []
    for a in unit_generators(m):
        # Index pi[j] (0-based; -1 is label m), row sign signs[j].
        pi, signs = [], []
        for j in range(1, n + 1):
            x = a * j % m
            if folded and x > n:
                x = m - x
                signs.append(sign)
            else:
                signs.append(1)
            pi.append(x - 1)
        # sigma_a sends coefficient e to a*e, so image[f] = num[f / a].
        inv = pow(a, -1, m)
        back = itemgetter(*[inv * f % m for f in range(m)])
        # For s = 1 and -1: id(entry) -> (s sigma_a(entry)).num; rows keep
        # entries alive.
        images = {1: {}, -1: {}}
        asked = {}  # (id(entry), id(target), s) -> the field's answer

        def maps_onto(tau):
            for row, s, target in zip(rows, signs, [rows[i] for i in pi]):
                signed = images[s]
                for z, k in zip(row, tau):
                    w = target[k]
                    image = signed.get(id(z))
                    if image is None:
                        image = signed[id(z)] = list(
                            back(z.num) if s > 0 else map(neg, back(z.num)))
                    # Equal normal-form pairs are equal; else ask the field.
                    if image == w.num and z.den == w.den:
                        continue
                    key = id(z), id(w), s
                    ok = asked.get(key)
                    if ok is None:
                        ok = asked[key] = _cyc(m, image, z.den) == w
                    if not ok:
                        return False
            return True
        if not (maps_onto(pi) or not det and maps_onto(same)):
            return None
        chis.append((a, signs.count(-1) & 1))
    if not any(odd for _, odd in chis):
        return ring.one
    # Only the folded shape has row signs, and its m = 2n + 1 is odd.
    carrier = sqrt_element(m)
    if all(carrier.galois(a) == (-carrier if odd else carrier)
           for a, odd in chis):
        return carrier
    return None


def _lowered(mat: Mat, sign: int = 1, det: bool = False) -> Lowering:
    # The rows on one residue mod Phi_m(2^e) each, twisted by the carrier
    # _carrier finds, else on the ring's own lowering.
    carrier = _carrier(mat, sign, det)
    if carrier is None:
        return mat.ring.lower(mat.rows)
    return mat.ring.lower_rational(mat.rows, carrier)


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
    is read off the table: per_ryser, which takes Glynn's sum over all of
    {+-1}^h, one term per orbit times the orbit's size, for such a table
    (see the module docstring).  Raises DomainError for a matrix of
    another shape and ArithmeticError if the table is symmetric for
    neither sign.
    """
    if not _jk_shaped(mat):
        raise DomainError(f"per_orbits needs an h x h matrix over "
                          f"Q(zeta_(2h+1)), got {mat!r}")
    sign, why = _jk_sign(mat)
    if not sign:
        raise ArithmeticError(why)
    return per_ryser(mat)


@lru_cache(maxsize=None)
def _necklaces(n: int) -> tuple[tuple[int, int], ...]:
    """(mask, size) for each set of masks that the circulant orbit sum
    adds one term for: a binary necklace of length n, with its complement's
    rotations when it is lighter than n/2 (see the module docstring).

    The binary necklaces of length n come from the FKM algorithm
    (Fredricksen, Kessler and Maiorana; Ruskey, Savage and Wang, J.
    Algorithms 13, 1992) on n-bit ints, a string's first letter its top
    bit: the last 0 becomes 1, the prefix that ends there repeats to n
    letters, and the string is a necklace of period i when the prefix's
    length i divides n.  The mask is the string as an int, bit k set where
    delta_k = -1, so it is the least of its rotations.  Negation
    complements the mask.
    """
    full = (1 << n) - 1
    out = [(0, 2)]  # all of delta +1 (period 1), and its complement
    s = 0
    while s != full:
        # The last 0 of s is at bit t, its letter i = n - t.
        t = (~s & (s + 1)).bit_length() - 1
        i = n - t
        prefix = s >> t | 1
        q, r = divmod(n, i)
        s = (prefix * (((1 << i * q) - 1) // ((1 << i) - 1)) << r
             | prefix >> i - r)
        if not r:
            weight = s.bit_count()
            if 2 * weight < n:
                out.append((s, 2 * i))
            elif 2 * weight == n:
                out.append((s, i))
    return tuple(out)


def _orbit_glynn(rows, product, orbits):
    # Glynn's signed sum over all of {+-1}^n on int rows, one term per
    # (mask, size) of orbits times the size: 2^n per, where the term is
    # constant on each orbit.  The row sums move from one representative
    # to the next by the columns where the masks differ.
    steps = _column_steps(zip(*rows))
    sums = [sum(row) for row in rows]
    acc = 0
    prev = 0
    for mask, size in orbits:
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


def _det(mat: Mat):
    # The body of det_divfree and det_field; each calls it, not the other,
    # so that a span around either name never nests in the other's.
    if mat.n == 1:
        return mat.ring.zero + mat.rows[0][0]
    low = _lowered(mat, det=True)
    return low.lift(_bareiss(low.ints))


def det_divfree(mat: Mat):
    """Determinant with no division in the ring: fraction-free elimination
    on the lowering _lowered picks, so rings with zero divisors are safe.
    A one-row matrix is its entry, coerced into the ring."""
    return _det(mat)


def det_field(mat: Mat):
    """Determinant over a field: det_divfree's elimination, behind a check
    that the ring is a field."""
    ring = mat.ring
    if not ring.is_field:
        raise UnsupportedRingError(f"{ring.name} is not a field")
    return _det(mat)
