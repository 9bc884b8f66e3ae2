"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is a coefficient vector on the exponent lattice (reduced mod
x^m - 1), stored as m ints `num` over one shared int `den` in normal form:
den > 0 and gcd(den, *num) = 1.  Each lattice vector has exactly one such
pair, so equal pairs mean equal vectors, and every operation runs on ints:
sums over the lcm of the two denominators, scalar products by scaling num
and den, the Galois action by permuting num.  For prime m the lattice
vectors that vanish at zeta_m are exactly the constant ones (x^m - 1 =
(x - 1) Phi_m), so equality over one denominator, is_zero and rational
recognition read num alone: a == b when num_a - num_b is constant, and a
value is rational when num[1:] are all equal.  Composite m, and equality
over unequal denominators, take the remainder modulo the m-th cyclotomic
polynomial (canonical()), as does inversion; `coeffs` and `canonical()`
give rationals back.

Products run on plain ints by Kronecker substitution (Harvey, J. Symb.
Comput. 44, 2009).  `pack_rows` scales each row's numerators to d_j, the
lcm of its denominators, and evaluates every integral vector at x = 2^B;
`unpack` reduces an int mod 2^(mB) - 1, which is x^m - 1 at x = 2^B,
decodes the m signed base-2^B digits and puts them over prod d_j in normal
form.  The digit width is safe because of a bound fixed before any product
is taken: on Z[x]/(x^m - 1) the L1 norm is submultiplicative, so every
coefficient of a product of one entry per row, and hence of any signed sum
of such products over permutations (a permanent or determinant), is at
most L = prod_j (sum_k |row_j entry_k|_1).
With B = bitlen(L) + 2 each coefficient lies in (-2^(B-2), 2^(B-2)): the
value fits well inside the symmetric residues mod 2^(mB) - 1 and its
balanced digits are the coefficients.  Decoding (rings.balanced_digits,
shared with the Laurent lowering) re-checks every digit against L and
raises ArithmeticError if one exceeds it.  pack_rows and unpack are
CyclotomicField's int lowering for the Glynn and Bareiss engines.  Glynn
folds its row products mod 2^(mB) - 1 (Layout.product); Bareiss, which
needs exact division, keeps the unfolded images, whose determinant is the
image of the determinant in Z[x], and unpack folds it.  2^(mB) - 1 is the
image of x^m - 1, so the fold is a ring map, and folding a vector of L1
norm at most L keeps every coefficient within L.
CyclotomicField.lower_rational shares pack_rows' row clearing (clear_rows)
and its bound L, and maps each vector to an int congruent to its value at
2^e mod Phi_m(2^e): one int of about bitlen(L) bits in place of m digits
of B bits.  Given a carrier W (1, or a square root of a rational such as
sqrt_element(m)) it is exact when the permanent or determinant times W is
rational, which the Galois check of the matrices module proves: the bound
grows by the factor |W.num|_1, and the lift multiplies by W's residue
before it recognises the rational and divides W back out.  Glynn, the
orbit sum and Bareiss run on those ints, and on Kronecker images only for
a matrix the check refuses.  Both lowerings take each distinct entry's L1
norm, image and residue once per matrix: both maps are Z-linear, so a
row's scale multiplies the entry's value.
Cyc.__mul__ packs its two operands' numerators as two one-entry rows, so a
cyclic convolution becomes one int product, and Cyc.inverse multiplies the
Galois conjugates the same way.  An operand with at most two nonzero
coordinates skips the packing: its product is one shifted copy of the other
operand per term, the same exact convolution over den_a * den_b.  A
rational summand changes num[0] alone.

Monomials and binomials, which are all the entries the paper inverts
(1/(1 - zeta^r x), sec, csc, tan, cot and 1/(1 - zeta^r)), invert in O(m)
without the conjugates.  a zeta^s inverts to zeta^(-s) / a.  Write
a zeta^s + b zeta^t = a zeta^s (1 - w x) with w = zeta^(t-s) of order
d >= 2 and x = -b/a; since w^d = 1,
  (1 - w x)^-1 = sum_{i<d} (w x)^i / (1 - x^d)     when x^d != 1,
  (1 - w)^-1 = -(1/d) sum_{i<d} i w^i               when x = 1,
(the second because (1 - w) sum i w^i = sum_{0<i<d} w^i - (d - 1) w^d
= -1 - (d - 1)), and for x = -1 with d even, 1 + w = 1 - w^(1+d/2), which
is the case x = 1 (or zero, for d = 2).  A rational x has x^d = 1 only for
x = 1 or x = -1 with d even, so these cover every binomial.  Each path,
the conjugate product too, reduces its vector mod Phi_m: the canonical
coordinates (degree below phi(m)) of an element are unique, so the reduced
vector in normal form is one pair whichever path computed it.

Square roots of integers never become floats here: for odd n the quadratic
Gauss sum g = sum_x zeta^(x^2) satisfies g^2 = (-1)^((n-1)/2) n, and
(-1)^floor(n/4) * g is the exact field element playing the role of
i^((n-1)/2) * sqrt(n).  sqrt_element builds it once per order, and the
Galois check and the twisted lowerings of every table of that order share
it: no operation changes a Cyc in place.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import compress
from operator import add, lshift, sub
from typing import NamedTuple

from .errors import (DomainError, NonInvertibleError, SearchExhaustedError)
from .ntheory import divisors, is_prime, prime_factors
from .rings import (Lowering, ModInt, Rat, Ring, ResidueRing, _power,
                    _show_terms, balanced_digits, cleared, ratio)

# ---------------------------------------------------------------------------
# Cyclotomic polynomials
# ---------------------------------------------------------------------------

def _divmod_phi(num, m: int) -> tuple[list[int], list[int]]:
    # Quotient and remainder of an integer polynomial (ascending coefficients)
    # by the monic Phi_m, divided in place: each step leaves its quotient
    # coefficient where the leading term was.  The zero coefficients of Phi_m
    # are skipped: it has many, and the remainder runs inside every
    # canonical().
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    rem = list(num)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            base = i - deg
            for t in range(deg):
                pt = phi[t]
                if pt:
                    rem[base + t] -= c * pt
    return rem[deg:], rem[:deg]


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise DomainError(f"cyclotomic order must be >= 1, got {m}")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in divisors(m):
        if d != m:
            poly, rem = _divmod_phi(poly, d)
            if any(rem):
                raise ArithmeticError("non-exact polynomial division")
    return tuple(poly)


# ---------------------------------------------------------------------------
# Field elements
# ---------------------------------------------------------------------------

# For prime m, Phi_m = 1 + x + ... + x^(m-1) and x^m - 1 = (x - 1) Phi_m,
# so the lattice vectors that vanish at zeta_m are the multiples of Phi_m
# mod x^m - 1, f * Phi_m = f(1) * Phi_m: exactly the constant vectors.
# Cached per order, since every comparison asks.
_prime_order = lru_cache(maxsize=None)(is_prime)


def _cyc(order: int, num: list, den: int) -> "Cyc":
    # A Cyc from a (num, den) pair already in normal form.
    z = object.__new__(Cyc)
    z.order = order
    z.num = num
    z.den = den
    z._canon = None
    return z


def _zeros(order: int) -> list:
    # The zero vector of Q(zeta_order), refusing an order below 1.
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    return [0] * order


def _normal(order: int, num: list, den: int) -> "Cyc":
    # The Cyc num / den for any den != 0: divide out gcd(den, *num) and give
    # den the positive sign.
    if den != 1:
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _cyc(order, num, den)


class Cyc:
    """Element of Q(zeta_m), as sum of (num[e] / den) * zeta^e for e = 0..m-1.

    num is a list of m ints and den one int, in normal form: den > 0 and
    gcd(den, *num) = 1, so each lattice vector has exactly one pair.
    Cyc(m, coeffs) takes ints and Rats; `coeffs` reads them back.
    """

    __slots__ = ("order", "num", "den", "_canon")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise DomainError(f"order must be >= 1, got {order}")
        coeffs = list(coeffs)
        if len(coeffs) != order:
            raise DomainError(f"need {order} coefficients, got {len(coeffs)}")
        z = _normal(order, *cleared(coeffs))
        self.order = order
        self.num = z.num
        self.den = z.den
        self._canon = None

    @property
    def coeffs(self) -> list:
        """The rational coordinates num[e] / den: an int where integral,
        else a Rat."""
        den = self.den
        if den == 1:
            return list(self.num)
        return [ratio(c, den) for c in self.num]

    @classmethod
    def rational(cls, order: int, value) -> "Cyc":
        num = _zeros(order)
        if isinstance(value, int):
            num[0] = value
            return _cyc(order, num, 1)
        num[0] = int(value.numerator)
        return _cyc(order, num, int(value.denominator))

    @classmethod
    def zeta(cls, order: int, e: int = 1) -> "Cyc":
        num = _zeros(order)
        num[e % order] = 1
        return _cyc(order, num, 1)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Cyc"):
        if other.order != self.order:
            raise DomainError(
                f"cyclotomic order mismatch: {self.order} vs {other.order}")

    def _plus(self, other, op):
        # self op other over the lcm of the two denominators.
        if not isinstance(other, Cyc):
            if isinstance(other, (int, Rat)):
                return self._offset(1, other if op is add else -other)
            return NotImplemented
        self._check(other)
        a, da, b, db = self.num, self.den, other.num, other.den
        if da != db:
            d = math.lcm(da, db)
            if d != da:
                a = [c * (d // da) for c in a]
            if d != db:
                b = [c * (d // db) for c in b]
            da = d
        return _normal(self.order, list(map(op, a, b)), da)

    def __add__(self, other):
        return self._plus(other, add)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.order, [-c for c in self.num], self.den)

    def __sub__(self, other):
        return self._plus(other, sub)

    def __rsub__(self, other):
        if isinstance(other, (int, Rat)):
            return self._offset(-1, other)
        return NotImplemented

    def _offset(self, sign: int, value) -> "Cyc":
        # sign * self + value for a rational value, over the lcm of the two
        # denominators: only num[0] takes the value.
        if isinstance(value, int):
            top, bottom = value, 1
        else:
            top, bottom = int(value.numerator), int(value.denominator)
        den = self.den
        d = den if bottom == 1 else math.lcm(den, bottom)
        scale = sign * (d // den)
        num = list(self.num) if scale == 1 else [c * scale for c in self.num]
        num[0] += top * (d // bottom)
        return _normal(self.order, num, d)

    def __mul__(self, other):
        if isinstance(other, Cyc):
            self._check(other)
            m, a, b = self.order, self.num, other.num
            den = self.den * other.den
            if m - a.count(0) <= 2:
                return _normal(m, _shifted_sum(b, a), den)
            if m - b.count(0) <= 2:
                return _normal(m, _shifted_sum(a, b), den)
            # pack_rows on the rows (self,) and (other,), without the
            # per-row bookkeeping: one int product replaces the convolution.
            bound = sum(map(abs, a)) * sum(map(abs, b))
            layout = Layout(m, bound.bit_length() + 2, den, bound)
            return unpack(layout.image(a) * layout.image(b), layout)
        if isinstance(other, (int, Rat)):
            top = int(other.numerator)
            return _normal(self.order, [c * top for c in self.num],
                           self.den * int(other.denominator))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, Cyc.rational(self.order, 1))

    # -- canonical form ------------------------------------------------------

    def canonical(self) -> tuple:
        """Remainder modulo the m-th cyclotomic polynomial, degree < phi(m),
        as rationals: an int where integral, else a Rat."""
        if self._canon is None:
            rem = _divmod_phi(self.num, self.order)[1]
            den = self.den
            self._canon = tuple(rem if den == 1
                                else [ratio(c, den) for c in rem])
        return self._canon

    def is_zero(self) -> bool:
        num = self.num
        if _prime_order(self.order):
            return num.count(num[0]) == len(num)
        return all(c == 0 for c in self.canonical())

    def __eq__(self, other):
        if isinstance(other, Cyc):
            if other.order != self.order:
                return False
            if self.den == other.den:
                # Equal normal-form pairs are equal lattice vectors.
                if self.num == other.num:
                    return True
                if _prime_order(self.order):
                    diff = list(map(sub, self.num, other.num))
                    return diff.count(diff[0]) == len(diff)
            return self.canonical() == other.canonical()
        if isinstance(other, (int, Rat)):
            value = self.as_rational()
            return value is not None and value == other
        return NotImplemented

    __hash__ = None

    def as_rational(self):
        """The value as a Rat if it is rational (the canonical form has
        degree 0), else None."""
        if _prime_order(self.order):
            rest = self.num[1:]
            if rest.count(rest[0]) != len(rest):
                return None
            return Rat(self.num[0] - rest[0], self.den)
        can = self.canonical()
        if any(c != 0 for c in can[1:]):
            return None
        return Rat(can[0])

    def inverse(self) -> "Cyc":
        """Multiplicative inverse, in canonical coordinates: num reduced mod
        Phi_m (zero from phi(m) on), in normal form.

        A monomial or binomial inverts in O(m) by the closed forms of the
        module docstring.  Any other element takes the product conj of the
        phi(m) - 1 other Galois conjugates of its integral numerator num,
        multiplied as Kronecker images in one pass: num * conj reduces to
        the integer norm N, and the inverse is den * conj / N.  Either way
        the vector is reduced mod Phi_m, and the unique canonical
        coordinates make the pair independent of the path.
        """
        m, num = self.order, self.num
        if m - num.count(0) <= 2:
            return _reduced(m, *_sparse_inverse(m, num, self.den))
        if self.is_zero():
            raise NonInvertibleError("inverse of zero in a cyclotomic field")
        whole = _cyc(m, num, 1)
        others = [whole.galois(a) for a in range(2, m) if math.gcd(a, m) == 1]
        rows, layout = pack_rows(m, [(z,) for z in others])
        conj = unpack(layout.product([img for (img,) in rows]), layout)
        norm, *rest = _divmod_phi((whole * conj).num, m)[1]
        if any(rest):
            raise ArithmeticError(f"the norm of {self!r} is not rational")
        return _reduced(m, [c * self.den for c in conj.num], norm)

    def galois(self, a: int) -> "Cyc":
        """Field automorphism zeta -> zeta^a; requires gcd(a, m) = 1."""
        m = self.order
        if math.gcd(a, m) != 1:
            raise DomainError(f"gcd({a}, {m}) != 1: not a Galois automorphism")
        out = [0] * m
        for e, c in enumerate(self.num):
            if c:
                out[(a * e) % m] = c
        return _cyc(m, out, self.den)

    def embed(self) -> complex:
        """Float approximation at zeta = exp(2*pi*i/m); diagnostics only."""
        import cmath  # here, not at the top: no command reads floats
        m, den = self.order, self.den
        total = 0j
        for e, c in enumerate(self.num):
            if c:
                total += c / den * cmath.exp(2j * cmath.pi * e / m)
        return total

    def __str__(self):
        return _show_terms(enumerate(self.canonical()), "z")

    def __repr__(self):
        return f"Cyc({self.order}; {self})"


def _reduced(order: int, vec: list, den: int) -> Cyc:
    # vec / den reduced mod Phi_m, padded with zeros, in normal form.
    rem = _divmod_phi(vec, order)[1]
    return _normal(order, rem + [0] * (order - len(rem)), den)


def _shifted_sum(a: list, b: list) -> list:
    # The cyclic convolution of a and b, for b with at most two nonzero
    # coordinates: one shifted copy of a per term c * x^e of b.
    m = len(a)
    out = None
    for e in compress(range(m), b):
        c = b[e]
        part = a[m - e:] + a[:m - e]  # part[j] = a[j - e mod m]
        if c != 1:
            part = [c * x for x in part]
        out = part if out is None else list(map(add, out, part))
    return out or [0] * m


def _sparse_inverse(m: int, num: list, den: int) -> tuple[list, int]:
    # (vec, N) with vec / N = den / (num on the lattice) for num with one or
    # two nonzero coordinates, by the closed forms of the module docstring.
    terms = [(e, num[e]) for e in compress(range(m), num)]
    if not terms:
        raise NonInvertibleError("inverse of zero in a cyclotomic field")
    vec = [0] * m
    (s, a), *rest = terms
    if not rest:  # a zeta^s
        vec[-s % m] = den
        return vec, a
    (t, b), = rest
    step = t - s  # a zeta^s + b zeta^t = a zeta^s (1 - w x), w = zeta^step
    d = m // math.gcd(step, m)
    if b == a and d % 2 == 0:
        # x = -1: 1 + w = 1 - w^(1 + d/2), which is 0 for d = 2.
        step = step * (1 + d // 2) % m
        if not step:
            raise NonInvertibleError("inverse of zero in a cyclotomic field")
        d = m // math.gcd(step, m)
        b = -a
    if b == -a:  # x = 1: (1 - w)^-1 = -(1/d) sum_{i<d} i w^i
        for i in range(1, d):
            vec[(i * step - s) % m] = -i * den
        return vec, a * d
    # x^d != 1: (1 - w x)^-1 = sum_{i<d} (w x)^i / (1 - x^d), x = -b/a,
    # over a^d: the i-th term is (-b)^i a^(d-1-i).
    for i in range(d):
        vec[(i * step - s) % m] = den * (-b) ** i * a ** (d - 1 - i)
    return vec, a ** d - (-b) ** d


# ---------------------------------------------------------------------------
# Kronecker substitution
# ---------------------------------------------------------------------------

class Layout(NamedTuple):
    """How pack_rows encoded its rows: order m, digit width B, the product
    of the row denominators and the coefficient bound L."""

    order: int
    bits: int
    den: int
    bound: int

    def image(self, vec) -> int:
        """The Kronecker image v(2^B) of an integral coefficient vector."""
        return sum(map(lshift, vec, range(0, self.order * self.bits,
                                          self.bits)))

    def fold(self, x: int) -> int:
        """An int congruent to x mod 2^(mB) - 1 (the image of x^m - 1) and
        at most about mB bits long; negative x folds too."""
        width = self.order * self.bits
        return (x & ((1 << width) - 1)) + (x >> width)

    def product(self, images):
        """Product of Kronecker images, folded after each factor so that it
        never outgrows mB bits by much."""
        fold = self.fold
        it = iter(images)
        prod = next(it)
        for x in it:
            prod = fold(prod * x)
        return prod


def clear_rows(rows):
    """(scales, prod d_j, L) for rows of Cyc entries.

    Row j is multiplied by d_j, the lcm of its entries' denominators, so
    each entry z becomes the integral coefficient vector s * z.num, where
    s = d_j // z.den is the entry's int in `scales`; L is the coefficient
    bound of the module docstring, the product of the rows' L1 norms.  Each
    distinct entry's L1 norm is taken once, keyed by the entry object,
    which the rows keep alive: the paper's tables hold O(n) values in n^2
    positions.
    """
    den = 1
    bound = 1
    norms = {}
    scales = []
    for row in rows:
        d = math.lcm(*[z.den for z in row])
        row_scales = [d // z.den for z in row]
        total = 0
        for z, s in zip(row, row_scales):
            norm = norms.get(id(z))
            if norm is None:
                norm = norms[id(z)] = sum(map(abs, z.num))
            total += s * norm
        bound *= total
        den *= d
        scales.append(row_scales)
    return scales, den, bound


def _cleared_values(rows, scales, value):
    # value(s * z.num) for each entry z and its scale s from clear_rows, as
    # s * value(z.num): value is Z-linear, and is taken once per distinct
    # entry (keyed as in clear_rows).
    memo = {}
    out = []
    for row, row_scales in zip(rows, scales):
        ints = []
        for z, s in zip(row, row_scales):
            x = memo.get(id(z))
            if x is None:
                x = memo[id(z)] = value(z.num)
            ints.append(x if s == 1 else s * x)
        out.append(ints)
    return out


def pack_rows(order: int, rows):
    """Kronecker images of rows of Cyc entries, and the layout to decode by.

    Each integral vector v of clear_rows is replaced by the int v(2^B).  The
    Layout carries the coefficient bound L, which fixes B.
    """
    scales, den, bound = clear_rows(rows)
    layout = Layout(order, bound.bit_length() + 2, den, bound)
    return _cleared_values(rows, scales, layout.image), layout


def unpack(value: int, layout: Layout) -> Cyc:
    """The Cyc whose Kronecker image under `layout` is `value`.

    `value` may be any int congruent, mod 2^(mB) - 1, to the image of a
    vector whose coefficients are bounded by the layout's L; a digit over
    the bound means the bound was broken and raises ArithmeticError.
    """
    m, bits, den, bound = layout
    modulus = (1 << m * bits) - 1
    value %= modulus
    if value > modulus >> 1:
        value -= modulus
    return _normal(m, balanced_digits(value, bits, m, bound), den)


# ---------------------------------------------------------------------------
# Named constructions
# ---------------------------------------------------------------------------

def gauss_sum(m: int) -> Cyc:
    """Quadratic Gauss sum sum_{x=0}^{m-1} zeta^(x^2) for odd m >= 3.

    Its square is (-1)^((m-1)/2) * m.
    """
    if m < 3 or m % 2 == 0:
        raise DomainError(f"Gauss sum needs odd m >= 3, got {m}")
    coeffs = [0] * m
    for x in range(m):
        coeffs[(x * x) % m] += 1
    return Cyc(m, coeffs)


@lru_cache(maxsize=None)
def sqrt_element(n: int) -> Cyc:
    """The element of Q(zeta_n) equal to i^((n-1)/2) * sqrt(n), for odd n >= 3.

    Realized as (-1)^floor(n/4) times the quadratic Gauss sum; its square is
    (-1)^((n-1)/2) * n, which is how division by sqrt(n) is carried out
    exactly.  Built once per order and shared.
    """
    g = gauss_sum(n)
    return -g if (n // 4) % 2 else g


# ---------------------------------------------------------------------------
# Ring tag
# ---------------------------------------------------------------------------

class CyclotomicField(Ring):
    """Q(zeta_m) as a ring tag for the generic matrix engines."""

    is_field = True

    def __init__(self, m: int):
        if m < 1:
            raise DomainError(f"order must be >= 1, got {m}")
        self.m = m
        self.name = f"Q(zeta_{m})"
        cyclotomic_poly(m)
        self.zero = Cyc.rational(m, 0)
        self.one = Cyc.rational(m, 1)

    def lower(self, rows) -> Lowering:
        # Glynn's products and unpack fold mod 2^(mB) - 1, which is odd.
        images, layout = pack_rows(self.m, rows)
        return Lowering(images, partial(unpack, layout=layout),
                        (1 << self.m * layout.bits) - 1, layout.product)

    def lower_rational(self, rows, carrier: Cyc) -> Lowering:
        """The int lowering for rows whose permanent (or determinant) times
        the carrier W is rational, for any m.

        Each cleared entry vector v becomes v(2^e) itself where that lies
        within N/2 of 0, as a rational entry's cleared int does, else its
        least residue mod N, N = Phi_m(2^e), e = ceil((bitlen(L') + 2) /
        phi(m)) + 1 with L' = L * |w|_1 for W's integral vector w = W.num.
        (Balanced residues for every entry would cost Glynn a few percent:
        it would multiply ints of both signs.)  Glynn multiplies the row
        sums as plain ints (one reduction mod N at the end costs less than
        one per product), and Bareiss eliminates on them in Z, where its
        divisions are exact.  Lowering.lift halves mod the odd N, and the
        decode multiplies by w(2^e), takes the balanced residue v, raises
        ArithmeticError if |v| > L', and returns v W / (W^2 prod d_j den_W),
        which is v / prod d_j for W = 1, as W times one Rat of two ints.
        The matrices module docstring proves this exact for the carrier that
        its Galois check (matrices._carrier) finds; the engines take `lower`
        only where the check finds none.
        """
        m = self.m
        # W^2, which the decode divides by; a rational W needs no product.
        w = carrier.as_rational()
        square = w * w if w is not None else (carrier * carrier).as_rational()
        if not square:
            raise DomainError(f"the carrier {carrier} is no square root"
                              f" of a nonzero rational")
        scales, den, bound = clear_rows(rows)
        bound *= sum(map(abs, carrier.num))
        phi = cyclotomic_poly(m)
        e = -(-(bound.bit_length() + 2) // (len(phi) - 1)) + 1
        modulus = 0
        for c in reversed(phi):
            modulus = (modulus << e) + c
        shifts = range(0, m * e, e)
        half = modulus >> 1

        def residue(v):
            x = sum(map(lshift, v, shifts))
            return x if -half <= x <= half else x % modulus
        ints = _cleared_values(rows, scales, residue)
        twist = residue(carrier.num)
        # v / (W^2 prod d_j den_W) is Rat(v * bottom, top).
        top = int(square.numerator) * carrier.den * den
        bottom = int(square.denominator)

        def decode(value):
            v = value * twist % modulus
            if v > half:
                v -= modulus
            if abs(v) > bound:
                raise ArithmeticError(
                    f"residue mod Phi_{m}(2^{e}) exceeds its bound {bound}:"
                    f" the permanent times {carrier} is not rational")
            return carrier * Rat(v * bottom, top)
        return Lowering(ints, decode, modulus)

    def zeta(self, e: int = 1) -> Cyc:
        return Cyc.zeta(self.m, e)

    def rand(self, rng, span: int = 10):
        coeffs = [0] * self.m
        for _ in range(rng.randint(1, 3)):
            coeffs[rng.randrange(self.m)] += rng.randint(-span, span)
        return Cyc(self.m, coeffs)

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.m == self.m

    def __hash__(self):
        return hash(("CyclotomicField", self.m))


# ---------------------------------------------------------------------------
# Finite-field roots of unity
# ---------------------------------------------------------------------------

class FqRoot(NamedTuple):
    """An element of exact multiplicative order n in F_p (needs p = 1 mod n)."""

    prime: int
    element: int
    order: int

    def zeta_pow(self, e: int) -> ModInt:
        return ModInt(pow(self.element, e % self.order, self.prime), self.prime)

    def ring(self) -> ResidueRing:
        return ResidueRing(self.prime)


def find_fq_root(n: int, bound: int = 200_000) -> FqRoot:
    """Smallest prime p = 1 (mod n) under the bound, with an order-n element.

    Candidate generators are scanned in increasing order, so the result is
    deterministic.
    """
    if n < 1:
        raise DomainError(f"order must be >= 1, got {n}")
    if n == 1:
        return FqRoot(2, 1, 1)
    p = n + 1
    while p <= bound:
        if is_prime(p):
            # Factored only here, so an n past the bound is refused at once.
            cofactors = [n // ell for ell in prime_factors(n)]
            for g in range(2, p):
                c = pow(g, (p - 1) // n, p)
                if c != 1 and all(pow(c, co, p) != 1 for co in cofactors):
                    return FqRoot(p, c, n)
        p += n
    raise SearchExhaustedError(f"no prime p = 1 (mod {n}) below {bound}")
