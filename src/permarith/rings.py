"""Exact scalar arithmetic: rationals, residue rings, Laurent polynomials in q.

Every scalar is an immutable Python object supporting +, -, * (and, where it
exists, exact inversion).  A small ring-tag object describes the structure a
matrix lives over: its identities and its lowering to plain ints.
`Ring.lower(rows)` returns a Lowering: the rows of a matrix as int rows,
Glynn's row-product function and a decode from one int to a ring element,
so the Glynn and Bareiss engines add and multiply Python ints whatever the
ring.  Glynn's sum is 2^(n-1) times the permanent, and Lowering.lift(v, k)
is the one place that divides by 2^k: exactly, raising ArithmeticError on
a remainder, where the ints are exact images (modulus None), and as a
product with the inverse of 2^k where they are known only modulo an odd
modulus.  The lowerings:

* Z: the identity.
* Z/m: the least residues.  Glynn's row products are plain int products,
  so the sum is 2^k times the int permanent P of the residues, halving is
  exact for even m too, and the decode reduces P mod m.  Z -> Z/m is a
  ring map, so P and the Bareiss determinant of the residues reduce to the
  permanent and determinant in Z/m.
* Q: row j is multiplied by the common denominator d_j of its entries; the
  decode divides by prod d_j.
* Q[q,1/q]: row j is multiplied by q^(-e_j), e_j its least exponent, and by
  the common denominator d_j of its coefficients, and every entry is
  evaluated at q = 2^B (Kronecker substitution).  On Z[q] the L1 norm is
  submultiplicative, so every coefficient of a product of one entry per
  row, and of any signed sum of such products (a permanent or
  determinant), is at most L = prod_j (sum_k |row_j entry_k|_1), and its
  degree is at most the sum of the row exponent spans.  With
  B = bitlen(L) + 2 every coefficient lies in (-2^(B-2), 2^(B-2)), so the
  balanced base-2^B digits of the int that lift decodes are the
  coefficients; balanced_digits re-checks both bounds and raises
  ArithmeticError if either is broken.  The decode divides by prod d_j and
  multiplies by q^(sum e_j).
* Q(zeta_m): the engines ask the Galois check of the matrices module
  first, and take CyclotomicField.lower_rational where it finds a carrier:
  evaluation at 2^e mod the odd N = Phi_m(2^e), twisted by the carrier,
  whose decode returns the exact value (matrices module docstring).  The
  check finds one for every m <= 2 and every matrix of rational entries.
  Only where it refuses do they take cyclotomic.pack_rows and unpack, the
  ring's lowering (the same substitution, modulo the odd 2^(mB) - 1, the
  image of x^m - 1, by which Glynn's row products fold too).

Each lift is exact only for a signed sum of products of one entry per row,
which is what a permanent or a determinant is.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple

from .errors import DomainError, NonInvertibleError, UnsupportedRingError

try:
    from gmpy2 import mpq as Rat
except ImportError:  # gmpy2 is the optional `fast` extra
    from fractions import Fraction as Rat


# ---------------------------------------------------------------------------
# Int lowering helpers
# ---------------------------------------------------------------------------

_INT_ONLY = frozenset((int,))


def cleared(values) -> tuple[list[int], int]:
    """(ints, d) with values = ints / d, d their least common denominator;
    a sequence of plain ints comes back as it is, with d = 1."""
    if _INT_ONLY.issuperset(map(type, values)):
        return values, 1
    d = math.lcm(*[int(v.denominator) for v in values])
    return [int(v.numerator) * (d // int(v.denominator)) for v in values], d


def ratio(c: int, d: int):
    """c / d exactly: an int when d divides c, else a Rat."""
    q, r = divmod(c, d)
    return Rat(c, d) if r else q


class Lowering(NamedTuple):
    """A matrix's int rows, Glynn's product of int row sums, the decode of
    one int to a ring element, and the odd int the ints are known only
    modulo, or None where they are exact images (module docstring)."""

    ints: list
    decode: Callable[[int], Any]
    modulus: int | None = None
    product: Callable = math.prod

    def lift(self, v: int, k: int = 0):
        """The ring element whose image is v / 2^k."""
        modulus = self.modulus
        if modulus is not None:
            return self.decode(v * pow(2, -k, modulus) % modulus)
        q, r = divmod(v, 1 << k)
        if r:
            raise ArithmeticError(f"{v} is not divisible by 2^{k}")
        return self.decode(q)


def _power(base, k: int, one):
    """base^k for k >= 0 by square-and-multiply from the top bit of k:
    bitlen(k) - 1 squarings and popcount(k) - 1 further products, and
    `one` for k = 0."""
    if not k:
        return one
    result = base
    for bit in bin(k)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


def _show_terms(terms, var: str) -> str:
    """The sum of c * var^e over the (e, c) pairs, in their order, as text:
    "0" if every c is 0, else "1 - var + 3/2*var^2"."""
    parts = []
    for e, c in terms:
        if c != 0:
            power = var if e == 1 else f"{var}^{e}"
            parts.append(str(c) if e == 0 else power if c == 1
                         else f"-{power}" if c == -1 else f"{c!s}*{power}")
    if not parts:
        return "0"
    return parts[0] + "".join(f" - {t[1:]}" if t.startswith("-") else f" + {t}"
                              for t in parts[1:])


def balanced_digits(value: int, bits: int, count: int, bound: int) -> list[int]:
    """The `count` balanced base-2^bits digits of `value`, lowest first.

    Raises ArithmeticError if `value` needs more digits, or if a digit
    exceeds `bound` in absolute value: either means the bound that fixed
    the width was broken.
    """
    width = count * bits
    half = 1 << (bits - 1)
    # Offset every digit by 2^(bits-1) so that the balanced digits become
    # plain bit fields.
    value += half * (((1 << width) - 1) // ((1 << bits) - 1))
    if value < 0 or value >> width:
        raise ArithmeticError("Kronecker image outside the decodable range")
    mask = (1 << bits) - 1
    digits = [(value >> shift & mask) - half for shift in range(0, width, bits)]
    if max(digits) > bound or min(digits) < -bound:
        raise ArithmeticError(f"Kronecker coefficient exceeds its bound {bound}")
    return digits


# ---------------------------------------------------------------------------
# Residue rings Z/m
# ---------------------------------------------------------------------------

class ModInt:
    """Least nonnegative residue modulo a fixed integer m >= 2.

    Arithmetic between two ModInt values requires equal moduli; plain ints
    mix freely (they are reduced first).
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        if modulus < 2:
            raise DomainError(f"modulus must be >= 2, got {modulus}")
        self.value = value % modulus
        self.modulus = modulus

    def _coerce(self, other) -> "ModInt":
        if isinstance(other, ModInt):
            if other.modulus != self.modulus:
                raise DomainError(
                    f"modulus mismatch: {self.modulus} vs {other.modulus}")
            return other
        if isinstance(other, int):
            return ModInt(other, self.modulus)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ModInt(self.value + o.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ModInt(self.value - o.value, self.modulus)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ModInt(o.value - self.value, self.modulus)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ModInt(self.value * o.value, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return ModInt(-self.value, self.modulus)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return ModInt(pow(self.value, e, self.modulus), self.modulus)

    def inverse(self) -> "ModInt":
        g = math.gcd(self.value, self.modulus)
        if g != 1:
            raise NonInvertibleError(
                f"{self.value} is not invertible mod {self.modulus}")
        return ModInt(pow(self.value, -1, self.modulus), self.modulus)

    def __eq__(self, other):
        if isinstance(other, ModInt):
            return self.modulus == other.modulus and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __str__(self):
        return f"{self.value} (mod {self.modulus})"

    def __repr__(self):
        return f"ModInt({self.value}, {self.modulus})"


# ---------------------------------------------------------------------------
# Laurent polynomials in q over Q
# ---------------------------------------------------------------------------

class LPoly:
    """Laurent polynomial in q with exact rational coefficients.

    Stored as {exponent: coefficient} with no zero coefficients; exponents
    may be negative.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cleaned = {}
        if coeffs:
            for e, c in coeffs.items():
                if c != 0:
                    cleaned[int(e)] = c
        self.coeffs = cleaned

    @classmethod
    def const(cls, c) -> "LPoly":
        return cls({0: c})

    @classmethod
    def q(cls) -> "LPoly":
        return cls({1: 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def _coerce(self, other):
        if isinstance(other, LPoly):
            return other
        if isinstance(other, (int, Rat)):
            return LPoly.const(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in o.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = LPoly.__new__(LPoly)
        res.coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = LPoly.__new__(LPoly)
        res.coeffs = {e: -c for e, c in self.coeffs.items()}
        return res

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out: dict[int, Any] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in o.coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = LPoly.__new__(LPoly)
        res.coeffs = out
        return res

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative powers of a Laurent polynomial are not closed")
        return _power(self, k, LPoly.const(1))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __str__(self):
        return _show_terms(sorted(self.coeffs.items()), "q")

    def __repr__(self):
        return f"LPoly({self})"


def qint(m: int) -> LPoly:
    """q-analogue of the integer m: (1 - q^m)/(1 - q), exact for any sign of m.

    For m >= 0 this is 1 + q + ... + q^(m-1); for m < 0 it is
    -q^m - q^(m+1) - ... - q^(-1).
    """
    if m >= 0:
        return LPoly({e: 1 for e in range(m)})
    return LPoly({e: -1 for e in range(m, 0)})


# ---------------------------------------------------------------------------
# Ring tags
# ---------------------------------------------------------------------------

class Ring:
    """Commutative ring descriptor: identities and an int lowering.

    Elements themselves carry the arithmetic via operators; the tag supplies
    the attributes zero and one (ring.zero + k embeds an int k), the
    lowering the engines run on, and random elements for law testing.
    """

    name = "ring"
    is_field = False

    def rand(self, rng, span: int = 10):
        raise NotImplementedError

    def lower(self, rows) -> Lowering:
        """The Lowering of the rows of a matrix (see the module docstring)."""
        raise UnsupportedRingError(f"{self.name} has no int lowering")

    def __repr__(self):
        return f"<{self.name}>"


class IntegerRing(Ring):
    name = "Z"
    zero = 0
    one = 1

    def rand(self, rng, span: int = 10):
        return rng.randint(-span, span)

    def lower(self, rows):
        return Lowering(rows, int)


class RationalField(Ring):
    name = "Q"
    is_field = True
    zero = Rat(0)
    one = Rat(1)

    def rand(self, rng, span: int = 10):
        return Rat(rng.randint(-span, span), rng.randint(1, span))

    def lower(self, rows):
        ints = []
        den = 1
        for row in rows:
            vals, d = cleared(row)
            ints.append(vals)
            den *= d
        return Lowering(ints, lambda v: Rat(v, den))


class ResidueRing(Ring):
    """Z/m with m >= 2; a field exactly when m is prime."""

    def __init__(self, m: int):
        if m < 2:
            raise DomainError(f"modulus must be >= 2, got {m}")
        self.m = m
        self.name = f"Z/{m}"
        self.zero = ModInt(0, m)
        self.one = ModInt(1, m)
        from .ntheory import is_prime
        self.is_field = is_prime(m)

    def rand(self, rng, span: int = 10):
        return ModInt(rng.randrange(self.m), self.m)

    def lower(self, rows):
        # Plain ints are reduced; a ModInt of another modulus is refused.
        m = self.m
        coerce = self.zero._coerce
        ints = [[coerce(x).value for x in row] for row in rows]
        return Lowering(ints, lambda v: ModInt(v, m))

    def __eq__(self, other):
        return isinstance(other, ResidueRing) and other.m == self.m

    def __hash__(self):
        return hash(("ResidueRing", self.m))


def Zmod(m: int) -> ResidueRing:
    return ResidueRing(m)


def GF(p: int) -> ResidueRing:
    ring = ResidueRing(p)
    if not ring.is_field:
        raise DomainError(f"{p} is not prime")
    return ring


class LaurentRing(Ring):
    name = "Q[q,q^-1]"
    zero = LPoly()
    one = LPoly.const(1)

    def rand(self, rng, span: int = 10):
        n_terms = rng.randint(0, 3)
        return LPoly({rng.randint(-3, 3): rng.randint(-span, span)
                      for _ in range(n_terms)})

    def lower(self, rows):
        shift = span = 0
        den = bound = 1
        cleared_rows = []
        for row in rows:
            terms = [(k, e) for k, x in enumerate(row) for e in x.coeffs]
            lo = min((e for _, e in terms), default=0)
            shift += lo
            span += max((e for _, e in terms), default=lo) - lo
            vals, d = cleared([c for x in row for c in x.coeffs.values()])
            den *= d
            bound *= sum(map(abs, vals))
            cleared_rows.append((len(row), lo, terms, vals))
        bits = bound.bit_length() + 2
        ints = []
        for size, lo, terms, vals in cleared_rows:
            images = [0] * size
            for (k, e), v in zip(terms, vals):
                images[k] += v << (e - lo) * bits
            ints.append(images)

        def decode(value):
            digits = balanced_digits(value, bits, span + 1, bound)
            return LPoly({e + shift: ratio(c, den)
                          for e, c in enumerate(digits) if c})
        return Lowering(ints, decode)


ZZ = IntegerRing()
QQ = RationalField()
QPOLY = LaurentRing()
