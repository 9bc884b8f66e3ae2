"""Constructors for every structured matrix family under study.

Families are grouped by scalar ring (integer, Laurent-polynomial, cyclotomic,
rational), one builder per ring taking a family name and its parameters as
keywords; root_linear alone is also built over F_p, given an FqRoot as fq.
root_linear and root_exp_shift build each entry over Q(zeta_n) directly as
its normal-form (num, den) pair, with no field arithmetic: for x = a/b in
lowest terms, 1 + zeta^r x is (b + a zeta^r)/b (_one_plus), and
1 - zeta^j x is the same with -a.

Trigonometric families are built over Q(zeta_n) from three elements and
their inverses, each a trigonometric value times a constant (zeta =
e^(2 pi i/n)): zeta^r + zeta^-r = 2 cos(2 pi r/n), zeta^r - zeta^-r =
2i sin(2 pi r/n) and (zeta^r - 1)/(zeta^r + 1) = i tan(pi r/n).  Keeping
i out of the entries keeps every matrix over Q(zeta_n) rather than
Q(zeta_lcm(4, n)); sequences.SEQ_TABLE turns the permanent of the built
matrix into the paper's normalised value.  The difference tables sec2_diff
and tan2_diff (odd n) need no constant: sec^2(pi r/n) = 4 zeta^r/(1 +
zeta^r)^2, since (1 + zeta^r)^2/zeta^r = 2 + 2 cos(2 pi r/n), and tan^2 is
sec^2 - 1.

The tables of entries f(zeta^r) come from conjugates: f has rational
coefficients, so f(zeta^(g*u)) = sigma_u(f(zeta^g)) for a unit u, and f is
evaluated (with its inverses) once per divisor g = gcd(r, n); the other
residues are Galois conjugates, which only permute the exponent lattice.
The six [f(zeta^(jk))] families (cos2, sec2, sin2, csc2, tan_jk, cot_jk)
build T(1..h) that way and set T(n - r) = JK_SIGN[family] * T(r) as the
same coefficient list, the symmetry matrices.per_orbits relies on.  The
difference families (sec2_diff, tan2_diff, recip_root_diff, cot_ratio)
build their tables the same way: sigma_a maps their entry at j - k to the
one at a*j - a*k, so their determinants run on one residue per entry (see
matrices).
"""

from __future__ import annotations

import math

from .cyclotomic import CyclotomicField, _cyc
from .errors import DomainError, SingularFamilyError
from .matrices import Mat
from .ntheory import is_prime
from .rings import QPOLY, QQ, ZZ, ModInt, Rat, qint


def _require(cond: bool, family: str, msg: str):
    if not cond:
        raise DomainError(f"{family}: {msg}")


# ---------------------------------------------------------------------------
# Integer families
# ---------------------------------------------------------------------------

def build_integer(family: str, **params) -> Mat:
    if family == "floor_shift":
        n = params["n"]
        _require(n >= 1, family, f"n must be >= 1, got {n}")
        return Mat.from_fn(ZZ, n, lambda j, k: (j + k - 1) // n)
    if family == "abs":
        n, shift = params["n"], params.get("shift", 0)
        _require(n >= 1, family, f"n must be >= 1, got {n}")
        _require(shift in (0, 1), family, f"shift must be 0 or 1, got {shift}")
        return Mat.from_fn(ZZ, n, lambda j, k: abs(j - k + shift))
    if family == "floor_2jk":
        n = params["n"]
        _require(n >= 1, family, f"n must be >= 1, got {n}")
        return Mat.from_fn(ZZ, n, lambda j, k: (2 * j - k) // n)
    raise DomainError(f"unknown integer family {family!r}")


# ---------------------------------------------------------------------------
# Laurent-polynomial families
# ---------------------------------------------------------------------------

def build_qpoly(family: str, **params) -> Mat:
    n = params["n"]
    _require(n >= 1, family, f"n must be >= 1, got {n}")
    if family == "qfloor":
        index = lambda j, k: (j + k) // n
    elif family == "qabs":
        shift = params.get("shift", 0)
        _require(shift in (0, 1), family, f"shift must be 0 or 1, got {shift}")
        index = lambda j, k: abs(j - k + shift)
    elif family == "qfloor_gen":
        a = params["a"]
        index = lambda j, k: (a * j - (a + 1) * k) // n
    elif family == "qceil_gen":
        a = params["a"]
        index = lambda j, k: -((-((a + 1) * j - a * k)) // n)
    else:
        raise DomainError(f"unknown q-polynomial family {family!r}")
    rows = [[index(j, k) for k in range(1, n + 1)] for j in range(1, n + 1)]
    # Each entry is [m]_q; LPoly is immutable, so one m shares one LPoly.
    table = {m: qint(m) for m in {m for row in rows for m in row}}
    return Mat(QPOLY, [[table[m] for m in row] for row in rows])


# ---------------------------------------------------------------------------
# Cyclotomic families
# ---------------------------------------------------------------------------

def conjugates(ring: CyclotomicField, residues, f) -> dict:
    """{r: f(r)} for f(r) = F(zeta^r), F a rational function with rational
    coefficients, evaluating F once per g = gcd(r, m).

    With r = g*u for a unit u mod m, F(zeta^r) = sigma_u(F(zeta^g)), and
    sigma_u (Cyc.galois) only permutes the exponent lattice.
    """
    m = ring.m
    base = {}
    table = {}
    for r in residues:
        g = math.gcd(r, m)
        if g not in base:
            base[g] = f(g)
        u = r // g
        while math.gcd(u, m) != 1:  # a unit mod m that is r/g mod m/g
            u += m // g
        table[r] = base[g].galois(u)
    return table


# f(zeta^-r) = JK_SIGN[family] * f(zeta^r) for the [f(zeta^(jk))] families.
JK_SIGN = {"cos2": 1, "sec2": 1, "sin2": -1, "csc2": -1, "tan_jk": -1,
           "cot_jk": -1}


def _jk_entry(family: str, ring: CyclotomicField, r: int):
    # The built entry of a [f(zeta^(jk))] family at residue r.
    z, z_inv = ring.zeta(r), ring.zeta(-r)
    if family == "cos2":
        return z + z_inv
    if family == "sec2":
        return (z + z_inv).inverse()
    if family == "sin2":
        return z - z_inv
    if family == "csc2":
        return (z - z_inv).inverse()
    if family == "tan_jk":
        return (z - 1) * (z + 1).inverse()
    return (z + 1) * (z - 1).inverse()  # cot_jk


def _one_plus(n: int, r: int, a: int, b: int):
    # 1 + zeta^r a/b = (b + a zeta^r)/b over Q(zeta_n) for a/b in lowest
    # terms, in normal form as built: gcd(b, a) = 1, and gcd(b, b + a) = 1
    # where r = 0 mod n.
    num = [0] * n
    num[0] = b
    num[r % n] += a
    return _cyc(n, num, b)


def build_cyclotomic(family: str, **params) -> Mat:
    n = params["n"]
    _require(n >= 1, family, f"n must be >= 1, got {n}")

    if family == "root_linear":
        xs = params["x"]
        _require(len(xs) == n, family, f"need {n} values x_1..x_n")
        fq = params.get("fq")
        if fq is not None:
            # Over F_p: zeta is fq's element of order n, the x's are ints,
            # and each entry is the least residue of 1 - zeta^j x.
            p = fq.prime
            zs = [fq.zeta_pow(j).value for j in range(1, n + 1)]
            xs = [int(x) for x in xs]
            return Mat(fq.ring(), [[ModInt(1 - z * x, p) for x in xs]
                                   for z in zs])
        # 1 - zeta^j x is 1 + zeta^j (-x).
        pairs = [(-int(x.numerator), int(x.denominator)) for x in xs]
        return Mat(CyclotomicField(n),
                   [[_one_plus(n, j, a, b) for a, b in pairs]
                    for j in range(1, n + 1)])

    if family == "root_exp_shift":
        _require(n >= 2, family, f"n must be >= 2, got {n}")
        x = params["x"]
        a, b = int(x.numerator), int(x.denominator)
        table = [_one_plus(n, r, a, b) for r in range(n)]
        return Mat(CyclotomicField(n),
                   [[table[(j + k) % n] for k in range(1, n)]
                    for j in range(1, n)])

    if family == "cauchy_root":
        x = params["x"]
        if x ** n == 1:
            raise SingularFamilyError(f"{family}: x^n = 1 for x={x}, n={n}")
        ring = CyclotomicField(n)
        table = conjugates(ring, range(n),
                           lambda r: (1 - ring.zeta(r) * x).inverse())
        return Mat(ring, [[table[(j - k) % n] for k in range(1, n + 1)]
                          for j in range(1, n + 1)])

    if family == "tan_shift":
        _require(n % 2 == 1 and n >= 3, family, f"n must be odd >= 3, got {n}")
        ring = CyclotomicField(n)
        table = conjugates(ring, range(n),
                           lambda r: _jk_entry("tan_jk", ring, r))
        return Mat(ring, [[table[(j + k) % n] for k in range(1, n)]
                          for j in range(1, n)])

    if family in JK_SIGN:
        _require(n % 2 == 1 and n >= 3, family, f"n must be odd >= 3, got {n}")
        prime = is_prime(n)
        if family in ("csc2", "cot_jk"):
            _require(prime, family,
                     f"n must be prime (composite n hits zero entries), got {n}")
        h = (n - 1) // 2
        ring = CyclotomicField(n)
        # T[0] = f(1) is an entry only when n is composite.
        table = conjugates(ring, range(1 if prime else 0, h + 1),
                           lambda r: _jk_entry(family, ring, r))
        for r in range(1, h + 1):
            table[n - r] = table[r] if JK_SIGN[family] > 0 else -table[r]
        return Mat(ring, [[table[(j * k) % n] for k in range(1, h + 1)]
                          for j in range(1, h + 1)])

    if family in ("sec2_diff", "tan2_diff"):
        _require(n % 2 == 1, family, f"n must be odd, got {n}")
        ring = CyclotomicField(n)

        def entry(r):
            # sec^2(pi r/n) (see above): 1 + zeta^r is a binomial, nonzero
            # for odd n, so it inverts in O(n).
            z = ring.zeta(r)
            sec2 = z * (1 + z).inverse() ** 2 * 4
            return sec2 - 1 if family == "tan2_diff" else sec2
        table = conjugates(ring, range(n), entry)
        return Mat(ring, [[table[(j - k) % n] for k in range(1, n + 1)]
                          for j in range(1, n + 1)])

    if family in ("recip_root_diff", "cot_ratio"):
        size = params.get("size", n if family == "recip_root_diff" else n - 1)
        _require(size in (n, n - 1), family,
                 f"size must be n or n-1, got {size}")
        _require(size >= 1, family, "empty matrix")
        ring = CyclotomicField(n)

        def entry(r):
            recip = (1 - ring.zeta(r)).inverse()
            return recip if family == "recip_root_diff" else (
                (1 + ring.zeta(r)) * recip)
        table = conjugates(ring, range(1, n), entry)
        zero = ring.zero
        return Mat(ring, [[zero if j == k else table[(j - k) % n]
                           for k in range(1, size + 1)]
                          for j in range(1, size + 1)])

    raise DomainError(f"unknown cyclotomic family {family!r}")


# ---------------------------------------------------------------------------
# Rational families
# ---------------------------------------------------------------------------

def build_rational(family: str, **params) -> Mat:
    p = params["p"]
    _require(is_prime(p) and p % 2, family, f"p must be an odd prime, got {p}")
    zero = Rat(0)
    if family == "inv_sum_sq":
        _require(p % 4 == 3, family,
                 f"p = 3 (mod 4) keeps j^2+k^2 off zero, got p={p}")
        h = (p - 1) // 2
        return Mat(QQ, [[Rat(1, j * j + k * k) for k in range(1, h + 1)]
                        for j in range(1, h + 1)])
    if family == "recip_ajk":
        a = params["a"]
        return Mat(QQ, [[zero if (a + j * k) % p == 0 else Rat(1, a + j * k)
                         for k in range(1, p)] for j in range(1, p)])
    if family == "recip_aj_k":
        a = params["a"]
        _require(a % p != 0, family, f"a must be nonzero mod p, got a={a}")
        return Mat(QQ, [[zero if (a * j + k) % p == 0 else Rat(1, a * j + k)
                         for k in range(1, p + 1)] for j in range(1, p + 1)])
    if family == "inv_sqdiff":
        h = (p - 1) // 2
        _require(h >= 1, family, "empty matrix")
        return Mat(QQ, [[zero if j == k else Rat(1, j * j - k * k)
                         for k in range(1, h + 1)] for j in range(1, h + 1)])
    raise DomainError(f"unknown rational family {family!r}")
