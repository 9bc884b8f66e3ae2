"""Named exact sequences built from permanents of the trigonometric families.

Each value is a permanent over Q(zeta_n) followed by one scale-resolution
step: powers of 2 fold into the rational result, powers of i collapse to a
sign (they are always even here), and sqrt(n) is multiplied away through the
Gauss-sum carrier W = i^((n-1)/2) sqrt(n), using W^2 = (-1)^((n-1)/2) n.
Integrality is a theorem for T, c, s, s', t, t'; the code asserts it at
recognition time and treats failure as an arithmetic bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import Cyc, sqrt_element
from .errors import DomainError, NonRationalResultError
from .families import build_cyclotomic, build_rational
from .matrices import det_field, per_ryser
from .ntheory import is_prime, mod_reduce_rat
from .rings import ModInt, Rat

SEQ_NAMES = ("T", "c", "cprime", "d", "s", "sprime", "t", "tprime")


@dataclass(frozen=True)
class SeqValue:
    name: str
    index: int
    value: Rat
    is_integer: bool
    denominator_bound: int | None = None


def _rational_of(z: Cyc) -> Rat:
    r = z.as_rational()
    if r is None:
        raise NonRationalResultError(
            "permanent did not recognize as rational; arithmetic bug")
    return r


def _resolve(P: Cyc, pow2: int, ipow: int, sqrt_exp: int, n: int) -> Rat:
    """Exact value of 2^pow2 * i^ipow * sqrt(n)^sqrt_exp * P.

    With W = i^h sqrt(n) (h = (n-1)/2): sqrt(n)^e = W^e * i^(-e*h), so the
    total i-power is ipow - e*h; by construction it is always even, i.e. a
    sign.  1/W = W * (-1)^h / n.
    """
    h = (n - 1) // 2
    if sqrt_exp == 0:
        b = ipow % 4
        r = _rational_of(P)
    else:
        b = (ipow - sqrt_exp * h) % 4
        r = _rational_of(P * sqrt_element(n))
        if sqrt_exp == -1:
            r = -r if h % 2 else r
            r = Rat(r, n)
    if b % 2:
        raise NonRationalResultError(f"odd residual power of i ({b})")
    if b == 2:
        r = -r
    if pow2 > 0:
        r = r * (1 << pow2)
    elif pow2 < 0:
        r = Rat(r, 1 << (-pow2))
    return Rat(r)


def _check_odd(name: str, n: int):
    if n < 3 or n % 2 == 0:
        raise DomainError(f"{name} is defined for odd n >= 3, got {n}")


def _check_odd_prime(name: str, p: int):
    if p < 3 or not is_prime(p):
        raise DomainError(f"{name} is defined for odd primes, got {p}")


@lru_cache(maxsize=None)
def seq_T(n: int) -> SeqValue:
    """per[tan pi (j+k)/n] over 1 <= j,k <= n-1; an integer for odd n > 1."""
    _check_odd("T", n)
    mat, scale = build_cyclotomic("tan_shift", n=n)
    val = _resolve(per_ryser(mat), scale.pow2, scale.ipow, 0, n)
    return SeqValue("T", n, val, val.denominator == 1)


@lru_cache(maxsize=None)
def seq_c(n: int) -> SeqValue:
    """2^((n-1)/2) per[cos 2 pi jk/n] over 1 <= j,k <= (n-1)/2; an integer."""
    _check_odd("c", n)
    h = (n - 1) // 2
    mat, scale = build_cyclotomic("cos2", n=n)
    val = _resolve(per_ryser(mat), scale.pow2 + h, scale.ipow, 0, n)
    return SeqValue("c", n, val, val.denominator == 1)


@lru_cache(maxsize=None)
def seq_c_prime(n: int) -> SeqValue:
    """2^(-(n-1)/2) per[sec 2 pi jk/n]; rational with denominator | 2^(d_n)."""
    _check_odd("cprime", n)
    h = (n - 1) // 2
    mat, scale = build_cyclotomic("sec2", n=n)
    val = _resolve(per_ryser(mat), scale.pow2 - h, scale.ipow, 0, n)
    bound = 1 << int(seq_d(n).value)
    if bound % val.denominator != 0:
        raise NonRationalResultError(
            f"denominator {val.denominator} exceeds bound {bound} for n={n}")
    return SeqValue("cprime", n, val, val.denominator == 1, int(bound))


@lru_cache(maxsize=None)
def seq_d(n: int) -> SeqValue:
    """Largest number of positions j with n | j*tau(j) over permutations tau.

    Equals the maximum matching of the bipartite graph on pairs (j, k) with
    n | jk, 1 <= j,k <= (n-1)/2: any partial matching extends to a full
    permutation, so the two maxima coincide.
    """
    _check_odd("d", n)
    h = (n - 1) // 2
    adj = {j: [k for k in range(1, h + 1) if (j * k) % n == 0]
           for j in range(1, h + 1)}
    matched: dict[int, int] = {}

    def augment(j: int, seen: set) -> bool:
        for k in adj[j]:
            if k not in seen:
                seen.add(k)
                if k not in matched or augment(matched[k], seen):
                    matched[k] = j
                    return True
        return False

    size = sum(1 for j in adj if adj[j] and augment(j, set()))
    return SeqValue("d", n, Rat(size), True)


@lru_cache(maxsize=None)
def seq_s(n: int) -> SeqValue:
    """(2^((n-1)/2)/sqrt(n)) per[sin 2 pi jk/n]; an integer for odd n > 1."""
    _check_odd("s", n)
    h = (n - 1) // 2
    mat, scale = build_cyclotomic("sin2", n=n)
    val = _resolve(per_ryser(mat), scale.pow2 + h, scale.ipow, -1, n)
    return SeqValue("s", n, val, val.denominator == 1)


@lru_cache(maxsize=None)
def seq_s_prime(p: int) -> SeqValue:
    """(sqrt(p)/2^((p-1)/2)) per[csc 2 pi jk/p]; an integer for odd prime p."""
    _check_odd_prime("sprime", p)
    h = (p - 1) // 2
    mat, scale = build_cyclotomic("csc2", n=p)
    val = _resolve(per_ryser(mat), scale.pow2 - h, scale.ipow, +1, p)
    return SeqValue("sprime", p, val, val.denominator == 1)


@lru_cache(maxsize=None)
def seq_t(n: int) -> SeqValue:
    """(1/sqrt(n)) per[tan pi jk/n]; an integer for odd n > 1."""
    _check_odd("t", n)
    mat, scale = build_cyclotomic("tan_jk", n=n)
    val = _resolve(per_ryser(mat), scale.pow2, scale.ipow, -1, n)
    return SeqValue("t", n, val, val.denominator == 1)


@lru_cache(maxsize=None)
def seq_t_prime(p: int) -> SeqValue:
    """sqrt(p) * per[cot pi jk/p]; an integer for odd prime p."""
    _check_odd_prime("tprime", p)
    mat, scale = build_cyclotomic("cot_jk", n=p)
    val = _resolve(per_ryser(mat), scale.pow2, scale.ipow, +1, p)
    return SeqValue("tprime", p, val, val.denominator == 1)


_SEQ_FN = {
    "T": seq_T, "c": seq_c, "cprime": seq_c_prime, "d": seq_d,
    "s": seq_s, "sprime": seq_s_prime, "t": seq_t, "tprime": seq_t_prime,
}


def sequence_value(name: str, index: int) -> SeqValue:
    """Evaluate a named sequence; raises DomainError outside its domain."""
    if name not in _SEQ_FN:
        raise DomainError(f"unknown sequence {name!r}; choose from {SEQ_NAMES}")
    return _SEQ_FN[name](index)


# ---------------------------------------------------------------------------
# Derangement sums and masked permutation sums
# ---------------------------------------------------------------------------

DERANGEMENT_VARIANTS = (
    "unsigned_recip",      # sum over D 1/prod(1 - zeta^(j - tau(j)))
    "signed_recip",        # same with sign(tau), size n-1 (odd n)
    "signed_cot_ratio",    # sign(tau) * prod (1+zeta^(j-tau))/(1-zeta^(j-tau))
    "signed_recip_full",   # sign(tau) over D(n), size n
)


@lru_cache(maxsize=None)
def derangement_sum(n: int, variant: str) -> Rat:
    """Exact derangement-restricted sums over Q(zeta_n).

    A zero diagonal makes every fixed point kill its term, so per/det of the
    zero-diagonal matrix realize the unsigned/signed sums.
    """
    if n < 2:
        raise DomainError(f"derangement sums need n >= 2, got {n}")
    if variant == "unsigned_recip":
        size = n if n % 2 == 0 else n - 1
        mat, _ = build_cyclotomic("recip_root_diff", n=n, size=size)
        return _rational_of(per_ryser(mat))
    if variant == "signed_recip":
        if n % 2 == 0:
            raise DomainError("signed_recip variant needs odd n")
        mat, _ = build_cyclotomic("recip_root_diff", n=n, size=n - 1)
        return _rational_of(det_field(mat))
    if variant == "signed_cot_ratio":
        if n % 2 == 0:
            raise DomainError("signed_cot_ratio variant needs odd n")
        mat, _ = build_cyclotomic("cot_ratio", n=n, size=n - 1)
        return _rational_of(det_field(mat))
    if variant == "signed_recip_full":
        mat, _ = build_cyclotomic("recip_root_diff", n=n, size=n)
        return _rational_of(det_field(mat))
    raise DomainError(f"unknown variant {variant!r}")


def masked_sum(p: int, a: int, signed: bool, family: str = "recip_ajk") -> ModInt:
    """Permutation sums with p-divisible denominators excluded, mod p^2.

    Masked cells are exact zeros, so per/det of the masked matrix equal the
    restricted sums; all surviving denominators are units mod p^2.
    """
    if family not in ("recip_ajk", "recip_aj_k"):
        raise DomainError(f"masked_sum family must be recip_ajk or recip_aj_k")
    mat = build_rational(family, p=p, a=a)
    val = det_field(mat) if signed else per_ryser(mat)
    return mod_reduce_rat(val, p * p)
