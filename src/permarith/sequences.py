"""Named exact sequences built from permanents of the trigonometric families.

Each value is the permanent of a families.build_cyclotomic matrix over
Q(zeta_n), times W^e for the Gauss-sum carrier W = sqrt_element(n) =
i^h sqrt(n), h = (n-1)/2, and e in {-1, 0, 1} (SEQ_TABLE says which).
matrices.per_ryser chooses the engine: the orbit sum for the six
[f(zeta^(jk))] families, whose tables are symmetric, and Glynn's sum for
T, each on one residue per entry, twisted by W where the Galois check
finds the table's character.  Each row of SEQ_TABLE refuses an index past
its timed limit before building anything.
Integrality is a theorem for T, c, s, s', t, t'; the code checks that the
result is rational at recognition time and treats failure as an arithmetic
bug.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import gcd
from typing import NamedTuple

from .cyclotomic import Cyc, sqrt_element
from .errors import DomainError, NonRationalResultError, SizeLimitError
from .families import build_cyclotomic, build_rational
from .matrices import det_field, per_ryser
from .ntheory import is_prime, mod_reduce_rat
from .rings import ModInt, Rat

SEQ_NAMES = ("T", "c", "cprime", "d", "s", "sprime", "t", "tprime")


class SeqValue(NamedTuple):
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


def _resolve(P: Cyc, w_exp: int, alternating: bool, n: int) -> Rat:
    """Exact value of W^w_exp * P, times (-1)^h if alternating.

    W = i^h sqrt(n) with h = (n-1)/2, so W^2 = (-1)^h n and
    1/W = (-1)^h W / n.
    """
    h = (n - 1) // 2
    if w_exp == 0:
        r = _rational_of(P)
    else:
        r = _rational_of(P * sqrt_element(n))
        if w_exp == -1:
            r = Rat(r, n)
            alternating = not alternating
    return -r if alternating and h % 2 else r


def _check_domain(name: str, n: int, prime_only: bool = False):
    if n < 3 or n % 2 == 0 or (prime_only and not is_prime(n)):
        what = "odd primes" if prime_only else "odd n >= 3"
        raise DomainError(f"{name} is defined for {what}, got {n}")


# name -> (family, exponent e of W, times (-1)^h, prime index only, largest
# index), for
#   T       per[tan pi (j+k)/n], 1 <= j,k <= n-1
#   c       2^h per[cos 2 pi jk/n], 1 <= j,k <= h
#   cprime  2^-h per[sec 2 pi jk/n]; rational, denominator divides 2^(d_n)
#   s       (2^h / sqrt(n)) per[sin 2 pi jk/n]
#   sprime  (sqrt(p) / 2^h) per[csc 2 pi jk/p]
#   t       (1 / sqrt(n)) per[tan pi jk/n]
#   tprime  sqrt(p) per[cot pi jk/p]
# All but cprime are integers on their domain.  The built entries are these
# times 2 (cos), 1/2 (sec), 2i (sin), 1/(2i) (csc), i (tan) or 1/i (cot),
# one factor per row, so each value is W^e per[built matrix]; T's n-1 rows
# give i^(n-1) = (-1)^h.
#
# A jk row's largest index is the last n whose value takes about 0.5 s or
# less on one residue mod Phi_n(2^e) (the twisted rational lowering), timed
# from a fresh process on a 2-core x86-64 machine (Python 3.11, Fraction
# backend): all six take 0.23-0.48 s at 37 and 0.67-1.25 s at 39 (sprime
# and tprime, prime indices only, 2.2-2.6 s at 41), about 3x more per step
# of n, of which _orbits' walk over the 2^18 masks takes about 0.13 s at
# 37.  T keeps 19, its limit before the rational lowering: with no orbit
# symmetry, only the mirror one, its Glynn sum takes about 2^(n-3) products
# of n - 1 row sums (residues mod Phi_n(2^e)), and T(17) takes 0.10 s,
# T(19) 0.56-0.77 s and T(21) about 2.9 s: the products of these long
# residues, not the loop, set its time.
SEQ_TABLE = {
    "T": ("tan_shift", 0, True, False, 19),
    "c": ("cos2", 0, False, False, 37),
    "cprime": ("sec2", 0, False, False, 37),
    "s": ("sin2", -1, False, False, 37),
    "sprime": ("csc2", 1, False, True, 37),
    "t": ("tan_jk", -1, False, False, 37),
    "tprime": ("cot_jk", 1, False, True, 37),
}


def _table_value(name: str, n: int) -> SeqValue:
    """Evaluate one row of SEQ_TABLE at index n."""
    family, w_exp, alternating, prime_only, top = SEQ_TABLE[name]
    _check_domain(name, n, prime_only)
    # Refuse before building: the table's inverses in Q(zeta_n) alone cost
    # seconds at n in the hundreds.
    if n > top:
        raise SizeLimitError(f"{name} limited to n <= {top}, got n = {n}")
    val = _resolve(per_ryser(build_cyclotomic(family, n=n)), w_exp,
                   alternating, n)
    bound = None
    if name == "cprime":
        bound = 1 << int(seq_d(n).value)
        if bound % val.denominator != 0:
            raise NonRationalResultError(
                f"denominator {val.denominator} exceeds bound {bound} for n={n}")
    return SeqValue(name, n, val, val.denominator == 1, bound)


def d_adjacency(n: int) -> dict[int, range]:
    """j -> the k in 1..(n-1)/2 with n | jk, ascending, for j in 1..(n-1)/2:
    the multiples of n/gcd(j, n), about gcd(j, n)/2 of them, in place of
    (n-1)/2 tests of j*k mod n per j."""
    h = (n - 1) // 2
    steps = {j: n // gcd(j, n) for j in range(1, h + 1)}
    return {j: range(m, h + 1, m) for j, m in steps.items()}


# d's largest index.  The matching's time follows the divisors of n more
# than n: the slowest odd n found at or below it, the records of
# sum_j gcd(j, n), take 0.43-0.47 s (79695 = 3^2 5 7 11 23, 80325 =
# 3^3 5^2 7 17), 85995 takes 0.49-0.53 s and 135135 1.7 s (seq_d called in
# a fresh process on a 2-core x86-64 machine, Python 3.11).
D_LIMIT = 85001


@lru_cache(maxsize=None)
def seq_d(n: int) -> SeqValue:
    """Largest number of positions j with n | j*tau(j) over permutations tau.

    Equals the maximum matching of the bipartite graph on pairs (j, k) with
    n | jk, 1 <= j,k <= (n-1)/2: any partial matching extends to a full
    permutation, so the two maxima coincide.  Refuses n > D_LIMIT.
    """
    _check_domain("d", n)
    if n > D_LIMIT:
        raise SizeLimitError(f"d limited to n <= {D_LIMIT}, got n = {n}")
    adj = d_adjacency(n)
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


_SEQ_FN = {name: lru_cache(maxsize=None)(partial(_table_value, name))
           for name in SEQ_TABLE}
_SEQ_FN["d"] = seq_d
seq_T, seq_c, seq_c_prime, seq_s, seq_s_prime, seq_t, seq_t_prime = (
    _SEQ_FN[name] for name in ("T", "c", "cprime", "s", "sprime", "t",
                               "tprime"))


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
        mat = build_cyclotomic("recip_root_diff", n=n, size=size)
        return _rational_of(per_ryser(mat))
    if variant == "signed_recip":
        if n % 2 == 0:
            raise DomainError("signed_recip variant needs odd n")
        mat = build_cyclotomic("recip_root_diff", n=n, size=n - 1)
        return _rational_of(det_field(mat))
    if variant == "signed_cot_ratio":
        if n % 2 == 0:
            raise DomainError("signed_cot_ratio variant needs odd n")
        mat = build_cyclotomic("cot_ratio", n=n, size=n - 1)
        return _rational_of(det_field(mat))
    if variant == "signed_recip_full":
        mat = build_cyclotomic("recip_root_diff", n=n, size=n)
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
