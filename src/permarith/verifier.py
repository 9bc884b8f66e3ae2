"""Registry of executable identity/congruence checks producing Reports.

Each check id maps to a runner that computes both sides of one claim
exactly and compares, built at the _register call that states the claim.
28 of the 46 claims have one shape, "each value equals its closed form,
mod p^k where stated, unless a SKIP rule applies", and one runner,
_claim: its labelled (value, want) pairs are functions of the check's
parameters by name, and its SKIP rules are (in_claim, note) data.
run_check is the one gate for parameters: it refuses keys other than the
check's grid keys and ints too long to print, SKIPs values of the wrong
type, then sizes past the check's limit, then a p that is not an odd
prime, before any runner starts.  Theorem-tier ids gate exit codes;
conjecture-tier ids (conj.*) report consistency evidence only.
Congruence checks compute the permanent exactly over Z or Q and reduce
afterwards.  In the rank-2 d-grids per[u_j + d*u_k], u_j = j^e for
lo <= j < hi stated at the _register call, is one degree-n polynomial in
d: its integer coefficients C_i = i!(n-i)! e_i(u) e_(n-i)(u) are built
once per (lo, hi, e) by per_sum_coeffs in O(n^2) int operations, and each
d is one Horner evaluation.  The three random-x permanents of thper.jxk
go through per_sum_values, the same closed form at d = 1 with one
elementary symmetric pass over u = 1..p-1.
"""

from __future__ import annotations

import math
import random
import sys
import time
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

from .cyclotomic import (Cyc, CyclotomicField, find_fq_root, gauss_sum,
                         sqrt_element)
from .errors import (DomainError, SearchExhaustedError, SingularFamilyError,
                     SizeLimitError, UnknownCheckError, UnsupportedRingError)
from .families import (build_cyclotomic, build_integer, build_qpoly,
                       build_rational)
from .matrices import (RYSER_LIMIT, Mat, det_divfree, det_field, per_ryser,
                       per_sum_coeffs, per_sum_values)
from .ntheory import (bernoulli, double_factorial, factorial, inv_mod,
                      is_prime, jacobi, mod_reduce_rat, odd_primes_upto)
from .rings import QQ, LPoly, ModInt, Rat
from .sequences import (SEQ_TABLE, derangement_sum, masked_sum, seq_c,
                        seq_c_prime, seq_d, seq_s, seq_s_prime, seq_t,
                        seq_t_prime, seq_T, sequence_value)

FAST, FULL = "fast", "full"
TIERS = (FAST, FULL)


class SkipCheck(Exception):
    """Raised by a runner when parameters fall outside the claim's domain."""


class Report(NamedTuple):
    check_id: str
    params: dict
    status: str            # PASS | FAIL | SKIP
    computed: str = ""
    expected: str = ""
    modulus: str | None = None
    ms: float = 0.0
    kind: str = "theorem"
    note: str | None = None

    def sort_key(self):
        return (self.check_id, param_str(self.params))

    def row(self) -> dict:
        """The JSON row; timing is left out so that reruns are identical."""
        return {"id": self.check_id, "params": self.params,
                "status": self.status, "computed": self.computed,
                "expected": self.expected, "modulus": self.modulus,
                "kind": self.kind, "note": self.note}


def param_str(params: dict) -> str:
    return ",".join(f"{k}={params[k]}" for k in sorted(params))


class Item(NamedTuple):
    computed: str
    expected: str
    ok: bool
    label: str | None = None


def _eq(got, want, label=None) -> Item:
    return Item(str(got), str(want), got == want, label)


def _true(flag: bool, computed: str, expected: str, label=None) -> Item:
    return Item(computed, expected, bool(flag), label)


def _int_item(value: Rat, label: str) -> Item:
    return Item(str(value), "integer", value.denominator == 1, label)


class _Rng:
    """random.Random(text), seeded when a runner first reads it: seeding
    costs more than most checks, and only five runners draw anything."""

    def __init__(self, text: str):
        self.text = text

    @cached_property
    def stream(self) -> random.Random:
        return random.Random(self.text)

    def __getattr__(self, name):
        return getattr(self.stream, name)


def _rng(seed, check_id, params) -> _Rng:
    return _Rng(f"{seed}|{check_id}|{param_str(params)}")


# ---------------------------------------------------------------------------
# The claim runner: each value equals its closed form, mod p^k where stated
# ---------------------------------------------------------------------------

def _mod(value, m: int) -> int:
    if isinstance(value, int):
        return value % m
    return mod_reduce_rat(value, m).value


def _claim(*pairs, power=None, skip=()):
    """Runner: value = want for each pair, (value, want) or (label, value,
    want); mod p^power where power is given.  skip holds (in_claim, note)
    rules: the first rule whose in_claim is false makes the check a SKIP
    with its note.  Every function takes the check's parameters, each
    naming them alike and in the same order."""
    pairs = [pair if len(pair) == 3 else (None, *pair) for pair in pairs]
    fns = [f for pair in pairs for f in pair[1:]] + [rule[0] for rule in skip]
    # One parameter list for every function, or the unpacking fails.
    (keys,) = {f.__code__.co_varnames[:f.__code__.co_argcount] for f in fns}

    def run(params, rng):
        args = [params[key] for key in keys]
        for in_claim, note in skip:
            if not in_claim(*args):
                raise SkipCheck(note)
        m = None if power is None else params["p"] ** power
        items = []
        for label, value, want in pairs:
            got, exp = value(*args), want(*args)
            if m is not None:
                got, exp = _mod(got, m), _mod(exp, m)
            items.append(_eq(got, exp, label))
        return items, None if m is None else str(m), None
    return run


_ODD_N = (lambda n: n % 2, "claim requires odd n")
_D_UNIT = (lambda p, d: d % p, "claim requires d not divisible by p")
_P_OVER_3 = (lambda p, d: p > 3, "claim requires p > 3")


def _congruent_pair(name: str):
    """The claim name(p) = (-1)^((p+1)/2), (name + "prime")(p) = 1 (mod p)."""
    return _claim((name, lambda p: sequence_value(name, p).value,
                   lambda p: (-1) ** ((p + 1) // 2)),
                  (name + "'",
                   lambda p: sequence_value(name + "prime", p).value,
                   lambda p: 1), power=1)


# The rank-2 d-grids: per[u_j + d*u_k] with u_j = j^e for lo <= j < hi is
# one degree-n polynomial in d.  Its coefficient vector is cached per
# (lo, hi, e), so checks over the same u share it, and each d is one Horner
# evaluation.

@lru_cache(maxsize=None)
def _per_coeffs(lo: int, hi: int, e: int) -> tuple[int, ...]:
    u = [j ** e for j in range(lo, hi)]
    return per_sum_coeffs(u, u)


def _structured_per(lo: int, hi: int, e: int, d: int) -> int:
    acc = 0
    for c in reversed(_per_coeffs(lo, hi, e)):
        acc = acc * d + c
    return acc


# ---------------------------------------------------------------------------
# Runners of the other claims (each returns (items, modulus, note))
# ---------------------------------------------------------------------------

def _integral_pair(name: str):
    """Runner: name(n) and, for prime n where SEQ_TABLE has the row,
    (name + "prime")(n) are integers."""
    def run(params, rng):
        n = params["n"]
        items = [_int_item(sequence_value(name, n).value, f"{name}({n})")]
        if name + "prime" in SEQ_TABLE and is_prime(n):
            items.append(_int_item(sequence_value(name + "prime", n).value,
                                   f"{name}'({n})"))
        return items, None, None
    return run


def _run_thq_det(params, rng):
    n = params["n"]
    items = [_eq(det_divfree(build_integer("floor_shift", n=n)),
                 (-1) ** (n * (n - 1) // 2), "int")]
    if n > 1:
        want = LPoly({1: (-1) ** (n * (n + 1) // 2 - 1)})
        items.append(_eq(det_divfree(build_qpoly("qfloor", n=n)), want, "q"))
    return items, None, None


# Each backend's largest n (see the timing comment above the registry).  The
# runner checks them after the fq root search, so that its SKIP still shows;
# a registry limit would come first.
ROOTLINEAR_LIMITS = {"cyc": 14, "fq": 16}


def _rootlinear_want(xs) -> Rat:
    # n! (1 - x_1...x_n) for x_k = a_k/b_k, over the one denominator prod b_k.
    tops = math.prod(int(x.numerator) for x in xs)
    bottoms = math.prod(int(x.denominator) for x in xs)
    return Rat(factorial(len(xs)) * (bottoms - tops), bottoms)


def _run_rootlinear(params, rng):
    n, backend = params["n"], params["backend"]
    if backend not in ROOTLINEAR_LIMITS:
        raise DomainError(f"unknown backend {backend!r}")
    if backend == "fq":
        root = find_fq_root(n)
    top = ROOTLINEAR_LIMITS[backend]
    if n > top:
        raise SizeLimitError(f"thper.rootlinear limited to n <= {top} with"
                             f" backend {backend}, got n = {n}")
    items = []
    for trial in range(5):
        if backend == "cyc":
            xs = tuple(Rat(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(n))
            mat = build_cyclotomic("root_linear", n=n, x=xs)
            got = per_ryser(mat).as_rational()
            want = _rootlinear_want(xs)
        else:
            p = root.prime
            xs = tuple(rng.randrange(p) for _ in range(n))
            mat = build_cyclotomic("root_linear", n=n, x=xs, fq=root)
            got = per_ryser(mat)
            want = ModInt(factorial(n) * (1 - math.prod(xs)), p)
        items.append(_eq(got, want, f"x{trial}"))
    return items, None, None


def _rootexp_sum(n: int, x):
    # sum_k (n-1)!/C(n-1,k) x^k, each coefficient k! (n-1-k)! an int.
    return sum(factorial(k) * factorial(n - 1 - k) * x ** k
               for k in range(n))


def _run_rootexp(params, rng):
    n = params["n"]
    items = []
    for x in range(1, n + 1):
        mat = build_cyclotomic("root_exp_shift", n=n, x=x)
        got = per_ryser(mat).as_rational()
        items.append(_eq(got, _rootexp_sum(n, x), f"x={x}"))
    return items, None, "degree n-1 identity checked at n points"


def _run_jxk(params, rng):
    p = params["p"]
    trials = [[rng.randrange(p) for _ in range(p - 1)] for _ in range(3)]
    pers = per_sum_values(range(1, p), trials)
    return [_eq(per % p, (1 - math.prod(xs)) % p, f"trial{trial}")
            for trial, (xs, per) in enumerate(zip(trials, pers))], str(p), None


# thnew.cauchyroot accepts height(x) <= CAUCHYROOT_HEIGHT_LIMIT / 2^k and
# k^2 * height(x) <= CAUCHYROOT_PRINT_LIMIT, k = max(n, 7), height(x) being
# the bit length of the larger of |numerator| and denominator.  The first
# bound is fitted to the times in the comment above the registry.  The
# second keeps the value printable: its numerator and denominator have
# about n^2 * height(x) bits each, and str() refuses ints of more than 4300
# digits; it binds from n = 7 (height 256) to n = 10 (height 125).
CAUCHYROOT_HEIGHT_LIMIT = 1 << 17
CAUCHYROOT_PRINT_LIMIT = 49 * 256


def _cauchyroot_height_top(n: int) -> int:
    """The largest height(x) thnew.cauchyroot accepts at n."""
    k = max(n, 7)
    return min(CAUCHYROOT_HEIGHT_LIMIT >> k, CAUCHYROOT_PRINT_LIMIT // k ** 2)


def _cauchyroot_want(n: int, x: Rat) -> Rat:
    # prod_r (n x^n/(1 - x^n) + r) for x = a/b: each factor is
    # (n A + r (B - A))/(B - A) with A = a^n and B = b^n, for x^n != 1.
    big_a, big_b = int(x.numerator) ** n, int(x.denominator) ** n
    gap = big_b - big_a
    return Rat(math.prod(n * big_a + r * gap for r in range(1, n + 1)),
               gap ** n)


def _run_cauchyroot(params, rng):
    n = params["n"]
    x = Rat(params["x"])
    height = max(abs(int(x.numerator)).bit_length(),
                 int(x.denominator).bit_length())
    top = _cauchyroot_height_top(n)
    if height > top:
        raise SizeLimitError(f"thnew.cauchyroot limited to height(x) <= {top}"
                             f" at n = {n}, got {height}")
    try:
        mat = build_cyclotomic("cauchy_root", n=n, x=x)
    except SingularFamilyError as exc:
        raise SkipCheck(str(exc))
    got = per_ryser(mat).as_rational()
    return [_eq(got, _cauchyroot_want(n, x))], None, None


# conj.qdet accepts |a| <= QDET_LIMIT / (n + 2)^3, fitted to the times in
# the comment above the registry: |a| <= 3 at its largest n, 33, and so on
# every tier row.
QDET_LIMIT = 3 * 35 ** 3


def _qdet_bounded(run):
    """conj.qdet's runner behind its bound on |a|, checked first."""
    def bounded(params, rng):
        n, a = params["n"], params["a"]
        if n > 0 and (n + 2) ** 3 * abs(a) > QDET_LIMIT:
            raise SizeLimitError(f"conj.qdet limited to |a| <="
                                 f" {QDET_LIMIT // (n + 2) ** 3} at n = {n},"
                                 f" got a = {a}")
        return run(params, rng)
    return bounded


def _run_thcos_int(params, rng):
    n = params["n"]
    items = [_int_item(seq_c(n).value, f"c({n})")]
    v = seq_c_prime(n)
    items.append(_true(v.denominator_bound % v.value.denominator == 0,
                       f"denominator {v.value.denominator}",
                       f"divisor of {v.denominator_bound}", f"c'({n})"))
    return items, None, f"c'({n}) = {v.value}, d = {int(seq_d(n).value)}"


def _rational_lists(rng, n, apart):
    """Two lists of n distinct random rationals, drawn again until
    apart(x, y) holds for every x of the first and y of the second."""
    while True:
        xs, ys = [], []
        for out in (xs, ys):
            while len(out) < n:
                x = Rat(rng.randint(-30, 30), rng.randint(1, 12))
                if x not in out:
                    out.append(x)
        if all(apart(x, y) for x in xs for y in ys):
            return xs, ys


def _run_lem_cauchy(params, rng):
    n = params["n"]
    items = []
    for trial in range(3):
        xs, ys = _rational_lists(rng, n, lambda x, y: x + y != 0)
        mat = Mat(QQ, [[Rat(1, x + y) for y in ys] for x in xs])
        got = det_field(mat)
        num = math.prod(((xs[k] - xs[j]) * (ys[k] - ys[j]) for j in range(n)
                         for k in range(j + 1, n)), start=Rat(1))
        den = math.prod((x + y for x in xs for y in ys), start=Rat(1))
        items.append(_eq(got, num / den, f"trial{trial}"))
    return items, None, None


def _run_lem_borchardt(params, rng):
    n = params["n"]
    items = []
    for trial in range(3):
        xs, ys = _rational_lists(rng, n, lambda x, y: x != y)
        cauchy = Mat(QQ, [[Rat(1, x - y) for y in ys] for x in xs])
        squared = Mat(QQ, [[Rat(1, (x - y) ** 2) for y in ys] for x in xs])
        got = det_field(squared)
        want = det_field(cauchy) * per_ryser(cauchy)
        items.append(_eq(got, want, f"trial{trial}"))
    return items, None, None


def _run_lem_circulant(params, rng):
    n = params["n"]
    ring = CyclotomicField(n)
    items = []
    for trial in range(3):
        a = [rng.randint(-9, 9) for _ in range(n)]
        mat = Mat(ring, [[Cyc.rational(n, a[(k - i) % n]) for k in range(n)]
                         for i in range(n)])
        got = det_field(mat)
        want = math.prod((sum((a[k] * ring.zeta((k * r) % n)
                               for k in range(n)), ring.zero)
                          for r in range(n)), start=ring.one)
        items.append(_eq(got, want, f"trial{trial}"))
    return items, None, None


def _run_conj_derange(params, rng):
    n = params["n"]
    h = (n - 1) // 2
    got = derangement_sum(n, "unsigned_recip")
    if n % 2 == 0:
        want = Rat(double_factorial(n - 1) ** 2, 2 ** n)
        return [_eq(got, want, "unsigned")], None, None
    return [_eq(got, Rat(factorial(h) ** 2, n), "unsigned"),
            _eq(derangement_sum(n, "signed_recip"),
                Rat((-1) ** h * factorial(h) ** 2, n), "signed"),
            _eq(derangement_sum(n, "signed_cot_ratio"),
                Rat((-1) ** h * double_factorial(n - 2) ** 2, n), "cot")
            ], None, None


def _run_conj_maskdet(params, rng):
    p, a = params["p"], params["a"]
    if p <= 3:
        raise SkipCheck("conjecture requires p > 3")
    m = p * p
    half = (3 - pow(a, p - 1, m)) * inv_mod(2, m)
    got = masked_sum(p, a, signed=True, family="recip_ajk").value
    items = [_eq(got, jacobi(a, p) * half % m, "signed")]
    note = None
    if a % p != 0:
        got = masked_sum(p, a, signed=False, family="recip_ajk").value
        items.append(_eq(got, (-1) ** ((p + 1) // 2) * half % m, "unsigned"))
    else:
        note = "unsigned claim void for p | a; signed side evaluated"
    return items, str(m), note


def _run_conj_csign(params, rng):
    p = params["p"]
    sign = (-1) ** ((p - 1) // 2)
    c = sign * seq_c(p).value
    cp = sign * seq_c_prime(p).value
    return [_true(c > 0 and c % 2 == 1, str(c), "positive odd", "c"),
            _true(cp > 0, str(cp), "positive", "c'")], None, None


def _run_conj_ssign(params, rng):
    n = params["n"]
    if is_prime(n):
        s = seq_s(n).value
        sp = seq_s_prime(n).value
        return [_true((s < 0) == (n % 12 == 5), str(s),
                      "s < 0 iff p = 5 (mod 12)", "s"),
                _true((sp < 0) == (n % 8 == 7), str(sp),
                      "s' < 0 iff p = 7 (mod 8)", "s'")], None, None
    return [_eq(_mod(seq_s(n).value, n), 0, "s mod n")], str(n), None


def _run_conj_tsign(params, rng):
    n = params["n"]
    if is_prime(n):
        t = jacobi(2, n) * seq_t(n).value
        tp = jacobi(-1, n) * seq_t_prime(n).value
        return [_true(t < 0, str(t), "negative", "(2/p) t"),
                _true(tp < 0, str(tp), "negative", "(-1/p) t'")], None, None
    return [_eq(_mod(seq_t(n).value, n), 0, "t mod n")], str(n), None


# ---------------------------------------------------------------------------
# Parameter grids: grid(hi, ...) lists a check's parameter rows with its one
# size key, n or p, at most hi; the tiers and `permarith explore` call the
# same function, each with its own bounds.
# ---------------------------------------------------------------------------

def _ns(hi, lo=1):
    return [{"n": n} for n in range(lo, hi + 1)]


def _odd_ns(hi, lo=3):
    return [{"n": n} for n in range(lo, hi + 1) if n % 2]


def _ps(hi, lo=3, mod4=None):
    return [{"p": p} for p in odd_primes_upto(hi)
            if p >= lo and (mod4 is None or p % 4 == mod4)]


def _pd_grid(hi, lo=3, d=None):
    """Every d with 0 < d < p, or only the given d taken mod p."""
    return [{"p": p, "d": x} for p in odd_primes_upto(hi) if p >= lo
            for x in (range(1, p) if d is None
                      else sorted({y % p for y in d} - {0}))]


def _pa_grid(hi, a=range(1, 4)):
    return [{"p": p, "a": x} for p in odd_primes_upto(hi) if p > 3
            for x in a]


def _qdet_grid(hi, a=range(-3, 4)):
    return [{"n": n, "a": x} for n in range(3, hi + 1, 2) for x in a]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class Check(NamedTuple):
    """A registered claim.  grid(hi, **bounds) lists its parameter rows, and
    bounds maps each tier to the keyword bounds it passes: hi, and a or d
    where the tier fixes them.  limit is (key, largest value) of the size
    parameter its runner accepts, n or p; run_check refuses a larger value
    before anything is built.  Only thper.rootlinear has none: its runner
    limits each backend.  keys are the parameter keys of every grid row,
    which run_check requires; _register reads them off the first fast-tier
    row."""

    check_id: str
    kind: str
    claim: str
    runner: object
    grid: object
    bounds: dict
    limit: tuple[str, int] | None = None
    keys: frozenset = frozenset()


REGISTRY: dict[str, Check] = {}


def _register(check_id, kind, claim, runner, grid, fast, full, limit=None):
    # A bare int bound is hi alone.
    fast, full = ({"hi": b} if isinstance(b, int) else b for b in (fast, full))
    REGISTRY[check_id] = Check(check_id, kind, claim, runner, grid,
                               {FAST: fast, FULL: full}, limit,
                               frozenset(grid(**fast)[0]))


# The fast tier's d-grids take d = 1, 2 and p - 1 (that is, -1 mod p).
_FAST_D = {"hi": 13, "d": (1, 2, -1)}


# A check's limit is the largest n or p whose run stays near 0.5 s on a 2-core
# x86-64 machine (Python 3.11, Fraction backend): det.sec2/det.tan2 take
# 0.21-0.31 s at n = 27 and 0.50-0.59 s at 29 (Bareiss on one residue mod
# Phi_n(2^e) per entry, see matrices; the runner called directly in a fresh
# process); thq.det 0.45-0.55 s at n = 192 and 1.15 s at 256; lem.gauss at most
# 0.4 s up to n = 3003 and 1.1 s at 5005.  lem.oneplus and lem.half multiply
# binomials by shifted adds (see cyclotomic), and are slowest at composite n:
# lem.oneplus takes 0.29-0.35 s at n = 1501, 0.43-0.62 s at 1401 (3 * 467) and
# 0.55-0.59 s at 1701; lem.half 0.30-0.48 s at 1901, 0.45 s at 1785
# (3 * 5 * 7 * 17) and 0.64-0.72 s at 2001.  The rank-2 checks build
# per_sum_coeffs in O(p^2) int operations on numbers of O(p log p) bits:
# thper.jdk1-3 and cor.jdk take 0.35-0.39 s at p = 751 and 0.45-0.58 s at 809;
# thper.quad, quad0 and cor.quadmod 0.38-0.52 s at p = 1409 and 0.50-0.66 s
# at 1511; thper.jxk, three rank-2 permanents sharing one pass over u = 1..p-1,
# 0.38-0.48 s at p = 601 and 0.55-0.71 s at 701.  The Glynn checks over Q(zeta)
# take 2^(n-1) products, so their time grows 2-3x per step of n.  Their
# matrices are Galois-invariant, so per_ryser lowers them to one residue mod
# Phi_m(2^e) (see matrices); each was timed on that engine, its runner called
# directly in a fresh process, since Glynn's sum went to blocks (matrices):
# thper.rootlinear (random x at seeds 0-2) with backend cyc 0.19-0.33 s at
# n = 14 and 0.47-0.77 s at 15, with backend fq (no Q(zeta)) 0.26-0.31 s at 16
# and 0.51-0.84 s at 17; thper.rootexp 0.23-0.26 s at 14 and 0.58-0.65 s at 15;
# cor.sin 0.35-0.37 s at 18 and 0.81-0.86 s at 19; cor.cos 0.38-0.43 s at 18
# and 0.90-1.02 s at 19 (their closed forms are int sums, so the permanents set
# these times).  The Cauchy matrix [1/(1 - zeta^(j-k) x)] is circulant, so
# per_ryser sums Glynn once per necklace (see matrices), and its checks were
# re-timed on that sum: rem.perhalf takes 0.18-0.22 s at n = 19, the largest
# odd n under RYSER_LIMIT.  thnew.cauchyroot also grows with the height of x,
# about 3x per doubling of the height at a fixed n and 2-3x per step of n at a
# fixed height, so it refuses height(x) > 2^17 / 2^max(n, 7) (and more than the
# printing bound next to _run_cauchyroot admits): at the largest height h each
# n accepts, with x = (2^h - 1)/(2^h - 3) (x = 3 for h = 2), it takes
# 0.07-0.10 s at n = 16 (height 2; x = 3 takes 0.22 s at 17, where the bound
# admits height 1 only), 0.13-0.14 s at 15 (height 4), 0.18-0.20 s at 14 (8),
# 0.17-0.31 s at 13 (16), 0.25-0.44 s at 12 (32), 0.31-0.38 s at 11 (64),
# 0.32-0.46 s at 10 (125), 0.11-0.19 s at 9 (154), 0.07-0.12 s at 8 (196) and
# 0.04 s at 7 (256), against 0.36 s at 16 for height 4, 0.44 s at 15 for 8,
# 0.59 s at 14 for 16, 0.51 s at 13 for 32 and 0.74 s at 12 for 64 (at 11,
# height 128 is past the printing bound).  conj.derange takes 0.04 s at 16,
# whose table of size n is circulant, and 0.28-0.49 s at 17 (0.55-0.59 s when
# its limit was set), whose table of size n - 1 is not, so its limit stays (its
# two determinants run on one residue per entry).  thnew.invsumsq takes
# 0.05-0.09 s at p = 31, and its next p = 3 (mod 4), 43, has 21 rows;
# conj.sqdiff takes 0.02-0.03 s at p = 29, 0.70 s at 37 and 3.0 s at 41.
# lem.cauchy (seeds 0-3) takes 0.28-0.43 s at n = 29 and 0.40-0.80 s at 30;
# lem.borchardt 0.40-0.52 s at 16 and 0.76-1.30 s at 17; lem.circulant (seeds
# 0-3, twice, n interleaved), its determinants on one residue per entry,
# 0.39-0.43 s at 66 (one run of eight 0.62 s), 0.42-0.53 s at 68 and
# 0.47-0.56 s at 70 (one each 0.64 and 0.73 s), against 0.28-0.38 s at 60 in
# the same runs; conj.qdet, slower for larger |a|, at most 0.32 s at n = 33 and
# 0.67 s at 35 for a = -3..3, and, within its bound on |a|, at most 0.36 s for
# the slowest a at each odd n (every a for n >= 7, every 37th below; a bound on
# n^3 |a| through n = 33, a = 3 let n = 7 take 0.70 s at a = 312); conj.maskdet
# 0.13-0.18 s at p = 17 and 0.58-0.69 s at 19; rem.cp, a determinant on one
# residue per entry whose time follows phi(n) more than n, 0.33 s at n = 28,
# 0.77-0.83 s at 29 and 0.41-0.51 s at 32.  These rows at a limit exceed the
# 0.5 s rule (re-timed from a fresh process, twice each): T(19), which thjk.int
# reads at n = 19, 0.56-0.77 s (three times; T(17) 0.10 s) on Glynn's mirror
# sum (see matrices); the Glynn permanents over Z or Q of n or p rows that
# RYSER_LIMIT bounds (20 rows, so p <= 19), thq.floor 0.54 s and
# conj.bernoulli 0.57-0.60 s at n = 20, thq.qfloor 0.50-0.63 s at 20 and
# conj.maskper 0.75 s at a = 1 and 0.86-1.01 s at a = 3; and rem.qdetabs
# 0.60-0.61 s at n = 28 (1.8 s at 32).  conj.absjk, also bounded by
# RYSER_LIMIT, takes 0.39-0.41 s at p = 19 and 0.08-0.09 s at 17 (three times
# each), its per[|j-k|] on the mirror sum.  A
# check that reads sequences has the smallest largest index of their SEQ_TABLE
# rows as its limit, which it applies before the primality test.  A check that
# reads two rows at one index pays for both values: at 37 thcos.* and
# conj.csign take 0.31-0.46 s, thsin.* and conj.ssign 0.35-0.54 s, and thtan.*
# and conj.tsign 0.47-0.67 s.  The last six take PAIR_SEQ_LIMIT instead, the
# largest n and p at which the pair stays near 0.5 s: 0.14-0.23 s at n = 35 and
# 0.04-0.06 s at p = 31.

PAIR_SEQ_LIMIT = {"n": 35, "p": 31}


def _seq_limit(key, *names):
    return key, min(SEQ_TABLE[name][-1] for name in names)


_register("thq.floor", "theorem",
          "per[floor((j+k-1)/n)] (n x n) = 1",
          _claim((lambda n: per_ryser(build_integer("floor_shift", n=n)),
                  lambda n: 1)),
          _ns, 9, 12, limit=("n", RYSER_LIMIT))
_register("thq.qfloor", "theorem",
          "per[[floor((j+k)/n)]_q] = 2^(n-1) + q",
          _claim((lambda n: per_ryser(build_qpoly("qfloor", n=n)),
                  lambda n: LPoly({0: 2 ** (n - 1), 1: 1}))),
          _ns, 9, 12, limit=("n", RYSER_LIMIT))
_register("thq.det", "theorem",
          "det[floor((j+k-1)/n)] = (-1)^(n(n-1)/2); "
          "det[[floor((j+k)/n)]_q] = (-1)^(n(n+1)/2-1) q for n > 1",
          _run_thq_det, _ns, 9, 12, limit=("n", 192))
_register("thper.rootlinear", "theorem",
          "per[1 - zeta^j x_k] = n! (1 - x_1...x_n), zeta of order n",
          _run_rootlinear,
          lambda hi: [{"n": n, "backend": b} for n in range(1, hi + 1)
                      for b in ROOTLINEAR_LIMITS], 7, 10)
_register("thper.rootexp", "theorem",
          "per[1 + zeta^(j+k) x] (size n-1) = sum_k (n-1)!/C(n-1,k) x^k",
          _run_rootexp, partial(_ns, lo=2), 8, 10, limit=("n", 14))
_register("thper.jxk", "theorem",
          "per[j + x_k] (size p-1) = 1 - x_1...x_(p-1) (mod p)",
          _run_jxk, _ps, 13, 19, limit=("p", 601))
_register("thper.jdk1", "theorem",
          "per[j+dk] (1..p-1) = d^(p-1) - 3 - 4(p-1)! (mod p^2)",
          _claim((lambda p, d: _structured_per(1, p, 1, d),
                  lambda p, d: pow(d, p - 1, p * p) - 3
                  - 4 * factorial(p - 1)), power=2, skip=[_D_UNIT]),
          _pd_grid, _FAST_D, 31, limit=("p", 751))
_register("thper.jdk2", "theorem",
          "per[j+dk] (1..p) = (d+1)/2 p (mod p^2)",
          _claim((lambda p, d: _structured_per(1, p + 1, 1, d),
                  lambda p, d: (d + 1) * inv_mod(2, p * p) * p),
                 power=2, skip=[_D_UNIT]),
          _pd_grid, _FAST_D, 31, limit=("p", 751))
_register("thper.jdk3", "theorem",
          "per[j+dk] (0..p-1) = -(d+1)/2 p (mod p^2)",
          _claim((lambda p, d: _structured_per(0, p, 1, d),
                  lambda p, d: -(d + 1) * inv_mod(2, p * p) * p),
                 power=2, skip=[_D_UNIT]),
          _pd_grid, _FAST_D, 31, limit=("p", 751))
_register("thper.quad", "theorem",
          "per[j^2+dk^2] (1..(p-1)/2) = (d^((p-1)/2)+1) ((p-1)/2)!^3 (mod p^2)",
          _claim((lambda p, d: _structured_per(1, (p + 1) // 2, 2, d),
                  lambda p, d: (pow(d, (p - 1) // 2, p * p) + 1)
                  * factorial((p - 1) // 2) ** 3),
                 power=2, skip=[_P_OVER_3]),
          partial(_pd_grid, lo=5), _FAST_D, 31, limit=("p", 1409))
_register("thper.quad0", "theorem",
          "per[j^2+dk^2] (0..(p-1)/2) = (-1)^((p-1)/2) p/24 (d+(d/p)) "
          "((p-1)/2)! (mod p^2)",
          _claim((lambda p, d: _structured_per(0, (p + 1) // 2, 2, d),
                  lambda p, d: (-1) ** ((p - 1) // 2) * p * inv_mod(24, p * p)
                  * (d + jacobi(d, p)) * factorial((p - 1) // 2)),
                 power=2, skip=[_P_OVER_3]),
          partial(_pd_grid, lo=5), _FAST_D, 31, limit=("p", 1409))
_register("cor.jdk", "theorem",
          "per[j+dk] (1..p-1) = 2 (mod p)",
          _claim((lambda p, d: _structured_per(1, p, 1, d),
                  lambda p, d: 2), power=1, skip=[_D_UNIT]),
          _pd_grid, _FAST_D, 31, limit=("p", 751))
_register("cor.quadmod", "theorem",
          "per[j^2+dk^2] (1..(p-1)/2) = (-1)^((p+1)/2) (1+(d/p)) "
          "((p-1)/2)! (mod p)",
          _claim((lambda p, d: _structured_per(1, (p + 1) // 2, 2, d),
                  lambda p, d: (-1) ** ((p + 1) // 2) * (1 + jacobi(d, p))
                  * factorial((p - 1) // 2)), power=1),
          _pd_grid, _FAST_D, 31, limit=("p", 1409))
_register("cor.sin", "theorem",
          "per[sin pi(j+k)/n] (size n-1): (-1)^((n-1)/2) n!/(2^(n-2)(n+1)) "
          "for odd n, 0 for even n",
          # The permanent itself at even n, rescaled to the claim at odd n.
          _claim((lambda n: (lambda per: per if n % 2 == 0 else Rat(
                      per.as_rational() * (-1) ** ((n - 1) // 2),
                      2 ** (n - 1)))(per_ryser(build_cyclotomic(
                          "root_exp_shift", n=n, x=-1))),
                  lambda n: 0 if n % 2 == 0 else Rat(
                      (-1) ** ((n - 1) // 2) * factorial(n),
                      2 ** (n - 2) * (n + 1)))),
          partial(_ns, lo=2), 9, 12, limit=("n", 18))
_register("cor.cos", "theorem",
          "per[cos pi(j+k)/n] (size n-1) = (n-1)!/(-2)^(n-1) sum 1/C(n-1,k)",
          _claim((lambda n: Rat(per_ryser(build_cyclotomic(
                      "root_exp_shift", n=n, x=1)).as_rational()
                      * (-1) ** (n - 1), 2 ** (n - 1)),
                  lambda n: Rat(_rootexp_sum(n, 1), (-2) ** (n - 1)))),
          partial(_ns, lo=2), 9, 12, limit=("n", 18))
_register("thnew.cauchyroot", "theorem",
          "per[1/(1 - zeta^(j-k) x)] = prod_r (n x^n/(1-x^n) + r)",
          _run_cauchyroot,
          lambda hi: [{"n": n, "x": x} for n in range(1, hi + 1)
                      for x in ("2", "-1", "1/2", "3/5")], 6, 10,
          limit=("n", 16))
_register("thnew.invsumsq", "theorem",
          "per[1/(j^2+k^2)] (size (p-1)/2) = (-1)^((p+1)/4)/(4 ((p+1)/4)!^2) "
          "(mod p) for p = 3 (mod 4)",
          _claim((lambda p: per_ryser(build_rational("inv_sum_sq", p=p)),
                  lambda p: Rat((-1) ** ((p + 1) // 4),
                                4 * factorial((p + 1) // 4) ** 2)), power=1,
                 skip=[(lambda p: p % 4 == 3,
                        "claim requires p = 3 (mod 4)")]),
          partial(_ps, mod4=3), 11, 23, limit=("p", 31))
_register("thjk.int", "theorem",
          "T(n) = per[tan pi(j+k)/n] (size n-1) is an integer",
          _integral_pair("T"), _odd_ns, 9, 13, limit=_seq_limit("n", "T"))
_register("thjk.cong", "theorem",
          "T(p) = (-1)^((p+1)/2) 2p (mod p^2)",
          _claim((lambda p: seq_T(p).value,
                  lambda p: (-1) ** ((p + 1) // 2) * 2 * p), power=2),
          _ps, 11, 13, limit=_seq_limit("p", "T"))
_register("thcos.int", "theorem",
          "c_n is an integer; denominator of c'_n divides 2^(d_n)",
          _run_thcos_int, _odd_ns, 13, 23,
          limit=_seq_limit("n", "c", "cprime"))
_register("thcos.cong", "theorem",
          "per[cos 2pi jk/p] = per[sec 2pi jk/p] = ((p-1)/2)! (mod p)",
          _claim(("cos",
                  lambda p: seq_c(p).value * Rat(1, 2 ** ((p - 1) // 2)),
                  lambda p: factorial((p - 1) // 2)),
                 ("sec", lambda p: seq_c_prime(p).value * 2 ** ((p - 1) // 2),
                  lambda p: factorial((p - 1) // 2)), power=1),
          _ps, 13, 19, limit=_seq_limit("p", "c", "cprime"))
_register("thsin.int", "theorem",
          "s_n (and s'_p for prime index) are integers",
          _integral_pair("s"), _odd_ns, 13, 23,
          limit=("n", PAIR_SEQ_LIMIT["n"]))
_register("thsin.cong", "theorem",
          "s_p = (-1)^((p+1)/2), s'_p = 1 (mod p)",
          _congruent_pair("s"), _ps, 13, 19,
          limit=("p", PAIR_SEQ_LIMIT["p"]))
_register("thtan.int", "theorem",
          "t_n (and t'_p for prime index) are integers",
          _integral_pair("t"), _odd_ns, 13, 25,
          limit=("n", PAIR_SEQ_LIMIT["n"]))
_register("thtan.cong", "theorem",
          "t_p = (-1)^((p+1)/2), t'_p = 1 (mod p)",
          _congruent_pair("t"), _ps, 13, 19,
          limit=("p", PAIR_SEQ_LIMIT["p"]))
_register("lem.cauchy", "theorem",
          "Cauchy determinant det[1/(x_j+y_k)] product formula",
          _run_lem_cauchy, partial(_ns, lo=2), 6, 6, limit=("n", 29))
_register("lem.borchardt", "theorem",
          "det[1/(x_j-y_k)^2] = det[1/(x_j-y_k)] per[1/(x_j-y_k)]",
          _run_lem_borchardt, partial(_ns, lo=2), 6, 6, limit=("n", 16))
_register("lem.circulant", "theorem",
          "circulant determinant = prod_r sum_k a_k zeta^((k-1)r)",
          _run_lem_circulant, _ns, 6, 8, limit=("n", 66))
_register("lem.oneplus", "theorem",
          "prod_(k=1..n-1) (1 + zeta^k) = 1 for odd n",
          _claim((lambda n: math.prod((1 + Cyc.zeta(n, k)
                                       for k in range(1, n)),
                                      start=Cyc.rational(n, 1)),
                  lambda n: Cyc.rational(n, 1)), skip=[_ODD_N]),
          _odd_ns, 15, 25, limit=("n", 1501))
_register("lem.gauss", "theorem",
          "gauss_sum(n)^2 = (-1)^((n-1)/2) n",
          _claim((lambda n: gauss_sum(n) * gauss_sum(n),
                  lambda n: Cyc.rational(n, n if (n - 1) // 2 % 2 == 0
                                         else -n))),
          _odd_ns, 25, 51, limit=("n", 3001))
_register("lem.half", "theorem",
          "prod_(k<=(n-1)/2) (1 - zeta^k) = (-2/n) i^((n-1)/2) sqrt(n) "
          "zeta^((n+1)/2 (n^2-1)/8)",
          _claim((lambda n: math.prod((1 - Cyc.zeta(n, k)
                                       for k in range(1, (n - 1) // 2 + 1)),
                                      start=Cyc.rational(n, 1)),
                  lambda n: jacobi(-2, n) * sqrt_element(n)
                  * Cyc.zeta(n, ((n + 1) // 2) * ((n * n - 1) // 8))),
                 skip=[_ODD_N]),
          _odd_ns, 15, 25, limit=("n", 1901))
_register("det.sec2", "theorem",
          "det[sec^2 pi(j-k)/n] (n x n) = n^(n-1) (n!!)^2 for odd n",
          _claim((lambda n: det_field(build_cyclotomic("sec2_diff", n=n))
                  .as_rational(),
                  lambda n: n ** (n - 1) * double_factorial(n) ** 2),
                 skip=[_ODD_N]),
          partial(_odd_ns, lo=1), 7, 11, limit=("n", 27))
_register("det.tan2", "theorem",
          "det[tan^2 pi(j-k)/n] (n x n) = (n-1) n^(n-2) (n!!)^2 for odd n",
          _claim((lambda n: det_field(build_cyclotomic("tan2_diff", n=n))
                  .as_rational(),
                  lambda n: 0 if n == 1 else
                  (n - 1) * n ** (n - 2) * double_factorial(n) ** 2),
                 skip=[_ODD_N]),
          partial(_odd_ns, lo=1), 7, 11, limit=("n", 27))
_register("conj.qdet", "conjecture",
          "det[[floor((aj-(a+1)k)/n)]_q] = -(a(a+1)/n) q^((1-3n)/2); "
          "det[[ceil(((a+1)j-ak)/n)]_q] = (a(a+1)/n) q^((n-1)/2)",
          _qdet_bounded(_claim(
              ("floor", lambda n, a: det_divfree(
                  build_qpoly("qfloor_gen", n=n, a=a)),
               lambda n, a: LPoly({(1 - 3 * n) // 2:
                                   -jacobi(a * (a + 1), n)})),
              ("ceil", lambda n, a: det_divfree(
                  build_qpoly("qceil_gen", n=n, a=a)),
               lambda n, a: LPoly({(n - 1) // 2: jacobi(a * (a + 1), n)})),
              skip=[(lambda n, a: n % 2 and n > 1,
                     "conjecture requires odd n > 1")])),
          _qdet_grid, {"hi": 7, "a": range(-2, 3)}, 9, limit=("n", 33))
_register("conj.bernoulli", "theorem",
          "per[floor((2j-k)/n)] = 2 (2^(n+1) - 1) B_(n+1)",
          _claim((lambda n: Rat(per_ryser(build_integer("floor_2jk", n=n))),
                  lambda n: 2 * (2 ** (n + 1) - 1) * bernoulli(n + 1))),
          _ns, 10, 10, limit=("n", RYSER_LIMIT))
_register("conj.absjk", "conjecture",
          "per[|j-k|] = -1/2 and per[|j-k+1|] = 1/2 (mod p), size p",
          _claim(("|j-k|",
                  lambda p: per_ryser(build_integer("abs", n=p, shift=0)),
                  lambda p: -inv_mod(2, p)),
                 ("|j-k+1|",
                  lambda p: per_ryser(build_integer("abs", n=p, shift=1)),
                  lambda p: inv_mod(2, p)), power=1),
          _ps, 11, 13, limit=("p", 19))
_register("conj.maskper", "conjecture",
          "sum over tau with p never dividing aj+tau(j) of "
          "prod 1/(aj+tau(j)) = 0 (mod p^2)",
          _claim((lambda p, a: masked_sum(p, a, signed=False,
                                          family="recip_aj_k").value,
                  lambda p, a: 0), power=2,
                 skip=[(lambda p, a: p > 3, "conjecture requires p > 3"),
                       (lambda p, a: a % p,
                        "conjecture requires a nonzero mod p")]),
          _pa_grid, 7, 7, limit=("p", 19))
_register("conj.derange", "conjecture",
          "derangement sums of 1/(1 - zeta^(j-tau(j))) "
          "and the cot-ratio variant match closed forms",
          _run_conj_derange, partial(_ns, lo=2), 8, 10, limit=("n", 16))
_register("conj.maskdet", "conjecture",
          "signed/unsigned masked sums of 1/(a+j tau(j)) match "
          "(a/p)(3-a^(p-1))/2 and (-1)^((p+1)/2)(3-a^(p-1))/2 (mod p^2)",
          _run_conj_maskdet,
          _pa_grid, {"hi": 7, "a": (1, 2, 3, 5)},
          {"hi": 7, "a": (1, 2, 3, 5)}, limit=("p", 17))
_register("conj.sqdiff", "conjecture",
          "derangement sum of 1/prod(j^2 - tau(j)^2) = ((p-1)/4)!^(-2) "
          "(mod p) for p = 1 (mod 4)",
          _claim((lambda p: per_ryser(build_rational("inv_sqdiff", p=p)),
                  lambda p: Rat(1, factorial((p - 1) // 4) ** 2)), power=1,
                 skip=[(lambda p: p % 4 == 1,
                        "conjecture requires p = 1 (mod 4)")]),
          partial(_ps, mod4=1), 13, 17, limit=("p", 29))
_register("conj.csign", "conjecture",
          "(-1)^((p-1)/2) c_p is a positive odd integer; "
          "(-1)^((p-1)/2) c'_p > 0",
          _run_conj_csign, _ps, 13, 23, limit=_seq_limit("p", "c", "cprime"))
_register("conj.ssign", "conjecture",
          "s_p < 0 iff p = 5 (mod 12); s'_p < 0 iff p = 7 (mod 8); "
          "s_n = 0 (mod n) for odd composite n",
          _run_conj_ssign, _odd_ns, 13, 23,
          limit=("n", PAIR_SEQ_LIMIT["n"]))
_register("conj.tsign", "conjecture",
          "(2/p) t_p < 0; (-1/p) t'_p < 0; t_n = 0 (mod n) "
          "for odd composite n",
          _run_conj_tsign, _odd_ns, 13, 25,
          limit=("n", PAIR_SEQ_LIMIT["n"]))
_register("rem.qdetabs", "theorem",
          "det[[|j-k+1|]_q] = (1+q)^(n-2); det[[|j-k|]_q] = "
          "(-1)^(n-1)(n-1)(1+q)^(n-2); det[|j-k|] = (-1)^(n-1)(n-1)2^(n-2)",
          _claim(("|j-k+1|_q",
                  lambda n: det_divfree(build_qpoly("qabs", n=n, shift=1)),
                  lambda n: LPoly({0: 1, 1: 1}) ** (n - 2)),
                 ("|j-k|_q",
                  lambda n: det_divfree(build_qpoly("qabs", n=n, shift=0)),
                  lambda n: ((-1) ** (n - 1) * (n - 1))
                  * LPoly({0: 1, 1: 1}) ** (n - 2)),
                 ("|j-k|",
                  lambda n: det_divfree(build_integer("abs", n=n, shift=0)),
                  lambda n: (-1) ** (n - 1) * (n - 1) * 2 ** (n - 2)),
                 skip=[(lambda n: n >= 2, "claims require n >= 2")]),
          partial(_ns, lo=2), 8, 10, limit=("n", 28))
_register("rem.perhalf", "theorem",
          "per[1/(1 + zeta^(j-k))] = (-1)^((n-1)/2) (n!!)^2/(2^n n) for odd n",
          _claim((lambda n: per_ryser(build_cyclotomic(
                      "cauchy_root", n=n, x=-1)).as_rational(),
                  lambda n: Rat((-1) ** ((n - 1) // 2)
                                * double_factorial(n) ** 2, 2 ** n * n)),
                 skip=[_ODD_N]),
          _odd_ns, 7, 9, limit=("n", 19))
_register("rem.cp", "theorem",
          "signed derangement sum of 1/(1 - zeta^(j-tau(j))): "
          "(-1)^(n/2)((n-1)!!)^2/2^n for even n, 0 for odd n",
          _claim((lambda n: derangement_sum(n, "signed_recip_full"),
                  lambda n: Rat(0) if n % 2 else Rat((-1) ** (n // 2)
                  * double_factorial(n - 1) ** 2, 2 ** n))),
          partial(_ns, lo=2), 8, 10, limit=("n", 28))

ALL_CHECK_IDS = tuple(REGISTRY)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

# The type of every parameter but x, which must read as a rational.
_PARAM_TYPES = {"n": int, "p": int, "d": int, "a": int, "backend": str}


def _read_values(params: dict):
    """Refuse a value of the wrong type, and an x that does not read as a
    rational (str() reads no int of more than 4300 digits)."""
    bad = [k for k, t in _PARAM_TYPES.items()
           if k in params and type(params[k]) is not t]
    if "x" in params:
        try:
            Rat(params["x"])
        except (TypeError, ValueError, ZeroDivisionError):
            bad.append("x")
    if bad:
        key = bad[0]
        text = repr(params[key])
        if len(text) > 40:
            text = f"{text[:20]}... ({len(text)} characters)"
        want = ("read as a rational" if key == "x"
                else f"be of type {_PARAM_TYPES[key].__name__}")
        raise DomainError(f"{key} must {want}, got {text}")


def _printable(params: dict):
    """Refuse an int that str(), and so every report writer, cannot print:
    one of more than sys.get_int_max_str_digits() digits."""
    for key in sorted(params):
        try:
            str(params[key])
        except ValueError:
            digits = sys.get_int_max_str_digits()
            raise DomainError(f"{key} must have at most {digits} digits"
                              ) from None


def run_check(check_id: str, params: dict, seed: int = 0) -> Report:
    """Execute one registered check; errors become FAIL, domain gaps SKIP.

    params must have exactly the check's keys, or DomainError names the
    missing and extra ones, in the CLI's flag names; an int too long to
    print is a DomainError too.  A value of the wrong type is a SKIP, then a
    size past the check's limit.  Every claim with a parameter p is about
    odd primes p, so any other p is a SKIP before the runner starts.  A
    computed or expected value too long for str() to print is a SKIP too.
    """
    check = REGISTRY.get(check_id)
    if check is None:
        raise UnknownCheckError(check_id)
    if params.keys() != check.keys:
        raise DomainError(f"{check_id} " + ", ".join(
            [f"needs --{k}" for k in sorted(check.keys - params.keys())]
            + [f"takes no --{k}" for k in sorted(params.keys() - check.keys)]))
    try:
        rng = _rng(seed, check_id, params)
    except ValueError:
        _printable(params)
        raise
    start = time.perf_counter()
    try:
        _read_values(params)
        if check.limit is not None:
            key, top = check.limit
            if params[key] > top:
                raise SizeLimitError(f"{check_id} limited to {key} <= {top},"
                                     f" got {key} = {params[key]}")
        if "p" in params and (params["p"] < 3 or not is_prime(params["p"])):
            raise SkipCheck(f"claim requires an odd prime p, got {params['p']}")
        items, modulus, note = check.runner(params, rng)
    except SkipCheck as exc:
        status, note = "SKIP", str(exc)
    except (DomainError, SearchExhaustedError) as exc:
        status, note = "SKIP", f"out of domain: {exc}"
    except (ArithmeticError, ValueError, KeyError,
            UnsupportedRingError) as exc:
        status, note = "FAIL", f"{type(exc).__name__}: {exc}"
        if isinstance(exc, ValueError) and str(exc).startswith(
                "Exceeds the limit ("):
            # str() cannot print the value: there is none to report.
            status, note = "SKIP", (f"a value has more than"
                                    f" {sys.get_int_max_str_digits()}"
                                    f" digits, past what str() prints")
    else:
        def fmt(v):
            return "; ".join(f"{i.label}={getattr(i, v)}" if i.label else
                             getattr(i, v) for i in items)

        status = "PASS" if all(item.ok for item in items) else "FAIL"
        return Report(check_id, params, status, computed=fmt("computed"),
                      expected=fmt("expected"), modulus=modulus,
                      ms=(time.perf_counter() - start) * 1e3,
                      kind=check.kind, note=note)
    return Report(check_id, params, status, kind=check.kind, note=note,
                  ms=(time.perf_counter() - start) * 1e3)


def default_grid(check_id: str, tier: str = FAST) -> list[dict]:
    check = REGISTRY.get(check_id)
    if check is None:
        raise UnknownCheckError(check_id)
    if tier not in TIERS:
        raise DomainError(f"tier must be one of {TIERS}, got {tier!r}")
    return list(check.grid(**check.bounds[tier]))


def run_tasks(tasks, seed: int = 0) -> list[Report]:
    """Run (check_id, params) pairs in order; reports sorted by id and params."""
    reports = [run_check(cid, params, seed=seed) for cid, params in tasks]
    reports.sort(key=Report.sort_key)
    return reports


def run_suite(tier: str = FAST, ids=None, seed: int = 0) -> list[Report]:
    """Run registered checks over their tier grids; reports sorted by id."""
    ids = ALL_CHECK_IDS if ids is None else ids
    return run_tasks([(cid, params) for cid in ids
                      for params in default_grid(cid, tier)], seed)
