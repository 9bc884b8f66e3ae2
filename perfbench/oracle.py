"""Reference values for every operation of the benchmark, computed apart from permarith.

Three sources, none of which imports permarith:

* permanents of the literal trigonometric matrices in mpmath at 60 digits
  (the paper's sequences, the root-of-unity permanents, composite-index c');
* the paper's closed forms and congruences in plain int / Fraction arithmetic;
* a plain 2^n-term Ryser permanent over Z or Q of the rank-2 and |j-k|
  families for p <= 13, a cross-check of the collapsed form the program uses.

`Oracle.check_seq` and `Oracle.check_report` take the program's printed value
and return None when it agrees, else a one-line reason.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import mpmath

DPS = 60
BRUTE_MAX_P = 13
_TOL = mpmath.mpf(10) ** -40


# ---------------------------------------------------------------------------
# Number theory, in the oracle's own arithmetic
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by factoring n and Euler's criterion."""
    out, m, q = 1, n, 3
    while m > 1:
        while m % q:
            q += 2
        m //= q
        r = pow(a % q, (q - 1) // 2, q)
        out *= 0 if r == 0 else (1 if r == 1 else -1)
    return out


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def mod_rat(x, m: int) -> int:
    """A rational with denominator prime to m, as a residue mod m."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, m) % m


def fq_prime(n: int) -> int:
    """The smallest prime p = 1 (mod n); F_p then holds the n-th roots of unity."""
    if n == 1:
        return 2
    p = n + 1
    while not is_prime(p):
        p += n
    return p


def max_divisible_positions(n: int) -> int:
    """d_n: the most positions j with n | j*tau(j) over permutations tau of
    1..(n-1)/2, as a maximum bipartite matching (Kuhn's augmenting paths)."""
    h = (n - 1) // 2
    match: dict[int, int] = {}

    def augment(j: int, seen: set) -> bool:
        for k in range(1, h + 1):
            if (j * k) % n == 0 and k not in seen:
                seen.add(k)
                if k not in match or augment(match[k], seen):
                    match[k] = j
                    return True
        return False

    return sum(augment(j, set()) for j in range(1, h + 1))


# ---------------------------------------------------------------------------
# Permanents
# ---------------------------------------------------------------------------

def ryser(rows, zero=0):
    """Permanent by Ryser's formula with Gray-code column updates: all 2^n - 1
    subsets, in whatever scalar type the entries have."""
    n = len(rows)
    sums = [zero] * n
    gray = 0
    total = zero
    for s in range(1, 1 << n):
        k = (s & -s).bit_length() - 1
        gray ^= 1 << k
        if gray >> k & 1:
            sums = [a + row[k] for a, row in zip(sums, rows)]
        else:
            sums = [a - row[k] for a, row in zip(sums, rows)]
        prod = sums[0]
        for a in sums[1:]:
            prod *= a
        total = total - prod if gray.bit_count() & 1 else total + prod
    return total if n % 2 == 0 else -total


def per_mp(fn, size: int):
    """mpmath permanent of [fn(j, k)] for 1 <= j, k <= size, at DPS digits."""
    with mpmath.workdps(DPS + 10):
        rows = [[fn(j, k) for k in range(1, size + 1)]
                for j in range(1, size + 1)]
        return ryser(rows, mpmath.mpf(0))


def seq_mp(name: str, n: int):
    """The paper's sequence at n from the literal trigonometric matrix."""
    pi, h = mpmath.pi, (n - 1) // 2
    with mpmath.workdps(DPS + 10):
        sq = mpmath.sqrt(n)
        if name == "T":
            return per_mp(lambda j, k: mpmath.tan(pi * (j + k) / n), n - 1)
        if name == "c":
            return 2 ** h * per_mp(lambda j, k: mpmath.cos(2 * pi * j * k / n), h)
        if name == "cprime":
            return per_mp(lambda j, k: mpmath.sec(2 * pi * j * k / n), h) / 2 ** h
        if name == "s":
            return 2 ** h / sq * per_mp(
                lambda j, k: mpmath.sin(2 * pi * j * k / n), h)
        if name == "sprime":
            return sq / 2 ** h * per_mp(
                lambda j, k: mpmath.csc(2 * pi * j * k / n), h)
        if name == "t":
            return per_mp(lambda j, k: mpmath.tan(pi * j * k / n), h) / sq
        if name == "tprime":
            return sq * per_mp(lambda j, k: mpmath.cot(pi * j * k / n), h)
    raise KeyError(name)


def _near(value, ref) -> bool:
    """An exact rational against an mpmath value, to 40 significant digits."""
    with mpmath.workdps(DPS):
        v = mpmath.mpf(value.numerator) / value.denominator
        return abs(v - mpmath.re(ref)) <= _TOL * max(1, abs(ref)) \
            and abs(mpmath.im(ref)) <= _TOL * max(1, abs(ref))


def _rank2_rows(family: str, p: int, d: int, idx: str):
    index = {"1..p-1": range(1, p), "1..p": range(1, p + 1),
             "0..p-1": range(p), "1..h": range(1, (p - 1) // 2 + 1),
             "0..h": range((p - 1) // 2 + 1)}[idx]
    if family == "linear":
        return [[j + d * k for k in index] for j in index]
    return [[j * j + d * k * k for k in index] for j in index]


# ---------------------------------------------------------------------------
# Parsing the program's printed values
# ---------------------------------------------------------------------------

def items(computed: str) -> dict:
    """`label=value; label=value` (labels may hold '='), or one bare value."""
    out = {}
    for part in computed.split("; "):
        label, sep, value = part.rpartition("=")
        out[label if sep else ""] = value
    return out


def parse_lpoly(text: str) -> dict:
    """A printed Laurent polynomial in q, as {exponent: Fraction}."""
    if text == "0":
        return {}
    out: dict = {}
    tokens = re.split(r" ([+-]) ", text)
    signs = ["+"] + tokens[1::2]
    for sign, term in zip(signs, tokens[0::2]):
        neg = (sign == "-") != term.startswith("-")
        term = term.lstrip("-")
        if "q" not in term:
            coeff, exp = Fraction(term), 0
        else:
            coeff_text, _, q_text = term.rpartition("*")
            coeff = Fraction(coeff_text) if coeff_text else Fraction(1)
            exp = int(q_text[2:]) if q_text.startswith("q^") else 1
        out[exp] = out.get(exp, 0) + (-coeff if neg else coeff)
    return {e: c for e, c in out.items() if c}


def _lpoly_pow_one_plus_q(k: int, scale=1) -> dict:
    return {e: Fraction(scale * math.comb(k, e)) for e in range(k + 1)
            if scale * math.comb(k, e)}


def _residue(text: str) -> tuple[int, int | None]:
    """`v` or `v (mod m)`."""
    m = re.fullmatch(r"(-?\d+)(?: \(mod (\d+)\))?", text)
    if m is None:
        raise ValueError(f"not a residue: {text!r}")
    return int(m.group(1)), (int(m.group(2)) if m.group(2) else None)


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

INTEGER_SEQS = ("T", "c", "s", "t", "sprime", "tprime")


class Oracle:
    """Reference values, computed on first use and kept for the run."""

    def __init__(self):
        self._mp: dict = {}
        self._brute: dict = {}

    # -- exact values from the literal matrices ------------------------------

    def mp(self, name: str, n: int):
        key = (name, n)
        if key not in self._mp:
            self._mp[key] = seq_mp(name, n)
        return self._mp[key]

    def exact(self, name: str, n: int) -> Fraction:
        """The exact value, rounded from mpmath: an integer, or for c' a
        rational with denominator dividing 2^(d_n)."""
        scale = 1 << max_divisible_positions(n) if name == "cprime" else 1
        with mpmath.workdps(DPS):
            return Fraction(int(mpmath.nint(mpmath.re(self.mp(name, n)) * scale)),
                            scale)

    def brute(self, family: str, p: int, d: int, idx: str) -> int:
        key = (family, p, d, idx)
        if key not in self._brute:
            self._brute[key] = ryser(_rank2_rows(family, p, d, idx))
        return self._brute[key]

    # -- sequences -------------------------------------------------------------

    def check_seq(self, name: str, n: int, text: str) -> str | None:
        value = Fraction(text)
        if not _near(value, self.mp(name, n)):
            return f"{name}({n}) = {text} disagrees with mpmath {self.mp(name, n)}"
        if name in INTEGER_SEQS and value.denominator != 1:
            return f"{name}({n}) = {text} is not an integer"
        if name == "cprime" and (1 << max_divisible_positions(n)) % value.denominator:
            return f"denominator of c'({n}) = {text} does not divide 2^d_n"
        if is_prime(n):
            sign = (-1) ** ((n + 1) // 2)
            want = {"t": sign, "s": sign, "tprime": 1, "sprime": 1,
                    "T": sign * 2 * n}.get(name)
            m = n * n if name == "T" else n
            if want is not None and mod_rat(value, m) != want % m:
                return f"{name}({n}) = {text} breaks its congruence mod {m}"
        return None

    # -- checks ------------------------------------------------------------------

    def check_report(self, check_id: str, params: dict, seed: int,
                     computed: str) -> str | None:
        """Compare one check's printed `computed` field with the oracle."""
        fn = _CHECKS.get(check_id)
        if fn is None:
            return f"no oracle for {check_id}"
        try:
            want = fn(self, params, seed)
        except (KeyError, ValueError) as exc:
            return f"{check_id} {params}: no reference value: {exc}"
        got = items(computed)
        if set(got) != set(want):
            return f"{check_id} {params}: labels {sorted(got)} != {sorted(want)}"
        for label, expect in want.items():
            try:
                ok = expect(got[label])
            except (ValueError, ZeroDivisionError) as exc:
                return f"{check_id} {params} {label}: unreadable {got[label]!r}: {exc}"
            if not ok:
                return f"{check_id} {params} {label}: {got[label]} is wrong"
        return None


def _eq_int(want: int):
    return lambda text: int(text) == want


def _eq_rat(want):
    return lambda text: Fraction(text) == Fraction(want)


def _eq_mp(ref):
    return lambda text: _near(Fraction(text), ref)


def _eq_residue(want: int, modulus: int):
    def check(text):
        value, m = _residue(text)
        return value == want % modulus and m in (None, modulus)
    return check


def _eq_lpoly(want: dict):
    return lambda text: parse_lpoly(text) == {e: c for e, c in want.items() if c}


# ryser_cyclo ------------------------------------------------------------------

def _cong_pair(name: str, name_p: str, want, want_p):
    def fn(o: Oracle, params, seed):
        p = params["p"]
        got, got_p = o.exact(name, p), o.exact(name_p, p)
        if mod_rat(got, p) != want(p) % p or mod_rat(got_p, p) != want_p(p) % p:
            raise ValueError("mpmath values break the congruence")
        label, label_p = {"t": ("t", "t'"), "s": ("s", "s'")}[name]
        return {label: _eq_residue(mod_rat(got, p), p),
                label_p: _eq_residue(mod_rat(got_p, p), p)}
    return fn


def _thjk_cong(o: Oracle, params, seed):
    p = params["p"]
    m = p * p
    got = mod_rat(o.exact("T", p), m)
    if got != (-1) ** ((p + 1) // 2) * 2 * p % m:
        raise ValueError("mpmath T(p) breaks the congruence")
    return {"": _eq_residue(got, m)}


def _thcos_cong(o: Oracle, params, seed):
    p = params["p"]
    h = (p - 1) // 2
    per_cos = mod_rat(o.exact("c", p) / 2 ** h, p)
    per_sec = mod_rat(o.exact("cprime", p) * 2 ** h, p)
    if not per_cos == per_sec == math.factorial(h) % p:
        raise ValueError("mpmath values break the congruence")
    return {"cos": _eq_residue(per_cos, p), "sec": _eq_residue(per_sec, p)}


def _csign(o: Oracle, params, seed):
    p = params["p"]
    sign = (-1) ** ((p - 1) // 2)
    return {"c": _eq_rat(sign * o.exact("c", p)),
            "c'": _eq_rat(sign * o.exact("cprime", p))}


def _rootexp(o: Oracle, params, seed):
    n = params["n"]
    out = {}
    for x in range(1, n + 1):
        ref = per_mp(lambda j, k, x=x: 1 + mpmath.expjpi(2 * mpmath.mpf(j + k) / n) * x,
                     n - 1)
        out[f"x={x}"] = _eq_mp(ref)
    return out


def _cor_trig(trig):
    def fn(o: Oracle, params, seed):
        n = params["n"]
        return {"": _eq_mp(per_mp(lambda j, k: trig(mpmath.pi * (j + k) / n),
                                  n - 1))}
    return fn


# field_cyclo ------------------------------------------------------------------

def _cauchyroot(o: Oracle, params, seed):
    n, x = params["n"], Fraction(params["x"])
    base = n * x ** n / (1 - x ** n)
    return {"": _eq_rat(math.prod((base + r for r in range(1, n + 1)),
                                  start=Fraction(1)))}


def _rootlinear(o: Oracle, params, seed):
    # The check draws its inputs from random.Random("seed|id|params"); the
    # oracle draws the same ones and evaluates n! (1 - x_1 ... x_n).
    n, backend = params["n"], params["backend"]
    rng = random.Random(f"{seed}|thper.rootlinear|backend={backend},n={n}")
    out = {}
    for trial in range(5):
        if backend == "cyc":
            xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(n)]
            out[f"x{trial}"] = _eq_rat(math.factorial(n) * (1 - math.prod(xs)))
        else:
            p = fq_prime(n)
            xs = [rng.randrange(p) for _ in range(n)]
            out[f"x{trial}"] = _eq_residue(
                math.factorial(n) * (1 - math.prod(xs)), p)
    return out


def _det_sec2(o: Oracle, params, seed):
    n = params["n"]
    return {"": _eq_int(n ** (n - 1) * double_factorial(n) ** 2)}


def _det_tan2(o: Oracle, params, seed):
    n = params["n"]
    return {"": _eq_int(0 if n == 1 else
                        (n - 1) * n ** (n - 2) * double_factorial(n) ** 2)}


def _derange(o: Oracle, params, seed):
    n = params["n"]
    if n % 2 == 0:
        return {"unsigned": _eq_rat(Fraction(double_factorial(n - 1) ** 2, 2 ** n))}
    h = (n - 1) // 2
    fh2 = math.factorial(h) ** 2
    return {"unsigned": _eq_rat(Fraction(fh2, n)),
            "signed": _eq_rat(Fraction((-1) ** h * fh2, n)),
            "cot": _eq_rat(Fraction((-1) ** h * double_factorial(n - 2) ** 2, n))}


def _rem_cp(o: Oracle, params, seed):
    n = params["n"]
    if n % 2:
        return {"": _eq_rat(0)}
    return {"": _eq_rat(Fraction((-1) ** (n // 2) * double_factorial(n - 1) ** 2,
                                 2 ** n))}


# int_grids ----------------------------------------------------------------------

def _rank2(family: str, idx: str, modulus, formula):
    def fn(o: Oracle, params, seed):
        p, d = params["p"], params["d"]
        m = modulus(p)
        want = formula(p, d, m) % m
        if p <= BRUTE_MAX_P and o.brute(family, p, d, idx) % m != want:
            raise ValueError("brute-force permanent breaks the congruence")
        return {"": _eq_residue(want, m)}
    return fn


def _sq(p):
    return p * p


def _ident(p):
    return p


def _quad0(p, d, m):
    return ((-1) ** ((p - 1) // 2) * p * pow(24, -1, m) * (d + jacobi(d, p))
            * math.factorial((p - 1) // 2))


def _absjk(o: Oracle, params, seed):
    p = params["p"]
    half = pow(2, -1, p)
    if p <= BRUTE_MAX_P:
        for shift, want in ((0, -half), (1, half)):
            rows = [[abs(j - k + shift) for k in range(p)] for j in range(p)]
            if ryser(rows) % p != want % p:
                raise ValueError("brute-force permanent breaks the claim")
    return {"|j-k|": _eq_residue(-half % p, p),
            "|j-k+1|": _eq_residue(half, p)}


def _invsumsq(o: Oracle, params, seed):
    p = params["p"]
    q = (p + 1) // 4
    return {"": _eq_residue(mod_rat(Fraction((-1) ** q, 4 * math.factorial(q) ** 2),
                                    p), p)}


def _maskper(o: Oracle, params, seed):
    return {"": _eq_residue(0, params["p"] ** 2)}


def _maskdet(o: Oracle, params, seed):
    p, a = params["p"], params["a"]
    m = p * p
    core = (3 - pow(a, p - 1, m)) * pow(2, -1, m)
    out = {"signed": _eq_residue(jacobi(a, p) * core % m, m)}
    if a % p:
        out["unsigned"] = _eq_residue((-1) ** ((p + 1) // 2) * core % m, m)
    return out


def _thq_det(o: Oracle, params, seed):
    n = params["n"]
    out = {"int": _eq_int((-1) ** (n * (n - 1) // 2))}
    if n > 1:
        out["q"] = _eq_lpoly({1: Fraction((-1) ** (n * (n + 1) // 2 - 1))})
    return out


def _qdet(o: Oracle, params, seed):
    n, a = params["n"], params["a"]
    j = jacobi(a * (a + 1), n)
    return {"floor": _eq_lpoly({(1 - 3 * n) // 2: Fraction(-j)}),
            "ceil": _eq_lpoly({(n - 1) // 2: Fraction(j)})}


def _qdetabs(o: Oracle, params, seed):
    n = params["n"]
    sign = (-1) ** (n - 1) * (n - 1)
    return {"|j-k+1|_q": _eq_lpoly(_lpoly_pow_one_plus_q(n - 2)),
            "|j-k|_q": _eq_lpoly(_lpoly_pow_one_plus_q(n - 2, sign)),
            "|j-k|": _eq_int(sign * 2 ** (n - 2))}


_CHECKS = {
    "thjk.cong": _thjk_cong,
    "thtan.cong": _cong_pair("t", "tprime", lambda p: (-1) ** ((p + 1) // 2),
                             lambda p: 1),
    "thsin.cong": _cong_pair("s", "sprime", lambda p: (-1) ** ((p + 1) // 2),
                             lambda p: 1),
    "thcos.cong": _thcos_cong,
    "conj.csign": _csign,
    "thper.rootexp": _rootexp,
    "cor.sin": _cor_trig(mpmath.sin),
    "cor.cos": _cor_trig(mpmath.cos),
    "thnew.cauchyroot": _cauchyroot,
    "thper.rootlinear": _rootlinear,
    "det.sec2": _det_sec2,
    "det.tan2": _det_tan2,
    "conj.derange": _derange,
    "rem.cp": _rem_cp,
    "thper.jdk1": _rank2("linear", "1..p-1", _sq,
                         lambda p, d, m: pow(d, p - 1, m) - 3
                         - 4 * math.factorial(p - 1)),
    "thper.jdk2": _rank2("linear", "1..p", _sq,
                         lambda p, d, m: (d + 1) * pow(2, -1, m) * p),
    "thper.jdk3": _rank2("linear", "0..p-1", _sq,
                         lambda p, d, m: -(d + 1) * pow(2, -1, m) * p),
    "thper.quad": _rank2("quad", "1..h", _sq,
                         lambda p, d, m: (pow(d, (p - 1) // 2, m) + 1)
                         * math.factorial((p - 1) // 2) ** 3),
    "thper.quad0": _rank2("quad", "0..h", _sq, _quad0),
    "cor.jdk": _rank2("linear", "1..p-1", _ident, lambda p, d, m: 2),
    "cor.quadmod": _rank2("quad", "1..h", _ident,
                          lambda p, d, m: (-1) ** ((p + 1) // 2)
                          * (1 + jacobi(d, p)) * math.factorial((p - 1) // 2)),
    "conj.absjk": _absjk,
    "thnew.invsumsq": _invsumsq,
    "conj.maskper": _maskper,
    "conj.maskdet": _maskdet,
    "thq.det": _thq_det,
    "conj.qdet": _qdet,
    "rem.qdetabs": _qdetabs,
}
