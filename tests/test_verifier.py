"""Check registry: completeness, spot examples, reproducibility, and the
mutation test proving FAIL reports carry both values."""

import math
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import permarith.cyclotomic as cyclotomic
import permarith.families as families
import permarith.matrices as matrices
import permarith.sequences as sequences
import permarith.verifier as verifier
from permarith.errors import DomainError, UnknownCheckError
from permarith.matrices import Mat, per_ryser, per_sum_values
from permarith.ntheory import binomial, factorial, inv_mod, odd_primes_upto
from permarith.rings import ZZ, Rat
from permarith.verifier import (ALL_CHECK_IDS, REGISTRY, Report,
                                default_grid, run_check, run_suite)
from test_matrices import _moment_coeffs

# one registry id per in-scope claim; keep in sync with the registry itself
MANIFEST = [
    "thq.floor", "thq.qfloor", "thq.det",
    "thper.rootlinear", "thper.rootexp", "thper.jxk",
    "thper.jdk1", "thper.jdk2", "thper.jdk3",
    "thper.quad", "thper.quad0",
    "cor.jdk", "cor.quadmod", "cor.sin", "cor.cos",
    "thnew.cauchyroot", "thnew.invsumsq",
    "thjk.int", "thjk.cong",
    "thcos.int", "thcos.cong",
    "thsin.int", "thsin.cong",
    "thtan.int", "thtan.cong",
    "lem.cauchy", "lem.borchardt", "lem.circulant",
    "lem.oneplus", "lem.gauss", "lem.half",
    "det.sec2", "det.tan2",
    "conj.qdet", "conj.bernoulli", "conj.absjk", "conj.maskper",
    "conj.derange", "conj.maskdet", "conj.sqdiff",
    "conj.csign", "conj.ssign", "conj.tsign",
    "rem.qdetabs", "rem.perhalf", "rem.cp",
]


def test_registry_completeness():
    assert sorted(REGISTRY) == sorted(MANIFEST)
    assert len(set(MANIFEST)) == len(MANIFEST)
    assert set(ALL_CHECK_IDS) == set(MANIFEST)


def test_registry_kinds_and_grids():
    for check_id, check in REGISTRY.items():
        expected_kind = "conjecture" if check_id.startswith("conj.") else "theorem"
        if check_id == "conj.bernoulli":
            expected_kind = "theorem"  # proven identity, explorer-visible id
        assert check.kind == expected_kind, check_id
        for tier in ("fast", "full"):
            grid = default_grid(check_id, tier)
            assert grid, (check_id, tier)
            assert all(isinstance(p, dict) for p in grid)
            # the CLI takes a check's parameter names from its grid
            assert {frozenset(p) for p in grid} == {
                frozenset(default_grid(check_id, "fast")[0])}, check_id


def test_spot_examples():
    r = run_check("thq.qfloor", {"n": 2})
    assert r.status == "PASS" and r.computed == "2 + q"
    r = run_check("thper.jdk2", {"p": 3, "d": 1})
    assert (r.status, r.computed, r.expected, r.modulus) == ("PASS", "3", "3", "9")
    r = run_check("conj.absjk", {"p": 3})
    assert r.status == "PASS" and "1" in r.computed
    r = run_check("thjk.cong", {"p": 13})
    assert r.status == "PASS"
    r = run_check("lem.gauss", {"n": 9})
    assert r.status == "PASS"


def test_unknown_check():
    with pytest.raises(UnknownCheckError):
        run_check("nosuch.id", {})
    with pytest.raises(UnknownCheckError):
        default_grid("nosuch.id")


def test_out_of_domain_params_skip():
    assert run_check("thnew.invsumsq", {"p": 5}).status == "SKIP"
    assert run_check("thper.quad", {"p": 3, "d": 1}).status == "SKIP"
    assert run_check("lem.oneplus", {"n": 8}).status == "SKIP"
    r = run_check("thnew.cauchyroot", {"n": 4, "x": "-1"})
    assert r.status == "SKIP" and ("singular" in r.note.lower()
                                   or "x^n" in r.note)


@pytest.mark.parametrize("check_id,params,reason", [
    ("thper.jxk", {"p": 4}, "odd prime"),
    ("thper.jdk1", {"p": 9, "d": 2}, "odd prime"),
    ("thjk.cong", {"p": 9}, "odd prime"),
    ("thcos.cong", {"p": 9}, "odd prime"),
    ("thper.quad", {"p": 9, "d": 2}, "odd prime"),
    ("conj.csign", {"p": 2}, "odd prime"),
    ("thper.jdk1", {"p": 7, "d": 7}, "not divisible by p"),
    ("thper.jdk2", {"p": 5, "d": 10}, "not divisible by p"),
    ("thper.jdk3", {"p": 7, "d": 0}, "not divisible by p"),
    ("cor.jdk", {"p": 7, "d": 7}, "not divisible by p"),
    ("thper.rootlinear", {"n": 100000, "backend": "fq"}, "no prime"),
    ("thper.rootlinear", {"n": 3, "backend": "gpu"}, "unknown backend"),
    ("thq.floor", {"n": 40}, "limited to n <= 20"),
    ("thper.quad0", {"p": 3, "d": 1}, "p > 3"),
    ("thnew.invsumsq", {"p": 5}, "claim requires p = 3 (mod 4)"),
    ("conj.sqdiff", {"p": 7}, "conjecture requires p = 1 (mod 4)"),
    ("conj.maskper", {"p": 5, "a": 5}, "conjecture requires a nonzero mod p"),
    ("conj.qdet", {"n": 4, "a": 1}, "conjecture requires odd n > 1"),
    ("rem.qdetabs", {"n": 1}, "claims require n >= 2"),
    ("det.sec2", {"n": 4}, "claim requires odd n"),
])
def test_inputs_outside_the_claim_skip(check_id, params, reason):
    # Outside a claim's domain the verdict is SKIP with the reason, never a
    # theorem FAIL or a PASS for a claim stated only for primes.
    r = run_check(check_id, params)
    assert r.status == "SKIP" and reason in r.note, r


def _forbid_building(monkeypatch, primality=True):
    # Make every matrix, Gauss sum, cyclotomic product, sequence value,
    # derangement or masked sum and rank-2 vector the verifier could build
    # raise, and with primality every primality test too.
    def unbuildable(*args, **params):
        raise AssertionError("built past the size limit")

    def untestable(n):
        raise AssertionError("primality test run")

    class UnbuildableCyc:
        rational = zeta = staticmethod(unbuildable)

    for name in ("build_cyclotomic", "build_integer", "build_qpoly",
                 "build_rational", "derangement_sum", "gauss_sum",
                 "per_sum_coeffs", "per_sum_values", "masked_sum", "Mat",
                 "CyclotomicField", "sequence_value", "seq_T", "seq_c",
                 "seq_c_prime", "seq_s", "seq_s_prime", "seq_t",
                 "seq_t_prime"):
        monkeypatch.setattr(verifier, name, unbuildable)
    monkeypatch.setattr(verifier, "Cyc", UnbuildableCyc)
    if primality:
        for module in (verifier, sequences, families, cyclotomic):
            monkeypatch.setattr(module, "is_prime", untestable)
        monkeypatch.setattr(cyclotomic, "prime_factors", untestable)
    verifier._per_coeffs.cache_clear()


def test_size_limits_refuse_before_building(monkeypatch):
    # Past a check's size limit the verdict is a SKIP with the limit, and
    # nothing is built; the full tier stays inside every limit.
    _forbid_building(monkeypatch, primality=False)
    guarded = {cid: c.limit for cid, c in REGISTRY.items() if c.limit}
    linear, quad = ("p", 751), ("p", 1409)
    assert guarded == {"det.sec2": ("n", 27), "det.tan2": ("n", 27),
                       "thq.det": ("n", 192), "lem.gauss": ("n", 3001),
                       "rem.qdetabs": ("n", 28), "lem.oneplus": ("n", 1501),
                       "lem.half": ("n", 1901), "thper.jxk": ("p", 601),
                       "thper.jdk1": linear, "thper.jdk2": linear,
                       "thper.jdk3": linear, "cor.jdk": linear,
                       "thper.quad": quad, "thper.quad0": quad,
                       "cor.quadmod": quad, "thnew.invsumsq": ("p", 31),
                       "conj.sqdiff": ("p", 29),
                       "thper.rootexp": ("n", 14), "cor.sin": ("n", 18),
                       "cor.cos": ("n", 18), "thnew.cauchyroot": ("n", 16),
                       "conj.derange": ("n", 16), "rem.perhalf": ("n", 19),
                       "thq.floor": ("n", 20), "thq.qfloor": ("n", 20),
                       "conj.bernoulli": ("n", 20), "conj.absjk": ("p", 19),
                       "conj.maskper": ("p", 19), "lem.cauchy": ("n", 29),
                       "lem.borchardt": ("n", 16),
                       "lem.circulant": ("n", 66), "conj.qdet": ("n", 33),
                       "conj.maskdet": ("p", 17), "rem.cp": ("n", 28),
                       "thjk.cong": ("p", 19), "thcos.cong": ("p", 37),
                       "thsin.cong": ("p", 31), "thtan.cong": ("p", 31),
                       "conj.csign": ("p", 37), "conj.ssign": ("n", 35),
                       "conj.tsign": ("n", 35), "thjk.int": ("n", 19),
                       "thcos.int": ("n", 37), "thsin.int": ("n", 35),
                       "thtan.int": ("n", 35)}
    # A check that reads sequences takes its limit from SEQ_TABLE; one that
    # reads s and s' or t and t' at one index takes PAIR_SEQ_LIMIT where
    # that is lower.
    for check_id, names in (("thjk.cong", ("T",)), ("thjk.int", ("T",)),
                            ("thcos.int", ("c", "cprime")),
                            ("thsin.int", ("s", "sprime")),
                            ("thtan.int", ("t", "tprime")),
                            ("thcos.cong", ("c", "cprime")),
                            ("thsin.cong", ("s", "sprime")),
                            ("thtan.cong", ("t", "tprime")),
                            ("conj.csign", ("c", "cprime")),
                            ("conj.ssign", ("s", "sprime")),
                            ("conj.tsign", ("t", "tprime"))):
        key, limit = guarded[check_id]
        pair = ([verifier.PAIR_SEQ_LIMIT[key]] if names[0] in ("s", "t")
                else [])
        assert limit == min([sequences.SEQ_TABLE[name][-1]
                             for name in names] + pair), check_id
    for check_id, params in (
            ("det.sec2", {"n": 61}), ("det.tan2", {"n": 29}),
            ("thq.det", {"n": 400}), ("lem.gauss", {"n": 100001}),
            ("rem.qdetabs", {"n": 30}), ("lem.oneplus", {"n": 1503}),
            ("lem.half", {"n": 1903}), ("thper.jxk", {"p": 607}),
            ("thper.jdk1", {"p": 3001, "d": 1}),
            ("thper.jdk2", {"p": 757, "d": 2}),
            ("thper.jdk3", {"p": 1009, "d": 1}),
            ("cor.jdk", {"p": 761, "d": 5}),
            ("thper.quad", {"p": 1423, "d": 1}),
            ("thper.quad0", {"p": 3001, "d": 2}),
            ("cor.quadmod", {"p": 1427, "d": 3}),
            ("thnew.invsumsq", {"p": 4007}), ("conj.sqdiff", {"p": 37}),
            ("thper.rootexp", {"n": 15}), ("cor.sin", {"n": 19}),
            ("cor.cos", {"n": 19}), ("thnew.cauchyroot", {"n": 17, "x": "-1"}),
            ("conj.derange", {"n": 17}), ("rem.perhalf", {"n": 21}),
            ("thq.floor", {"n": 40}), ("thq.qfloor", {"n": 21}),
            ("conj.bernoulli", {"n": 21}), ("conj.absjk", {"p": 23}),
            ("conj.maskper", {"p": 23, "a": 1}), ("lem.cauchy", {"n": 800}),
            ("lem.borchardt", {"n": 17}), ("lem.circulant", {"n": 67}),
            ("conj.qdet", {"n": 35, "a": 1}),
            ("conj.maskdet", {"p": 19, "a": 1}),
            ("rem.cp", {"n": 29}), ("thjk.cong", {"p": 23}),
            ("thcos.cong", {"p": 41}), ("thsin.cong", {"p": 37}),
            ("thtan.cong", {"p": 1000}), ("conj.csign", {"p": 41}),
            ("conj.ssign", {"n": 39}), ("conj.tsign", {"n": 37}),
            ("thjk.int", {"n": 21}), ("thcos.int", {"n": 39}),
            ("thsin.int", {"n": 39}), ("thtan.int", {"n": 45})):
        key, top = guarded[check_id]
        r = run_check(check_id, params)
        assert r.status == "SKIP", r
        assert r.note == (f"out of domain: {check_id} limited to"
                          f" {key} <= {top}, got {key} = {params[key]}")
    for check_id, (key, top) in guarded.items():
        assert max(g[key] for g in default_grid(check_id, "full")) <= top
        at_limit = dict(default_grid(check_id, "full")[0], **{key: top})
        with pytest.raises(AssertionError, match="built"):
            run_check(check_id, at_limit)
    # thper.rootlinear bounds each backend in its runner, after the fq root
    # search, whose own SKIP still shows past the limit.
    assert verifier.ROOTLINEAR_LIMITS == {"cyc": 14, "fq": 16}
    assert max(g["n"] for g in default_grid("thper.rootlinear", "full")) <= 14
    for backend, top in verifier.ROOTLINEAR_LIMITS.items():
        r = run_check("thper.rootlinear", {"n": top + 1, "backend": backend})
        assert r.status == "SKIP" and r.note == (
            f"out of domain: thper.rootlinear limited to n <= {top} with"
            f" backend {backend}, got n = {top + 1}")
        with pytest.raises(AssertionError, match="built"):
            run_check("thper.rootlinear", {"n": top, "backend": backend})
    r = run_check("thper.rootlinear", {"n": 100000, "backend": "fq"})
    assert r.status == "SKIP" and "no prime" in r.note
    # thnew.cauchyroot also bounds height(x), the bit length of the larger
    # of |numerator| and denominator, by 2^17 / 2^k and 12,544 / k^2,
    # k = max(n, 7): the first bound from n = 11 on, the second from 7 to 10.
    assert (verifier.CAUCHYROOT_HEIGHT_LIMIT,
            verifier.CAUCHYROOT_PRINT_LIMIT) == (2 ** 17, 49 * 256)
    tops = {n: verifier._cauchyroot_height_top(n) for n in range(1, 17)}
    assert tops == {**dict.fromkeys(range(1, 8), 256), 8: 196, 9: 154,
                    10: 125, 11: 64, 12: 32, 13: 16, 14: 8, 15: 4, 16: 2}
    assert all(max(len(f"{abs(int(v)):b}") for v in g["x"].split("/"))
               <= tops[g["n"]]
               for g in default_grid("thnew.cauchyroot", "full"))
    for n, x, top, height in ((16, "3/5", 2, 3), (14, "511", 8, 9),
                              (12, str(2 ** 32), 32, 33),
                              (10, str(2 ** 125), 125, 126),
                              (7, str(2 ** 256), 256, 257),
                              (2, str(2 ** 8192), 256, 8193)):
        r = run_check("thnew.cauchyroot", {"n": n, "x": x})
        assert r.status == "SKIP" and r.note == (
            f"out of domain: thnew.cauchyroot limited to height(x) <= {top}"
            f" at n = {n}, got {height}")
    for n, x in ((16, "-3"), (14, "-255/253"),
                 (12, f"-{2 ** 32 - 1}/{2 ** 31 + 1}"),
                 (10, str(2 ** 125 - 1)), (6, "-97/89"),
                 (7, f"-{2 ** 256 - 1}/{2 ** 255 + 1}"), (1, str(2 ** 255))):
        with pytest.raises(AssertionError, match="built"):
            run_check("thnew.cauchyroot", {"n": n, "x": x})
    # conj.qdet also bounds |a| by 3 * 35^3 / (n + 2)^3, 3 at n = 33.
    assert verifier.QDET_LIMIT == 3 * 35 ** 3
    assert all((g["n"] + 2) ** 3 * abs(g["a"]) <= verifier.QDET_LIMIT
               for g in default_grid("conj.qdet", "full"))
    for n, top in ((33, 3), (9, 96), (3, 1029)):
        for a in (top + 1, -top - 1):
            r = run_check("conj.qdet", {"n": n, "a": a})
            assert r.status == "SKIP" and r.note == (
                f"out of domain: conj.qdet limited to |a| <= {top} at"
                f" n = {n}, got a = {a}")
        for a in (top, -top):
            with pytest.raises(AssertionError, match="built"):
                run_check("conj.qdet", {"n": n, "a": a})


@pytest.mark.parametrize("check_id", ["det.sec2", "det.tan2", "rem.cp"])
def test_determinant_checks_pass_and_print_at_their_limits(check_id):
    # str() refuses an int past 4,300 digits; at its limit each check
    # passes and every value it prints stays well inside.
    key, top = REGISTRY[check_id].limit
    r = run_check(check_id, {key: top})
    assert r.status == "PASS", r
    for text in (r.computed, r.expected):
        assert sum(c.isdigit() for c in text) < 4300, (check_id, text)


@pytest.mark.parametrize("check_id,params", [
    ("cor.sin", {"n": REGISTRY["cor.sin"].limit[1]}),
    ("thper.rootlinear", {"n": verifier.ROOTLINEAR_LIMITS["cyc"],
                          "backend": "cyc"}),
    ("conj.absjk", {"p": REGISTRY["conj.absjk"].limit[1]})],
    ids=["cor.sin", "rootlinear", "absjk"])
def test_glynn_checks_pass_and_print_at_their_limits(check_id, params):
    # The same at the limits of two Glynn checks over Q(zeta), re-fitted
    # since Glynn's sum went to blocks, and of conj.absjk over Z, whose
    # 19 rows run the mirror sum (|j-k|) and the plain sum (|j-k+1|).
    r = run_check(check_id, params)
    assert r.status == "PASS", r
    for text in (r.computed, r.expected):
        assert sum(c.isdigit() for c in text) < 4300, (check_id, text)


def _cauchyroot_at(n):
    # thnew.cauchyroot at n with the largest x its height bound admits:
    # 2^h - 1 has h bits.
    height = verifier._cauchyroot_height_top(n)
    return {"n": n, "x": str((1 << height) - 1)}


@pytest.mark.parametrize("check_id,params", [
    ("thnew.cauchyroot",
     _cauchyroot_at(REGISTRY["thnew.cauchyroot"].limit[1])),
    ("thnew.cauchyroot", _cauchyroot_at(7)),
    ("thnew.cauchyroot", _cauchyroot_at(10)),
    ("rem.perhalf", {"n": REGISTRY["rem.perhalf"].limit[1]}),
    ("conj.derange", {"n": REGISTRY["conj.derange"].limit[1]}),
    ("thper.rootexp", {"n": REGISTRY["thper.rootexp"].limit[1]}),
    ("lem.circulant", {"n": REGISTRY["lem.circulant"].limit[1]}),
    ("lem.oneplus", {"n": REGISTRY["lem.oneplus"].limit[1]}),
    ("lem.half", {"n": REGISTRY["lem.half"].limit[1]})],
    ids=["cauchyroot-n", "cauchyroot-height", "cauchyroot-print", "perhalf",
         "derange", "rootexp", "circulant", "oneplus", "half"])
def test_builder_checks_pass_and_print_at_their_limits(check_id, params):
    # The same at the limits of the Q(zeta) checks whose entries are
    # inverses of binomials (thnew.cauchyroot at its largest n, at n = 7
    # with the largest height, and at n = 10 with height 125, where the
    # numerator and denominator of the value have about n^2 * height bits
    # each, the most the height bound admits; rem.perhalf; conj.derange) or
    # sums and scalar multiples of powers of zeta, and at the limits of the
    # two products of binomials, lem.oneplus and lem.half.  str() bounds
    # each int.
    r = run_check(check_id, params)
    assert r.status == "PASS", r
    for text in (r.computed, r.expected):
        assert max(map(len, re.findall(r"\d+", text))) < 4300, \
            (check_id, text)


# The Fraction forms of four closed forms that the runners take in ints,
# kept as their references.
def _rootexp_reference(n, x):
    return sum(Rat(factorial(n - 1), binomial(n - 1, k)) * x ** k
               for k in range(n))


def _cos_reference(n):
    return Rat(factorial(n - 1), (-2) ** (n - 1)) * sum(
        Rat(1, binomial(n - 1, k)) for k in range(n))


def _rootlinear_reference(xs):
    return factorial(len(xs)) * (1 - math.prod(xs, start=Rat(1)))


def _cauchyroot_reference(n, x):
    base = Rat(n * x ** n, 1 - x ** n)
    return math.prod((base + r for r in range(1, n + 1)), start=Rat(1))


def _same(got, want):
    # Equal, and printed alike in a report.
    assert got == want and str(got) == str(want), (got, want)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 20), st.integers(-5, 25))
def test_rootexp_sum_equals_its_fraction_reference(n, x):
    _same(verifier._rootexp_sum(n, x), _rootexp_reference(n, x))


class _Permanent:
    # A stand-in for per_ryser's value: as_rational() gives `value`.
    def __init__(self, value):
        self.value = value

    def as_rational(self):
        return self.value


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 30))
def test_cor_cos_closed_form_equals_its_fraction_reference(n):
    # cor.cos's registered claim, run on a stand-in permanent that makes its
    # left side the reference: it must pass and print the reference.
    want = _cos_reference(n)
    per = _Permanent(want * (-2) ** (n - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "build_cyclotomic", lambda family, **params: None)
        mp.setattr(verifier, "per_ryser", lambda mat: per)
        (item,), _, _ = REGISTRY["cor.cos"].runner({"n": n}, None)
    assert item.ok, item
    assert item.expected == str(want)


_RATIONALS = st.fractions(-50, 50, max_denominator=30)


@settings(max_examples=200, deadline=None)
@given(st.lists(_RATIONALS, min_size=1, max_size=14))
@example([Fraction(0)])
@example([Fraction(-3, 7), Fraction(0), Fraction(5)])
def test_rootlinear_closed_form_equals_its_fraction_reference(xs):
    xs = tuple(Rat(x.numerator, x.denominator) for x in xs)
    _same(verifier._rootlinear_want(xs), _rootlinear_reference(xs))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16), _RATIONALS)
@example(5, Fraction(0))
@example(3, Fraction(-1))
@example(6, Fraction(-2, 3))
@example(7, Fraction(3, 2))
@example(4, Fraction(-5, 2))
def test_cauchyroot_closed_form_equals_its_fraction_reference(n, x):
    # x of both signs, |x| < 1 and > 1 and 0; x^n = 1 is refused before.
    x = Rat(x.numerator, x.denominator)
    assume(x ** n != 1)
    _same(verifier._cauchyroot_want(n, x), _cauchyroot_reference(n, x))


# The five vectors u_j = j^e (lo <= j < hi) of the rank-2 claims, as
# (lo, hi) of p and e.
RANK2_VECTORS = [
    pytest.param(lambda p: (1, p), 1, id="linear-1..p-1"),
    pytest.param(lambda p: (1, p + 1), 1, id="linear-1..p"),
    pytest.param(lambda p: (0, p), 1, id="linear-0..p-1"),
    pytest.param(lambda p: (1, (p + 1) // 2), 2, id="quad-1..h"),
    pytest.param(lambda p: (0, (p + 1) // 2), 2, id="quad-0..h"),
]


@pytest.mark.parametrize("bounds,e", RANK2_VECTORS)
def test_structured_per_equals_per_sum_values(bounds, e):
    # The d-grids evaluate one closed-form coefficient vector per vector
    # u_j = j^e.  At every p <= 23, which covers the grids of both tiers,
    # the vector must be the moment table's, and every value must be
    # per_sum_values of the same matrix and, for p <= 11, Glynn's permanent.
    for p in odd_primes_upto(23):
        lo, hi = bounds(p)
        u = w = [j ** e for j in range(lo, hi)]
        assert verifier._per_coeffs(lo, hi, e) == _moment_coeffs(u, w), p
        for d in range(1, p):
            dw = [d * x for x in w]
            got = verifier._structured_per(lo, hi, e, d)
            assert [got] == per_sum_values(u, [dw]), (p, d)
            if p <= 11:
                mat = Mat(ZZ, [[uj + x for x in dw] for uj in u])
                assert got == per_ryser(mat), (p, d)


def test_rank2_runner_reports_a_wrong_coefficient(monkeypatch):
    # The seven d-grid claims share the claim runner and the cached vectors;
    # a rank-2 vector with one coefficient off by one must make each of them
    # a FAIL with both values.
    real = verifier._per_coeffs

    def off_by_one(lo, hi, e):
        c0, *rest = real(lo, hi, e)
        return (c0 + 1, *rest)

    d_grid_checks = ("thper.jdk1", "thper.jdk2", "thper.jdk3", "thper.quad",
                     "thper.quad0", "cor.jdk", "cor.quadmod")
    params = {"p": 7, "d": 2}
    for check_id in d_grid_checks:
        assert run_check(check_id, params).status == "PASS", check_id
    monkeypatch.setattr(verifier, "_per_coeffs", off_by_one)
    for check_id in d_grid_checks:
        r = run_check(check_id, params)
        assert r.status == "FAIL", check_id
        assert r.computed and r.expected and r.computed != r.expected, r


def test_reports_reproducible():
    for check_id, params in (("thper.rootlinear", {"n": 5, "backend": "cyc"}),
                             ("lem.cauchy", {"n": 4}),
                             ("thper.jxk", {"p": 7})):
        a = run_check(check_id, params, seed=3)
        b = run_check(check_id, params, seed=3)
        assert (a.status, a.computed, a.expected) == \
            (b.status, b.computed, b.expected)
        c = run_check(check_id, params, seed=4)
        assert c.status == "PASS"  # different seed still passes


def test_only_the_drawing_runners_seed_a_stream(monkeypatch):
    # run_check seeds its random.Random only when a runner reads it, so a
    # rank-2 check passes with seeding made to raise, and a check that draws
    # still reaches it.
    def unseedable(*args):
        raise AssertionError("seeded")

    monkeypatch.setattr(verifier.random, "Random", unseedable)
    assert run_check("thper.jdk1", {"p": 13, "d": 2}).status == "PASS"
    assert run_check("conj.absjk", {"p": 7}).status == "PASS"
    for check_id, params in (("thper.rootlinear", {"n": 3, "backend": "fq"}),
                             ("thper.jxk", {"p": 7}), ("lem.cauchy", {"n": 3}),
                             ("lem.borchardt", {"n": 3}),
                             ("lem.circulant", {"n": 3})):
        with pytest.raises(AssertionError, match="seeded"):
            run_check(check_id, params)


def test_no_checked_matrix_runs_on_kronecker(monkeypatch):
    # Over both tiers, every matrix over Q(zeta_m) that a check builds
    # takes the residue lowering: the Galois check finds a carrier for every
    # one of them (m <= 2 and all-rational matrices included), and a
    # one-row matrix is its entry, with no lowering at all.  A family that
    # falls back to Kronecker fails here.
    lowered = []
    current = [None]
    real_check = verifier.run_check

    def tagged(check_id, params, seed=0):
        current[0] = check_id, params
        return real_check(check_id, params, seed)

    def spy(name):
        real = getattr(cyclotomic.CyclotomicField, name)

        def call(self, rows, *carrier):
            lowered.append((current[0], self.m, len(rows), name))
            return real(self, rows, *carrier)
        monkeypatch.setattr(cyclotomic.CyclotomicField, name, call)
    spy("lower")
    spy("lower_rational")
    monkeypatch.setattr(verifier, "run_check", tagged)
    run_suite("fast")
    run_suite("full")
    assert lowered
    assert [row for row in lowered if row[-1] == "lower"] == []
    assert all(n > 1 for _, _, n, _ in lowered)


def test_circulant_orbit_sum_census(monkeypatch):
    # Over the full tier, per_ryser takes the circulant orbit sum for the
    # paper's Cauchy matrix [1/(1 - zeta^(j-k) x)] (thnew.cauchyroot, and
    # rem.perhalf at x = -1) and for the zero-diagonal [1/(1 - zeta^(j-k))]
    # of conj.derange at even n; at odd n its size n - 1 table is no
    # circulant.  Two-row matrices keep Glynn's sum.  A family that leaves
    # the orbit sum fails here.
    taken = []
    current = [None]
    real_check = verifier.run_check
    real_necklaces = matrices._necklaces

    def tagged(check_id, params, seed=0):
        current[0] = check_id, params
        return real_check(check_id, params, seed)

    def spy(n):
        taken.append((*current[0], n))
        return real_necklaces(n)
    monkeypatch.setattr(matrices, "_necklaces", spy)
    monkeypatch.setattr(verifier, "run_check", tagged)
    # conj.derange reads its sums through a cache that earlier tests fill.
    sequences.derangement_sum.cache_clear()
    run_suite("full")
    assert Counter(cid for cid, _, _ in taken) == {
        "thnew.cauchyroot": 28, "rem.perhalf": 4, "conj.derange": 4}
    for cid, params, n in taken:
        assert n == params["n"] >= 3, (cid, params)
        assert cid != "conj.derange" or n % 2 == 0, params


def test_mutation_is_caught(monkeypatch):
    # corrupt the integer builder: floor matrix loses a corner entry
    real = verifier.build_integer

    def corrupted(family, **params):
        mat = real(family, **params)
        if family == "floor_shift":
            # bottom-left cell lies on the one contributing permutation
            rows = [list(r) for r in mat.rows]
            rows[-1][0] += 1
            return Mat(ZZ, rows)
        return mat

    monkeypatch.setattr(verifier, "build_integer", corrupted)
    reports = run_suite("fast", ids=("thq.floor",))
    fails = [r for r in reports if r.status == "FAIL"]
    assert fails
    for r in fails:
        assert r.computed and r.expected and r.computed != r.expected


def test_run_suite_sorted_and_green():
    reports = run_suite("fast", ids=("thq.floor", "lem.gauss", "cor.sin"))
    keys = [r.sort_key() for r in reports]
    assert keys == sorted(keys)
    assert all(r.status == "PASS" for r in reports)


@pytest.mark.parametrize("check_id,params,message", [
    ("thper.jdk1", {"p": 7}, "thper.jdk1 needs --d"),
    ("thq.floor", {"n": 3, "p": 5}, "thq.floor takes no --p"),
    ("thper.rootlinear", {"n": 3}, "thper.rootlinear needs --backend"),
    ("thq.det", {"p": 5}, "thq.det needs --n, takes no --p"),
    ("thq.floor", {"n": 10 ** 5000}, "n must have at most 4300 digits"),
    ("lem.gauss", {"n": -10 ** 5000}, "n must have at most 4300 digits"),
    ("thper.jdk1", {"p": 7, "d": 10 ** 4300},
     "d must have at most 4300 digits"),
    ("thnew.cauchyroot", {"n": 3, "x": 10 ** 4300},
     "x must have at most 4300 digits"),
])
def test_run_check_refuses_missing_and_extra_keys(monkeypatch, check_id,
                                                  params, message):
    # The registry owns each check's keys: anything else is refused with the
    # CLI's text before the runner starts.  So is an int that str() cannot
    # print (more than 4300 digits), which no report could show.
    def unreachable(params, rng):
        raise AssertionError("runner started")

    monkeypatch.setitem(REGISTRY, check_id,
                        REGISTRY[check_id]._replace(runner=unreachable))
    with pytest.raises(DomainError) as exc:
        run_check(check_id, params)
    assert str(exc.value) == message


def test_a_value_too_long_to_print_is_a_skip(monkeypatch):
    # With thnew.cauchyroot's two height bounds lifted, n = 11 and
    # x = 2^128 - 1 make a true value of more than 4300 digits: str(), and
    # so every report, cannot print it.  That is a SKIP naming the limit,
    # not a FAIL with empty fields.
    monkeypatch.setattr(verifier, "CAUCHYROOT_HEIGHT_LIMIT", 1 << 200)
    monkeypatch.setattr(verifier, "CAUCHYROOT_PRINT_LIMIT", 1 << 200)
    r = run_check("thnew.cauchyroot", {"n": 11, "x": str(2 ** 128 - 1)})
    assert r.status == "SKIP", r
    assert "more than 4300 digits" in r.note, r.note


def test_any_other_value_error_is_still_a_fail(monkeypatch):
    def broken(params, rng):
        raise ValueError("Exceeds nothing: a runner's own fault")

    monkeypatch.setitem(REGISTRY, "thq.floor",
                        REGISTRY["thq.floor"]._replace(runner=broken))
    r = run_check("thq.floor", {"n": 3})
    assert r.status == "FAIL"
    assert r.note == "ValueError: Exceeds nothing: a runner's own fault"


@pytest.mark.parametrize("check_id,params", [
    ("thjk.int", {"n": "7"}),
    ("thjk.int", {"n": 7.0}),
    ("thper.jdk1", {"p": 7, "d": "2"}),
    ("conj.qdet", {"n": 3, "a": None}),
    ("thper.rootlinear", {"n": 3, "backend": ["cyc"]}),
    ("thnew.cauchyroot", {"n": 3, "x": "abc"}),
    ("thnew.cauchyroot", {"n": 3, "x": "1/0"}),
    ("thnew.cauchyroot", {"n": 3, "x": "1" * 4400}),
])
def test_mistyped_values_skip(check_id, params):
    # A value of the wrong type, or an x that does not read as a rational
    # (past str()'s 4300 digits too), is out of domain: never a FAIL or a
    # traceback, and a long value is not repeated in the note.
    r = run_check(check_id, params)
    assert r.status == "SKIP" and r.note.startswith("out of domain: "), r
    assert len(r.note) < 100


def test_every_runner_reads_exactly_its_keys():
    # Each runner, called on its first fast-grid row, reads every key that
    # run_check requires of the check and no other.
    class Recording(dict):
        def __init__(self, *args):
            super().__init__(*args)
            self.read = set()

        def __getitem__(self, key):
            self.read.add(key)
            return super().__getitem__(key)

    for check_id, check in REGISTRY.items():
        row = default_grid(check_id, "fast")[0]
        params = Recording(row)
        try:
            check.runner(params, verifier._rng(0, check_id, row))
        except verifier.SkipCheck:
            pass
        assert params.read == check.keys == set(row), check_id


def test_claim_runner_fails_a_wrong_value_and_skips_even_n(monkeypatch):
    # One runner states value(n) = want(n) for the one-value claims; a wrong
    # value is a FAIL with both sides, and the odd-n rule SKIPs an even n.
    wrong = verifier._claim((lambda n: n, lambda n: n + 1),
                            skip=[verifier._ODD_N])
    monkeypatch.setitem(REGISTRY, "det.sec2",
                        REGISTRY["det.sec2"]._replace(runner=wrong))
    r = run_check("det.sec2", {"n": 3})
    assert (r.status, r.computed, r.expected) == ("FAIL", "3", "4")
    r = run_check("det.sec2", {"n": 4})
    assert r.status == "SKIP" and r.note == "claim requires odd n"
    r = run_check("thq.floor", {"n": 4})  # no odd: an even n runs
    assert r.status == "PASS"
    monkeypatch.setattr(verifier, "double_factorial", lambda n: 1)
    for check_id in ("det.tan2", "rem.perhalf"):
        r = run_check(check_id, {"n": 5})
        assert r.status == "FAIL" and r.computed != r.expected, r


def test_claim_runner_reduces_both_sides_mod_p_power(monkeypatch):
    # With power=k the claim runner reduces each value and each closed form,
    # int or rational, mod p^k, labels each pair and reports the modulus;
    # its SKIP rules are tried in order before any value is computed.
    def claim(want_half, rules=()):
        return verifier._claim(
            ("half", lambda p: Rat(1, 2), want_half),
            ("one", lambda p: p * p + 1, lambda p: 1), power=2, skip=rules)

    def run(runner):
        monkeypatch.setitem(REGISTRY, "thjk.cong",
                            REGISTRY["thjk.cong"]._replace(runner=runner))
        return run_check("thjk.cong", {"p": 7})

    r = run(claim(lambda p: inv_mod(2, p * p)))
    assert (r.status, r.computed, r.expected, r.modulus) == (
        "PASS", "half=25; one=1", "half=25; one=1", "49")
    r = run(claim(lambda p: Rat(-1, 2)))
    assert (r.status, r.computed, r.expected) == (
        "FAIL", "half=25; one=1", "half=24; one=1")

    def unreachable(p):
        raise AssertionError("value computed")

    r = run(claim(unreachable, rules=[(lambda p: p > 3, "first"),
                                      (lambda p: p > 7, "second"),
                                      (lambda p: False, "third")]))
    assert (r.status, r.note) == ("SKIP", "second")


HUGE = 998244359987710471  # 1000000007 * 998244353


def test_every_check_refuses_a_huge_size_at_once(monkeypatch):
    # An 18-digit n or p is a SKIP for every check, with nothing built and
    # no primality test run (trial division would take minutes).
    _forbid_building(monkeypatch)
    for check_id in REGISTRY:
        rows = default_grid(check_id, "fast")
        key = "p" if "p" in rows[0] else "n"
        for params in {tuple(sorted({**row, key: HUGE}.items()))
                       for row in rows}:
            r = run_check(check_id, dict(params))
            assert r.status == "SKIP" and r.ms < 1000, r


@pytest.mark.parametrize("size", [-7, -3, -2, -1, 0, 1, 2])
def test_every_check_reports_a_small_or_negative_size(size):
    # n or p at 2 or below, the other keys from the first fast-tier row: a
    # report, PASS or SKIP, never a FAIL or a traceback.
    for check_id in REGISTRY:
        row = default_grid(check_id, "fast")[0]
        key = "p" if "p" in row else "n"
        r = run_check(check_id, {**row, key: size})
        assert isinstance(r, Report) and r.status != "FAIL", r
