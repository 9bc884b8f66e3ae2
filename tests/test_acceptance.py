"""Acceptance suite: one test per criterion, exact comparisons, stated time
budgets, one printed pass/fail line per criterion.

Reference tables follow the published value lists, with one corrected
misprint: cprime at index 9, which the published list prints as 37 but whose
exact value is 75/2.  Four independent computations agree on 75/2: exact
Ryser over Q(zeta_9), the exact naive permanent of the same matrix, a float
permanent of the literal matrix 1/cos(2 pi jk/9) (37.5), and the denominator
bound 2^(d_9) = 2, which 75/2 attains.  No reading of the definition gives
37.  Criterion 1 re-derives the corrected entry with the naive engine, so
the one departure from the published list is justified inside the suite.
Every other entry is re-verified by independent computation (exact naive
permanent and floating-point evaluation).
"""

import json
import random
import time

from permarith.cli import main
from permarith.cyclotomic import CyclotomicField, gauss_sum
from permarith.families import build_cyclotomic
from permarith.matrices import Mat, det_divfree, det_field, per_naive, per_ryser
from permarith.rings import GF, QPOLY, QQ, ZZ, Rat, Zmod
from permarith.sequences import masked_sum
from permarith.verifier import run_check
from test_matrices import _eliminate
from test_sequences import _masked_bruteforce

BUDGETS = {1: 300, 2: 120, 3: 300, 4: 60, 5: 180}

T_OVER_N = {3: "-1", 5: "13", 7: "-285", 9: "16569", 11: "-1218105",
            13: "164741445"}
C_TABLE = {3: "-1", 5: "3", 7: "-1", 9: "-3", 11: "-21", 13: "151",
           15: "135", 17: "2529", 19: "-7789", 21: "2835", 23: "-39513"}
# cprime(9) is published as 37, a misprint: the exact value is 75/2 (see the
# module docstring; criterion 1 re-derives it with per_naive).
CP_TABLE = {3: "-1", 5: "3", 7: "-8", 9: "75/2", 11: "-813", 13: "4727",
            15: "-6345", 17: "687714", 19: "-6857783", 21: "1830087/2",
            23: "-4513102204"}
S_TABLE = {3: "1", 5: "-1", 7: "1", 9: "9", 11: "1", 13: "51", 15: "45",
           17: "-239", 19: "913", 21: "2835", 23: "12145"}
SP_TABLE = {3: "1", 5: "1", 7: "-6", 11: "111", 13: "261", 17: "6784",
            19: "245101", 23: "-7094142"}
T_TABLE = {3: "1", 5: "4", 7: "-34", 9: "90", 11: "4808", 13: "99072",
           15: "-24480", 17: "-40060416", 19: "1247716416",
           21: "163332288", 23: "-564826623232", 25: "569070720000"}
TP_TABLE = {3: "1", 5: "-4", 7: "22", 11: "1816", 13: "-5056",
            17: "-2676224", 19: "58473280"}


def _seq_json(capsys, name, range_):
    code = main(["seq", name, "--range", range_, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    return {r["index"]: r["value"] for r in doc["results"]
            if r["status"] == "OK"}


def _criterion(number, failures, elapsed):
    budget = BUDGETS.get(number)
    detail = f"{elapsed:.1f}s" + (f" (budget {budget}s)" if budget else "")
    if failures:
        print(f"[criterion {number}] FAIL ({detail}): " +
              "; ".join(failures[:10]))
        raise AssertionError(f"criterion {number}: {failures}")
    print(f"[criterion {number}] PASS ({detail})")
    if budget is not None:
        assert elapsed <= budget, f"criterion {number} over budget"


def test_criterion_1_sequence_tables(capsys):
    start = time.perf_counter()
    failures = []

    got = _seq_json(capsys, "T", "3..13")
    for n, want in T_OVER_N.items():
        ratio = Rat(got[n]) / n
        if str(ratio) != want:
            failures.append(f"T({n})/{n}: computed {ratio}, table {want}")

    for name, range_, table in (("c", "3..23", C_TABLE),
                                ("cprime", "3..23", CP_TABLE),
                                ("s", "3..23", S_TABLE),
                                ("sprime", "3..23", SP_TABLE),
                                ("t", "3..25", T_TABLE),
                                ("tprime", "3..19", TP_TABLE)):
        got = _seq_json(capsys, name, range_)
        if set(got) != set(table):
            failures.append(f"{name}: indices {sorted(got)} vs "
                            f"{sorted(table)}")
            continue
        for n, want in table.items():
            if Rat(got[n]) != Rat(want):
                failures.append(
                    f"{name}({n}): computed {got[n]}, table {want}")

    # The corrected cprime(9) entry, from the naive engine rather than the
    # seq path: the built sec2 entries are sec/2, so over its 4 rows
    # c'(9) = 2^-4 per[sec 2 pi jk/9] is per(built sec2 matrix).
    naive = per_naive(build_cyclotomic("sec2", n=9)).as_rational()
    if naive != Rat(CP_TABLE[9]):
        failures.append(f"cprime(9) by per_naive: computed {naive}, "
                        f"table {CP_TABLE[9]}")

    _criterion(1, failures, time.perf_counter() - start)


def _run_grid(check_id, grid, failures, allow_skip=None):
    for params in grid:
        r = run_check(check_id, params)
        if r.status == "PASS":
            continue
        if r.status == "SKIP" and allow_skip and allow_skip(params):
            continue
        failures.append(f"{check_id} {params}: {r.status} "
                        f"computed={r.computed} expected={r.expected} "
                        f"note={r.note}")


def test_criterion_2_identity_suite():
    start = time.perf_counter()
    failures = []
    for cid in ("thq.floor", "thq.qfloor", "thq.det"):
        _run_grid(cid, [{"n": n} for n in range(1, 13)], failures)
    _run_grid("thper.rootlinear",
              [{"n": n, "backend": b} for n in range(1, 11)
               for b in ("cyc", "fq")], failures)
    _run_grid("thper.rootexp", [{"n": n} for n in range(2, 11)], failures)
    _run_grid("thnew.cauchyroot",
              [{"n": n, "x": x} for n in range(1, 11)
               for x in ("2", "-1", "1/2", "3/5")], failures,
              allow_skip=lambda p: p["x"] == "-1" and p["n"] % 2 == 0)
    for cid in ("cor.sin", "cor.cos"):
        _run_grid(cid, [{"n": n} for n in range(2, 13)], failures)
    for cid in ("det.sec2", "det.tan2"):
        _run_grid(cid, [{"n": n} for n in range(1, 12, 2)], failures)
    _criterion(2, failures, time.perf_counter() - start)


def test_criterion_3_congruence_suite():
    start = time.perf_counter()
    failures = []
    primes19 = [3, 5, 7, 11, 13, 17, 19]
    _run_grid("thper.jxk", [{"p": p} for p in primes19], failures)
    for cid in ("thper.jdk1", "thper.jdk2", "thper.jdk3", "cor.jdk"):
        _run_grid(cid, [{"p": p, "d": d} for p in primes19
                        for d in range(1, p)], failures)
    for cid in ("thper.quad", "thper.quad0"):
        _run_grid(cid, [{"p": p, "d": d} for p in primes19 if p > 3
                        for d in range(1, p)], failures)
    _run_grid("cor.quadmod", [{"p": p, "d": d} for p in primes19
                              for d in range(1, p)], failures)
    _run_grid("thnew.invsumsq",
              [{"p": p} for p in (3, 7, 11, 19, 23)], failures)
    _run_grid("thjk.cong", [{"p": p} for p in (3, 5, 7, 11, 13)], failures)
    for cid in ("thcos.cong", "thsin.cong", "thtan.cong"):
        _run_grid(cid, [{"p": p} for p in primes19], failures)
    _criterion(3, failures, time.perf_counter() - start)


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    failures = []
    rng = random.Random("acceptance-oracles")

    rings = [ZZ, Zmod(9), QQ, GF(7), CyclotomicField(5), QPOLY]
    for ring in rings:
        for case in range(200):
            m = Mat(ring, [[ring.rand(rng, 5) for _ in range(6)]
                           for _ in range(6)])
            if per_ryser(m) != per_naive(m):
                failures.append(f"per oracle mismatch {ring.name} #{case}")
                break

    for case in range(100):
        n = rng.randint(1, 8)
        m = Mat(QQ, [[Rat(rng.randint(-9, 9), rng.randint(1, 6))
                      for _ in range(n)] for _ in range(n)])
        want = _eliminate(m)
        if det_divfree(m) != want or det_field(m) != want:
            failures.append(f"det oracle mismatch #{case}")
            break

    for case in range(20):
        n = rng.randint(1, 6)
        while True:
            xs = [Rat(rng.randint(-20, 20), rng.randint(1, 9))
                  for _ in range(n)]
            ys = [Rat(rng.randint(-20, 20), rng.randint(1, 9))
                  for _ in range(n)]
            if (len(set(xs)) == n and len(set(ys)) == n
                    and all(x != y and x + y != 0
                            for x in xs for y in ys)):
                break
        cauchy = Mat(QQ, [[1 / (x - y) for y in ys] for x in xs])
        squared = Mat(QQ, [[1 / (x - y) ** 2 for y in ys] for x in xs])
        if det_field(squared) != det_field(cauchy) * per_ryser(cauchy):
            failures.append(f"borchardt mismatch #{case}")
        plus = Mat(QQ, [[1 / (x + y) for y in ys] for x in xs])
        num, den = Rat(1), Rat(1)
        for j in range(n):
            for k in range(j + 1, n):
                num *= (xs[k] - xs[j]) * (ys[k] - ys[j])
        for x in xs:
            for y in ys:
                den *= x + y
        if det_field(plus) != num / den:
            failures.append(f"cauchy mismatch #{case}")

    for n in range(3, 52, 2):
        g = gauss_sum(n)
        if not g * g == ((-1) ** ((n - 1) // 2)) * n:
            failures.append(f"gauss square {n}")

    _criterion(4, failures, time.perf_counter() - start)


def test_criterion_5_conjecture_evidence():
    start = time.perf_counter()
    failures = []
    _run_grid("conj.absjk", [{"p": p} for p in (3, 5, 7, 11, 13)], failures)
    _run_grid("conj.maskper",
              [{"p": p, "a": a} for p in (5, 7) for a in (1, 2, 3)], failures)
    _run_grid("conj.maskdet",
              [{"p": p, "a": a} for p in (5, 7) for a in (1, 2, 3)], failures)
    # brute-force cross-oracle at p = 5
    for a in (1, 2):
        for signed in (False, True):
            if masked_sum(5, a, signed, "recip_ajk") != \
                    _masked_bruteforce(5, a, signed, "recip_ajk"):
                failures.append(f"mask oracle p=5 a={a} signed={signed}")
        if masked_sum(5, a, False, "recip_aj_k") != \
                _masked_bruteforce(5, a, False, "recip_aj_k"):
            failures.append(f"mask oracle aj+k p=5 a={a}")
    _run_grid("conj.derange", [{"n": n} for n in range(2, 11)], failures)
    _run_grid("conj.qdet", [{"n": n, "a": a} for n in (3, 5, 7, 9)
                            for a in range(-3, 4)], failures)
    _run_grid("conj.bernoulli", [{"n": n} for n in range(1, 11)], failures)
    _run_grid("conj.sqdiff", [{"p": p} for p in (5, 13, 17)], failures)
    _run_grid("conj.csign", [{"p": p} for p in (3, 5, 7, 11, 13, 17, 19, 23)],
              failures)
    _run_grid("conj.ssign", [{"n": n} for n in range(3, 24, 2)], failures)
    _run_grid("conj.tsign", [{"n": n} for n in range(3, 26, 2)], failures)
    _criterion(5, failures, time.perf_counter() - start)


def test_criterion_6_determinism(capsys):
    start = time.perf_counter()
    outputs = []
    for threads in ("1", "8"):
        code = main(["verify", "all", "--tier", "full", "--json",
                     "--threads", threads, "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0, f"full suite exit {code} with --threads {threads}"
        outputs.append(json.dumps(json.loads(out)["results"]))
    failures = []
    if outputs[0] != outputs[1]:
        failures.append("results arrays differ between --threads 1 and 8")
    _criterion(6, failures, time.perf_counter() - start)
