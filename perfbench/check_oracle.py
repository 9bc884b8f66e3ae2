"""Tests of the benchmark's oracle and of its failure accounting.

Run from the repository root:

    python3 -m pytest -q perfbench/check_oracle.py

(The file name keeps it out of the repository's own test collection.)
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _jdk1(p, d):
    m = p * p
    return (pow(d, p - 1, m) - 3 - 4 * math.factorial(p - 1)) % m


def test_reference_values():
    o = oracle.Oracle()
    assert o.exact("cprime", 9) == Fraction(75, 2)
    assert o.exact("cprime", 21) == Fraction(1830087, 2)
    assert o.exact("t", 23) == -564826623232
    assert o.exact("T", 13) == 2141638785
    for name, n, text in (("cprime", 9, "75/2"), ("cprime", 21, "1830087/2"),
                          ("t", 23, "-564826623232"), ("T", 13, "2141638785")):
        assert o.check_seq(name, n, text) is None


def test_small_values_of_every_sequence():
    # Small values as permarith prints them (`permarith seq NAME --range ...`):
    # agreement shows each literal matrix and scale factor is the intended one.
    o = oracle.Oracle()
    for name, n, value in (("T", 5, 65), ("T", 7, -1995), ("c", 7, -1),
                           ("c", 13, 151), ("s", 13, 51), ("t", 7, -34),
                           ("sprime", 7, -6), ("tprime", 7, 22),
                           ("cprime", 7, -8)):
        assert o.exact(name, n) == value, (name, n)


def test_brute_force_matches_congruences():
    o = oracle.Oracle()
    for p in (5, 7, 11):
        for d in range(1, p):
            assert o.brute("linear", p, d, "1..p-1") % (p * p) == _jdk1(p, d)
            assert o.check_report("thper.jdk1", {"p": p, "d": d}, 0,
                                  str(_jdk1(p, d))) is None


def test_corrupted_values_are_wrong():
    o = oracle.Oracle()
    assert o.check_seq("t", 23, "564826623232") is not None       # sign
    assert o.check_seq("cprime", 9, "75/4") is not None
    assert o.check_report("thper.jdk1", {"p": 13, "d": 5}, 0,
                          str(_jdk1(13, 5) + 1)) is not None       # off by one
    assert o.check_report("conj.qdet", {"n": 5, "a": -2}, 0,
                          "floor=q^-7; ceil=q^2") is not None      # sign
    assert o.check_report("thper.rootlinear", {"n": 4, "backend": "fq"}, 7,
                          "x0=4 (mod 5); x1=3 (mod 5); x2=0 (mod 5); "
                          "x3=4 (mod 5); x4=4 (mod 5)") is None
    assert o.check_report("thper.rootlinear", {"n": 4, "backend": "fq"}, 7,
                          "x0=4 (mod 5); x1=3 (mod 5); x2=1 (mod 5); "
                          "x3=4 (mod 5); x4=4 (mod 5)") is not None


def _cli_out(check_id, params, computed):
    row = {"id": check_id, "params": params, "status": "PASS",
           "computed": computed, "expected": computed, "kind": "theorem",
           "modulus": None, "note": None}
    return ("exit", 0, json.dumps({"results": [row]}) + "\n")


def test_wrong_values_count_as_failed_operations():
    ops = [("seq", "T", 7),
           ("check", "thper.jdk1", {"p": 13, "d": 5}, 0),
           ("cli", ["verify", "thper.jdk1", "--p", "11", "--d", "3", "--json"])]
    labels = [workloads.label(op) for op in ops]
    good = [("ok", "-1995"), ("PASS", str(_jdk1(13, 5)), None),
            _cli_out("thper.jdk1", {"p": 11, "d": 3}, str(_jdk1(11, 3)))]
    bad = [("ok", "1995"), ("PASS", str(_jdk1(13, 5) + 1), None),
           _cli_out("thper.jdk1", {"p": 11, "d": 3}, str(_jdk1(11, 3) - 1))]
    errors = [("error", "ZeroDivisionError: boom"), ("FAIL", "", "note"),
              ("exit", 1, "")]
    o = oracle.Oracle()

    def rounds(*outputs):
        seen = [{} for _ in ops]
        for out in outputs:
            run.tally(seen, out)
        return seen

    assert run.check_rounds(ops, labels, rounds(good, good), o)[:2] == (0, True)
    failed, correct, reasons = run.check_rounds(ops, labels, rounds(bad, good, bad), o)
    assert (failed, correct, len(reasons)) == (6, False, 3)
    # An operation that raises or reports FAIL is failed, not a wrong value.
    assert run.check_rounds(ops, labels, rounds(errors), o)[:2] == (3, True)


def test_program_outputs_agree_with_oracle():
    sys.path.insert(0, str(run.SRC))
    mods = run.fresh_import()
    ops = [("seq", "c", 11), ("seq", "cprime", 9),
           ("check", "thnew.cauchyroot", {"n": 5, "x": "-3/4"}, 2),
           ("check", "cor.quadmod", {"p": 13, "d": 2}, 2),
           ("cli", ["verify", "thper.rootlinear", "--n", "4", "--backend", "cyc",
                    "--seed", "2", "--json"]),
           ("cli", ["seq", "t", "--range", "5..9", "--odd", "--json"])]
    labels = [workloads.label(op) for op in ops]
    seen = [{} for _ in ops]
    run.tally(seen, [run.execute(label, op, mods) for label, op in zip(labels, ops)])
    assert run.check_rounds(ops, labels, seen, oracle.Oracle()) == (0, True, {})


def _traced_counts(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def test_trace_counts_repeat_exactly():
    for workload in workloads.WORKLOADS:
        assert _traced_counts(workload) == _traced_counts(workload), workload


if __name__ == "__main__":
    import pytest
    sys.exit(pytest.main(["-q", __file__]))
