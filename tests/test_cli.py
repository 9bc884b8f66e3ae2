"""CLI behavior: subcommands, exit codes, JSON/CSV shapes, determinism."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import permarith
import permarith.cli as cli
import permarith.verifier as verifier
from permarith.cli import explore_grid, main
from permarith.rings import Rat
from permarith.sequences import seq_T
from permarith.verifier import REGISTRY, default_grid


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_single_check(capsys):
    code, out = run_cli(capsys, "verify", "thjk.cong", "--p", "13")
    assert code == 0
    assert "[PASS] thjk.cong p=13" in out


def test_verify_unknown_id(capsys):
    code = main(["verify", "nosuch.id"])
    assert code == 2


def test_usage_errors_exit_2(capsys):
    assert main(["seq", "t"]) == 2          # missing --range
    assert main(["nosuchcmd"]) == 2
    assert main(["seq", "zzz", "--range", "3..5"]) == 2
    assert main(["seq", "t", "--range", "9..3"]) == 2


@pytest.mark.parametrize("argv,message", [
    (["verify", "thper.jdk1", "--p", "7"], "thper.jdk1 needs --d"),
    (["verify", "thper.rootlinear", "--n", "3"], "needs --backend"),
    (["verify", "thq.floor", "--n", "3", "--p", "5"], "takes no --p"),
    (["verify", "thper.jdk1", "--p", "7", "--d", "2", "--idx-range", "1..p"],
     "unrecognized arguments: --idx-range"),
    (["verify", "all", "--tier", "fast", "--p", "7"], "all takes no --p"),
    (["verify", "all", "--d", "2", "--p", "7"],
     "all takes no --d, takes no --p"),
    (["explore", "conj.absjk", "--pmax", "5", "--a", "1..3"],
     "conj.absjk takes no --a"),
    (["verify", "thnew.cauchyroot", "--n", "3", "--x", "abc"],
     "argument --x: expected a rational"),
    (["verify", "thnew.cauchyroot", "--n", "3", "--x", "1/0"],
     "argument --x: expected a rational"),
    (["verify", "thnew.cauchyroot", "--n", "3", "--x", "1" * 4400],
     "argument --x: expected a rational"),
])
def test_parameter_usage_errors(capsys, argv, message):
    # Explicit parameters must be exactly the check's grid keys; anything
    # else is a usage error before any check runs.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_verify_json_round_trip(capsys):
    code, out = run_cli(capsys, "verify", "thq.qfloor", "--tier", "fast",
                        "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "permarith/1"
    assert doc["command"].startswith("permarith verify")
    assert all(r["status"] == "PASS" for r in doc["results"])
    re_dumped = json.dumps(doc, sort_keys=True)
    assert json.loads(re_dumped) == doc
    assert not any("ms" in r for r in doc["results"])


def test_seq_csv_columns_and_values(capsys):
    code, out = run_cli(capsys, "seq", "t", "--range", "3..9", "--odd",
                        "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "index", "value", "is_integer", "ms"]
    got = {int(r[1]): r[2] for r in rows[1:]}
    assert got == {3: "1", 5: "4", 7: "-34", 9: "90"}
    assert all(r[3] == "True" for r in rows[1:])


def test_seq_half_integer_value(capsys):
    code, out = run_cli(capsys, "seq", "cprime", "--range", "21..21")
    assert code == 0
    assert "1830087/2" in out


def test_seq_skip_row(capsys):
    code, out = run_cli(capsys, "seq", "sprime", "--range", "9..9", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][2] == "SKIP"
    code, out = run_cli(capsys, "seq", "sprime", "--range", "9..9", "--json")
    doc = json.loads(out)
    assert doc["results"][0]["status"] == "SKIP"
    # t(39) is past the largest index of t.
    code, out = run_cli(capsys, "seq", "t", "--range", "39..39", "--json")
    row = json.loads(out)["results"][0]
    assert code == 0
    assert row["status"] == "SKIP" and "t limited to n <= 37" in row["note"]
    # d past its largest index is refused before any matching.
    code, out = run_cli(capsys, "seq", "d", "--range", "85003..85003",
                        "--json")
    row = json.loads(out)["results"][0]
    assert code == 0 and row["status"] == "SKIP"
    assert row["note"] == "d limited to n <= 85001, got n = 85003"


@pytest.mark.parametrize("argv,message", [
    (["seq", "c", "--range", "3..2000001", "--odd", "--json"],
     "seq limited to 10000 rows, got 1000000"),
    (["seq", "t", "--range", "3..100000000"],
     "seq limited to 10000 rows, got 99999998"),
    (["explore", "conj.absjk", "--pmax", "3000000"],
     "explore limited to 10000 rows, got --pmax 3000000"),
    (["explore", "conj.maskdet", "--pmax", "7", "--a", "-100000..100000"],
     "explore limited to 10000 rows, got --pmax 7 times 200001 values of --a"),
    (["explore", "conj.qdet", "--nmax", "1429"],
     "explore limited to 10000 rows, got --nmax 1429 times 7 default values"
     " of a"),
    (["explore", "conj.maskper", "--pmax", "3334"],
     "explore limited to 10000 rows, got --pmax 3334 times 3 default values"
     " of a"),
], ids=["seq-odd", "seq", "explore-pmax", "explore-a", "explore-qdet-a",
        "explore-pa-a"])
def test_requests_past_the_row_limit_are_refused(capsys, monkeypatch, argv,
                                                 message):
    # Each took seconds to minutes, or gigabytes, before the limit: a usage
    # error now, before any row runs or any prime list is built.
    def unreachable(*args):
        raise AssertionError("rows built")

    monkeypatch.setattr(cli, "_seq_row", unreachable)
    monkeypatch.setattr(cli, "run_tasks", unreachable)
    monkeypatch.setattr(verifier, "odd_primes_upto", unreachable)
    assert cli.ROW_LIMIT == 10_000
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_requests_at_the_row_limit_run(capsys, monkeypatch):
    # ROW_LIMIT rows run and one more is refused; --odd counts odd indices,
    # and explore counts --nmax times the values of --a, or of the grid's
    # default a: conj.qdet has 7 (-3..3), so --nmax 1428 counts 9,996 rows
    # and runs its 713 odd n from 3 times 7, 4,991 rows.
    rows = []

    def seq_row(name, i):
        rows.append(i)
        return {"name": name, "index": i, "status": "SKIP", "value": None,
                "is_integer": None, "note": "", "ms": 0.0}

    def run_tasks(tasks, seed):
        rows.extend(tasks)
        return []

    monkeypatch.setattr(cli, "_seq_row", seq_row)
    monkeypatch.setattr(cli, "run_tasks", run_tasks)
    for argv, count in ((["seq", "t", "--range", "2..20001", "--odd"], 10000),
                        (["seq", "t", "--range", "1..20001", "--odd"], None),
                        (["seq", "t", "--range", "-4999..5000"], 10000),
                        (["seq", "t", "--range", "-5000..5000"], None),
                        (["explore", "conj.qdet", "--nmax", "5", "--a",
                          "1..2000"], 4000),
                        (["explore", "conj.qdet", "--nmax", "5", "--a",
                          "0..2000"], None),
                        (["explore", "conj.qdet", "--nmax", "1428"], 4991),
                        (["explore", "conj.qdet", "--nmax", "1429"], None)):
        rows.clear()
        assert main(argv) == (2 if count is None else 0), argv
        assert len(rows) == (count or 0), argv
        assert ("limited to 10000 rows" in capsys.readouterr().err) == (
            count is None), argv


def test_importing_the_cli_loads_only_what_commands_use():
    # Every command starts a fresh interpreter, which pays for the import.
    # dataclasses loads inspect, ast, dis, tokenize and linecache; csv and
    # cmath load where a CSV writer or Cyc.embed runs; the CLI reads its
    # argv without argparse, and so without gettext.  Comparing
    # sys.modules before and after the import ignores what site preloads.
    src = os.path.dirname(os.path.dirname(permarith.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "before = set(sys.modules); import permarith.cli; "
            "print(*sorted(set(sys.modules) - before))")
    added = set(subprocess.run([sys.executable, "-c", code], check=True,
                               capture_output=True, text=True).stdout.split())
    assert "permarith.cli" in added
    unused = {"dataclasses", "inspect", "csv", "cmath", "argparse",
              "gettext"} & added
    assert not unused, unused


def test_seq_json_values_are_exact_strings(capsys):
    code, out = run_cli(capsys, "seq", "cprime", "--range", "3..9", "--odd",
                        "--json")
    doc = json.loads(out)
    values = {r["index"]: r["value"] for r in doc["results"]}
    assert values == {3: "-1", 5: "3", 7: "-8", 9: "75/2"}
    assert Rat(values[9]) == Rat(75, 2)


# explore's grids at the CLI defaults --pmax 13 --nmax 9, written out.
EXPLORE_DEFAULTS = {
    "conj.absjk": [{"p": p} for p in (3, 5, 7, 11, 13)],
    "conj.bernoulli": [{"n": n} for n in (1, 2, 3, 4, 5, 6, 7, 8, 9)],
    "conj.csign": [{"p": p} for p in (3, 5, 7, 11, 13)],
    "conj.derange": [{"n": n} for n in (2, 3, 4, 5, 6, 7, 8, 9)],
    "conj.maskdet": [{"p": p, "a": a} for p in (5, 7, 11, 13)
                     for a in (1, 2, 3)],
    "conj.maskper": [{"p": p, "a": a} for p in (5, 7, 11, 13)
                     for a in (1, 2, 3)],
    "conj.qdet": [{"n": n, "a": a} for n in (3, 5, 7, 9)
                  for a in (-3, -2, -1, 0, 1, 2, 3)],
    "conj.sqdiff": [{"p": 5}, {"p": 13}],
    "conj.ssign": [{"n": n} for n in (3, 5, 7, 9)],
    "conj.tsign": [{"n": n} for n in (3, 5, 7, 9)],
}


def test_explore_default_grids():
    assert sorted(EXPLORE_DEFAULTS) == sorted(
        cid for cid in REGISTRY if cid.startswith("conj."))
    for check_id, want in EXPLORE_DEFAULTS.items():
        assert explore_grid(check_id, 13, 9) == want, check_id


def test_explore_and_full_tier_share_one_grid():
    # Where the full tier fixes no a, explore at the full tier's bound lists
    # exactly the full tier's rows.
    for check_id, check in REGISTRY.items():
        if check_id.startswith("conj.") and "a" not in check.bounds["full"]:
            hi = check.bounds["full"]["hi"]
            assert explore_grid(check_id, hi, hi) == \
                default_grid(check_id, "full"), check_id


def test_explore_summary_and_exit(capsys):
    code, out = run_cli(capsys, "explore", "conj.absjk", "--pmax", "13")
    assert code == 0
    assert "consistent" in out
    code, out = run_cli(capsys, "explore", "conj.qdet", "--a", "-2..2",
                        "--nmax", "5")
    assert code == 0
    code = main(["explore", "thq.floor"])
    assert code == 2  # not a conjecture id
    code = main(["explore", "nosuch.conj"])
    assert code == 2


def test_threads_byte_identical(capsys):
    _, out1 = run_cli(capsys, "verify", "lem.gauss", "--tier", "fast",
                      "--json", "--threads", "1")
    _, out8 = run_cli(capsys, "verify", "lem.gauss", "--tier", "fast",
                      "--json", "--threads", "8")
    r1 = json.dumps(json.loads(out1)["results"])
    r8 = json.dumps(json.loads(out8)["results"])
    assert r1 == r8


# sha256 of the stdout of `verify all --tier T --json --seed 0` on the
# fractions backend.  A change that alters rows on purpose updates the digest
# and says why.  The JSON "command" field echoes the argv, so the argv must
# stay exactly this.
RESULT_DIGESTS = {
    "full": "b3434e189981548e13acec3a8c69bcf05c99c055d1ccf3c5148394336ffb9d9b",
    "fast": "ce4ddac873b0d194109d21e4f713cf4abfd89b7d3b76edf430cfdbd59414eb93",
}


@pytest.mark.skipif(Rat is not Fraction,
                    reason="digests were recorded on the fractions backend")
@pytest.mark.parametrize("tier", ["full", "fast"])
def test_verify_all_json_matches_the_pinned_digest(capsys, tier):
    code, out = run_cli(capsys, "verify", "all", "--tier", tier, "--json",
                        "--seed", "0")
    assert code == 0
    if tier == "full":
        assert len(json.loads(out)["results"]) == 1438
    assert hashlib.sha256(out.encode()).hexdigest() == RESULT_DIGESTS[tier]


# sha256 of the stdout of `seq NAME --range 3..17 --odd --json` on the
# fractions backend, pinned as RESULT_DIGESTS is.
SEQ_DIGESTS = {
    "T": "4258841327f4113d915702bcc82e4aafb6ff7a725ba51c4855d41d5b9440741b",
    "c": "f54b7e941c4149d47d4c321a7025d5f496cc8f1a42b3be305541f142471441db",
    "cprime": "64536586574034991cd1f0db9d03e653ccb822755bcd588315df43e4a787c302",
    "s": "40e834cab39628835af737e6603bd65514165b3ca36f737167eeca86f9d69765",
    "sprime": "e4cf819ef39ff222dee4fbae23323277b2aaa6699aca49cdb6bdb19ea5acdf77",
    "t": "453e9a20671c271fd1981d259b6159a353d42a3515b0cac3759b3f8b9549503f",
    "tprime": "18dd8438b1aff8c6289d94481fccde19e75e5fb81068664a2989ac28e85fa26c",
}


@pytest.mark.skipif(Rat is not Fraction,
                    reason="digests were recorded on the fractions backend")
@pytest.mark.parametrize("name", list(SEQ_DIGESTS))
def test_seq_json_matches_the_pinned_digest(capsys, name):
    code, out = run_cli(capsys, "seq", name, "--range", "3..17", "--odd",
                        "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SEQ_DIGESTS[name]


# sha256 of the stdout of `seq T --range 19..19 --json` on the fractions
# backend, pinned as RESULT_DIGESTS is: T(19), the 18-row mirror-symmetric
# Glynn sum at T's largest index.  The CI job on the requires-python floor
# compares the same bytes.
SEQ_T19_DIGEST = (
    "e6183f87637bd371506a31dbe46e1bbdd7f0fff2364bf4ddc59af38b519a8aeb")


@pytest.mark.skipif(Rat is not Fraction,
                    reason="digests were recorded on the fractions backend")
def test_seq_t19_json_matches_the_pinned_digest(capsys):
    try:
        code, out = run_cli(capsys, "seq", "T", "--range", "19..19", "--json")
    finally:
        # Later tests build T(19) themselves, so none may find it cached.
        seq_T.cache_clear()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SEQ_T19_DIGEST


# sha256 of the stdout of `explore ID [ARGS] --json` at the default --pmax
# and --nmax on the fractions backend, pinned as RESULT_DIGESTS is.
EXPLORE_DIGESTS = {
    "conj.qdet":
        "51f78aae114c8f48172c4ae7e58936c53e53730c94857585fb0a65de728d87b2",
    "conj.maskdet":
        "f7996fe07ac57463881de0ab2dbd50edbdf566a8c093d24bf4bdb725cacbd470",
    "conj.absjk":
        "c1af8ff5397d1f638f04f03a587d91b3eddb2ac319ff04caf985a4c9803510e9",
    "conj.maskper --a 0..7":
        "0d30a280432e24d47859d6ffaf459dd37354bd3d5d3dcdb5d5de573ad73c08fc",
    "conj.sqdiff":
        "55fb56c5961a4bac7379b77acd565fc924a381f3e6021f82a4e261303160f428",
}


@pytest.mark.skipif(Rat is not Fraction,
                    reason="digests were recorded on the fractions backend")
@pytest.mark.parametrize("args", list(EXPLORE_DIGESTS))
def test_explore_json_matches_the_pinned_digest(capsys, args):
    code, out = run_cli(capsys, "explore", *args.split(), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPLORE_DIGESTS[args]


# sha256 of the stdout of `verify ID --tier full --json --seed S` for the
# checks that draw random inputs, pinned as RESULT_DIGESTS is: every seeded
# stream must stay byte-identical.
SEEDED_DIGESTS = {
    ("thper.rootlinear", 1):
        "5ef867604d9e1233ca4c2d7478f8fd741b21e93eeef4951f65439da33c4cb9a0",
    ("thper.rootlinear", 7):
        "976c4ded1a1412703fa35dda2abfbb64829d8e9bc46f6ae5b869a54b1f161e6e",
    ("thper.jxk", 1):
        "68f4874ac22fd9d9000c16a9c80dba7c45e54a8730e7bd224b90267cffd88489",
    ("thper.jxk", 7):
        "672591dec3acf62c6786cfed3309fc99b8beaa87d3c4bbf79bc6856d3f5bd84c",
    ("lem.cauchy", 1):
        "d27ac0c3423f1b8eb3e9d004519cf22035db2809d9a25e847844bf275470719c",
    ("lem.cauchy", 7):
        "fb1648d8b9848ed23c73f11d8c2a7b798640a2585a13b7a33ba56af93d925b8c",
    ("lem.borchardt", 1):
        "87987cf8e3395aeb407e29eeb4a089596d406c945ce4df786e9b23e76d76170f",
    ("lem.borchardt", 7):
        "aa1fb2e51033c55b7c7bf430522e222178be46a44e90db4e4030f3c79c377758",
    ("lem.circulant", 1):
        "f5a0d8db1a9789f32b6a6acf136d33929d8774171a4f88ffc5db1bed415b285b",
    ("lem.circulant", 7):
        "b8b109f6f9b34c1b8406da0ca231514ff65f21edf2a2e0c3c7bbff63d0bb0f95",
}


@pytest.mark.skipif(Rat is not Fraction,
                    reason="digests were recorded on the fractions backend")
@pytest.mark.parametrize("check_id,seed", list(SEEDED_DIGESTS))
def test_seeded_json_matches_the_pinned_digest(capsys, check_id, seed):
    code, out = run_cli(capsys, "verify", check_id, "--tier", "full",
                        "--json", "--seed", str(seed))
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SEEDED_DIGESTS[check_id, seed]


def test_verify_all_fast_smoke(capsys):
    code, out = run_cli(capsys, "verify", "all", "--tier", "fast",
                        "--threads", "2")
    assert code == 0
    assert "summary:" in out and " 0 fail" in out


def test_selftest(capsys):
    code, out = run_cli(capsys, "selftest")
    assert code == 0
    assert "selftest: all ok" in out


def test_verify_csv(capsys):
    code, out = run_cli(capsys, "verify", "thq.det", "--n", "4", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["id", "params", "status"]
    assert rows[1][0] == "thq.det" and rows[1][2] == "PASS"


def test_csv_note_column(capsys, monkeypatch):
    # The last CSV column is the note, so a check that raises is explained.
    import permarith.verifier as verifier

    def broken(k):
        raise ArithmeticError("broken on purpose")

    monkeypatch.setattr(verifier, "bernoulli", broken)
    code, out = run_cli(capsys, "verify", "conj.bernoulli", "--n", "3",
                        "--csv")
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][-1] == "note" and len(rows[1]) == len(rows[0])
    assert rows[1][2] == "FAIL"
    assert rows[1][-1] == "ArithmeticError: broken on purpose"
    code, out = run_cli(capsys, "explore", "conj.absjk", "--pmax", "5",
                        "--csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][-1] == "note" and rows[1][-1] == ""


def test_unsupported_ring_is_a_fail(capsys, monkeypatch):
    # UnsupportedRingError is a TypeError; run_check still reports it as a
    # FAIL with its note instead of letting it escape.
    import permarith.verifier as verifier
    from permarith.errors import UnsupportedRingError

    def broken(params, rng):
        raise UnsupportedRingError("Z is not a field")

    check = verifier.REGISTRY["thq.floor"]
    monkeypatch.setitem(verifier.REGISTRY, "thq.floor",
                        check._replace(runner=broken))
    code, out = run_cli(capsys, "verify", "thq.floor", "--n", "3", "--csv")
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][2] == "FAIL"
    assert rows[1][-1] == "UnsupportedRingError: Z is not a field"


def test_strict_flag_gates_conjecture_failures():
    from permarith.cli import _exit_code
    from permarith.verifier import Report
    reports = [Report("conj.fake", {}, "FAIL", kind="conjecture"),
               Report("thq.fake", {}, "PASS", kind="theorem")]
    assert _exit_code(reports, strict=False) == 0
    assert _exit_code(reports, strict=True) == 1
    reports.append(Report("thq.bad", {}, "FAIL", kind="theorem"))
    assert _exit_code(reports, strict=False) == 1


def test_seq_threads_byte_identical(capsys):
    _, out1 = run_cli(capsys, "seq", "s", "--range", "3..13", "--odd",
                      "--json", "--threads", "1")
    _, out4 = run_cli(capsys, "seq", "s", "--range", "3..13", "--odd",
                      "--json", "--threads", "4")
    assert json.loads(out1)["results"] == json.loads(out4)["results"]


def test_verify_explicit_rational_param(capsys):
    code, out = run_cli(capsys, "verify", "thnew.cauchyroot", "--n", "5",
                        "--x", "1/2")
    assert code == 0 and "[PASS]" in out


def test_verify_out_of_domain_param_skips(capsys):
    code, out = run_cli(capsys, "verify", "thq.floor", "--n", "0")
    assert code == 0
    assert "[SKIP]" in out and "out of domain" in out


def test_qdet_bound_on_a_reaches_verify_and_explore(capsys):
    # Past |a| <= 3 * 35^3 / (n + 2)^3 both commands SKIP the row at once.
    code, out = run_cli(capsys, "verify", "conj.qdet", "--n", "33", "--a",
                        "-4", "--json")
    row = json.loads(out)["results"][0]
    assert code == 0 and row["status"] == "SKIP"
    assert row["note"] == ("out of domain: conj.qdet limited to |a| <= 3"
                           " at n = 33, got a = -4")
    code, out = run_cli(capsys, "explore", "conj.qdet", "--nmax", "5",
                        "--a", "374..376", "--json")
    rows = json.loads(out)["results"]
    assert code == 0
    assert [(r["params"]["n"], r["params"]["a"]) for r in rows
            if r["status"] == "SKIP"] == [(5, 376)]


def test_explore_never_gates_without_strict(capsys, monkeypatch):
    import permarith.verifier as verifier

    real = verifier.bernoulli
    monkeypatch.setattr(verifier, "bernoulli", lambda k: real(k) + 1)
    code, out = run_cli(capsys, "explore", "conj.bernoulli", "--nmax", "4")
    assert code == 0 and "[FAIL]" in out
    code, _ = run_cli(capsys, "explore", "conj.bernoulli", "--nmax", "4",
                      "--strict")
    assert code == 1


def test_fail_text_prints_note(capsys, monkeypatch):
    # A check that raises has no computed value; the text row must carry the
    # reason from the note instead of "computed , expected".
    import permarith.verifier as verifier

    def broken(k):
        raise ArithmeticError("broken on purpose")

    monkeypatch.setattr(verifier, "bernoulli", broken)
    code, out = run_cli(capsys, "verify", "conj.bernoulli", "--n", "3")
    assert ("[FAIL] conj.bernoulli n=3: ArithmeticError: broken on purpose"
            in out)
    assert "computed ," not in out

    from types import SimpleNamespace
    from permarith.cli import _emit_reports
    from permarith.verifier import Report
    report = Report("thq.fake", {"p": 5}, "FAIL", computed="1", expected="2",
                    modulus="25", note="signed side evaluated")
    _emit_reports(SimpleNamespace(json=False, csv=False), "cmd", [report])
    out = capsys.readouterr().out
    assert ("[FAIL] thq.fake p=5: computed 1, expected 2 (mod 25); "
            "signed side evaluated") in out


def test_reader_keeps_no_state_and_exit_codes_repeat(capsys):
    for _ in range(2):  # each call reads its argv afresh
        assert main(["seq", "t"]) == 2
        assert main(["verify", "thq.det", "--n", "x"]) == 2
        assert main(["verify", "thq.det", "--n", "3"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv,code,err,out", [
    (["verify", "thq.det", "--n", "3", "--nope"], 2,
     "unrecognized arguments: --nope", ""),
    (["seq", "t", "--range", "3..5", "--n", "3"], 2,  # a flag of verify
     "unrecognized arguments: --n 3", ""),
    (["verify", "thq.det", "--n"], 2, "argument --n: expected one argument",
     ""),
    (["verify", "thq.det", "--n", "x"], 2,
     "argument --n: invalid int value: 'x'", ""),
    (["verify", "all", "--tier", "slow"], 2,
     "argument --tier: invalid choice: 'slow' (choose from 'fast', 'full')",
     ""),
    (["verify", "thper.rootlinear", "--n", "3", "--backend", "gf"], 2,
     "argument --backend: invalid choice: 'gf' (choose from 'cyc', 'fq')", ""),
    (["verify", "thq.det", "--json=yes", "--n", "3"], 2,
     "argument --json: ignored explicit argument 'yes'", ""),
    (["verify", "thq.det", "--n=4"], 0, "", "[PASS] thq.det n=4:"),
    (["verify", "conj.qdet", "--n", "5", "--a", "-3"], 0, "",
     "[PASS] conj.qdet a=-3,n=5"),
    (["verify", "conj.qdet", "--n", "5", "--a=-3"], 0, "",
     "[PASS] conj.qdet a=-3,n=5"),
    (["seq", "t", "--range", "-5..5"], 0, "",
     "t(-5): SKIP (t is defined for odd n >= 3, got -5)"),
    (["seq", "t", "--ran", "3..5"], 0, "", "t(5) = 4"),
    (["verify", "thq.det", "--s", "1", "--n", "3"], 2,  # --seed or --strict
     "unrecognized arguments: --s 1", ""),
    (["verify", "thq.det", "--n", "3", "--n", "4"], 0, "",
     "[PASS] thq.det n=4:"),
    (["verify", "--n", "3"], 2, "the following arguments are required: check",
     ""),
    (["seq", "--odd"], 2,
     "the following arguments are required: name, --range", ""),
    (["verify", "thq.det", "extra", "--n", "3"], 2,
     "unrecognized arguments: extra", ""),
    ([], 2, "the following arguments are required: command", ""),
    (["check"], 2, "argument command: invalid choice: 'check'", ""),
    (["-h"], 0, "", "usage: permarith COMMAND"),
    (["seq", "t", "--help"], 0, "", "usage: permarith COMMAND"),
    (["explore", "conj.qdet", "--he"], 0, "", "usage: permarith COMMAND"),
])
def test_the_reader_reads_argv_as_typed(capsys, argv, code, err, out):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert err in captured.err and out in captured.out
    assert (captured.err if code == 0 else captured.out) == ""
    if out.startswith("usage"):
        assert captured.out == cli.USAGE


def test_usage_names_every_command_and_flag():
    for cmd, (_, flags) in cli.COMMANDS.items():
        assert f"  {cmd}" in cli.USAGE, cmd
        for flag in flags:
            assert f"--{flag}" in cli.USAGE, flag


def test_the_entry_point_reads_sys_argv(capsys):
    # The other tests pass argv to main in process; a fresh interpreter
    # covers main() reading sys.argv and the status of sys.exit(main()).
    src = os.path.dirname(os.path.dirname(permarith.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "permarith.cli", *argv],
                              capture_output=True, text=True, env=env)

    proc = run("verify", "thjk.cong", "--p", "13", "--json")
    assert main(["verify", "thjk.cong", "--p", "13", "--json"]) == 0
    assert proc.returncode == 0 and proc.stdout == capsys.readouterr().out
    assert run("seq", "t").returncode == 2
    proc = run("--help")
    assert proc.returncode == 0 and proc.stdout == cli.USAGE
