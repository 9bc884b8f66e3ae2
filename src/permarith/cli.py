"""Command-line front end: run checks and suites, print sequence tables,
explore conjectures, emit JSON/CSV.

Exit codes: 0 success, 1 verification failure, 2 usage error.  JSON output
is a single object {"schema", "command", "results"}; every exact value is a
decimal or num/den string, and timing is left out of JSON rows so that
repeated runs are byte-identical after the id/params sort.

Checks and sequence values run serially in this process; --threads is
accepted and has no effect.  Check parameters come from the flags --n, --p,
--d, --a, --x and --backend; --x must read as a rational, and run_check
refuses a missing or extra key.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time

from .cyclotomic import CyclotomicField, gauss_sum
from .errors import DomainError, UnknownCheckError
from .matrices import Mat, per_naive, per_ryser
from .rings import GF, QPOLY, QQ, ZZ, Rat, Zmod
from .sequences import SEQ_NAMES, sequence_value
from .verifier import (REGISTRY, ROOTLINEAR_LIMITS, param_str, run_suite,
                       run_tasks)

SCHEMA = "permarith/1"

PARAM_FLAGS = ("n", "p", "d", "a", "x", "backend")

# The most rows one seq or explore command may ask for.  Rows past a check's
# or sequence's limit are SKIPs, but each still costs time and memory, and
# an explore grid lists the primes up to --pmax by trial division; so a
# larger request is refused before any row runs or any grid is built.
ROW_LIMIT = 10_000


def _rational_text(text: str) -> str:
    """The text of --x, once it reads as a rational; the check parses it
    again, and JSON rows show it as given."""
    try:
        Rat(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational such as 3/4, got {text!r}") from None
    return text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process, since parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="permarith",
        description="Exact permanents/determinants of structured matrices: "
                    "verification checks, sequence tables, conjecture explorer.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--csv", action="store_true", help="CSV output")
        p.add_argument("--threads", type=int, default=1, metavar="N",
                       help="accepted; execution is serial")
        p.add_argument("--seed", type=int, default=0, metavar="S")
        p.add_argument("--strict", action="store_true",
                       help="conjecture failures also gate the exit code")

    v = sub.add_parser("verify", help="run one check or the whole registry")
    v.add_argument("check", help="check id, or 'all'")
    v.add_argument("--tier", choices=("fast", "full"), default="fast")
    v.add_argument("--n", type=int)
    v.add_argument("--p", type=int)
    v.add_argument("--d", type=int)
    v.add_argument("--a", type=int)
    v.add_argument("--x", type=_rational_text,
                   help="a rational such as 3/4 or -2")
    v.add_argument("--backend", choices=tuple(ROOTLINEAR_LIMITS))
    common(v)

    s = sub.add_parser("seq", help="tabulate a named sequence over a range")
    s.add_argument("name", help=f"one of {', '.join(SEQ_NAMES)}")
    s.add_argument("--range", dest="range_", required=True, metavar="A..B")
    s.add_argument("--odd", action="store_true", help="odd indices only")
    common(s)

    e = sub.add_parser("explore", help="evidence tables for conjecture checks")
    e.add_argument("check", help="a conj.* check id")
    e.add_argument("--pmax", type=int, default=13)
    e.add_argument("--nmax", type=int, default=9)
    e.add_argument("--a", dest="a_range", metavar="A..B",
                   help="range of the parameter a where applicable")
    common(e)

    t = sub.add_parser("selftest", help="quick internal sanity suite")
    common(t)
    return parser


def _merge_negative_values(argv: list[str]) -> list[str]:
    # argparse rejects option values like "-3..3"; fold them into --flag=value.
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in ("--a", "--range", "--x") and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    command = "permarith " + " ".join(argv)
    try:
        if args.cmd == "verify":
            return _cmd_verify(args, command)
        if args.cmd == "seq":
            return _cmd_seq(args, command)
        if args.cmd == "explore":
            return _cmd_explore(args, command)
        return _cmd_selftest(args, command)
    except UnknownCheckError as exc:
        print(f"error: unknown check id {exc.args[0]!r}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args, command) -> int:
    explicit = {flag: getattr(args, flag) for flag in PARAM_FLAGS
                if getattr(args, flag) is not None}
    if args.check == "all":
        if explicit:
            raise DomainError("all " + ", ".join(
                f"takes no --{k}" for k in sorted(explicit)))
        reports = run_suite(args.tier, seed=args.seed)
    elif explicit:
        reports = run_tasks([(args.check, explicit)], args.seed)
    else:
        reports = run_suite(args.tier, (args.check,), args.seed)
    _emit_reports(args, command, reports)
    return _exit_code(reports, args.strict)


def _exit_code(reports, strict: bool) -> int:
    for r in reports:
        if r.status == "FAIL" and (strict or r.kind == "theorem"):
            return 1
    return 0


def _emit_reports(args, command, reports):
    if args.json:
        rows = [r.row() for r in reports]
        print(json.dumps({"schema": SCHEMA, "command": command,
                          "results": rows}, sort_keys=True))
        return
    if args.csv:
        import csv  # only the CSV writers load it

        w = csv.writer(sys.stdout)
        w.writerow(["id", "params", "status", "computed", "expected",
                    "modulus", "kind", "ms", "note"])
        for r in reports:
            w.writerow([r.check_id, param_str(r.params), r.status, r.computed,
                        r.expected, r.modulus or "", r.kind, f"{r.ms:.3f}",
                        r.note or ""])
        return
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    for r in reports:
        counts[r.status] += 1
        mod = f" (mod {r.modulus})" if r.modulus else ""
        tag = " [evidence]" if r.kind == "conjecture" else ""
        line = f"[{r.status}] {r.check_id} {param_str(r.params)}{tag}"
        if r.status == "FAIL":
            # A check that raised has no values, only the reason in its note.
            parts = []
            if r.computed or r.expected:
                parts.append(
                    f"computed {r.computed}, expected {r.expected}{mod}")
            if r.note:
                parts.append(r.note)
            if parts:
                line += ": " + "; ".join(parts)
        elif r.status == "SKIP":
            line += f": {r.note}"
        elif r.computed:
            line += f": {r.computed}{mod}"
        print(line)
    print(f"summary: {counts['PASS']} pass, {counts['FAIL']} fail, "
          f"{counts['SKIP']} skip")


# ---------------------------------------------------------------------------
# seq
# ---------------------------------------------------------------------------

def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        lo = hi = text
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise DomainError(f"bad range {text!r}; expected A..B")
    if hi < lo:
        raise DomainError(f"empty range {text!r}")
    return lo, hi


def _seq_row(name: str, idx: int) -> dict:
    start = time.perf_counter()
    try:
        v = sequence_value(name, idx)
    except DomainError as exc:
        return {"name": name, "index": idx, "status": "SKIP",
                "value": None, "is_integer": None, "note": str(exc),
                "ms": (time.perf_counter() - start) * 1e3}
    return {"name": name, "index": idx, "status": "OK",
            "value": str(v.value), "is_integer": v.is_integer,
            "note": None, "ms": (time.perf_counter() - start) * 1e3}


def _cmd_seq(args, command) -> int:
    if args.name not in SEQ_NAMES:
        print(f"error: unknown sequence {args.name!r}; "
              f"choose from {', '.join(SEQ_NAMES)}", file=sys.stderr)
        return 2
    lo, hi = _parse_range(args.range_)
    count = (hi + 1) // 2 - lo // 2 if args.odd else hi - lo + 1
    if count > ROW_LIMIT:
        raise DomainError(f"seq limited to {ROW_LIMIT} rows, got {count}")
    rows = [_seq_row(args.name, i) for i in range(lo, hi + 1)
            if not args.odd or i % 2]
    if args.json:
        clean = [{k: row[k] for k in
                  ("name", "index", "status", "value", "is_integer", "note")}
                 for row in rows]
        print(json.dumps({"schema": SCHEMA, "command": command,
                          "results": clean}, sort_keys=True))
        return 0
    if args.csv:
        import csv  # only the CSV writers load it

        w = csv.writer(sys.stdout)
        w.writerow(["name", "index", "value", "is_integer", "ms"])
        for row in rows:
            w.writerow([row["name"], row["index"],
                        row["value"] if row["status"] == "OK" else "SKIP",
                        "" if row["is_integer"] is None else row["is_integer"],
                        f"{row['ms']:.3f}"])
        return 0
    for row in rows:
        if row["status"] == "SKIP":
            print(f"{row['name']}({row['index']}): SKIP ({row['note']})")
        else:
            flag = "" if row["is_integer"] else "  [non-integer]"
            print(f"{row['name']}({row['index']}) = {row['value']}"
                  f"{flag}  [{row['ms']:.1f} ms]")
    return 0


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------

def explore_grid(check_id: str, pmax: int, nmax: int, a_range=None) -> list[dict]:
    """A conjecture id's registry grid up to pmax or nmax, whichever bounds
    its size key, and over a_range when given.  A request whose bound times
    the length of a_range passes ROW_LIMIT is refused before the grid is
    built."""
    check = REGISTRY.get(check_id)
    if check is None:
        raise UnknownCheckError(check_id)
    if not check_id.startswith("conj."):
        raise DomainError(f"{check_id} is not a conjecture check")
    if a_range and "a" not in check.keys:
        raise DomainError(f"{check_id} takes no --a")
    key = "p" if "p" in check.keys else "n"
    hi = pmax if key == "p" else nmax
    bounds = {"a": range(a_range[0], a_range[1] + 1)} if a_range else {}
    span = a_range[1] - a_range[0] + 1 if a_range else 1
    if hi * span > ROW_LIMIT:
        raise DomainError(
            f"explore limited to {ROW_LIMIT} rows, got --{key}max {hi}"
            + (f" times {span} values of --a" if a_range else ""))
    return check.grid(hi, **bounds)


def _cmd_explore(args, command) -> int:
    a_range = _parse_range(args.a_range) if args.a_range else None
    grid = explore_grid(args.check, args.pmax, args.nmax, a_range)
    reports = run_tasks([(args.check, params) for params in grid], args.seed)
    _emit_reports(args, command, reports)
    consistent = sum(r.status == "PASS" for r in reports)
    skipped = sum(r.status == "SKIP" for r in reports)
    if not args.json and not args.csv:
        print(f"evidence: {consistent}/{len(reports) - skipped} consistent"
              f" ({skipped} skipped); consistency is not proof")
    # evidence tables never gate the exit code unless --strict asks for it
    if args.strict and any(r.status == "FAIL" for r in reports):
        return 1
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _cmd_selftest(args, command) -> int:
    rng = random.Random(args.seed)
    problems = []

    rings = [ZZ, QQ, Zmod(9), GF(7), CyclotomicField(5), QPOLY]
    for ring in rings:
        for _ in range(150):
            a, b, c = (ring.rand(rng) for _ in range(3))
            if (a + b) + c != a + (b + c):
                problems.append(f"{ring.name}: associativity of +")
            if a * b != b * a:
                problems.append(f"{ring.name}: commutativity of *")
            if a * (b + c) != a * b + a * c:
                problems.append(f"{ring.name}: distributivity")
            if a + ring.zero != a or a * ring.one != a:
                problems.append(f"{ring.name}: identities")
        print(f"ring laws   {ring.name}: ok")

    for ring in (ZZ, CyclotomicField(5), QPOLY):
        for _ in range(20):
            m = Mat(ring, [[ring.rand(rng, 4) for _ in range(4)]
                           for _ in range(4)])
            if per_ryser(m) != per_naive(m):
                problems.append(f"{ring.name}: per_ryser != per_naive")
        print(f"permanents  {ring.name}: ok")

    for n in range(3, 26, 2):
        g = gauss_sum(n)
        want = n if (n - 1) // 2 % 2 == 0 else -n
        if not (g * g) == want:
            problems.append(f"gauss sum square at {n}")
    print("gauss sums  ok")

    # CyclotomicField.rand draws one to three terms, so monomials and
    # binomials, which invert by closed forms, are among the draws.
    for ring in (QQ, GF(7), CyclotomicField(5)):
        for _ in range(150):
            z = ring.rand(rng)
            if z == ring.zero:
                continue
            inv = ring.one / z if ring is QQ else z.inverse()
            if z * inv != ring.one:
                problems.append(f"{ring.name}: z * z^-1 != 1")
        print(f"inverses    {ring.name}: ok")

    if problems:
        for p in problems[:10]:
            print("FAIL:", p)
        return 1
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
