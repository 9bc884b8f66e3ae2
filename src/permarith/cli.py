"""Command-line front end: run checks and suites, print sequence tables,
explore conjectures, emit JSON/CSV.

Exit codes: 0 success, 1 verification failure, 2 usage error.  JSON output
is a single object {"schema", "command", "results"}; "command" echoes the
argv as typed, every exact value is a decimal or num/den string, and timing
is left out of JSON rows so that repeated runs are byte-identical after the
id/params sort.

The argv is read by one loop over one table, COMMANDS: for each command its
positional and, for each flag, its destination, reader and default.  A
flag's value is the next argument, even when it starts with '-'; -h or
--help prints USAGE.

Checks and sequence values run serially in this process; --threads is
accepted and has no effect.  Check parameters come from the flags --n, --p,
--d, --a, --x and --backend; --x must read as a rational, and run_check
refuses a missing or extra key.
"""

from __future__ import annotations

import json
import random
import sys
import time
from types import SimpleNamespace

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
        raise ValueError(
            f"expected a rational such as 3/4, got {text!r}") from None
    return text


# flag -> (destination, reader, default).  The reader is None for a switch,
# a tuple for a fixed choice, else a function of the value's text; a flag
# whose default is _REQUIRED must be given.
_REQUIRED = object()
_COMMON = {
    "json": ("json", None, False),
    "csv": ("csv", None, False),
    "threads": ("threads", int, 1),
    "seed": ("seed", int, 0),
    "strict": ("strict", None, False),
}
# command -> (destination of its one positional, or None; its flags)
COMMANDS = {
    "verify": ("check", {
        "tier": ("tier", ("fast", "full"), "fast"),
        **{key: (key, int, None) for key in "npda"},
        "x": ("x", _rational_text, None),
        "backend": ("backend", tuple(ROOTLINEAR_LIMITS), None),
        **_COMMON}),
    "seq": ("name", {
        "range": ("range_", str, _REQUIRED),
        "odd": ("odd", None, False),
        **_COMMON}),
    "explore": ("check", {
        "pmax": ("pmax", int, 13),
        "nmax": ("nmax", int, 9),
        "a": ("a_range", str, None),
        **_COMMON}),
    "selftest": (None, _COMMON),
}

USAGE = f"""\
usage: permarith COMMAND ... [--json|--csv] [--seed S] [--threads N] [--strict]

  verify CHECK|all [--tier fast|full] [--n N] [--p P] [--d D] [--a A]
         [--x X] [--backend {'|'.join(ROOTLINEAR_LIMITS)}]
                 one check, or the registry at --tier (default fast); the
                 parameter flags run one parameter set, --x a rational
  seq NAME --range A..B [--odd]
                 a table of {', '.join(SEQ_NAMES)}
  explore CHECK [--pmax P] [--nmax N] [--a A..B]
                 a conj.* check's evidence up to --pmax 13 or --nmax 9
  selftest       quick internal sanity suite

  --json, --csv  JSON or CSV output
  --seed S       seed of the checks that draw random inputs (default 0)
  --threads N    accepted; execution is serial
  --strict       conjecture failures also gate the exit code

A flag's value is the next argument, even when it starts with '-'
(--a -3..3); --flag=value also works, and a unique prefix names a flag.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""


def _read(flag: str, reader, text: str):
    """One flag's value from its text; a usage error names the flag."""
    if isinstance(reader, tuple):
        if text in reader:
            return text
        why = (f"invalid choice: {text!r} "
               f"(choose from {', '.join(map(repr, reader))})")
    else:
        try:
            return reader(text)
        except ValueError as exc:
            why = (str(exc) if reader is _rational_text
                   else f"invalid {reader.__name__} value: {text!r}")
    raise DomainError(f"argument --{flag}: {why}")


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace the commands read, or None for -h/--help.  A usage
    error is a DomainError."""
    if not argv:
        raise DomainError("the following arguments are required: command")
    if argv[0] in ("-h", "--help"):
        return None
    if argv[0] not in COMMANDS:
        raise DomainError(f"argument command: invalid choice: {argv[0]!r} "
                          f"(choose from {', '.join(COMMANDS)})")
    positional, flags = COMMANDS[argv[0]]
    values = {dest: default for dest, _, default in flags.values()}
    values["cmd"] = argv[0]
    extras = []
    tokens = iter(argv[1:])
    for tok in tokens:
        if tok == "-h":
            return None
        if not tok.startswith("--"):
            if positional and positional not in values:
                values[positional] = tok
            else:
                extras.append(tok)
            continue
        name, eq, text = tok[2:].partition("=")
        if name not in flags:
            found = [f for f in (*flags, "help") if f.startswith(name)]
            if len(found) != 1:
                extras.append(tok)  # unknown, ambiguous or another command's
                continue
            if found[0] == "help":
                return None
            name = found[0]
        dest, reader, _ = flags[name]
        if reader is None:
            if eq:
                raise DomainError(
                    f"argument --{name}: ignored explicit argument {text!r}")
            values[dest] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise DomainError(f"argument --{name}: expected one argument")
        values[dest] = _read(name, reader, text)
    missing = [positional] if positional and positional not in values else []
    missing += [f"--{f}" for f, (dest, _, _) in flags.items()
                if values[dest] is _REQUIRED]
    if missing:
        raise DomainError("the following arguments are required: "
                          + ", ".join(missing))
    if extras:
        raise DomainError("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _read_argv(argv)
    except DomainError as exc:
        print(f"error: {exc}\nsee permarith --help", file=sys.stderr)
        return 2
    if args is None:
        print(USAGE, end="")
        return 0
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
    its size key, and over a_range when given, else over the grid's default
    a.  A request whose bound times the count of a values passes ROW_LIMIT
    is refused before the grid is built."""
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
    if a_range:
        span = len(bounds["a"])
    elif "a" in check.keys:
        # The grids with an a (_pa_grid, _qdet_grid) take it last, defaulted.
        span = len(check.grid.__defaults__[-1])
    else:
        span = 1
    if hi * span > ROW_LIMIT:
        raise DomainError(
            f"explore limited to {ROW_LIMIT} rows, got --{key}max {hi}"
            + (f" times {span} values of --a" if a_range else
               f" times {span} default values of a" if span > 1 else ""))
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
