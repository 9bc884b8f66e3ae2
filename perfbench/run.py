"""permarith benchmark: one workload, closed loop, timed in reference seconds.

    python3 perfbench/run.py --workload ryser_cyclo --seed 1 --seconds 20 --trace 0

One process and one thread make the calls, each when the previous returns.
A run repeats whole rounds of the workload's operations until `--seconds` have
passed.  Every round starts from a fresh import of permarith, so its caches
start cold as they do for a user's command.  After the rounds, every output of
every round is checked against the benchmark's own oracle.

Times are reference seconds.  Between operations a fixed pure-Python kernel
(int and Fraction arithmetic, garbage collector paused) is timed; a stretch of
operations of at least STRETCH_S raw seconds is divided by the mean kernel
time on either side of it and multiplied by KERNEL_REF_S, the kernel's time on
the machine the benchmark was written on.  Host speed swings cancel out.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1, traced and untraced rounds alternate and the metrics are per layer.
Result files and span sidecars go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

KERNEL_REF_S = 0.00040    # median kernel sample on the reference machine
KERNEL_REPS = 3           # kernel runs per sample; the sample is their median
STRETCH_S = 0.03          # raw seconds of operations between kernel samples
SETUP_PROBES = 15         # fresh interpreters timed per run for setup_s
MIN_ROUNDS = 3

# ---------------------------------------------------------------------------
# Reference kernel
# ---------------------------------------------------------------------------

_KA = tuple((i * 7919) % 2003 - 1001 for i in range(29))
_KB = tuple((i * 104729) % 1999 - 999 for i in range(29))


def _kernel_once() -> Fraction:
    # A cyclic convolution of small ints, then a sum of Fractions whose
    # denominators grow: the two kinds of arithmetic permarith spends its time in.
    out = [0] * 29
    for i, a in enumerate(_KA):
        for j, b in enumerate(_KB):
            k = i + j
            out[k - 29 if k >= 29 else k] += a * b
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(out[k % 29], k)
    return acc


class Kernel:
    """Times the reference kernel with the garbage collector paused."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(KERNEL_REPS):
                t0 = time.perf_counter()
                _kernel_once()
                times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        value = statistics.median(times)
        self.samples.append(value)
        return value


def factor(before: float, after: float) -> float:
    """Raw seconds to reference seconds, from the kernel on either side."""
    return KERNEL_REF_S * 2.0 / (before + after)


# ---------------------------------------------------------------------------
# The program
# ---------------------------------------------------------------------------

def fresh_import():
    """Drop every permarith module and import the package anew."""
    for name in [m for m in sys.modules
                 if m == "permarith" or m.startswith("permarith.")]:
        del sys.modules[name]
    importlib.import_module("permarith")
    return {name: importlib.import_module(f"permarith.{name}")
            for name in ("cli", "verifier", "sequences", "rings")}


def execute(label: str, op, mods) -> tuple:
    """Run one operation; return what a user would see, unparsed.  `label`
    names the operation in the span sidecar of a traced round."""
    kind = op[0]
    try:
        if kind == "seq":
            return ("ok", str(mods["sequences"].sequence_value(op[1], op[2]).value))
        if kind == "check":
            report = mods["verifier"].run_check(op[1], dict(op[2]), seed=op[3])
            return (report.status, report.computed, report.note)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = mods["cli"].main(list(op[1]))
        return ("exit", code, buf.getvalue())
    except Exception as exc:  # any exception is a failed operation
        return ("error", f"{type(exc).__name__}: {exc}")


def run_round(ops, labels, mods, kernel: Kernel, tracer=None) -> dict:
    """One pass over the operations, timed in stretches between kernel samples."""
    call = execute
    if tracer is not None:
        call = tracer.span("bench.op", "bench.op", execute, tag_arg=True)
    outputs = []
    ref = raw = ref_cursor = 0.0
    before = kernel.sample()
    stretch = 0.0
    stretch_start = time.perf_counter()
    last = len(ops) - 1
    for i, (label, op) in enumerate(zip(labels, ops)):
        t0 = time.perf_counter()
        outputs.append(call(label, op, mods))
        t1 = time.perf_counter()
        stretch += t1 - t0
        if stretch >= STRETCH_S or i == last:
            after = kernel.sample()
            f = factor(before, after)
            ref += stretch * f
            raw += stretch
            if tracer is not None:
                tracer.close_stretch(f, stretch_start, ref_cursor)
                ref_cursor += (t1 - stretch_start) * f
            before, stretch = after, 0.0
            stretch_start = time.perf_counter()
    return {"ref": ref, "raw": raw, "outputs": outputs}


# ---------------------------------------------------------------------------
# Set-up time, in fresh interpreters
# ---------------------------------------------------------------------------

def probe_setup(workload: str, seed: int) -> None:
    """Child side: time `import permarith.cli` plus building the inputs."""
    sys.path.insert(0, str(SRC))
    kernel = Kernel()
    before = kernel.sample()
    t0 = time.perf_counter()
    importlib.import_module("permarith.cli")
    workloads.build(workload, seed)
    t1 = time.perf_counter()
    after = kernel.sample()
    print(json.dumps({"raw": t1 - t0, "ref": (t1 - t0) * factor(before, after)}))


def setup_time(workload: str, seed: int) -> dict:
    """One set-up probe in a fresh interpreter: raw and reference seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed), "--seconds", "0"],
        capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# Checking outputs
# ---------------------------------------------------------------------------

def _argv_value(argv, flag, default=None):
    for i, tok in enumerate(argv):
        if tok == flag and i + 1 < len(argv):
            return argv[i + 1]
        if tok.startswith(flag + "="):
            return tok.split("=", 1)[1]
    return default


def _expected_rows(argv) -> list:
    """What one CLI call must report: (id, params) rows or (name, index) rows."""
    if argv[0] == "seq":
        lo, hi = (int(x) for x in _argv_value(argv, "--range").split(".."))
        odd = "--odd" in argv
        return [(argv[1], i) for i in range(lo, hi + 1) if not odd or i % 2]
    params = {}
    for flag in ("--n", "--p", "--d", "--a"):
        value = _argv_value(argv, flag)
        if value is not None:
            params[flag[2:]] = int(value)
    for flag in ("--x", "--backend"):
        value = _argv_value(argv, flag)
        if value is not None:
            params[flag[2:]] = value
    return [(argv[1], params)]


def check_output(op, out, oracle) -> tuple[str, str] | None:
    """None if the operation succeeded with the right value, else
    ("failed", reason) for an error and ("wrong", reason) for a wrong value."""
    kind = op[0]
    if out[0] == "error":
        return ("failed", out[1])
    if kind == "seq":
        reason = oracle.check_seq(op[1], op[2], out[1])
        return ("wrong", reason) if reason else None
    if kind == "check":
        if out[0] != "PASS":
            return ("failed", f"status {out[0]}: {out[2]}")
        reason = oracle.check_report(op[1], op[2], op[3], out[1])
        return ("wrong", reason) if reason else None
    argv = op[1]
    if out[1] != 0:
        return ("failed", f"exit code {out[1]}")
    try:
        rows = json.loads(out[2].strip().splitlines()[-1])["results"]
    except (ValueError, KeyError, IndexError) as exc:
        return ("failed", f"unreadable output: {exc}")
    want = _expected_rows(argv)
    seed = int(_argv_value(argv, "--seed", "0"))
    if argv[0] == "seq":
        if [(r["name"], r["index"]) for r in rows] != want:
            return ("wrong", "rows do not match the requested range")
        for r in rows:
            if r["status"] != "OK":
                return ("failed", f"status {r['status']}: {r['note']}")
            reason = oracle.check_seq(r["name"], r["index"], r["value"])
            if reason:
                return ("wrong", reason)
        return None
    if [(r["id"], r["params"]) for r in rows] != want:
        return ("wrong", "rows do not match the requested check")
    for r in rows:
        if r["status"] != "PASS":
            return ("failed", f"status {r['status']}: {r['note']}")
        reason = oracle.check_report(r["id"], r["params"], seed, r["computed"])
        if reason:
            return ("wrong", reason)
    return None


def tally(seen: list, outputs: list) -> None:
    """Fold one round's outputs into `seen`: per operation, each distinct
    output with its count.  Keeping only distinct outputs keeps the memory
    of a run the same however many rounds fit in it."""
    for distinct, out in zip(seen, outputs):
        key = repr(out)
        if key in distinct:
            distinct[key][1] += 1
        else:
            distinct[key] = [out, 1]


def check_rounds(ops, labels, seen, oracle):
    """Count failed operations over all rounds; correct is False if any
    output disagreed with the oracle.  Returns (failed, correct, reasons)."""
    failed, correct, reasons = 0, True, {}
    for label, op, distinct in zip(labels, ops, seen):
        for out, count in distinct.values():
            verdict = check_output(op, out, oracle)
            if verdict is not None:
                failed += count
                correct = correct and verdict[0] != "wrong"
                reasons.setdefault(label, f"{verdict[0]}: {verdict[1]}")
    return failed, correct, reasons


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "permarith" / "__init__.py").is_file():
        print(f"error: no permarith sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    sys.path.insert(0, str(SRC))
    from tracer import Tracer

    ops = workloads.build(args.workload, args.seed)
    labels = [workloads.label(op) for op in ops]
    kernel = Kernel()
    rounds, traced, setups = [], [], []
    seen = [{} for _ in ops]
    deadline = time.perf_counter() + args.seconds
    min_rounds = 2 * MIN_ROUNDS if args.trace else MIN_ROUNDS
    while len(rounds) + len(traced) < min_rounds or time.perf_counter() < deadline:
        mods = fresh_import()
        tracer = None
        if args.trace and len(traced) < len(rounds):
            tracer = Tracer(workloads.RANK2_CHECKS)
            tracer.install()
        gc.collect()
        rnd = run_round(ops, labels, mods, kernel, tracer)
        tally(seen, rnd.pop("outputs"))
        if tracer is None:
            rounds.append(rnd)
        else:
            rnd["tracer"] = tracer
            traced.append(rnd)
        # Set-up probes are spread over the run, one after each round, so
        # that no single slow phase of the host covers all of them.
        if len(setups) < SETUP_PROBES:
            setups.append(setup_time(args.workload, args.seed))
    while len(setups) < SETUP_PROBES:
        setups.append(setup_time(args.workload, args.seed))
    rat = mods["rings"].Rat
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw_wall = time.perf_counter() - wall0
    raw_cpu = time.process_time() - cpu0

    from oracle import Oracle
    failed, correct, reasons = check_rounds(ops, labels, seen, Oracle())
    for label, reason in sorted(reasons.items()):
        print(f"{label}: {reason}", file=sys.stderr)

    ops_s = statistics.median(r["ref"] for r in rounds)
    if args.trace:
        metrics = layer_metrics(traced, ops_s)
        RESULTS.mkdir(exist_ok=True)
        sidecar = RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with open(sidecar, "w") as fh:
            for i, rnd in enumerate(traced):
                for entry in rnd["tracer"].sidecar:
                    fh.write(json.dumps({"round": i, **entry}) + "\n")
    else:
        metrics = {
            "ops_s": {"value": ops_s, "unit": "s"},
            "setup_s": {"value": statistics.median(s["ref"] for s in setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    audit = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "traced_rounds": len(traced),
        "ops_per_round": len(ops),
        "raw_wall_s": round(raw_wall, 4),
        "raw_cpu_s": round(raw_cpu, 4),
        "raw_ops_s": round(statistics.median(r["raw"] for r in rounds), 6),
        "raw_setup_s": round(statistics.median(s["raw"] for s in setups), 6),
        "kernel_median_s": round(statistics.median(kernel.samples), 7),
        "kernel_samples": len(kernel.samples),
        "python": platform.python_version(),
        "rat_backend": f"{rat.__module__}.{rat.__qualname__}",
        "nproc": os.cpu_count(),
    }
    result = {"correct": correct, "attempted": len(ops) * (len(rounds) + len(traced)),
              "failed": failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"audit": audit, "result": result}, fh, indent=1)
    print("audit: " + json.dumps(audit))
    print(json.dumps(result))
    return 0


def layer_metrics(traced: list, untraced_ops_s: float) -> dict:
    """Per-layer metrics: times are medians over traced rounds, counts come
    from the first traced round (every traced round repeats them exactly)."""
    per_round = [rnd["tracer"].metrics() for rnd in traced]
    out = {}
    for name, (value, unit) in per_round[0].items():
        if unit == "count":
            if any(m[name][0] != value for m in per_round[1:]):
                print(f"warning: count {name} differs between rounds",
                      file=sys.stderr)
        else:
            value = statistics.median(m[name][0] for m in per_round)
        out[name] = {"value": value, "unit": unit}
    out["trace.overhead_ratio"] = {
        "value": statistics.median(r["ref"] for r in traced) / untraced_ops_s,
        "unit": "ratio"}
    return out


if __name__ == "__main__":
    sys.exit(main())
