"""The benchmark's workloads: fixed lists of calls into permarith's entry points.

An operation is a tuple whose first field names the entry point:

    ("seq", name, index)             permarith.sequences.sequence_value(name, index)
    ("check", check_id, params, seed) permarith.verifier.run_check(check_id, params, seed)
    ("cli", argv)                     permarith.cli.main(argv), stdout captured

The seed picks only the rational x values and the ``--seed`` of seeded checks;
the sizes are fixed here.  This module imports nothing from permarith, so
building a workload costs the same whatever the program does at import time.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("ryser_cyclo", "field_cyclo", "int_grids")

# Checks whose permanent is the rank-2 matrix [u_j + v_k] (per_sum_matrix).
RANK2_CHECKS = ("thper.jdk1", "thper.jdk2", "thper.jdk3", "thper.quad",
                "thper.quad0", "cor.jdk", "cor.quadmod")


def _ryser_cyclo(seed: int) -> list:
    # Gray-code Ryser over Q(zeta_p) with integral coordinates.  Values are
    # computed once through sequence_value, then read back by checks and by
    # `permarith seq`, so the sequences' caches see both hits and misses.
    ops = [("seq", "T", 7), ("seq", "T", 11)]
    for name, indices in (("c", (13, 17, 19)), ("s", (13, 17, 19)),
                          ("t", (13, 17)), ("sprime", (13, 17)),
                          ("tprime", (13, 17)), ("cprime", (13, 17))):
        ops.extend(("seq", name, n) for n in indices)
    ops.append(("check", "thjk.cong", {"p": 11}, seed))
    for cid in ("thtan.cong", "thsin.cong", "thcos.cong"):
        ops.extend(("check", cid, {"p": p}, seed) for p in (13, 17))
    ops.append(("check", "conj.csign", {"p": 19}, seed))
    ops.extend(("check", "thper.rootexp", {"n": n}, seed) for n in (7, 8))
    for cid in ("cor.sin", "cor.cos"):
        ops.extend(("check", cid, {"n": n}, seed) for n in (9, 10))
    ops.append(("cli", ["seq", "t", "--range", "17..19", "--odd", "--json",
                        "--seed", str(seed)]))
    ops.append(("cli", ["verify", "thsin.cong", "--p", "11", "--json",
                        "--seed", str(seed)]))
    return ops


# Heights of the x values: each costs about the same in Q(zeta_7), where the
# Fractions of 1/(1 - zeta^r x) grow with the height of x.
X_BASES = (Fraction(3, 4), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5))


def _rational_x(rng: random.Random, taken: set) -> str:
    # The seed picks the base, its sign and whether it is inverted.
    while True:
        x = rng.choice(X_BASES) * rng.choice((1, -1))
        if rng.random() < 0.5:
            x = 1 / x
        if x not in taken:
            taken.add(x)
            return str(x)


def _field_cyclo(seed: int) -> list:
    # Q(zeta) work with rational coordinates: inverses of non-units, rational
    # x, and Gaussian elimination through det_field.
    rng = random.Random(seed)
    taken: set = set()
    ops = [("seq", "cprime", 9),
           ("cli", ["seq", "cprime", "--range", "9..15", "--odd", "--json",
                    "--seed", str(seed)])]
    for n, count in ((6, 2), (7, 4)):
        for _ in range(count):
            ops.append(("check", "thnew.cauchyroot",
                        {"n": n, "x": _rational_x(rng, taken)}, seed))
    for n in (6, 7):
        ops.append(("cli", ["verify", "thper.rootlinear", "--n", str(n),
                            "--backend", "cyc", "--seed", str(seed), "--json"]))
    for n in (5, 7):
        ops.append(("check", "det.sec2", {"n": n}, seed))
        ops.append(("check", "det.tan2", {"n": n}, seed))
    for n in (7, 8):
        ops.append(("check", "conj.derange", {"n": n}, seed))
        ops.append(("check", "rem.cp", {"n": n}, seed))
    return ops


def _int_grids(seed: int) -> list:
    # Many small checks over Z, Q, Z/p^2, F_p and Q[q, 1/q]; no Q(zeta).
    # Full d-grids go through run_check for p <= 19, and through the CLI at
    # p = 23 with one `permarith verify` call per (check, d).
    ops = []
    for p in (5, 7, 11, 13, 17, 19):
        for cid in RANK2_CHECKS:
            ops.extend(("check", cid, {"p": p, "d": d}, seed)
                       for d in range(1, p))
    for cid in RANK2_CHECKS:
        ops.extend(("cli", ["verify", cid, "--p", "23", "--d", str(d),
                            "--json"]) for d in range(1, 23))
    ops.extend(("check", "conj.absjk", {"p": p}, seed) for p in (5, 7, 11, 13))
    ops.extend(("cli", ["verify", "thnew.invsumsq", "--p", str(p), "--json"])
               for p in (3, 7, 11, 19))
    ops.extend(("check", "conj.maskper", {"p": p, "a": a}, seed)
               for p in (5, 7) for a in (1, 2, 3))
    ops.extend(("check", "conj.maskdet", {"p": p, "a": a}, seed)
               for p in (5, 7) for a in (1, 2, 3, 5))
    ops.extend(("check", "thq.det", {"n": n}, seed) for n in range(2, 12))
    ops.extend(("check", "rem.qdetabs", {"n": n}, seed) for n in range(2, 10))
    ops.extend(("cli", ["verify", "conj.qdet", "--n", str(n), "--a", str(a),
                        "--json"])
               for n in (3, 5, 7, 9) for a in (-3, -2, 1, 2, 3))
    ops.extend(("cli", ["verify", "thper.rootlinear", "--n", str(n),
                        "--backend", "fq", "--seed", str(seed), "--json"])
               for n in range(3, 11))
    return ops


_BUILD = {"ryser_cyclo": _ryser_cyclo, "field_cyclo": _field_cyclo,
          "int_grids": _int_grids}


def build(workload: str, seed: int) -> list:
    """The operations of one round of `workload`, from `seed`."""
    return _BUILD[workload](seed)


def label(op) -> str:
    """Short human-readable name of an operation."""
    kind = op[0]
    if kind == "seq":
        return f"seq {op[1]}({op[2]})"
    if kind == "check":
        params = ",".join(f"{k}={v}" for k, v in sorted(op[2].items()))
        return f"check {op[1]} {params}"
    return "cli " + " ".join(op[1])
