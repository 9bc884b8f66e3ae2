"""Per-layer tracing of permarith from outside the program.

`Tracer.install` wraps public functions of a freshly imported permarith: each
function's name is replaced in every permarith module that holds it (module
attributes and module-level dicts such as the sequence table), and `Cyc`,
`LPoly` and `ModInt` methods are replaced on their classes.

* Engines, builders, sequence values, checks and commands become spans
  (id, parent, name, start, end), kept in memory for the round.
* Scalar products are counters.  `Cyc` products, canonical forms and inverses
  also add their duration to a per-operation total and to the self time
  bookkeeping of the span they run in; they are never spans themselves.

A span's self time is its duration minus the time its child spans and its
outermost scalar operations cover.  Times are raw `perf_counter` seconds here;
`close_stretch` converts the stretch just run to reference seconds with the
factor the runner measured around it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, layer): the layer is the metric prefix.
SPANS = (
    ("permarith.matrices", "per_ryser", "matrices.per_ryser"),
    ("permarith.matrices", "per_sum_matrix", "matrices.per_sum_matrix"),
    ("permarith.matrices", "det_field", "matrices.det_field"),
    ("permarith.matrices", "det_divfree", "matrices.det_divfree"),
    ("permarith.families", "build_cyclotomic", "families.build"),
    ("permarith.families", "build_integer", "families.build"),
    ("permarith.families", "build_qpoly", "families.build"),
    ("permarith.families", "build_rational", "families.build"),
    ("permarith.sequences", "_resolve", "sequences.resolve"),
    ("permarith.sequences", "seq_T", "sequences.value"),
    ("permarith.sequences", "seq_c", "sequences.value"),
    ("permarith.sequences", "seq_c_prime", "sequences.value"),
    ("permarith.sequences", "seq_s", "sequences.value"),
    ("permarith.sequences", "seq_s_prime", "sequences.value"),
    ("permarith.sequences", "seq_t", "sequences.value"),
    ("permarith.sequences", "seq_t_prime", "sequences.value"),
    ("permarith.verifier", "run_check", "verifier.run_check"),
    ("permarith.cli", "main", "cli.main"),
)

# (module, class, method, layer, timed): products are counted; the Cyc ones
# are also timed.
SCALARS = (
    ("permarith.cyclotomic", "Cyc", "__mul__", "cyclotomic.mul", True),
    ("permarith.cyclotomic", "Cyc", "__rmul__", "cyclotomic.mul", True),
    ("permarith.cyclotomic", "Cyc", "canonical", "cyclotomic.canonical", True),
    ("permarith.cyclotomic", "Cyc", "inverse", "cyclotomic.inverse", True),
    ("permarith.rings", "LPoly", "__mul__", "rings.lpoly.mul", False),
    ("permarith.rings", "LPoly", "__rmul__", "rings.lpoly.mul", False),
    ("permarith.rings", "ModInt", "__mul__", "rings.modint.mul", False),
    ("permarith.rings", "ModInt", "__rmul__", "rings.modint.mul", False),
)


def _replace_everywhere(orig, wrapper):
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "permarith" or name.startswith("permarith.")):
            continue
        space = vars(mod)
        for attr, value in list(space.items()):
            if value is orig:
                space[attr] = wrapper
            elif type(value) is dict:
                for key, inner in list(value.items()):
                    if inner is orig:
                        value[key] = wrapper


class Tracer:
    """Spans and counters for one round of one freshly imported permarith."""

    def __init__(self, rank2_checks=()):
        self.rank2_checks = frozenset(rank2_checks)
        self.records: list = []   # (id, parent, name, layer, t0, t1, self, tag)
        self.stack: list = []     # open spans: [id, covered]
        self.counts: Counter = Counter()
        self.scalar_raw: defaultdict = defaultdict(float)
        self.depth = 0
        self._next_id = 0
        # reference-second results, filled by close_stretch
        self.ref_s: defaultdict = defaultdict(float)
        self.ref_self_s: defaultdict = defaultdict(float)
        self.ref_scalar_s: defaultdict = defaultdict(float)
        self.sidecar: list = []
        self._closed = 0
        self._scalar_mark: dict = {}

    # -- wrappers --------------------------------------------------------------

    def span(self, layer: str, name: str, fn, tag_arg: bool = False):
        clock, stack, records = time.perf_counter, self.stack, self.records
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else None
            if layer == "matrices.per_ryser":
                counts["matrices.per_ryser.steps"] += (1 << args[0].n) - 1
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                records.append((frame[0], parent, name, layer, t0, t1,
                                t1 - t0 - frame[1],
                                args[0] if tag_arg and args else None))
        return wrapper

    def scalar(self, layer: str, fn, timed: bool, cls):
        counts = self.counts
        if not timed:
            @functools.wraps(fn)
            def counted(*args):
                counts[layer] += 1
                return fn(*args)
            return counted

        clock, stack, raw = time.perf_counter, self.stack, self.scalar_raw
        frac_key = layer + ".frac_calls"
        check_frac = layer == "cyclotomic.mul"

        def non_integral(x) -> bool:
            if isinstance(x, cls):
                return any(type(c) is not int and c.denominator != 1
                           for c in x.coeffs)
            return type(x) is not int and getattr(x, "denominator", 1) != 1

        @functools.wraps(fn)
        def timed_op(*args):
            counts[layer] += 1
            if check_frac and (non_integral(args[0]) or non_integral(args[1])):
                counts[frac_key] += 1
            self.depth += 1
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                self.depth -= 1
                raw[layer] += dt
                if self.depth == 0 and stack:
                    stack[-1][1] += dt
        return timed_op

    def install(self):
        """Wrap the freshly imported program; a name it lacks is skipped."""
        for modname, attr, layer in SPANS:
            mod = sys.modules.get(modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            short = modname.rsplit(".", 1)[1]
            _replace_everywhere(orig, self.span(
                layer, f"{short}.{attr}", orig,
                tag_arg=layer == "verifier.run_check"))
        done: dict = {}
        for modname, cls_name, meth, layer, timed in SCALARS:
            cls = getattr(sys.modules.get(modname), cls_name, None)
            orig = vars(cls).get(meth) if cls is not None else None
            if orig is None:
                continue
            if id(orig) not in done:
                done[id(orig)] = self.scalar(layer, orig, timed, cls)
            setattr(cls, meth, done[id(orig)])

    # -- reference seconds -----------------------------------------------------

    def close_stretch(self, factor: float, raw_start: float, ref_start: float):
        """Convert what ran since the last call to reference seconds."""
        for rec in self.records[self._closed:]:
            rid, parent, name, layer, t0, t1, self_raw, tag = rec
            self.ref_s[layer] += (t1 - t0) * factor
            self.ref_self_s[layer] += self_raw * factor
            entry = {"id": rid, "parent": parent, "name": name,
                     "start": round(ref_start + (t0 - raw_start) * factor, 7),
                     "end": round(ref_start + (t1 - raw_start) * factor, 7)}
            if tag is not None:
                entry["tag"] = tag
            self.sidecar.append(entry)
        self._closed = len(self.records)
        for layer, raw in self.scalar_raw.items():
            delta = raw - self._scalar_mark.get(layer, 0.0)
            self.ref_scalar_s[layer] += delta * factor
            self._scalar_mark[layer] = raw

    # -- per-layer metrics -------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the round: (value, unit) by name."""
        calls = Counter(rec[3] for rec in self.records)
        out = {}
        for layer in ("matrices.per_ryser", "matrices.per_sum_matrix",
                      "matrices.det_field", "matrices.det_divfree"):
            out[f"{layer}.s"] = (self.ref_s[layer], "s")
            out[f"{layer}.calls"] = (calls[layer], "count")
        out["matrices.per_ryser.steps"] = (
            self.counts["matrices.per_ryser.steps"], "count")
        for layer in ("cyclotomic.mul", "cyclotomic.canonical",
                      "cyclotomic.inverse"):
            out[f"{layer}.s"] = (self.ref_scalar_s[layer], "s")
            out[f"{layer}.calls"] = (self.counts[layer], "count")
        out["cyclotomic.mul.frac_calls"] = (
            self.counts["cyclotomic.mul.frac_calls"], "count")
        for layer in ("rings.lpoly.mul", "rings.modint.mul"):
            out[f"{layer}.calls"] = (self.counts[layer], "count")
        out["families.build.self_s"] = (self.ref_self_s["families.build"], "s")
        out["sequences.resolve.self_s"] = (
            self.ref_self_s["sequences.resolve"], "s")
        out["sequences.cache.hit_ratio"] = (self._sequence_hit_ratio(), "ratio")
        out["verifier.run_check.calls"] = (calls["verifier.run_check"], "count")
        out["verifier.run_check.self_s"] = (
            self.ref_self_s["verifier.run_check"], "s")
        out["verifier.per_cache.hit_ratio"] = (self._per_cache_hit_ratio(),
                                               "ratio")
        out["cli.main.self_s"] = (self.ref_self_s["cli.main"], "s")
        return out

    def _sequence_hit_ratio(self) -> float:
        # A request for a sequence value is served from the cache when no
        # matrix is built under it.
        requests = {rec[0] for rec in self.records if rec[3] == "sequences.value"}
        built = {rec[1] for rec in self.records if rec[3] == "families.build"}
        if not requests:
            return 0.0
        return 1.0 - len(requests & built) / len(requests)

    def _per_cache_hit_ratio(self) -> float:
        # Every rank-2 check needs one rank-2 permanent; it is served from the
        # cache when it costs no per_sum_matrix call.
        requests = sum(1 for rec in self.records
                       if rec[3] == "verifier.run_check"
                       and rec[7] in self.rank2_checks)
        if not requests:
            return 0.0
        computed = sum(1 for rec in self.records
                       if rec[3] == "matrices.per_sum_matrix")
        return 1.0 - computed / requests
