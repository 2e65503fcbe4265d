"""Spans around the benchmark's calls into probdigits, and the per-layer
metrics aggregated from them.

A span is (name, start, end, parent, op_id): one per operation ("op.<kind>")
and, as its children, one per public function called ("<layer>.<function>").
Work counts are derived from each call's arguments and result, outside the
timed region.
"""

from __future__ import annotations

import json
import math
import statistics
from fractions import Fraction
from time import perf_counter

import oracle as orc

LAYER_FUNCTIONS = {
    "core": ("encode", "classify", "cylinder_bounds", "eval_digits", "bernoulli_cdf"),
    "flips": ("eval_flip", "flip_digits", "flip_image", "eval_nega"),
    "analysis": ("jump_at", "integral_series", "derivative_estimate", "integral_riemann"),
    "fractal": ("ifs_graph_points", "rectangle_diagonals_sq", "entropy_sum", "graph_dimension_estimate",
                "moran_set_cylinders", "covering_measure"),
}
COUNTERS = {
    "core.digits": "count",
    "core.max_den_bits": "bits",
    "core.classify.decided_ratio": "ratio",
    "flips.series_terms": "count",
    "analysis.riemann_cylinders": "count",
    "analysis.max_den_bits": "bits",
    "fractal.points": "count",
    "fractal.moran_bases": "count",
    "fractal.rect_group_ratio": "ratio",
}
CLI_COMMANDS = ("convert", "eval", "integral", "jumps", "graph", "dimension", "scan-derivative")
CLI_METRICS = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.{c}.{m}": "ms" for c in CLI_COMMANDS for m in ("p50_ms", "main_ms")},
    "cli.stdout_bytes": "bytes",
    "cli.graph.peak_rss_mb": "MiB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.busy_s"] = "s"
    units.update(COUNTERS)
    units.update(CLI_METRICS)
    units["trace.overhead_frac"] = "ratio"
    return units


class Tracer:
    """Keeps spans in memory; write() dumps them as JSON lines at the end of a run."""

    def __init__(self):
        self.spans: list = []

    def run(self, op_id: int, kind: str, calls: list) -> list:
        start = perf_counter()
        parent = len(self.spans)
        self.spans.append(None)
        results = []
        try:
            for name, fn, args in calls:
                t0 = perf_counter()
                try:
                    results.append(fn(*args))
                finally:
                    self.spans.append((name, t0, perf_counter(), parent, op_id))
        finally:
            self.spans[parent] = ("op." + kind, start, perf_counter(), -1, op_id)
        return results

    def span(self, name: str, op_id: int, fn, *args):
        """A parentless span around one call (probes run outside any operation)."""
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, t0, perf_counter(), -1, op_id))

    def busy(self) -> dict[str, tuple[int, float]]:
        """(calls, self time) per span name: duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, list] = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += t1 - t0 - child_time[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for n, t0, t1, _, _ in self.spans if n == name]

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, t0, t1, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent, "op": op_id}) + "\n")


class Counters:
    """Work counts derived from call arguments and results."""

    def __init__(self):
        self.n = {k: 0 for k in ("digits", "core_bits", "classify", "decided", "series_terms",
                                 "riemann", "analysis_bits", "points", "moran", "rect_pairs", "rect_total")}

    def _bits(self, key: str, *values):
        for v in values:
            if isinstance(v, Fraction):
                self.n[key] = max(self.n[key], v.denominator.bit_length())

    def add(self, name: str, args: tuple, r) -> None:
        n = self.n
        if name == "core.encode":
            n["digits"] += len(r.digits)
        elif name == "core.cylinder_bounds":
            n["digits"] += len(args[0])
            self._bits("core_bits", r.lo, r.hi)
        elif name == "core.eval_digits":
            n["digits"] += len(args[0].digits) + len(args[0].tail)
            self._bits("core_bits", r)
        elif name == "core.bernoulli_cdf":
            if 0 <= args[0] < 1:
                pre, cyc = orc.base_q_digits(args[0], args[1].q)
                n["digits"] += len(pre) + len(cyc)
            self._bits("core_bits", r)
        elif name == "core.classify":
            n["classify"] += 1
            n["decided"] += r.kind.value != "undetermined"
        elif name == "flips.eval_flip":
            seq, flips, offset = args[0], args[1].flips, args[2]
            kind = flips.kind.value
            pre_end = flips.positions[-1] if kind == "finite" else len(flips.preperiod)
            period = len(flips.period) if kind == "mask" else 1
            m = len(seq.digits)
            n["series_terms"] += m + max(0, pre_end - offset - m) + math.lcm(len(seq.tail), period)
        elif name == "flips.eval_nega":
            seq = args[0]
            n["series_terms"] += max(len(seq.digits), 1) + math.lcm(len(seq.tail), 2)
        elif name == "analysis.integral_riemann":
            n["riemann"] += args[0].pv.q ** args[1]
            self._bits("analysis_bits", r.lo, r.hi)
        elif name == "analysis.integral_series":
            self._bits("analysis_bits", r.lo, r.hi)
        elif name == "analysis.jump_at":
            self._bits("analysis_bits", r.left_limit, r.right_limit)
        elif name == "analysis.derivative_estimate":
            self._bits("analysis_bits", *r.ratios[-1:])
        elif name == "fractal.ifs_graph_points":
            n["points"] += len(r)
        elif name == "fractal.moran_set_cylinders":
            n["moran"] += len(r)
        elif name == "fractal.rectangle_diagonals_sq":
            n["rect_pairs"] += len(r)
            n["rect_total"] += args[0].pv.q ** args[1]

    def metrics(self, passes: int) -> dict[str, float]:
        n = self.n
        return {
            "core.digits": n["digits"] / passes,
            "core.max_den_bits": n["core_bits"],
            "core.classify.decided_ratio": n["decided"] / n["classify"] if n["classify"] else 0.0,
            "flips.series_terms": n["series_terms"] / passes,
            "analysis.riemann_cylinders": n["riemann"] / passes,
            "analysis.max_den_bits": n["analysis_bits"],
            "fractal.points": n["points"] / passes,
            "fractal.moran_bases": n["moran"] / passes,
            "fractal.rect_group_ratio": n["rect_pairs"] / n["rect_total"] if n["rect_total"] else 0.0,
        }


def layer_metrics(tracer: Tracer, counters: Counters, passes: int) -> dict[str, float]:
    """Per-pass calls and busy seconds of every public function, plus the work counts."""
    busy = tracer.busy()
    out = {}
    for layer, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            calls, secs = busy.get(f"{layer}.{fn}", (0, 0.0))
            out[f"{layer}.{fn}.calls"] = calls / passes
            out[f"{layer}.{fn}.busy_s"] = secs / passes
    out.update(counters.metrics(passes))
    return out


def median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0
