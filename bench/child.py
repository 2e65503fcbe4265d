"""One workload in one process: set up, then run passes over its fixed
operation list until the time is up.  Prints one JSON object.

run.py starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100  # enough samples that at least 10 lie beyond p90
#: The host's cores are shared, and its speed drifts by +-20% over seconds.
#: So every latency is scaled by REF_S / (time of calibrate() measured next to
#: it): a time in seconds at the speed where calibrate() takes REF_S.  Raw
#: wall-clock figures are reported beside the calibrated ones.
REF_S = 2.5e-3
CHUNK_S = 0.05  # calibrate after at least this much timed work


def calibrate() -> float:
    """Seconds taken by a fixed stdlib Fraction loop that never touches probdigits."""
    t0 = perf_counter()
    s = Fraction(0)
    for i in range(1, 600):
        s += Fraction(1, i % 97 + 1)
    return perf_counter() - t0


class Calibrated:
    """One pass's latencies, scaled a chunk at a time by the calibration that follows the chunk."""

    def __init__(self):
        self.pending: list[float] = []
        self.pending_s = 0.0
        self.lat: list[float] = []
        self.raw: list[float] = []
        self.refs: list[float] = []

    def add(self, dt: float) -> None:
        self.pending.append(dt)
        self.pending_s += dt
        if self.pending_s >= CHUNK_S:
            self.flush()

    def flush(self) -> None:
        if self.pending:
            ref = calibrate()
            self.refs.append(ref)
            self.lat += [x * REF_S / ref for x in self.pending]
            self.raw += self.pending
            self.pending, self.pending_s = [], 0.0


def build(workload: str, seed: int) -> list:
    import cliwork
    import workloads

    return {"pointwise": workloads.pointwise, "enumerate": workloads.enumerate_, "cli": cliwork.cli_ops}[workload](seed)


def judge(op, res, err, first, error_type) -> tuple[bool, str]:
    """(ok, canonical form).  The oracle runs on the first pass; later passes
    must reproduce the first pass's canonical form exactly."""
    if op.expect_error:
        return isinstance(err, error_type), type(err).__name__ if err else "returned"
    if err is not None:
        return False, f"raised {type(err).__name__}: {err}"
    try:
        canon = op.canon(res)
        if first is not None:
            return first[0] and canon == first[1], canon
        return bool(op.check(res)), canon
    except Exception as exc:  # a malformed result fails its check: count it, keep running
        return False, f"check raised {type(exc).__name__}: {exc}"


def shares(ops: list) -> dict:
    """Input-property shares of one pass, so claims limited to one property can cite them."""
    n = len(ops)
    props = [op.props for op in ops]

    def share(key, value):
        having = [p[key] for p in props if key in p]
        return round(sum(v == value for v in having) / len(having), 4) if having else None

    def spread(key):
        vals = sorted(p[key] for p in props if key in p)
        return {"min": vals[0], "median": vals[len(vals) // 2], "max": vals[-1]} if vals else None

    per_system = sorted(Counter(p["system"] for p in props if "system" in p).values())
    return {
        "ops_per_pass": n,
        "kinds": dict(Counter(op.kind for op in ops)),
        "positional_share": share("positional", True),
        "dyadic_share": share("family", "dyadic"),
        "q_share": {str(q): round(c / n, 4) for q, c in sorted(Counter(p.get("q") for p in props).items(), key=str)},
        "json_format_share": share("format", "json"),
        "invalid_share": round(sum(op.expect_error or "invalid" in op.props for op in ops) / n, 4),
        "known_defect_share": round(sum(op.defect is not None for op in ops) / n, 4),
        "at_budget_share": share("at_budget", True),
        "depth": spread("depth"),
        "rank": spread("rank"),
        "size": spread("size"),
        "flip_systems": len(per_system),
        "ops_per_flip_system": {"min": per_system[0], "median": per_system[len(per_system) // 2],
                                "max": per_system[-1]} if per_system else None,
    }


def measure(workload: str, seed: int, ops: list, seconds: float, trace: bool, ready: float) -> dict:
    import spans
    from probdigits import ProbDigitsError
    from workloads import hash_lines

    tracer = spans.Tracer() if trace else None
    counters = spans.Counters() if trace else None
    first: list = [None] * len(ops)
    walls: dict[bool, list] = {False: [], True: []}
    lat, raw_lat = array("d"), array("d")  # compact, so peak RSS hardly depends on the pass count
    raw_walls, refs, digest_lines, unexpected = [], [], [], []
    attempted, failed, child_rss = 0, 0, 0
    cli_stats = {"stdout_bytes": 0, "graph_rss_kib": 0}
    defects: Counter = Counter()
    deadline = ready + seconds
    npass = 0
    while True:
        traced = trace and npass % 2 == 1
        clock = Calibrated()
        pass_start = perf_counter()
        for i, op in enumerate(ops):
            err = None
            t0 = perf_counter()
            try:
                res = tracer.run(i, op.kind, op.calls) if traced else [fn(*args) for _, fn, args in op.calls]
            except Exception as exc:  # an operation's failure is a result to judge, not a crash
                res, err = None, exc
            clock.add(perf_counter() - t0)
            ok, canon = judge(op, res, err, first[i], ProbDigitsError)
            if first[i] is None:
                first[i] = (ok, canon)
                if op.exact:
                    digest_lines.append(op.digest(res) if op.digest and err is None else canon)
            attempted += 1
            if not ok:
                failed += 1
                if op.defect:
                    defects[f"{op.kind}: {op.defect}"] += 1
                elif len(unexpected) < 10:
                    unexpected.append(f"op {i} {op.kind}: {canon[:200]}")
            if res is not None:
                if workload == "cli":
                    child_rss = max(child_rss, res[0].rss_kib)
                    if npass == 0:
                        cli_stats["stdout_bytes"] += len(res[0].out.encode())
                    if op.calls[0][0] == "cli.graph":
                        cli_stats["graph_rss_kib"] = max(cli_stats["graph_rss_kib"], res[0].rss_kib)
                if traced:
                    for (name, _, args), r in zip(op.calls, res):
                        counters.add(name, args, r)
        clock.flush()
        walls[traced].append(sum(clock.lat))
        if not traced:
            lat.extend(clock.lat)
            raw_lat.extend(clock.raw)
            raw_walls.append(sum(clock.raw))
            refs += clock.refs
        npass += 1
        # stop when another pass like this one would overrun the deadline
        if perf_counter() * 2 - pass_start > deadline and attempted >= MIN_OPS and (not trace or npass >= 2):
            break

    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "passes": npass,
        "walls": walls[False],
        "ops": len(lat),
        "p50_ms": statistics.median(lat) * 1e3,
        "p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "raw": {"wall_s": statistics.median(raw_walls), "op_p50_ms": statistics.median(raw_lat) * 1e3,
                "op_p90_ms": statistics.quantiles(raw_lat, n=10)[8] * 1e3,
                "calibrate_ms": statistics.median(refs) * 1e3},
        "rss_mb": (child_rss if workload == "cli" else own_rss) / 1024,
        "attempted": attempted,
        "failed": failed,
        "known_defects": dict(defects),
        "unexpected": unexpected,
        "output_digest": hash_lines(digest_lines),
        "shares": shares(ops),
    }
    if trace:
        out["layer"] = layer_run(workload, seed, ops, tracer, counters, walls, cli_stats)
    return out


def layer_run(workload, seed, ops, tracer, counters, walls, cli_stats) -> dict:
    """Per-layer metrics from the traced passes, plus the CLI probes."""
    import cliwork
    import spans

    layer = spans.layer_metrics(tracer, counters, len(walls[True]))
    layer.update({name: 0.0 for name in spans.CLI_METRICS})
    layer["cli.interp_ms"], layer["cli.import_ms"] = cliwork.interp_and_import_ms()
    if workload == "cli":
        for i, op in enumerate(ops):
            name, _, (argv,) = op.calls[0]
            if name != "cli.invalid":
                tracer.span(f"{name}.main", i, cliwork.in_process, argv)
        for cmd in spans.CLI_COMMANDS:
            layer[f"cli.{cmd}.p50_ms"] = spans.median_ms(tracer.durations(f"cli.{cmd}"))
            layer[f"cli.{cmd}.main_ms"] = spans.median_ms(tracer.durations(f"cli.{cmd}.main"))
        layer["cli.graph.peak_rss_mb"] = cli_stats["graph_rss_kib"] / 1024
        layer["cli.stdout_bytes"] = cli_stats["stdout_bytes"]
    layer["trace.overhead_frac"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
    tracer.write(ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl")
    return layer


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("pointwise", "enumerate", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    ops = build(args.workload, args.seed)
    ready = perf_counter()
    ref = statistics.median(calibrate() for _ in range(5))
    if args.setup_only:
        print(json.dumps({"ready": ready, "ref": ref}))
        return 0
    result = measure(args.workload, args.seed, ops, args.seconds, bool(args.trace), perf_counter())
    print(json.dumps({"ready": ready, "ref": ref, **result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
