"""probdigits benchmark driver.

    python3 bench/run.py --workload {pointwise,enumerate,cli,all} --seed N --seconds S --trace {0,1}

Runs the workload in a child process (bench/child.py) that imports the
package from this checkout's src/, so two commits are measured by the same
benchmark code.  With --trace 0 it reports the end-to-end metrics, and
set-up time is the median over several children.  With --trace 1 it reports
the per-layer metrics of a traced run.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from child import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pointwise", "enumerate", "cli")
SETUP_CHILDREN = 9  # set-up time is the median over this many children (the measuring one included)
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def child(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> tuple[float, dict]:
    """Run bench/child.py; returns (wall seconds from spawn to the end of set-up, its JSON)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} child timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["ready"] - start, out


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (the checkout may have none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        _, res = child(workload, seed, seconds, 1, False)
        metrics = res["layer"]
        setups = []
    else:
        child(workload, seed, seconds, 0, True)  # warm-up: byte-compiles the package once
        runs = [child(workload, seed, seconds, 0, True) for _ in range(SETUP_CHILDREN - 1)]
        runs.append(child(workload, seed, seconds, 0, False))
        res = runs[-1][1]
        setups = [setup for setup, _ in runs]
        # calibrated like every latency: scaled by REF_S over that child's own calibration
        metrics = {
            "setup_s": statistics.median(setup * REF_S / out["ref"] for setup, out in runs),
            "wall_s": statistics.median(res["walls"]),
            "op_p50_ms": res["p50_ms"],
            "op_p90_ms": res["p90_ms"],
            "peak_rss_mb": res["rss_mb"],
        }
    return {
        "metrics": metrics,
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "meta": {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "git_sha": git_sha(), "nproc": os.cpu_count(),
            "passes": res["passes"], "ops": res["ops"], "raw_setup_samples_s": setups,
            "raw": res["raw"] if not trace else None,
            "fail_frac": res["failed"] / res["attempted"],
            "known_defect_failures": res["known_defects"], "unexpected_failures": res["unexpected"],
            "output_digest": res["output_digest"], "shares": res["shares"],
        },
    }


def print_report(r: dict, units: dict) -> None:
    m = r["meta"]
    print(f"== {m['workload']}  seed {m['seed']}  {'traced' if m['trace'] else 'untraced'}  "
          f"passes {m['passes']}  ops {m['ops']}  digest {m['output_digest'][:16]}")
    for name, value in r["metrics"].items():
        ops = f"  (ops {m['ops']})" if name == "op_p90_ms" else ""
        print(f"  {name:<40} {value:>14.6g} {units[name]}{ops}")
    print(f"  {'fail_frac':<40} {m['fail_frac']:>14.6g} ratio  ({r['failed']}/{r['attempted']})")
    for what, n in m["known_defect_failures"].items():
        print(f"    known defect x{n}: {what}")
    for what in m["unexpected_failures"]:
        print(f"    UNEXPECTED: {what}")
    print("meta " + json.dumps(m))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "probdigits" / "__init__.py").is_file():
        print(f"error: no probdigits package under {ROOT / 'src'}; run from a probdigits checkout",
              file=sys.stderr)
        return 2
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in results:
        print_report(r, units)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['meta']['workload']}.{k}" if prefix else k): {"value": v, "unit": units[k]}
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
