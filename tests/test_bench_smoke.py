"""Smoke test of the benchmark harness: one traced pass of each in-process
workload must run, every result must match the integer oracles in
bench/oracle.py, and the exact outputs must hash to the pinned digest.  The
cli workload is left out; one pass of it starts 36 interpreters."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


#: output_digest of one pass at seed 2: a SHA-256 over every exact result.
#: These change only with a deliberate change of output or of the workload,
#: and CHANGES.md must then name the change and the new digests.
SEED2_DIGESTS = {
    "pointwise": "d9f48152c00ac86bf211a00e5628b61eb55c9e285031272559b33f7a16ef5c70",
    "enumerate": "1641427cf6b71234dcaa5c2345652f8ca510469531ecf22d205b77feb9e22e90",
}


@pytest.mark.parametrize("workload", ["pointwise", "enumerate"])
def test_bench_single_traced_pass(workload):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", "2", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[len("meta "):])
    assert meta["output_digest"] == SEED2_DIGESTS[workload]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
