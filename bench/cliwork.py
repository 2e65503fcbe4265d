"""The cli workload: one `python -m probdigits` subprocess at a time.

Each invocation's stdout is parsed back and checked against oracle.py.
Child processes are reaped with os.wait4, which gives each one's own peak
RSS without sampling.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import re
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

import oracle as orc
from oracle import FlipSpec, Vec, q_str
from workloads import Op, gen_spec, gen_vec, hash_lines, rand_point

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
TIMEOUT_S = 120
DEFAULT_TOL = Fraction(1, 10**12)  # the CLI's --tol default
EXACT_CELL = re.compile(r"-?\d+(/\d+)?$")


@dataclass
class CliResult:
    code: int
    out: str
    err: str
    rss_kib: int


def run(argv: list[str]) -> CliResult:
    """Run one command to completion; read both pipes, then reap it with wait4."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV, cwd=ROOT)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map() and time.monotonic() < deadline:
            for key, _ in sel.select(deadline - time.monotonic()):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    if time.monotonic() >= deadline:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return CliResult(proc.returncode, b"".join(chunks[proc.stdout]).decode(),
                     b"".join(chunks[proc.stderr]).decode(), usage.ru_maxrss)


def probdigits(argv: list[str]) -> CliResult:
    return run([sys.executable, "-m", "probdigits", *argv])


def in_process(argv: list[str]) -> int:
    """cli.main on the same argv, output discarded; the exit code it would give."""
    from probdigits import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the known defects escape as bare exceptions; report them as exit 1
            return 1


def interp_and_import_ms(repeats: int = 5) -> tuple[float, float]:
    """Median wall time of a bare interpreter, and what importing probdigits.cli adds."""
    def median_ms(code):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            run([sys.executable, "-c", code])
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3
    bare = median_ms("pass")
    return bare, median_ms("import probdigits.cli") - bare


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------

def f_str(x) -> str:
    return str(float(x))


def flat(res: CliResult, fmt: str) -> dict[str, str]:
    """A JSON-shaped payload as {dotted.key: text}, whichever format was asked for."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(res.out)))
        if rows[0] != ["key", "value"]:
            raise ValueError(f"unexpected CSV header {rows[0]}")
        return dict(rows[1:])
    out = {}

    def walk(prefix, node):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(f"{prefix}.{k}" if prefix else k, v)
        else:
            out[prefix] = json.dumps(node) if isinstance(node, list) else str(node)
    walk("", json.loads(res.out))
    return out


def table(res: CliResult, fmt: str, header: list[str]) -> list[list[str]]:
    """A CSV-shaped payload as rows of text, whichever format was asked for."""
    if fmt == "json":
        return [[str(rec[h]) for h in header] for rec in json.loads(res.out)]
    rows = list(csv.reader(io.StringIO(res.out)))
    if rows[0] != header:
        raise ValueError(f"unexpected CSV header {rows[0]}")
    return rows[1:]


def exact_cells(res: CliResult) -> list[str]:
    """The exact values of an output (integers and num/den), in order; floats dropped."""
    cells = re.split(r'[\s,:\[\]{}"]+', res.out)
    return [c for c in cells if EXACT_CELL.match(c)]


# ---------------------------------------------------------------------------
# Checks, one per subcommand
# ---------------------------------------------------------------------------

def check_convert(vec: Vec, x: Fraction, depth: int, fmt: str):
    def check(res):
        d = flat(res, fmt)
        digits = json.loads(d["digits"])
        lo, hi = orc.cylinder(vec, digits)
        tail = (vec.q - 1,) if x == 1 else (0,)
        return (res.code == 0 and d["x"] == q_str(x) and d["q"] == str(vec.q)
                and digits == orc.encode_ref(vec, x, depth) and orc.encode_ok(vec, x, depth, digits, tail)
                and d["tail"] == ("max" if x == 1 else "zero")
                and d["exact"] == str(orc.stream_value(vec, digits, tail) == x)
                and d["classification"] == orc.classify_ref(vec, x, depth)[0]
                and (d["cylinder.lo"], d["cylinder.hi"], d["cylinder.width"]) == (q_str(lo), q_str(hi), q_str(hi - lo))
                and (d["cylinder.lo_float"], d["cylinder.hi_float"]) == (f_str(lo), f_str(hi)))
    return check


def check_eval(vec: Vec, spec: FlipSpec, x: Fraction, depth: int, fmt: str):
    def check(res):
        d = flat(res, fmt)
        digits = orc.encode_ref(vec, x, depth)
        tail = (vec.q - 1,) if x == 1 else (0,)
        exact = orc.stream_value(vec, digits, tail) == x
        if exact:
            lo = hi = orc.flip_value(vec, digits, tail, spec)
        else:
            lo, hi = orc.flip_cylinder(vec, digits, spec)
        return (res.code == 0 and d["x"] == q_str(x) and d["flips"] == spec.text() and d["exact"] == str(exact)
                and (d["lo"], d["hi"], d["lo_float"], d["hi_float"]) == (q_str(lo), q_str(hi), f_str(lo), f_str(hi)))
    return check


def check_integral(vec: Vec, spec: FlipSpec, rank: int, fmt: str):
    def check(res):
        d = flat(res, fmt)
        exact = orc.integral_exact(vec, spec)
        s_lo, s_hi = Fraction(d["series.lo"]), Fraction(d["series.hi"])
        r_lo, r_hi = orc.riemann_ref(vec, spec, rank)
        closed = d.get("closed_form")
        return (res.code == 0 and s_lo <= exact <= s_hi and s_hi - s_lo <= DEFAULT_TOL
                and (d["riemann.lo"], d["riemann.hi"], d["riemann.rank"]) == (q_str(r_lo), q_str(r_hi), str(rank))
                and (closed == q_str(exact) if not spec.positional else closed is None))
    return check


def check_jumps(vec: Vec, spec: FlipSpec, count: int, fmt: str):
    header = ["point", "left_limit", "right_limit", "jump", "point_float", "jump_float"]

    def check(res):
        want = []
        for word in orc.p_rational_words(vec.q, count):
            x0 = orc.stream_value(vec, word, (0,))
            left, right = orc.jump_ref(vec, word, spec)
            want.append([q_str(x0), q_str(left), q_str(right), q_str(right - left), f_str(x0), f_str(right - left)])
        return res.code == 0 and table(res, fmt, header) == want
    return check


def check_graph(vec: Vec, spec: FlipSpec, depth: int, exact: bool, fmt: str):
    def check(res):
        rows = table(res, fmt, ["x", "y"])
        if res.code != 0 or len(rows) != vec.q ** depth:
            return False
        show = q_str if exact else f_str
        for word, row in zip(product(range(vec.q), repeat=depth), rows):
            x = orc.stream_value(vec, word, (0,))
            y = orc.flip_value(vec, word, (0,), spec)
            if row != [show(x), show(y)]:
                return False
        return True
    return check


def check_dimension(vec: Vec, spec: FlipSpec, rank: int, u, fmt: str):
    def check(res):
        d = flat(res, fmt)
        ranks = list(range(2, rank + 1, 2)) or [rank]
        keys = [k for k in d if k.startswith("entropy_estimates.")]
        if res.code != 0 or keys != [f"entropy_estimates.{r}" for r in ranks]:
            return False
        ok = all(orc.crossing_ok(orc.entropy_ref(vec, spec, r), float(d[f"entropy_estimates.{r}"]),
                                 math.sqrt(2.0), 1e-9) for r in ranks)
        if u is not None:
            alpha = float(d["moran_alpha"])
            residual = math.fsum(w ** alpha for w in orc.moran_weights(vec, u)) - 1.0
            ok = ok and abs(residual) <= 1e-9 and abs(float(d["moran_residual"]) - residual) <= 1e-9
        return ok
    return check


def check_scan(vec: Vec, spec: FlipSpec, points: int, rank: int, fmt: str):
    """Every step multiplies by a factor weight(t, c)/p_c of some digit c.

    The sampled digits are not pinned: they follow the seeded sampler, which
    is expected to change when sampling becomes exact."""
    factors = [orc.ratio_factors(vec, spec, t) for t in range(1, rank + 1)]

    def check(res):
        rows = table(res, fmt, ["sample", "m", "ratio", "ratio_float"])
        if res.code != 0 or len(rows) != points * rank:
            return False
        prev = Fraction(1)
        for i, (sample, m, ratio, ratio_float) in enumerate(rows):
            r = Fraction(ratio)
            t = i % rank + 1
            if t == 1:
                prev = Fraction(1)
            if (sample, m, ratio_float) != (str(i // rank), str(t), f_str(r)) or r / prev not in factors[t - 1]:
                return False
            prev = r
        return True
    return check


def check_refused(res: CliResult) -> bool:
    """Exit 2, nothing on stdout, and exactly one error line without a traceback."""
    lines = res.err.strip().splitlines()
    return (res.code == 2 and not res.out and "Traceback" not in res.err
            and sum("error:" in line for line in lines) == 1)


# ---------------------------------------------------------------------------
# The invocation list
# ---------------------------------------------------------------------------

CLI_ROUNDS = 4
#: Invalid invocations; the second field names a defect the CLI is known to
#: mishandle (ROADMAP item 4): each should exit 2 with a one-line message.
CLI_INVALID = (
    ("integral-rank-0", "exits 1 with a traceback"),
    ("convert-x-above-one", None),
    ("graph-negative-depth", "exits 1 with a traceback"),
    ("eval-bad-flip-spec", None),
    ("dimension-rank-0", "exits 0 with an estimate"),
    ("dimension-positional", None),
    ("convert-negative-depth", "exits 0 with an empty expansion"),
    ("integral-weights-not-one", None),
)


def _op(cmd: str, argv: list[str], check, props: dict, defect=None, invalid=False) -> Op:
    exact = not invalid and cmd != "scan-derivative"  # seeded sampling is not part of the exact contract
    name = "cli.invalid" if invalid else f"cli.{cmd}"
    return Op(cmd, [(name, probdigits, (argv,))], lambda r: check(r[0]),
              lambda r: hash_lines([str(r[0].code), r[0].out, r[0].err]),
              {"cmd": cmd, **props}, defect=defect, exact=exact,
              digest=lambda r: hash_lines(exact_cells(r[0])))


def _valid(cmd: str, j: int, rng: random.Random, pair_vec: Vec) -> Op:
    """Round j's invocation of cmd.  Sizes (depth, rank, counts) are fixed per
    round, so the seed moves only values, not the cost of a pass."""
    fmt = ("json", "csv")[j % 2]
    family = ("dyadic", "coprime")[(j // 2) % 2]
    q = (2, 3, 3, 5)[j] if cmd in ("convert", "eval", "dimension") else (2, 3)[j % 2]
    vec = gen_vec(rng, q, family)
    base = ["--p", vec.text()]
    props = {"q": q, "family": family, "format": fmt}
    if cmd == "convert":
        x = rand_point(rng, vec)
        depth = (8, 16, 32, 32)[j]
        argv = ["convert", *base, "--x", q_str(x), "--depth", str(depth), "--format", fmt]
        return _op(cmd, argv, check_convert(vec, x, depth, fmt), {**props, "depth": depth})
    if cmd == "eval":
        spec = gen_spec(rng, ("finite", "mask", "all", "finite")[j])
        x = rand_point(rng, vec)
        argv = ["eval", *base, "--flips", spec.text(), "--x", q_str(x), "--format", fmt]
        return _op(cmd, argv, check_eval(vec, spec, x, 32, fmt), {**props, "positional": spec.positional, "depth": 32})
    if cmd == "integral":
        spec = gen_spec(rng, ("all", "mask", "finite", "none")[j])
        rank = 10 if q == 2 else 6
        argv = ["integral", *base, "--flips", spec.text(), "--rank", str(rank), "--format", fmt]
        return _op(cmd, argv, check_integral(vec, spec, rank, fmt), {**props, "positional": spec.positional, "rank": rank})
    if cmd == "jumps":
        spec = gen_spec(rng, ("finite", "mask")[j // 2])
        count = 16
        argv = ["jumps", *base, "--flips", spec.text(), "--count", str(count), "--format", fmt]
        return _op(cmd, argv, check_jumps(vec, spec, count, fmt), {**props, "positional": True})
    if cmd == "graph":
        if j < 2:
            # one vector's graph through the positional branch and through the affine system
            vec = pair_vec
            spec = orc.EVEN if j == 0 else FlipSpec("all")
            depth, exact, fmt = 12, False, "csv"
        else:
            spec = gen_spec(rng, ("none", "finite")[j - 2])
            depth, exact = 5, True
        argv = ["graph", "--p", vec.text(), "--flips", spec.text(), "--depth", str(depth), "--format", fmt]
        argv += ["--exact"] if exact else []
        return _op(cmd, argv, check_graph(vec, spec, depth, exact, fmt),
                   {"q": vec.q, "family": "dyadic" if j < 2 else family, "format": fmt,
                    "positional": spec.positional, "depth": depth})
    if cmd == "dimension":
        spec = FlipSpec(("all", "all", "none", "all")[j])
        rank = {2: 10, 3: 6, 5: 4}[q]
        u = rng.choice([u for u in range(q) if len(orc.moran_alphabet(q, u)) >= 2]) if q > 2 else None
        argv = ["dimension", *base, "--flips", spec.text(), "--rank", str(rank), "--format", fmt]
        argv += ["--u", str(u)] if u is not None else []
        return _op(cmd, argv, check_dimension(vec, spec, rank, u, fmt), {**props, "positional": False, "rank": rank})
    if cmd == "scan-derivative":
        spec = gen_spec(rng, ("all", "mask", "finite", "none")[j])
        points, rank = 16, 24
        argv = ["scan-derivative", *base, "--flips", spec.text(), "--points", str(points), "--rank", str(rank),
                "--seed", str(rng.randrange(1 << 16)), "--format", fmt]
        return _op(cmd, argv, check_scan(vec, spec, points, rank, fmt), {**props, "positional": spec.positional})
    raise ValueError(cmd)


def _invalid(name: str, defect, rng: random.Random) -> Op:
    vec = gen_vec(rng, 2, "dyadic")
    p = ["--p", vec.text()]
    argv = {
        "integral-rank-0": ["integral", *p, "--rank", "0"],
        "convert-x-above-one": ["convert", *p, "--x", "3/2"],
        "graph-negative-depth": ["graph", *p, "--flips", "all", "--depth", "-1"],
        "eval-bad-flip-spec": ["eval", *p, "--flips", "mask:;2", "--x", "1/3"],
        "dimension-rank-0": ["dimension", *p, "--flips", "all", "--rank", "0"],
        "dimension-positional": ["dimension", *p, "--flips", "finite:2"],
        "convert-negative-depth": ["convert", *p, "--x", "1/3", "--depth", "-5"],
        "integral-weights-not-one": ["integral", "--p", "1/2,1/3"],
    }[name]
    return _op(argv[0], argv, check_refused, {"q": 2, "family": "dyadic", "invalid": True}, defect, invalid=True)


def cli_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    pair_vec = gen_vec(rng, 2, "dyadic")
    ops = []
    for j in range(CLI_ROUNDS):
        for cmd in ("convert", "eval", "integral", "jumps", "graph", "dimension", "scan-derivative"):
            ops.append(_valid(cmd, j, rng, pair_vec))
        for name, defect in CLI_INVALID[2 * j: 2 * j + 2]:
            ops.append(_invalid(name, defect, rng))
    return ops
