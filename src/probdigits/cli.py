"""Command-line front door: every operation, with machine-readable output.

Rationals cross this boundary as "num/den" strings so scripts can keep the
exact values; *_float fields are presentation only.  JSON goes to stdout
with stable keys; CSV columns are fixed per subcommand (see README).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction

from .analysis import (
    derivative_estimate,
    integral_closed_form,
    integral_riemann,
    integral_series,
    jump_at,
    p_rationals,
)
from .core import (
    classify,
    cylinder_bounds,
    encode,
    eval_digits,
    make_prob_vector,
    sample_digits,
)
from .errors import ProbDigitsError
from .flips import FlipSet, FlipSystem, eval_flip, flip_image
from .fractal import MoranSpec, graph_dimension_estimate, ifs_graph_points, moran_dimension


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}") from None


def _flipset(text: str) -> FlipSet:
    try:
        return FlipSet.parse(text)
    except ProbDigitsError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _prob_vector(text: str):
    try:
        return make_prob_vector([_rational(tok) for tok in text.split(",")])
    except ProbDigitsError as exc:
        raise argparse.ArgumentTypeError(f"bad weight vector {text!r}: {exc}") from None


def q_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probdigits",
        description="Exact arithmetic for probability-weighted digit expansions and digit-flip maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, **extra_defaults):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--p", type=_prob_vector, required=True, metavar="P",
                       help="comma-separated digit weights, e.g. 1/5,3/10,1/2")
        p.add_argument("--flips", type=_flipset, default=FlipSet.none(), metavar="SPEC",
                       help="none | all | finite:2,5 | mask:PRE;PERIOD (default none)")
        p.add_argument("--depth", type=int, default=32)
        p.add_argument("--rank", type=int, default=10)
        p.add_argument("--tol", type=_rational, default=Fraction(1, 10**12))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.set_defaults(**extra_defaults)
        return p

    p = add("convert", "digit expansion, classification and cylinder of x")
    p.add_argument("--x", type=_rational, required=True)

    p = add("eval", "certified value of the flip map at x")
    p.add_argument("--x", type=_rational, required=True)

    add("integral", "the Lebesgue integral three ways")

    p = add("jumps", "jump reports at the first COUNT two-expansion points")
    p.add_argument("--count", type=int, default=10)

    p = add("graph", "exact points on the graph of the flip map", depth=6)
    p.add_argument("--exact", action="store_true", help="emit exact rationals instead of floats")

    p = add("dimension", "entropy-sum dimension estimates (and Moran root with --u)")
    p.add_argument("--u", type=int, default=None, help="marker digit for the block-set Moran equation")

    p = add("scan-derivative", "derivative-ratio traces at seeded random prefixes", rank=16)
    p.add_argument("--points", type=int, default=10)

    return parser


# ---------------------------------------------------------------------------
# Command bodies: each returns ("json", dict) or ("csv", (header, rows))
# ---------------------------------------------------------------------------

def _enclosure_json(enc) -> dict:
    return {
        "lo": q_str(enc.lo),
        "hi": q_str(enc.hi),
        "lo_float": float(enc.lo),
        "hi_float": float(enc.hi),
    }


def cmd_convert(args):
    pv = args.p
    seq = encode(args.x, pv, args.depth)
    cyl = cylinder_bounds(seq.digits, pv)
    pc = classify(args.x, pv, args.depth)
    sep = "" if pv.q <= 10 else ","
    payload = {
        "x": q_str(args.x),
        "q": pv.q,
        "digits": list(seq.digits),
        "digit_string": sep.join(str(d) for d in seq.digits),
        "tail": seq.tail_kind,
        "exact": eval_digits(seq, pv) == args.x,
        "classification": pc.kind.value,
        "cylinder": {
            "lo": q_str(cyl.lo),
            "hi": q_str(cyl.hi),
            "width": q_str(cyl.width),
            "lo_float": float(cyl.lo),
            "hi_float": float(cyl.hi),
        },
    }
    return "json", payload


def cmd_eval(args):
    pv = args.p
    system = FlipSystem(pv, args.flips)
    seq = encode(args.x, pv, args.depth)
    if eval_digits(seq, pv) == args.x:
        enc = eval_flip(seq, system)
    else:
        enc = flip_image(seq.digits, system)  # hull over the depth-rank cylinder
    payload = {"x": q_str(args.x), "flips": str(args.flips), "exact": enc.is_exact}
    payload.update(_enclosure_json(enc))
    return "json", payload


def cmd_integral(args):
    system = FlipSystem(args.p, args.flips)
    series = integral_series(system, args.tol)
    riemann = integral_riemann(system, args.rank)
    payload = {
        "flips": str(args.flips),
        "series": _enclosure_json(series),
        "riemann": {**_enclosure_json(riemann), "rank": args.rank},
    }
    if system.shift_invariant:
        exact = integral_closed_form(system)
        payload["closed_form"] = q_str(exact)
        payload["closed_form_float"] = float(exact)
    return "json", payload


def cmd_jumps(args):
    system = FlipSystem(args.p, args.flips)
    header = ["point", "left_limit", "right_limit", "jump", "point_float", "jump_float"]
    rows = []
    for x0 in p_rationals(args.p, args.count):
        rep = jump_at(x0, system, max_depth=max(args.depth, 64))
        rows.append([
            q_str(rep.point), q_str(rep.left_limit), q_str(rep.right_limit),
            q_str(rep.jump), float(rep.point), float(rep.jump),
        ])
    return "csv", (header, rows)


def cmd_graph(args):
    points = ifs_graph_points(FlipSystem(args.p, args.flips), args.depth)
    header = ["x", "y"]
    if args.exact:
        rows = [[q_str(x), q_str(y)] for x, y in points]
    else:
        rows = [[float(x), float(y)] for x, y in points]
    return "csv", (header, rows)


def cmd_dimension(args):
    system = FlipSystem(args.p, args.flips)
    ranks = list(range(2, args.rank + 1, 2)) or [args.rank]
    estimates = graph_dimension_estimate(system, ranks)
    payload = {"entropy_estimates": {str(r): a for r, a in estimates.items()}}
    if args.u is not None:
        spec = MoranSpec(args.p, args.u)
        alpha = moran_dimension(spec, float(args.tol))
        weights = spec.block_weights().values()
        residual = sum(float(w) ** alpha for w in weights) - 1.0 if weights else 0.0
        payload["moran_alpha"] = alpha
        payload["moran_residual"] = residual
    return "json", payload


def cmd_scan_derivative(args):
    system = FlipSystem(args.p, args.flips)
    rng = random.Random(args.seed)
    header = ["sample", "m", "ratio", "ratio_float"]
    rows = []
    for i in range(args.points):
        prefix = sample_digits(args.p, args.rank, rng)
        trace = derivative_estimate(prefix, system, args.rank)
        for m, ratio in enumerate(trace.ratios, start=1):
            rows.append([i, m, q_str(ratio), float(ratio)])
    return "csv", (header, rows)


COMMANDS = {
    "convert": cmd_convert,
    "eval": cmd_eval,
    "integral": cmd_integral,
    "jumps": cmd_jumps,
    "graph": cmd_graph,
    "dimension": cmd_dimension,
    "scan-derivative": cmd_scan_derivative,
}


def _render(shape, payload, fmt: str | None) -> str:
    if shape == "json":
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["key", "value"])
            flat = json.loads(json.dumps(payload))  # normalize nested values

            def walk(prefix, node):
                if isinstance(node, dict):
                    for k, v in node.items():
                        walk(f"{prefix}.{k}" if prefix else k, v)
                elif isinstance(node, list):
                    writer.writerow([prefix, json.dumps(node)])
                else:
                    writer.writerow([prefix, node])

            walk("", flat)
            return buf.getvalue()
        return json.dumps(payload, indent=2) + "\n"
    header, rows = payload
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        shape, payload = COMMANDS[args.command](args)
        text = _render(shape, payload, args.format)
    except ProbDigitsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
