"""Command-line front door: every operation, with machine-readable output.

Rationals cross this boundary as "num/den" strings so scripts can keep the
exact values; *_float fields are presentation only.  JSON goes to stdout
with stable keys; CSV columns are fixed per subcommand (see README).

Argparse checks only syntax: the library parses the option values (PARSERS)
inside _run's one handler, so every refusal and every failed write of the
output is exit 2 and one line `error: <Class>: <message>`.

One process answers one command, so start-up is part of every answer: the
parser needs only core, and each command body imports the rest of what it
calls (flips, analysis, fractal, the output encoders) when it runs.

SUBCOMMANDS is the one table of the interface: each subcommand's body, its
help, and exactly the options that body reads, with this command's defaults.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .core import DEFAULT_BUDGET, _lowest_terms_over, as_fraction, make_prob_vector
from .errors import ProbDigitsError


def q_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


# ---------------------------------------------------------------------------
# Command bodies: each returns ("json", dict) or ("csv", (header, rows))
# ---------------------------------------------------------------------------

def _system(args):
    from .flips import FlipSystem

    return FlipSystem(args.p, args.flips)


def _enclosure_json(enc) -> dict:
    return {
        "lo": q_str(enc.lo),
        "hi": q_str(enc.hi),
        "lo_float": float(enc.lo),
        "hi_float": float(enc.hi),
    }


def cmd_convert(args):
    from .core import PointKind, classify, cylinder_bounds, encode

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
        # with max_depth = depth, P_RATIONAL is x = 1 or an orbit that reaches 0
        # within the depth: exactly when encode's digits spell x
        "exact": pc.kind is PointKind.P_RATIONAL,
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
    from .core import encode, eval_digits
    from .flips import eval_flip, flip_image

    pv = args.p
    system = _system(args)
    seq = encode(args.x, pv, args.depth)
    if eval_digits(seq, pv) == args.x:
        enc = eval_flip(seq, system)
    else:
        enc = flip_image(seq.digits, system)  # hull over the depth-rank cylinder
    payload = {"x": q_str(args.x), "flips": str(args.flips), "exact": enc.is_exact}
    payload.update(_enclosure_json(enc))
    return "json", payload


def cmd_integral(args):
    from .analysis import integral_closed_form, integral_riemann, integral_series

    system = _system(args)
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
    from .analysis import jump_at, p_rationals

    system = _system(args)
    header = ["point", "left_limit", "right_limit", "jump", "point_float", "jump_float"]
    rows = []
    for x0 in p_rationals(args.p, args.count):
        rep = jump_at(x0, system, max_depth=args.depth)
        rows.append([
            q_str(rep.point), q_str(rep.left_limit), q_str(rep.right_limit),
            q_str(rep.jump), float(rep.point), float(rep.jump),
        ])
    return "csv", (header, rows)


def _exact_cells(nums, scale):
    return list(map(q_str, _lowest_terms_over(nums, scale)))


def cmd_graph(args):
    from .fractal import _divided, _graph_points

    coords = _exact_cells if args.exact else _divided
    return "csv", (["x", "y"], _graph_points(_system(args), args.depth, DEFAULT_BUDGET, coords))


def cmd_dimension(args):
    from math import fsum

    from .fractal import MoranSpec, graph_dimension_estimate, moran_dimension

    system = _system(args)
    # a range, not a list: graph_dimension_estimate reads no more ranks than its budget allows
    ranks = range(2, args.rank + 1, 2) or [args.rank]
    estimates = graph_dimension_estimate(system, ranks)
    payload = {"entropy_estimates": {str(r): a for r, a in estimates.items()}}
    if args.u is not None:
        spec = MoranSpec(args.p, args.u)
        # the exact tol: moran_dimension compares it with the float residual exactly
        alpha = moran_dimension(spec, args.tol)
        payload["moran_alpha"] = alpha
        # the residual moran_dimension stopped on, summed as it sums it
        payload["moran_residual"] = fsum(float(w) ** alpha for w in spec.block_weights().values()) - 1.0
    return "json", payload


def cmd_scan_derivative(args):
    import random

    from .analysis import derivative_estimate
    from .core import _as_int, sample_digits

    _as_int(args.points, "--points", 0)
    system = _system(args)
    rng = random.Random(args.seed)
    header = ["sample", "m", "ratio", "ratio_float"]
    rows = []
    for i in range(args.points):
        prefix = sample_digits(args.p, args.rank, rng)
        trace = derivative_estimate(prefix, system, args.rank)
        for m, ratio in enumerate(trace.ratios, start=1):
            rows.append([i, m, q_str(ratio), float(ratio)])
    return "csv", (header, rows)


def _parse_flips(text: str):
    from .flips import FlipSet

    return FlipSet.parse(text)


#: The options argparse keeps as text, by dest, each with the library call
#: that parses it in _run; flips loads only for a command that reads --flips.
PARSERS = {
    "p": lambda text: make_prob_vector(text.split(",")),
    "x": as_fraction,
    "tol": as_fraction,
    "flips": _parse_flips,
}

#: Options several subcommands read, each declared once; a subcommand lists
#: the flag with its own default.  --flips defaults to the spec text "none".
SHARED = {
    "--flips": dict(metavar="SPEC", help="none | all | finite:2,5 | mask:PRE;PERIOD (default %(default)s)"),
    "--depth": dict(type=int),
    "--rank": dict(type=int),
    "--tol": dict(),
    "--seed": dict(type=int),
}

#: Each subcommand: its body, its help, and the options the body reads.  A
#: SHARED flag maps to its default here, any other flag to its argparse spec.
SUBCOMMANDS = {
    "convert": (cmd_convert, "digit expansion, classification and cylinder of x",
                {"--x": dict(required=True), "--depth": 32}),
    "eval": (cmd_eval, "certified value of the flip map at x",
             {"--x": dict(required=True), "--flips": "none", "--depth": 32}),
    "integral": (cmd_integral, "the Lebesgue integral three ways",
                 {"--flips": "none", "--rank": 10, "--tol": Fraction(1, 10**12)}),
    "jumps": (cmd_jumps, "jump reports at the first COUNT two-expansion points",
              {"--flips": "none", "--depth": 64, "--count": dict(type=int, default=10)}),
    "graph": (cmd_graph, "exact points on the graph of the flip map",
              {"--flips": "none", "--depth": 6,
               "--exact": dict(action="store_true", help="emit exact rationals instead of floats")}),
    "dimension": (cmd_dimension, "entropy-sum dimension estimates (and Moran root with --u)",
                  {"--flips": "none", "--rank": 10, "--tol": Fraction(1, 10**12),
                   "--u": dict(type=int, default=None, help="marker digit for the block-set Moran equation")}),
    "scan-derivative": (cmd_scan_derivative, "derivative-ratio traces at seeded random prefixes",
                        {"--flips": "none", "--rank": 16, "--seed": 0, "--points": dict(type=int, default=10)}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with `command` of that one only:
    a process runs one command, and building all seven costs milliseconds."""
    parser = argparse.ArgumentParser(
        prog="probdigits",
        description="Exact arithmetic for probability-weighted digit expansions and digit-flip maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in SUBCOMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--p", required=True, metavar="P",
                       help="comma-separated digit weights, e.g. 1/5,3/10,1/2")
        for flag, spec in options.items():
            if flag in SHARED:
                spec = {"help": "(default %(default)s)", **SHARED[flag], "default": spec}
            p.add_argument(flag, **spec)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=None)
    return parser


def _render(shape, payload, fmt: str | None) -> str:
    if shape == "json":
        import json

        if fmt != "csv":
            return json.dumps(payload, indent=2) + "\n"
        # one key,value row per leaf, keys dotted; a list stays one JSON cell
        header, rows = ["key", "value"], []

        def walk(prefix, node):
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(f"{prefix}.{k}" if prefix else k, v)
            elif isinstance(node, list):
                rows.append([prefix, json.dumps(node)])
            else:
                rows.append([prefix, node])

        walk("", payload)
    else:
        header, rows = payload
        if fmt == "json":
            import json

            return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def main(argv=None) -> int:
    # exact output is the contract, so the interpreter's limit on int <-> str
    # digits is lifted while main runs and restored for in-process callers
    if not hasattr(sys, "get_int_max_str_digits"):  # before 3.10.7 there is no limit
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
    args = parser.parse_args(argv)
    try:
        for dest, parse in PARSERS.items():
            if dest in vars(args):
                setattr(args, dest, parse(getattr(args, dest)))
        shape, payload = SUBCOMMANDS[args.command][0](args)
        text = _render(shape, payload, args.format)
        if args.out:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ProbDigitsError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
