import argparse
import csv
import json
import io
import math
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from probdigits import (
    DigitSeq, FlipSet, FlipSystem, MoranSpec, eval_digits, ifs_graph_points, make_prob_vector, moran_dimension,
)
from probdigits.cli import build_parser, main, q_str

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def run_csv(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------

def test_convert_binary_third(capsys):
    payload = run_json(capsys, "convert", "--p", "1/2,1/2", "--x", "1/3", "--depth", "8")
    assert payload["digit_string"] == "01010101"
    assert payload["classification"] == "p-irrational"
    assert payload["exact"] is False
    assert Fraction(payload["cylinder"]["width"]) == Fraction(1, 256)


def test_convert_terminating(capsys):
    payload = run_json(capsys, "convert", "--p", "1/5,3/10,1/2", "--x", "7/20")
    assert payload["digits"] == [1, 2]
    assert payload["tail"] == "zero"
    assert payload["classification"] == "p-rational"
    assert payload["exact"] is True


@pytest.mark.parametrize("p, x, depth, exact", [
    ("1/5,3/10,1/2", "7/20", 2, True), ("1/5,3/10,1/2", "7/20", 1, False), ("1/5,3/10,1/2", "0", 0, True),
    ("1/5,3/10,1/2", "1", 0, True), ("1/5,3/10,1/2", "1/3", 40, False),
    (",".join(["1/17"] * 17), "1/3", 6, False), (",".join(["1/17"] * 17), "5/17", 1, True),
])
def test_convert_exact_iff_the_digits_spell_x(capsys, p, x, depth, exact):
    payload = run_json(capsys, "convert", "--p", p, "--x", x, "--depth", str(depth))
    pv = make_prob_vector(p.split(","))
    seq = DigitSeq(payload["digits"], pv.q, payload["tail"])
    assert payload["exact"] is exact
    assert exact is (eval_digits(seq, pv) == Fraction(x))


def test_convert_out_of_range_exits_nonzero(capsys):
    code, out, err = run_cli(capsys, "convert", "--p", "1/2,1/2", "--x", "3/2")
    assert code != 0
    assert "OutOfUnitInterval" in err
    assert out == ""


#: A bad value of each option the library parses, and the one stderr line it gives.
OPTION_VALUE_REFUSALS = [
    ("convert", "--x", "one-half", "InvalidArgument: not a rational number: 'one-half'"),
    ("convert", "--x", "1/0", "InvalidArgument: not a rational number: '1/0'"),
    ("integral", "--tol", "1/0", "InvalidArgument: not a rational number: '1/0'"),
    ("integral", "--p", "1/2,1/3", "SumNotOne: weights sum to 5/6, not 1"),
    ("convert", "--p", "1/2", "BaseTooSmall: need at least 2 weights, got 1"),
    ("convert", "--p", "1/2,-1/2,1", "NonPositiveWeight: weight -1/2 is not positive"),
    ("eval", "--flips", "mask:;2", "FlipSpecError: mask period column 0: '2' is not a bit"),
    # a finite flip set stores one bit per position up to its largest
    ("eval", "--flips", "finite:2000000", "BudgetExceeded: flip position 2000000 exceeds budget 1048576"),
]


@pytest.mark.parametrize("command, option, value, line", OPTION_VALUE_REFUSALS,
                         ids=[" ".join(case[:3]) for case in OPTION_VALUE_REFUSALS])
def test_option_value_refused_in_one_line(capsys, command, option, value, line):
    # the library parses each option value, so its refusal is one line naming its class
    options = {"--p": "1/2,1/2", **({} if command == "integral" else {"--x": "1/3"}), option: value}
    argv = [command, *(word for item in options.items() for word in item)]
    assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_identity(capsys):
    payload = run_json(capsys, "eval", "--p", "1/2,1/2", "--flips", "none", "--x", "5/8")
    assert payload["lo"] == payload["hi"] == "5/8"
    assert payload["exact"] is True


def test_eval_complement(capsys):
    payload = run_json(capsys, "eval", "--p", "1/2,1/2", "--flips", "all", "--x", "1/4")
    assert payload["lo"] == "3/4"
    assert payload["lo_float"] == 0.75


def test_eval_library_vector(capsys):
    payload = run_json(capsys, "eval", "--p", "1/5,3/10,1/2", "--flips", "finite:2", "--x", "7/20")
    assert payload["lo"] == payload["hi"] == "1/5"


def test_eval_inexact_address_gives_enclosure(capsys):
    payload = run_json(capsys, "eval", "--p", "1/2,1/2", "--flips", "all", "--x", "1/3", "--depth", "10")
    lo, hi = Fraction(payload["lo"]), Fraction(payload["hi"])
    assert payload["exact"] is False
    assert lo <= Fraction(2, 3) <= hi
    assert hi - lo == Fraction(1, 2**10)


# ---------------------------------------------------------------------------
# integral
# ---------------------------------------------------------------------------

def test_integral_closed_and_enclosures(capsys):
    payload = run_json(capsys, "integral", "--p", "1/4,3/4", "--flips", "all", "--rank", "10")
    assert payload["closed_form"] == "1/10"
    series = payload["series"]
    assert Fraction(series["lo"]) <= Fraction(1, 10) <= Fraction(series["hi"])
    riemann = payload["riemann"]
    assert Fraction(riemann["lo"]) <= Fraction(1, 10) <= Fraction(riemann["hi"])


def test_integral_omits_closed_form_for_positional_flips(capsys):
    payload = run_json(capsys, "integral", "--p", "1/2,1/2", "--flips", "finite:1", "--rank", "8")
    assert "closed_form" not in payload
    assert Fraction(payload["series"]["lo"]) <= Fraction(1, 2) <= Fraction(payload["series"]["hi"])


def test_integral_series_on_a_skewed_vector_with_flips_all(capsys):
    # every position flipped: the series weight is about 2e-6 per term, so it is not refused
    payload = run_json(capsys, "integral", "--p", "1/1000000,999999/1000000", "--flips", "all")
    series = payload["series"]
    assert Fraction(series["lo"]) <= Fraction(payload["closed_form"]) <= Fraction(series["hi"])


# ---------------------------------------------------------------------------
# jumps
# ---------------------------------------------------------------------------

def test_jumps_csv(capsys):
    header, rows = run_csv(capsys, "jumps", "--p", "1/2,1/2", "--flips", "finite:1", "--count", "3")
    assert header == ["point", "left_limit", "right_limit", "jump", "point_float", "jump_float"]
    assert rows[0][:4] == ["1/2", "1", "0", "-1"]
    assert [r[3] for r in rows[1:]] == ["0", "0"]


def test_jumps_zero_everywhere_for_all(capsys):
    _, rows = run_csv(capsys, "jumps", "--p", "1/2,1/2", "--flips", "all", "--count", "8")
    assert all(r[3] == "0" for r in rows)


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

def test_graph_exact_complement(capsys):
    header, rows = run_csv(capsys, "graph", "--p", "1/2,1/2", "--flips", "all", "--depth", "4", "--exact")
    assert header == ["x", "y"]
    assert len(rows) == 16
    for x_str, y_str in rows:
        assert Fraction(y_str) == 1 - Fraction(x_str)


def test_graph_positional_flips_float(capsys):
    header, rows = run_csv(capsys, "graph", "--p", "1/5,3/10,1/2", "--flips", "mask:;01", "--depth", "3")
    assert len(rows) == 27
    assert all(0.0 <= float(y) <= 1.0 for _, y in rows)


def test_graph_positional_flips_budget(capsys):
    code, out, err = run_cli(capsys, "graph", "--p", "1/2,1/2", "--flips", "mask:;01", "--depth", "21")
    assert code == 2 and out == ""
    assert err.startswith("error: BudgetExceeded: ")


@pytest.mark.parametrize("flips", ["none", "all", "mask:;01", "finite:2"])
def test_graph_float_rows_are_the_floats_of_the_exact_points(capsys, flips):
    # mask:;01 leaves a tail worth neither 0 nor 1 past depth 6; the others one worth 0 or 1
    for p in ("1/4,3/4", "2/7,3/11,34/77"):
        _, rows = run_csv(capsys, "graph", "--p", p, "--flips", flips, "--depth", "6")
        points = ifs_graph_points(FlipSystem(make_prob_vector(p.split(",")), FlipSet.parse(flips)), 6)
        assert [[float(x), float(y)] for x, y in rows] == [[float(x), float(y)] for x, y in points]


@pytest.mark.parametrize("p, flips, depth", [("1/4,3/4", "mask:;01", 3), ("1/4,3/4", "mask:;01", 4),
                                            ("1/5,3/10,1/2", "mask:;01", 3), ("1/5,3/10,1/2", "mask:;01", 4),
                                            ("1/5,3/10,1/2", "mask:1;011", 3)])
def test_graph_exact_rows_past_a_tail_worth_neither_0_nor_1(capsys, p, flips, depth):
    pv = make_prob_vector(p.split(","))
    points = ifs_graph_points(FlipSystem(pv, FlipSet.parse(flips)), depth)
    # some y is no cylinder end: its denominator does not divide D**depth
    assert any(pv.den ** depth % y.denominator for _, y in points)
    expected = [[q_str(x), q_str(y)] for x, y in points]
    argv = ["graph", "--p", p, "--flips", flips, "--depth", str(depth), "--exact"]
    header, rows = run_csv(capsys, *argv, "--format", "csv")
    assert header == ["x", "y"] and rows == expected
    assert run_json(capsys, *argv, "--format", "json") == [{"x": x, "y": y} for x, y in expected]


def test_graph_deterministic(capsys):
    _, rows1 = run_csv(capsys, "graph", "--p", "1/4,3/4", "--flips", "all", "--depth", "5")
    _, rows2 = run_csv(capsys, "graph", "--p", "1/4,3/4", "--flips", "all", "--depth", "5")
    assert rows1 == rows2


# ---------------------------------------------------------------------------
# dimension
# ---------------------------------------------------------------------------

def test_dimension_payload(capsys):
    payload = run_json(capsys, "dimension", "--p", "1/4,1/4,1/4,1/4", "--flips", "all",
                       "--rank", "8", "--u", "1")
    assert set(payload["entropy_estimates"]) == {"2", "4", "6", "8"}
    assert all(abs(v - 1.0) < 1e-6 for v in payload["entropy_estimates"].values())
    assert payload["moran_alpha"] == pytest.approx(0.2028, abs=5e-4)
    assert abs(payload["moran_residual"]) <= 1e-12


def test_dimension_prints_the_residual_moran_dimension_stopped_on(capsys):
    # summed with plain sum, this residual reads 7.44737604918555e-13
    payload = run_json(capsys, "dimension", "--p", ",".join(["1/6"] * 6), "--rank", "2", "--u", "5")
    spec = MoranSpec(make_prob_vector(["1/6"] * 6), 5)
    alpha = moran_dimension(spec, 1e-12)
    assert payload["moran_alpha"] == alpha
    assert payload["moran_residual"] == math.fsum(float(w) ** alpha for w in spec.block_weights().values()) - 1.0
    assert payload["moran_residual"] == 7.4495964952348e-13


@pytest.mark.parametrize("tol", ["1e400", "1e-400"])
def test_dimension_takes_a_tol_outside_the_float_range(capsys, tol):
    # float(tol) overflowed, or underflowed to 0.0 and was refused as not positive
    payload = run_json(capsys, "dimension", "--p", "1/4,1/4,1/4,1/4", "--rank", "2", "--u", "1", "--tol", tol)
    alpha = moran_dimension(MoranSpec(make_prob_vector(["1/4"] * 4), 1), Fraction(tol))
    assert payload["moran_alpha"] == alpha
    # any tol past the first residual stops at the first midpoint
    assert (alpha == 0.5) == (tol == "1e400")


def test_dimension_empty_moran_alphabet_exits_2(capsys):
    # q = 2 with marker 1 leaves no block digit, so there is no residual to print
    code, out, err = run_cli(capsys, "dimension", "--p", "1/2,1/2", "--u", "1")
    assert (code, out, err) == (2, "", "error: EmptyAlphabet: no admissible block digits for q=2, u=1\n")


def test_dimension_high_rank_groups_by_digit_counts(capsys):
    # 2**40 rectangles, but rank 40 builds only 41 digit-count groups
    payload = run_json(capsys, "dimension", "--p", "1/2,1/2", "--flips", "all", "--rank", "40")
    assert len(payload["entropy_estimates"]) == 20
    assert payload["entropy_estimates"]["40"] == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# scan-derivative
# ---------------------------------------------------------------------------

def test_scan_derivative_seeded(capsys):
    args = ("scan-derivative", "--p", "1/4,3/4", "--flips", "all",
            "--points", "3", "--rank", "5", "--seed", "11")
    header, rows1 = run_csv(capsys, *args)
    _, rows2 = run_csv(capsys, *args)
    assert header == ["sample", "m", "ratio", "ratio_float"]
    assert rows1 == rows2
    assert len(rows1) == 15
    _, rows3 = run_csv(capsys, *args[:-1], "12")
    assert rows3 != rows1


# ---------------------------------------------------------------------------
# argument domains
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["integral", "--p", "1/2,1/2", "--rank", "0"],
    ["integral", "--p", "1/2,1/2", "--tol", "0"],
    ["graph", "--p", "1/2,1/2", "--flips", "all", "--depth", "-1"],
    ["dimension", "--p", "1/2,1/2", "--flips", "all", "--rank", "0"],
    ["dimension", "--p", "1/4,1/4,1/4,1/4", "--rank", "2", "--u", "1", "--tol", "0"],
    ["convert", "--p", "1/2,1/2", "--x", "1/3", "--depth", "-5"],
    ["jumps", "--p", "1/2,1/2", "--flips", "finite:1", "--count", "-3"],
    ["scan-derivative", "--p", "1/4,3/4", "--flips", "all", "--points", "-2"],
    ["scan-derivative", "--p", "1/4,3/4", "--flips", "all", "--rank", "0"],
    # no row is written, but the rank is still out of its domain
    ["scan-derivative", "--p", "1/2,1/2", "--points", "0", "--rank", "-5"],
], ids=lambda argv: " ".join(argv))
def test_argument_out_of_domain_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: InvalidArgument: ")
    if argv[0] == "scan-derivative" and "--rank" in argv:
        # the option, not a library parameter, is named
        assert "--rank must be >= 1" in lines[0]


def test_dimension_refuses_the_groups_of_all_ranks_at_once(capsys):
    # ranks 2, 4, ..., 3000 build 1501 * 1500 + 1500 groups in all, each rank
    # under the budget alone
    code, out, err = run_cli(capsys, "dimension", "--p", "1/3,2/3", "--rank", "3000")
    assert (code, out) == (2, "")
    assert err == "error: BudgetExceeded: 2253000 rectangle groups over 1500 ranks exceed budget 1048576\n"


@pytest.mark.parametrize("argv, line", [
    (["integral", "--p", "1/2,1/2", "--rank", "1000000000000"],
     "BudgetExceeded: 1000000000000 series terms exceed budget 1048576"),
    (["graph", "--p", "1/2,1/2", "--depth", "1000000000000"],
     "BudgetExceeded: 2**1000000000000 points exceed budget 1048576"),
    (["dimension", "--p", "1/2,1/2", "--flips", "all", "--rank", "1000000000000"],
     "BudgetExceeded: more than 1048576 ranks, each with at least one rectangle group, exceed budget 1048576"),
], ids=["integral", "graph", "dimension"])
def test_a_huge_rank_or_depth_is_refused_by_its_budget(capsys, argv, line):
    # each budget is decided without building q**rank or listing the ranks
    start = time.perf_counter()
    assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")
    assert time.perf_counter() - start < 2.0


def test_jumps_refuses_a_huge_count_by_its_budget(capsys):
    # the count is refused before any point is built
    start = time.perf_counter()
    assert run_cli(capsys, "jumps", "--p", "1/2,1/2", "--count", "100000000") == (
        2, "", "error: BudgetExceeded: 100000000 points exceed budget 1048576\n")
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("points, rank", [("1000000000000", "16"), ("1", "1000000000000")])
def test_scan_derivative_refuses_its_rows_by_the_budget(capsys, points, rank):
    # one row per point and rank, refused before any point is sampled
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "scan-derivative", "--p", "1/2,1/2", "--points", points, "--rank", rank)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err == (f"error: BudgetExceeded: {points} points x rank {rank} = {int(points) * int(rank)} rows "
                   "exceed budget 1048576\n")


def test_a_refusal_quoting_a_huge_tol_is_one_short_line(capsys):
    # the CLI lifts the int to str digit limit, but the 400 001-digit
    # denominator of tol is quoted by its digit count, not printed
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "integral", "--p", "1/2,1/2", "--tol", "1e-400000")
    assert (code, out) == (2, "")
    assert err == ("error: BudgetExceeded: about 1328771 series terms to reach tol 1/<400001-digit integer> "
                   "exceed budget 1048576\n")
    assert time.perf_counter() - start < 1.0


def test_integral_budget_counts_terms_not_cylinders(capsys):
    # 2**40 cylinders, but 40 terms: the rank is under the budget
    payload = run_json(capsys, "integral", "--p", "1/2,1/2", "--flips", "all", "--rank", "40")
    riemann = payload["riemann"]
    assert Fraction(riemann["lo"]) <= Fraction(payload["closed_form"]) <= Fraction(riemann["hi"])
    assert Fraction(riemann["hi"]) - Fraction(riemann["lo"]) == Fraction(1, 2**40)


def test_dimension_refuses_a_rank_past_the_float_range(capsys):
    # C(1100, 550) is no float; the largest rank is checked before any is estimated
    code, out, err = run_cli(capsys, "dimension", "--p", "1/2,1/2", "--flips", "none", "--rank", "1100")
    assert (code, out) == (2, "")
    assert err == "error: RankTooLarge: rank 1100: a rectangle multiplicity exceeds the float range\n"


#: Options every subcommand took before each listed only what its body reads.
UNREAD_OPTIONS = [
    ("convert", "--flips", "all"), ("convert", "--rank", "12"), ("convert", "--tol", "1/1000"),
    ("convert", "--seed", "3"),
    ("eval", "--rank", "12"), ("eval", "--tol", "1/1000"), ("eval", "--seed", "3"),
    ("integral", "--depth", "8"), ("integral", "--seed", "3"),
    ("jumps", "--rank", "12"), ("jumps", "--tol", "1/1000"), ("jumps", "--seed", "3"), ("jumps", "--depth", "8"),
    ("graph", "--rank", "12"), ("graph", "--tol", "1/1000"), ("graph", "--seed", "3"),
    ("dimension", "--depth", "8"), ("dimension", "--seed", "3"),
    ("scan-derivative", "--depth", "8"), ("scan-derivative", "--tol", "1/1000"),
]


@pytest.mark.parametrize("command, flag, value", UNREAD_OPTIONS)
def test_option_a_command_does_not_read_is_refused(capsys, command, flag, value):
    x = ["--x", "1/3"] if command in ("convert", "eval") else []
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--p", "1/2,1/2", *x, flag, value])
    assert exc_info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def test_out_file(tmp_path, capsys):
    target = tmp_path / "points.csv"
    code, out, _ = run_cli(capsys, "graph", "--p", "1/2,1/2", "--flips", "none",
                           "--depth", "2", "--out", str(target))
    assert code == 0 and out == ""
    rows = list(csv.reader(target.open()))
    assert rows[0] == ["x", "y"]
    assert len(rows) == 5


@pytest.mark.parametrize("target, error", [
    ("missing/x.json", "FileNotFoundError"),
    (".", "IsADirectoryError"),
])
def test_out_unwritable_exits_2(tmp_path, capsys, target, error):
    code, out, err = run_cli(capsys, "convert", "--p", "1/2,1/2", "--x", "1/3",
                             "--out", str(tmp_path / target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1


class FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


def test_stdout_unwritable_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", FullStdout())
    code = main(["convert", "--p", "1/2,1/2", "--x", "1/3"])
    assert (code, capsys.readouterr().err) == (2, "error: OSError: [Errno 28] No space left on device\n")


def test_csv_command_as_json(capsys):
    code, out, err = run_cli(capsys, "jumps", "--p", "1/2,1/2", "--flips", "finite:1",
                             "--count", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["point"] == "1/2"


def dotted_rows(node, prefix=""):
    """A JSON payload as key,value rows: keys dotted, a list one JSON cell."""
    if isinstance(node, dict):
        return [row for k, v in node.items() for row in dotted_rows(v, f"{prefix}.{k}" if prefix else k)]
    return [[prefix, json.dumps(node) if isinstance(node, list) else str(node)]]


def test_json_command_as_csv(capsys):
    for argv in (
        ["convert", "--p", "1/2,1/2", "--x", "1/4"],
        ["convert", "--p", "1/5,3/10,1/2", "--x", "1/3", "--depth", "6"],
        ["integral", "--p", "1/4,3/4", "--flips", "all", "--rank", "6"],
        ["integral", "--p", "1/2,1/2", "--flips", "finite:1", "--rank", "4"],
        ["dimension", "--p", "1/4,1/4,1/4,1/4", "--flips", "all", "--rank", "4", "--u", "1"],
    ):
        payload = run_json(capsys, *argv)
        header, rows = run_csv(capsys, *argv, "--format", "csv")
        assert header == ["key", "value"]
        assert rows == dotted_rows(payload), argv
    rows = dict(run_csv(capsys, "convert", "--p", "1/2,1/2", "--x", "1/4", "--format", "csv")[1])
    assert rows["x"] == "1/4"
    assert rows["classification"] == "p-rational"


# ---------------------------------------------------------------------------
# large exact outputs
# ---------------------------------------------------------------------------

@pytest.fixture
def int_digit_limit():
    """The interpreter's int <-> str digit limit, restored after the test."""
    limit = sys.get_int_max_str_digits()
    yield limit
    sys.set_int_max_str_digits(limit)


def test_graph_large_exact_output(capsys, int_digit_limit):
    # the flipped zero tail from position 4 to 20000 gives y denominators of about 12000 digits
    header, rows = run_csv(capsys, "graph", "--p", "1/4,3/4", "--flips", "finite:20000",
                           "--depth", "3", "--exact")
    assert sys.get_int_max_str_digits() == int_digit_limit
    assert header == ["x", "y"] and len(rows) == 8
    assert max(len(y) for _, y in rows) > 4300
    sys.set_int_max_str_digits(0)  # parsing the cells back needs the limit lifted too
    system = FlipSystem(make_prob_vector(["1/4", "3/4"]), FlipSet.finite([20000]))
    assert [(Fraction(x), Fraction(y)) for x, y in rows] == ifs_graph_points(system, 3)


def test_integral_large_exact_output(capsys, int_digit_limit):
    code, out, err = run_cli(capsys, "integral", "--p", "1/1001,1000/1001", "--rank", "10")
    assert code == 0, err
    assert sys.get_int_max_str_digits() == int_digit_limit
    payload = json.loads(out)
    assert len(payload["series"]["lo"]) > 4300
    sys.set_int_max_str_digits(0)
    series, riemann = payload["series"], payload["riemann"]
    assert Fraction(series["lo"]) <= Fraction(series["hi"])
    assert Fraction(riemann["lo"]) <= Fraction(series["hi"]) and Fraction(series["lo"]) <= Fraction(riemann["hi"])


def test_main_restores_int_digit_limit(capsys, int_digit_limit):
    sys.set_int_max_str_digits(5000)
    assert run_cli(capsys, "convert", "--p", "1/2,1/2", "--x", "1/3")[0] == 0
    assert run_cli(capsys, "convert", "--p", "1/2,1/2", "--x", "3/2")[0] == 2
    assert run_cli(capsys, "convert", "--p", "1/2,1/2", "--x", "one-half")[0] == 2
    assert sys.get_int_max_str_digits() == 5000


# ---------------------------------------------------------------------------
# README examples and start-up cost
# ---------------------------------------------------------------------------

def readme_commands() -> list[list[str]]:
    """The argv of every command line in the README's "Command line" code block."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("probdigits ")]


def readme_option_table() -> dict[str, list[tuple[str, str]]]:
    """Each command's (option, default) pairs from the README's "Command line" table."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 2:
            table[cells[0].strip("`")] = re.findall(r"`(--[\w-]+)` \(([^)]*)\)", cells[1])
    return table


def parser_options() -> dict[str, list[tuple[str, str]]]:
    """Each subcommand's (option, default) pairs besides --p, --out and --format, as declared."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def shown(action):
        if action.required:
            return "required"
        if action.default is None:
            return "unset"
        return "off" if action.default is False else str(action.default)
    return {
        name: [(a.option_strings[0], shown(a)) for a in p._actions
               if a.option_strings[0] not in ("-h", "--p", "--out", "--format")]
        for name, p in sub.choices.items()
    }


def test_readme_option_table_matches_parser():
    assert readme_option_table() == parser_options()
    assert sum(len(opts) + 3 for opts in parser_options().values()) == 42  # 3: --p, --out, --format


def test_readme_command_examples(capsys, tmp_path):
    commands = readme_commands()
    assert len(commands) == 7
    for argv in commands:
        out_file = None
        if "--out" in argv:
            i = argv.index("--out") + 1
            out_file = argv[i] = str(tmp_path / argv[i])
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        assert err == ""
        if out_file:
            assert out == "" and Path(out_file).read_text()
        else:
            assert out


def test_cli_loads_only_what_a_command_runs():
    # what is loaded, not how long it takes: a fresh interpreter reports sys.modules
    script = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m in ("dataclasses", "inspect") or m.startswith("probdigits."))
stages = {}
import probdigits
stages["package"] = loaded()
import probdigits.cli
stages["cli"] = loaded()
probdigits.cli.main(["convert", "--p", "1/2,1/2", "--x", "1/3", "--out", sys.argv[1]])
stages["convert"] = loaded()
print(json.dumps(stages))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, os.devnull], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout)
    assert stages["package"] == []
    assert stages["cli"] == ["probdigits.cli", "probdigits.core", "probdigits.errors"]
    assert not {"probdigits.flips", "probdigits.analysis", "probdigits.fractal",
                "dataclasses", "inspect"} & set(stages["convert"])


def test_parser_built_for_the_invoked_subcommand_only():
    # main builds the one subparser its argv names; help and errors see all seven
    assert "{convert} ..." in build_parser("convert").format_usage()
    assert "{convert,eval,integral,jumps,graph,dimension,scan-derivative}" in build_parser().format_usage()
