import csv
import json
import io
from fractions import Fraction

import pytest

from probdigits.cli import main


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


def test_convert_out_of_range_exits_nonzero(capsys):
    code, out, err = run_cli(capsys, "convert", "--p", "1/2,1/2", "--x", "3/2")
    assert code != 0
    assert "OutOfUnitInterval" in err
    assert out == ""


def test_bad_rational_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["convert", "--p", "1/2,1/2", "--x", "one-half"])


def test_bad_weight_vector_rejected(capsys):
    for bad in ("1/2,1/3", "1/2", "1/2,-1/2,1"):
        with pytest.raises(SystemExit) as exc_info:
            main(["convert", "--p", bad, "--x", "1/2"])
        assert exc_info.value.code == 2


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
], ids=lambda argv: " ".join(argv))
def test_argument_out_of_domain_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: InvalidArgument: ")


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


def test_csv_command_as_json(capsys):
    code, out, err = run_cli(capsys, "jumps", "--p", "1/2,1/2", "--flips", "finite:1",
                             "--count", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["point"] == "1/2"


def test_json_command_as_csv(capsys):
    code, out, err = run_cli(capsys, "convert", "--p", "1/2,1/2", "--x", "1/4", "--format", "csv")
    assert code == 0
    rows = dict((r[0], r[1]) for r in list(csv.reader(io.StringIO(out)))[1:])
    assert rows["x"] == "1/4"
    assert rows["classification"] == "p-rational"
