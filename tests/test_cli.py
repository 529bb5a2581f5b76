from __future__ import annotations

import json
from pathlib import Path

from fermatreals.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_inverse(capsys):
    code, out, err = run(capsys, "eval", "(1+dt[2])^-1")
    assert code == 0 and out == "1 - dt[2] + dt[1]\n" and err == ""


def test_eval_with_binding(capsys):
    code, out, _ = run(capsys, "eval", "sin(x)", "-b", "x=dt[3]")
    assert code == 0
    assert out == "dt[3] - 0.16666666666666666*dt[1]\n"


def test_eval_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "eval", "dt[")
    assert code == 2 and out == ""
    assert "offset 3" in err


def test_eval_not_invertible_exit_3(capsys):
    code, out, err = run(capsys, "eval", "1/dt[2]")
    assert code == 3 and out == ""
    assert "not invertible: standard part is 0" in err


def test_eval_json_schema(capsys):
    code, out, _ = run(capsys, "eval", "3 - 2*dt[3/2]", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"std": 3.0, "terms": [{"coeff": -2.0, "order": "3/2"}]}


def test_canon(capsys):
    code, out, _ = run(capsys, "canon", "dt[2] + dt[2] + 1 - 1")
    assert code == 0 and out == "2*dt[2]\n"


def test_cmp(capsys):
    assert run(capsys, "cmp", "dt[2]", "3*dt[1]")[:2] == (0, "GT\n")
    assert run(capsys, "cmp", "3*dt[5]", "2*dt[5]")[:2] == (0, "GT\n")
    assert run(capsys, "cmp", "x", "x", "-b", "x=1+dt[2]")[:2] == (0, "EQ\n")
    code, out, _ = run(capsys, "cmp", "1+dt[2]", "3+dt[1]", "--json")
    assert code == 0 and json.loads(out) == {"verdict": "LT"}
    # x - y would overflow: the comparison must not form it
    assert run(capsys, "cmp", "1e308*dt[1]", "0-1e308*dt[1]")[:2] == (0, "GT\n")


def test_order(capsys):
    assert run(capsys, "order", "dt[2]*dt[3]")[:2] == (0, "6/5\n")
    assert run(capsys, "order", "5")[:2] == (0, "0\n")


def test_nilpotent(capsys):
    assert run(capsys, "nilpotent", "dt[21/10]")[:2] == (0, "3\n")
    assert run(capsys, "nilpotent", "7")[:2] == (0, "none\n")
    code, out, _ = run(capsys, "nilpotent", "7", "--json")
    assert json.loads(out) == {"nilpotency_index": None}


def test_diff(capsys):
    assert run(capsys, "diff", "sin(t)", "--at", "0")[:2] == (0, "1\n")
    code, out, _ = run(capsys, "diff", "t^2", "--at", "3", "--json")
    assert code == 0 and json.loads(out) == {"derivative": 6.0}


def test_diff_rejects_two_variables(capsys):
    code, _, err = run(capsys, "diff", "x*y", "--at", "0")
    assert code == 3 and "exactly one free variable" in err


def test_diff_of_a_constant(capsys):
    assert run(capsys, "diff", "3", "--at", "0") == (0, "0\n", "")


def test_prodzero(capsys):
    code, out, _ = run(capsys, "prodzero", "--orders", "6,6,6,2", "--exps", "1,1,1,1")
    assert code == 0 and out == "nonzero, order 1\n"
    code, out, _ = run(capsys, "prodzero", "--orders", "1,1", "--exps", "1,1")
    assert code == 0 and out == "zero\n"
    code, out, _ = run(
        capsys, "prodzero", "--orders", "2,4,4", "--exps", "1,1,1", "--json"
    )
    assert json.loads(out) == {"zero": False, "order": "1"}


def test_iota(capsys):
    code, out, _ = run(capsys, "iota", "3 + dt[3] + 2*dt[1]", "--k", "2")
    assert code == 0 and out == "3 + dt[3]\n"
    code, out, _ = run(capsys, "iota", "3 + dt[3]", "--k", "inf")
    assert code == 0 and out == "3\n"
    code, _, err = run(capsys, "iota", "dt[2]", "--k", "abc")
    assert code == 2 and err == "fermat: bad --k value 'abc'\n"


def test_prodzero_bad_order_is_an_evaluation_error(capsys):
    code, _, err = run(capsys, "prodzero", "--orders", "0.5", "--exps", "1")
    assert code == 3 and "orders must be >= 1" in err
    code, _, err = run(capsys, "prodzero", "--orders", "x,1", "--exps", "1,1")
    assert code == 3 and err == "fermat: invalid factor order: 'x'\n"


def test_eval_coefficient_overflow_exit_3(capsys):
    code, out, err = run(capsys, "eval", "1e308*dt[1]+1e308*dt[1]")
    assert code == 3 and out == "" and "Traceback" not in err
    assert err == "fermat: coefficient of dt[1] has no finite binary64 value\n"


def test_plot_csv(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run(
        capsys, "plot", "dt[2]", "--delta", "0.05", "--samples", "8",
        "--format", "csv", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "value,t"
    assert len(lines) == 9
    # value column is t**(1/2)
    value, t = map(float, lines[3].split(","))
    assert value == t**0.5


def test_plot_bad_delta(tmp_path, capsys):
    code, _, err = run(
        capsys, "plot", "dt[2]", "--delta", "-1", "--out", str(tmp_path / "x.svg")
    )
    assert code == 2 and "--delta" in err
    code, _, err = run(
        capsys, "plot", "dt[2]", "--samples", "1", "--out", str(tmp_path / "x.svg")
    )
    assert code == 2 and err == "fermat: --samples must be >= 2\n"


def test_plot_io_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "plot", "dt[2]", "--out", str(tmp_path / "missing" / "x.svg")
    )
    assert code == 4 and err != ""


def test_plot_svg_matches_golden(tmp_path, capsys):
    out_path = tmp_path / "dt2.svg"
    code, _, _ = run(
        capsys, "plot", "dt[2]", "--delta", "0.05", "--samples", "64",
        "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_bytes() == (GOLDEN / "dt2_delta005_n64.svg").read_bytes()


def test_plot_svg_real_vertical_golden(tmp_path, capsys):
    out_path = tmp_path / "one.svg"
    code, _, _ = run(capsys, "plot", "1", "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == (GOLDEN / "real1_default.svg").read_bytes()
