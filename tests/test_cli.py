from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fermatreals import cli
from fermatreals.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spawn(*argv, stdout=subprocess.PIPE, python=("-m", "fermatreals")):
    """Run a real ``python -m fermatreals`` process, which ends through cli.run,
    with its stdout block-buffered as it is by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *python, *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)


def test_eval_inverse(capsys):
    code, out, err = run(capsys, "eval", "(1+dt[2])^-1")
    assert code == 0 and out == "1 - dt[2] + dt[1]\n" and err == ""


def test_eval_with_binding(capsys):
    code, out, _ = run(capsys, "eval", "sin(x)", "-b", "x=dt[3]")
    assert code == 0
    assert out == "dt[3] - 0.16666666666666666*dt[1]\n"


def test_a_malformed_binding_exits_2(capsys):
    for item in ("1x=2", "x", "=1", "x y=1"):
        assert run(capsys, "eval", "1", "-b", item) == (
            2, "", f"fermat: bad binding {item!r}: expected name=expression\n")
    # the bound expression's own errors keep their codes
    assert run(capsys, "eval", "x", "-b", "x=dt[")[0] == 2
    assert run(capsys, "eval", "x", "-b", "x=1/dt[2]")[0] == 3


def test_eval_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "eval", "dt[")
    assert code == 2 and out == ""
    assert "offset 3" in err
    # an order too large to print is a parse error, not Python's int limit
    for argv in (("order", "dt[1e5000]"), ("eval", "dt[" + "9" * 5000 + "/1]")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("fermat: parse error at offset 3: "), err


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
    code, out, err = run(capsys, "iota", "dt[2]", "--k=-1")
    assert (code, out, err) == (2, "", "fermat: bad --k value '-1'\n")


def test_a_huge_decimal_exponent_ends_at_once(capsys):
    # the exponent is bounded before any int is built: --k is a flag the CLI
    # checks (exit 2), --orders a value only the library judges (exit 3)
    for exponent in ("2000", "9999999", "99999999"):
        start = time.perf_counter()
        assert run(capsys, "iota", "1+dt[2]", "--k", f"1e{exponent}") == (
            2, "", f"fermat: bad --k value '1e{exponent}'\n")
        assert run(capsys, "prodzero", "--orders", f"1e{exponent},2", "--exps", "1,1") == (
            3, "", f"fermat: invalid factor order: '1e{exponent}' has a decimal exponent "
                   "past 1000 in magnitude\n")
        assert time.perf_counter() - start < 1.0, exponent
    assert run(capsys, "iota", "1+dt[2]", "--k", "1e1000") == (0, "1\n", "")


def test_prodzero_bad_order_is_an_evaluation_error(capsys):
    code, _, err = run(capsys, "prodzero", "--orders", "0.5", "--exps", "1")
    assert code == 3 and "orders must be >= 1" in err
    code, _, err = run(capsys, "prodzero", "--orders", "x,1", "--exps", "1,1")
    assert code == 3 and err == "fermat: invalid factor order: 'x'\n"


def test_prodzero_malformed_exps_exits_2(capsys):
    for text in ("x", "1,,1", "1.5", ""):
        assert run(capsys, "prodzero", "--orders", "2", f"--exps={text}") == (
            2, "", f"fermat: bad exponent list: {text!r}\n"), text
    # a well-formed exponent out of range is the library's error
    code, _, err = run(capsys, "prodzero", "--orders", "2", "--exps", "-1")
    assert code == 3 and "natural number" in err


def test_eval_coefficient_overflow_exit_3(capsys):
    code, out, err = run(capsys, "eval", "1e308*dt[1]+1e308*dt[1]")
    assert code == 3 and out == "" and "Traceback" not in err
    assert err == "fermat: coefficient of dt[1] has no finite binary64 value\n"


# Five dt literals with distinct 1000-digit orders: their product's exact
# order has more digits than Python prints by default.
_LONG = "*".join(f"dt[{10**999 + 2 * i + 1}]" for i in range(5))
_TOO_LONG = "fermat: exact order too long to print: past Python's limit of 4300 digits per int\n"


def test_eval_of_an_order_past_the_int_digit_limit_exit_3(capsys, int_digit_limit):
    assert run(capsys, "eval", _LONG) == (3, "", _TOO_LONG)
    # inside a NonFiniteError's message the order is a placeholder, and the
    # error keeps its type
    assert run(capsys, "eval", f"1e308*{_LONG} + 1e308*{_LONG}") == (
        3, "", "fermat: coefficient of <not printed: an exact order of over 4300 "
        "digits> has no finite binary64 value\n")


def test_order_past_the_int_digit_limit_exit_3(capsys, int_digit_limit):
    assert run(capsys, "order", _LONG) == (3, "", _TOO_LONG)


def test_eval_json_of_an_order_past_the_int_digit_limit_exit_3(capsys, int_digit_limit):
    assert run(capsys, "eval", "--json", _LONG) == (3, "", _TOO_LONG)


def test_json_of_a_non_finite_value_exit_3(capsys):
    # no value is infinite, so --json never meets Infinity or NaN, which are
    # not JSON (RFC 8259, section 6): the literal is refused, as in plain text
    for argv in (("--json", "1e400+dt[2]"), ("1e400+dt[2]",)):
        assert run(capsys, "eval", *argv) == (
            3, "", "fermat: standard part has no finite binary64 value\n"), argv


@pytest.mark.parametrize("argv", [
    ("eval", "1e400"),
    ("eval", "(1e200)*(1e200)"),
    ("eval", "2^100000000"),
    ("eval", "1e400+dt[2]"),
    ("eval", "(1e-300+dt[3])^-1"),
    ("eval", "1/5e-324"),
    ("eval", "atan(1e400)"),
    ("eval", "exp(-1e400)"),
    ("eval", "--json", "1e400+dt[2]"),
])
def test_a_value_past_binary64_exits_3(capsys, argv):
    # a literal, operand or result past binary64 is NonFiniteError, never
    # an inf printed as an answer
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0, argv
    assert (code, out) == (3, ""), argv
    assert err.startswith("fermat: ") and err.endswith(" has no finite binary64 value\n"), err
    assert err.count("\n") == 1 and "Traceback" not in err, err


def test_nan_is_an_evaluation_error(capsys):
    # inf - inf has no value: it must not print "nan" (which does not
    # parse back) or compare below everything in both directions
    for argv in (("cmp", "1e400-1e400", "0"), ("cmp", "0", "1e400-1e400"),
                 ("eval", "1e400-1e400")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == "fermat: standard part has no finite binary64 value\n"


def test_smooth_extension_overflow_is_typed(capsys):
    # a tower value or a Taylor coefficient past binary64 is exit 3, not a
    # traceback; an argument past binary64 is refused before the function
    for expr in ("exp(1000)", "recip(1e-300+dt[3])", "sqrt(1e-300+dt[3])"):
        code, out, err = run(capsys, "eval", expr)
        assert (code, out) == (3, ""), expr
        name = expr.split("(")[0]
        assert err.startswith(f"fermat: {name}: Taylor coefficient "), err
        assert err.endswith(" has no finite binary64 value\n"), err
        assert "Traceback" not in err
    for expr in ("atan(1e400+dt[2])", "recip(1e400+dt[2])", "ln(1e400+dt[2])",
                 "sqrt(1e400+dt[2])"):
        assert run(capsys, "eval", expr) == (
            3, "", "fermat: standard part has no finite binary64 value\n"), expr


# Each left binary64 on h**i or a Taylor coefficient before extensions ran
# on u = h/s; every coefficient of its answer is near 1e-100, 1e100,
# 1e-200, 1e200 or 1.
_FAR_STANDARD_PARTS = [f"{name}({r}+{r}*dt[3])" for r in ("1e-200", "1e200")
                       for name in ("sqrt", "ln", "recip")]
_FAR_STANDARD_PARTS += ["pow(1e-200+1e-200*dt[3], 0.5)", "atan(1e200+1e200*dt[3])"]


def test_extensions_at_extreme_standard_parts_exit_0(capsys):
    for expr in _FAR_STANDARD_PARTS:
        code, out, err = run(capsys, "eval", expr)
        assert (code, err, out.count("dt[")) == (0, "", 3), (expr, err)
        proc = spawn("eval", expr)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, ""), expr
    # one rounding of h/2**e's exact powers each: 1/r**2 * 2**e rounds, then
    # its product with u does; invert divides h by std and rounds once there
    assert run(capsys, "eval", "recip(1e-200+1e-200*dt[3])")[1] == (
        "1e+200 - 1.0000000000000001e+200*dt[3] + 1e+200*dt[3/2] - 1e+200*dt[1]\n")
    assert run(capsys, "eval", "(1e-200+1e-200*dt[3])^-1")[1] == (
        "1e+200 - 1e+200*dt[3] + 1e+200*dt[3/2] - 1e+200*dt[1]\n")
    assert run(capsys, "eval", "sqrt(1e200+1e200*dt[3])")[1] == (
        "1e+100 + 5e+99*dt[3] - 1.25e+99*dt[3/2] + 6.25e+98*dt[1]\n")
    # an h far below r keeps s = 1, so a coefficient near 1e-301 survives
    assert run(capsys, "eval", "sqrt(1e200+dt[3])")[1] == (
        "1e+100 + 5e-101*dt[3] - 1.25e-301*dt[3/2]\n")


def test_extensions_at_the_largest_float_exit_0(capsys):
    # the scale's exponent stops at 1023, where log2 of the largest float rounds to 1024
    top = "1.7976931348623157e308"
    for expr in ("sqrt(x)", "ln(x)", "recip(x)", "atan(x)", "pow(x,0.5)"):
        code, out, err = run(capsys, "eval", expr, "-b", f"x={top}+{top}*dt[5]")
        assert (code, err, out.count("dt[")) == (0, "", 5), (expr, err)
    code, out, err = run(capsys, "eval", f"atan({top}*x)", "-b", "x=-1+dt[5]")
    assert (code, err, out.count("dt[")) == (0, "", 5), err


def test_trig_of_an_infinite_standard_part_is_typed(capsys):
    # there is no infinite standard part: its literal is NonFiniteError
    # before any function sees it, whether or not the function has a limit
    # there, not math's untyped "math domain error" or a domain error
    for expr in ("sin(1e400)", "tan(1e400)", "cos(1e400+dt[2])", "sin(-1e400)",
                 "atan(1e400)", "exp(-1e400)", "ln(-1e400)", "sqrt(-1e400+dt[2])"):
        assert run(capsys, "eval", expr) == (
            3, "", "fermat: standard part has no finite binary64 value\n"), expr


def test_taylor_sums_past_170_factorial(capsys):
    # 171! is past binary64, but 1/171! is a subnormal float
    code, out, err = run(capsys, "eval", "exp(dt[171])")
    assert (code, err) == (0, "") and out.startswith("1 + dt[171] + 0.5*dt[171/2] + ")
    assert out.endswith("e-310*dt[1]\n")
    code, out, err = run(capsys, "eval", "sin(1+dt[3]+dt[2000])")
    assert (code, err) == (0, "") and out.startswith("0.8414709848078965 + ")


def test_taylor_coefficients_past_a_binary64_derivative(capsys):
    # f_i(r) passes binary64 from about i = 170 on (164 for tan at 0.5),
    # f_i(r) / i! does not: no "has no finite binary64 value" for these
    for expr in ("sqrt(1+dt[200])", "recip(1+dt[200])", "ln(1+dt[200])", "atan(0.5+dt[200])",
                 "tan(0.5+dt[200])"):
        code, out, err = run(capsys, "eval", expr)
        assert (code, err) == (0, ""), (expr, err)
        assert out.count("dt[") == 200, expr
    assert run(capsys, "eval", "recip(1+dt[200])")[1].endswith(" - dt[200/199] + dt[1]\n")


def test_long_flat_chains_evaluate(capsys):
    n = 10_000
    assert run(capsys, "eval", "+".join(["1"] * n)) == (0, f"{n}\n", "")
    assert run(capsys, "eval", "*".join(["1"] * n + ["dt[2]"])) == (0, "dt[2]\n", "")
    # diff reads the free variables of the chain too
    assert run(capsys, "diff", "+".join(["x"] * n), "--at", "0") == (0, f"{n}\n", "")



# Tokens joined by spaces, so digits never run together: every dt order
# stays at most 3 and no evaluation runs long.
FUZZ_TOKENS = (
    "0", "1", "2.5", "0.5", "\u0661", "1e", "..", "x", "dt", "dt[3]", "dt[3/2]",
    "dt[0]", "dt[", "dt[1/0]", "dt[-2]", "sin", "exp", "ln", "sqrt", "recip", "tan",
    "pow", "log", "foo", "+", "-", "*", "/", "^", "(", ")", ",", "[", "]", "$", "\u00e9",
)
fuzz_text = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=24).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(
    argv=st.one_of(
        st.tuples(st.just("eval"), fuzz_text),
        st.tuples(st.just("order"), fuzz_text),
        st.tuples(st.just("cmp"), fuzz_text, fuzz_text),
    ),
    bind=st.sampled_from([[], ["-b", "x=1+dt[2]"], ["-b", "x=0"]]),
)
def test_fuzzed_expressions_exit_with_a_documented_code(argv, bind):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], *bind, "--", *argv[1:]])
    stderr = err.getvalue()
    assert code in (0, 2, 3, 4), (argv, code)
    assert "Traceback" not in stderr and "internal error" not in stderr, (argv, stderr)
    assert (code == 0) == (stderr == "") == (out.getvalue() != ""), (argv, code)


# Numeric flag texts: non-finite, signed zero, past binary64 and subnormal.
# --samples is drawn small, past plot's cap or past binary64.
FUZZ_REALS = ("inf", "-inf", "nan", "-nan", "-0", "0", "1e400", "-1e400", "5e-324",
              "1e308", "1e-300", "0.05", "1", "-1", "2.5")
FUZZ_COUNTS = ("1", "2", "64", "1000000000", "1" + "0" * 309, "1" + "0" * 400)


@settings(max_examples=200, deadline=None)
@given(
    argv=st.one_of(
        st.tuples(
            st.just("plot"),
            st.sampled_from(("7", "dt[2]", "1e308*dt[1]", "x", "-dt[3/2]")),
            st.sampled_from(FUZZ_REALS).map("--delta={}".format),
            st.sampled_from(FUZZ_COUNTS).map("--samples={}".format),
            st.sampled_from(("svg", "csv")).map("--format={}".format),
        ),
        st.tuples(
            st.just("diff"),
            st.sampled_from(("x", "sin(x)", "1/x", "sqrt(x)", "x^3", "ln(x)")),
            st.sampled_from(FUZZ_REALS).map("--at={}".format),
        ),
    ),
)
def test_fuzzed_numeric_flags_exit_with_a_documented_code(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        curve = os.path.join(tmp, "curve")
        out = ["--out", curve] if argv[0] == "plot" else []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([argv[0], *argv[2:], *out, "--", argv[1]])
        written = os.path.exists(curve)
    stderr = err.getvalue()
    assert code in (0, 2, 3), (argv, code)
    assert "Traceback" not in stderr and "internal error" not in stderr, (argv, stderr)
    assert (code == 0) == (stderr == ""), (argv, code, stderr)
    assert written == (argv[0] == "plot" and code == 0), (argv, code)


def test_unexpected_error_is_one_line_exit_3(capsys, monkeypatch):
    def fail(args):
        raise RuntimeError("handler broke")

    monkeypatch.setattr(cli, "_cmd_eval", fail)
    code, out, err = run(capsys, "eval", "1")
    assert (code, out, err) == (3, "", "fermat: internal error: RuntimeError: handler broke\n")

    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_eval", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["eval", "1"])


# 139,171 bytes of output, more than a 64 KiB pipe buffer holds
_LONG_OUTPUT = ("eval", "(1.5+dt[5000])^-1")


@pytest.mark.parametrize("argv, code", [(_LONG_OUTPUT, 0), (("eval", "1+"), 2),
                                        (("eval", "dt[2]^-1"), 3)])
def test_a_process_exits_with_all_that_main_wrote(capsys, argv, code):
    # cli.run ends the process with os._exit once stdout and stderr are flushed
    expected = run(capsys, *argv)
    if code == 0:
        assert len(expected[1].encode()) > 1 << 16 and expected[2] == ""
    else:
        assert expected[1] == "" and expected[2].startswith("fermat: ")
        assert expected[2].count("\n") == 1
    assert expected[0] == code
    proc = spawn(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_help_exits_0_through_argparse():
    proc = spawn("--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: fermat ")


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor, then execs")
def test_a_closed_stdout_exits_0():
    # with descriptor 1 closed at start, sys.stdout is None and print writes nothing
    proc = spawn("eval", "1", python=("-c", "import os, sys; os.close(1); os.execv("
                                      "sys.executable, [sys.executable, *sys.argv[1:]])",
                                      "-m", "fermatreals"))
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("argv", [_LONG_OUTPUT, ("eval", "1")])
def test_a_full_disk_is_reported(argv):
    # the long output fails inside main, exit 4; the short one only at the
    # flush after main, which cli.run leaves to sys.exit to report
    with open("/dev/full", "w") as full:
        proc = spawn(*argv, stdout=full)
    assert proc.returncode != 0
    assert proc.stderr.endswith("[Errno 28] No space left on device\n"), proc.stderr
    if argv == _LONG_OUTPUT:
        assert (proc.returncode, proc.stderr) == (4, "fermat: [Errno 28] No space left on device\n")


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
        capsys, "plot", "dt[2]", "--delta", "inf", "--out", str(tmp_path / "x.svg")
    )
    assert code == 2 and err == "fermat: --delta must be > 0 and finite\n"
    code, _, err = run(
        capsys, "plot", "dt[2]", "--samples", "1", "--out", str(tmp_path / "x.svg")
    )
    assert code == 2 and err == "fermat: --samples must be >= 2\n"
    # graph_samples forms delta * i for i < samples, which must stay finite
    for argv in (("--delta", "1e308"), ("--delta", "1e307"),
                 ("--delta", "1e306", "--samples", "1000")):
        code, _, err = run(capsys, "plot", "7", *argv, "--out", str(tmp_path / "x.svg"))
        assert code == 2 and err == "fermat: --delta * (--samples - 1) must be finite\n"
    # a count past binary64 makes the same product infinite: a bad flag too
    huge = "1" + "0" * 310
    code, _, err = run(capsys, "plot", "7", "--samples", huge, "--out", str(tmp_path / "x.svg"))
    assert code == 2 and err == "fermat: --delta * (--samples - 1) must be finite\n"
    proc = spawn("plot", "7", "--samples", huge, "--out", str(tmp_path / "x.svg"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "fermat: --delta * (--samples - 1) must be finite\n")
    # a finite count is built point by point, so it is capped
    code, _, err = run(capsys, "plot", "7", "--samples", "1000000000",
                       "--out", str(tmp_path / "x.svg"))
    assert code == 2 and err == "fermat: --samples must be <= 100000\n"
    code, _, _ = run(capsys, "plot", "7", "--delta", "1e306", "--samples", "100",
                     "--out", str(tmp_path / "y.svg"))
    assert code == 0 and (tmp_path / "y.svg").exists()
    assert not (tmp_path / "x.svg").exists()


def test_diff_non_finite_at(capsys):
    for text in ("nan", "inf", "-inf", "1e309"):
        assert run(capsys, "diff", "sin(t)", f"--at={text}") == (
            2, "", "fermat: --at must be finite\n"), text


def test_plot_of_a_non_finite_curve_exit_3(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, out, err = run(
        capsys, "plot", "1e308*dt[1]+1e308*dt[2]", "--delta", "0.9", "--format", "csv",
        "--out", str(out_path),
    )
    assert (code, out) == (3, "") and err.startswith("fermat: the curve has a non-finite point")
    assert err.count("\n") == 1 and not out_path.exists()


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


def test_usage_help_and_flag_forms_match_the_golden(capsys, monkeypatch):
    """Help texts, usage errors, and the --opt=value and -- forms: stdout,
    stderr and exit code as the grammar printed them before it became one
    command table.  argparse's layout varies by Python minor version, so on
    another version a case that prints a usage compares its exit code only."""
    golden = json.loads((GOLDEN / "cli_usage.json").read_text(encoding="utf-8"))
    monkeypatch.setenv("COLUMNS", str(golden["columns"]))
    same_python = golden["python"] == "%d.%d" % sys.version_info[:2]
    for case in golden["cases"]:
        try:
            code = main(case["argv"])
        except SystemExit as e:
            code = e.code
        got, want = (code, *capsys.readouterr()), (case["code"], case["out"], case["err"])
        if not same_python and "usage: " in case["out"] + case["err"]:
            got, want = got[0], want[0]
        assert got == want, case["argv"]


def test_the_readme_cli_block_lists_every_flag():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    for name in cli._COMMANDS:
        for action in cli._arguments(argparse.ArgumentParser(), name)._actions:
            for flag in set(action.option_strings) - {"-h", "--help"}:
                assert re.search(rf"(?<![\w-]){flag}(?![\w-])", block), (name, flag)
