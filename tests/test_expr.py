from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from fermatreals import (
    add,
    canonicalize,
    dt,
    evaluate,
    format_fermat,
    free_variables,
    from_real,
    mul,
    neg,
    parse,
    sub,
)
from fermatreals.errors import (
    NonPositiveOrderError,
    NotInvertibleError,
    ParseError,
    UnboundVariableError,
)
from fermatreals.expr import Binary, Lit, as_function

import helpers


# -- parse -------------------------------------------------------------------

def test_parse_decomposition_example():
    v = evaluate(parse("1 + dt[3] + dt[2] + dt[1]"))
    assert v == canonicalize(1, [(1, F(1, 3)), (1, F(1, 2)), (1, 1)])


def test_parse_inverse_example():
    v = evaluate(parse("(1+dt[2])^-1"))
    assert v == add(sub(1, dt(2)), dt(1))


def test_parse_unterminated_dt_reports_offset_3():
    with pytest.raises(ParseError) as err:
        parse("dt[")
    assert err.value.position == 3


def test_parse_error_positions_point_at_first_bad_byte():
    cases = {
        "1 + ": 4,
        "(1+2": 4,
        "sin 2": 4,  # name not followed by '(' is a variable; '2' is stray
        "1 ? 2": 2,
        "dt[abc]": 3,
        "foo(2)": 0,
        "sin(1,2)": 7,
    }
    for text, offset in cases.items():
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == offset, text


def test_parse_dt_rational_and_decimal_sugar():
    assert evaluate(parse("dt[3/2]")) == dt(F(3, 2))
    assert evaluate(parse("dt[1.5]")) == dt(F(3, 2))
    assert evaluate(parse("dt[21/10]")) == evaluate(parse("dt[2.1]"))


def test_parse_dt_nonpositive_orders():
    with pytest.raises(NonPositiveOrderError):
        parse("dt[0]")
    with pytest.raises(NonPositiveOrderError) as err:
        parse("1 + dt[-3]")
    assert err.value.position is not None


def test_parse_dt_rejects_long_decimals():
    with pytest.raises(ParseError):
        parse("dt[1.234567890123456]")
    # 12 significant digits are fine
    parse("dt[1.23456789012]")


def test_parse_precedence():
    v = evaluate(parse("2+3*dt[2]^2"))
    assert v == add(2, mul(3, dt(1)))
    # unary minus binds looser than the power
    assert evaluate(parse("-2^2")) == from_real(-4.0)
    assert evaluate(parse("2^-2")) == from_real(0.25)
    # right associativity
    assert parse("2^3^2") == Binary("^", Lit(2.0), Binary("^", Lit(3.0), Lit(2.0)))


def test_parse_depth_guard():
    deep = "(" * 200 + "1" + ")" * 200
    with pytest.raises(ParseError):
        parse(deep)
    # unary minus and "^" recurse too; the guard covers them
    for text in ("0+" + "-" * 3000 + "1", "1" + "^1" * 3000):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert 0 <= info.value.position <= len(text)
    assert evaluate(parse("(" * 99 + "1" + ")" * 99)) == from_real(1.0)


# -- evaluate ------------------------------------------------------------------

def test_eval_examples():
    assert evaluate(parse("sin(h)"), {"h": dt(3)}) == sub(
        dt(3), mul(1 / 6, dt(1))
    )
    assert evaluate(parse("x*y"), {"x": dt(1), "y": dt(1)}) == from_real(0.0)
    with pytest.raises(NotInvertibleError):
        evaluate(parse("1/x"), {"x": dt(2)})


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariableError):
        evaluate(parse("x + 1"))


def test_eval_negative_integer_literal_powers_skip_positivity():
    assert evaluate(parse("(-2)^-1")) == from_real(-0.5)
    assert evaluate(parse("(-2)^3")) == from_real(-8.0)


def test_eval_fractional_power_requires_positive_base():
    from fermatreals.errors import DomainError

    with pytest.raises(DomainError):
        evaluate(parse("(-2)^0.5"))
    assert evaluate(parse("4^0.5")) == from_real(2.0)


def test_eval_pow_and_log_calls():
    assert evaluate(parse("pow(1-dt[1], -0.5)")) == add(1, mul(0.5, dt(1)))
    helpers.assert_fermat_close(evaluate(parse("log(4, 2)")), from_real(0.5))


def test_free_variables_and_as_function():
    e = parse("sin(x) + c*x")
    assert free_variables(e) == {"x", "c"}
    with pytest.raises(ValueError):
        as_function(e)
    f = as_function(parse("t^2 + 1"))
    assert f(from_real(3.0)) == from_real(10.0)
    g = as_function(parse("2 + 2"))
    assert g(from_real(99.0)) == from_real(4.0)


# -- format -------------------------------------------------------------------

def test_format_examples():
    assert format_fermat(canonicalize(1, [(1, F(1, 3)), (1, F(1, 2)), (1, 1)])) == (
        "1 + dt[3] + dt[2] + dt[1]"
    )
    assert format_fermat(from_real(0)) == "0"
    assert format_fermat(canonicalize(3, [(-2, F(2, 3))])) == "3 - 2*dt[3/2]"


def test_round_trip_randomized():
    rng = random.Random(2718)
    for _ in range(1000):
        x = helpers.rand_fermat(rng)
        assert evaluate(parse(format_fermat(x))) == x


@given(
    std=st.floats(-1e12, 1e12, allow_nan=False),
    parts=st.lists(
        st.tuples(
            st.floats(-1e9, 1e9).filter(lambda v: v != 0.0),
            st.fractions(min_value=F(1, 10), max_value=1, max_denominator=10),
        ),
        max_size=5,
    ),
)
def test_round_trip_hypothesis(std, parts):
    x = canonicalize(std, parts)
    assert evaluate(parse(format_fermat(x))) == x


def test_fuzz_never_crashes_and_always_positions():
    rng = random.Random(31415)
    for _ in range(1000):
        text = helpers.mutate(rng, rng.choice(helpers.FUZZ_CORPUS))
        try:
            parse(text)
        except ParseError as e:
            assert 0 <= e.position <= len(text)
        except NonPositiveOrderError as e:
            assert e.position is not None
