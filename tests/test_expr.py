from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, reject, strategies as st

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
    order,
    parse,
    sub,
)
from fermatreals.errors import (
    NonFiniteError,
    NonPositiveOrderError,
    NotInvertibleError,
    ParseError,
    UnboundVariableError,
)
from fermatreals.expr import Binary, Lit, Unary, Var, as_function

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
    # (position, expected, found) of each ParseError, as the parser has
    # always reported them
    shape = "a number, dt literal, name, or '('"
    cases = {
        "1 + ": (4, shape, "end of input"),
        "1 +   ": (6, shape, "end of input"),
        "(1+2": (4, "')'", "end of input"),
        "((1": (3, "')'", "end of input"),
        "1)": (1, "end of input", "')'"),
        "sin 2": (4, "end of input", "'2'"),  # a name not followed by '(' is a variable
        "1 ? 2": (2, "a token", "'?'"),
        "1 $ 2": (2, "a token", "'$'"),
        "x é": (2, "a token", "'é'"),
        "dt[abc]": (3, "a dt order", "'abc'"),
        "dt[": (3, "a dt order", "end of input"),
        "dt[1/0]": (5, "a nonzero denominator", "'0'"),
        "dt[1.5/2]": (3, "an integer numerator", "'1.5'"),
        "dt[3/x]": (5, "an integer denominator", "'x'"),
        "dt[1/": (5, "an integer denominator", "end of input"),
        "dt[1.0000000000001]": (3, "a dt order with at most 12 significant digits",
                                "'1.0000000000001'"),
        "foo(2)": (0, "a known function name", "'foo'"),
        "sin(1,2)": (7, "1 argument to sin", "2"),
        "pow(1)": (5, "2 arguments to pow", "1"),
        "1..2": (2, "end of input", "'.2'"),
        "-" * 101 + "1": (100, "a shallower expression", "'-'"),
        # the same depth limit through parentheses, ^ and calls
        "(" * 100 + "1" + ")" * 100: (100, "a shallower expression", "'1'"),
        "2^" * 100 + "2": (200, "a shallower expression", "'2'"),
        "sin(" * 100 + "x" + ")" * 100: (400, "a shallower expression", "'x'"),
        # a dt order is bounded before any int is built
        "dt[1e5000]": (3, "a dt order with an exponent of at most 1000", "'1e5000'"),
        "dt[1e10000000]": (3, "a dt order with an exponent of at most 1000", "'1e10000000'"),
        "dt[2E-1001]": (3, "a dt order with an exponent of at most 1000", "'2E-1001'"),
        "dt[" + "9" * 5000 + "/1]": (3, "a dt order of at most 1000 digits", repr("9" * 5000)),
        "dt[" + "9" * 1001 + "]": (3, "a dt order of at most 1000 digits", repr("9" * 1001)),
        "dt[0." + "0" * 5000 + "1]": (3, "a dt order of at most 1000 digits",
                                     repr("0." + "0" * 5000 + "1")),
        "dt[1/" + "7" * 1001 + "]": (5, "a denominator of at most 1000 digits", repr("7" * 1001)),
    }
    for text, triple in cases.items():
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.position, err.value.expected, err.value.found) == triple, text
    with pytest.raises(NonPositiveOrderError) as err:
        parse("dt[-0]")
    assert err.value.position == 4
    assert str(err.value) == "dt order must be positive, got 0 (offset 4)"
    # NUMBER's digits are Unicode decimal digits, as Python's float() reads them
    assert parse("\u0661+1") == Binary("+", Lit(1.0), Lit(1.0))


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
    # the largest orders accepted print, within Python's 4,300-digit limit
    for text, want in (("9" * 12 + "e1000", F(10**12 - 1) * 10**1000), ("9" * 1000, F(10**1000 - 1)),
                       ("9" * 1000 + "/" + "7" * 1000, F(10**1000 - 1, 7 * (10**1000 - 1) // 9)),
                       ("1e+0001000", F(10**1000))):
        assert order(evaluate(parse(f"dt[{text}]"))) == want
        assert str(evaluate(parse(f"dt[{text}]"))) == f"dt[{want}]"


def test_parse_precedence():
    v = evaluate(parse("2+3*dt[2]^2"))
    assert v == add(2, mul(3, dt(1)))
    # unary minus binds looser than the power
    assert evaluate(parse("-2^2")) == from_real(-4.0)
    assert evaluate(parse("2^-2")) == from_real(0.25)
    # right associativity
    assert parse("2^3^2") == Binary("^", Lit(2.0), Binary("^", Lit(3.0), Lit(2.0)))
    # + - and * / are left associative, and * / bind tighter than + -
    one, two, three, four = Lit(1.0), Lit(2.0), Lit(3.0), Lit(4.0)
    assert parse("1-2-3") == Binary("-", Binary("-", one, two), three)
    assert parse("8/4/2") == Binary("/", Binary("/", Lit(8.0), four), two)
    assert parse("1-2*3+4") == Binary("+", Binary("-", one, Binary("*", two, three)), four)
    # unary minus binds looser than ^ but tighter than *
    x = Var("x")
    assert parse("-x^2*3") == Binary("*", Unary("-", Binary("^", x, two)), three)



def test_nodes_compare_hash_and_show_by_type_and_fields():
    # equal fields of different node types: Lit(2.0) and DtLit(Fraction(2))
    assert parse("2") != parse("dt[2]")
    assert parse("x") != parse("exp(x)") and parse("1+x") != parse("1-x")
    for text in ("2", "dt[3/2]", "x", "-x", "sin(x)+2*dt[3]^2", "log(2, 1+dt[2])"):
        a, b = parse(text), parse(text)
        assert a is not b and a == b and hash(a) == hash(b)
        assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    assert repr(parse("2^3")) == "Binary(op='^', left=Lit(value=2.0), right=Lit(value=3.0))"
    for build in (lambda: Lit(), lambda: Lit(1.0, 2.0), lambda: Binary("+", Lit(1.0))):
        with pytest.raises(TypeError):
            build()
    node = parse("sin(x)*2")
    for n in (node, node.left, node.right, node.left.args[0], parse("-dt[2]")):
        for name in n.__slots__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(n, name, None)
        with pytest.raises(AttributeError):
            delattr(n, n.__slots__[0])

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


def test_eval_rejects_what_is_not_a_node():
    for thing in (object(), ("+", 1, 2)):
        with pytest.raises(TypeError, match="not an expression node"):
            evaluate(thing)


def test_eval_long_flat_chains_without_recursion():
    n = 100_000
    alternating = "".join("-+"[i % 2] + "1" for i in range(n - 1))
    assert evaluate(parse("1" + alternating)) == from_real(0.0)
    assert evaluate(parse("*".join(["x"] * n)), {"x": from_real(1.0)}) == from_real(1.0)


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
    std=st.floats(allow_nan=False, allow_infinity=False),
    parts=st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0),
            st.fractions(min_value=F(1, 10), max_value=1, max_denominator=10),
        ),
        max_size=5,
    ),
)
def test_round_trip_hypothesis(std, parts):
    # every finite binary64 standard part and coefficient, extremes included;
    # terms of one order whose sum is past binary64 make no value
    try:
        x = canonicalize(std, parts)
    except NonFiniteError:
        reject()
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
