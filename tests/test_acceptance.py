"""Acceptance suite: one test per criterion, at the stated counts and
tolerances.  Each test prints a PASS line when its criterion holds; a
failure surfaces as an ordinary pytest failure for that criterion."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F
from functools import partial
from pathlib import Path

from fermatreals import (
    CATALOG,
    ONE,
    ParamPoly,
    Verdict,
    ZERO,
    add,
    canonicalize,
    cancellation_order,
    compare,
    derive,
    dt,
    eq_up_to,
    eval_param_poly,
    evaluate,
    ext_apply,
    format_fermat,
    from_real,
    graph_samples,
    invert,
    iota,
    mul,
    order,
    parse,
    pow_const,
    pow_nat,
    product_power_order,
    product_power_zero,
    render_svg,
    sub,
    taylor_multi,
)
from fermatreals.errors import NonPositiveOrderError, ParseError

import helpers

GOLDEN = Path(__file__).parent / "golden"


def _ok(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n:2d} PASS: {label}")


def test_c01_worked_identity_corpus():
    assert invert(add(1, dt(2))) == add(sub(1, dt(2)), dt(1))
    for a, b in ((F(2), F(2)), (F(2), F(3)), (F(3), F(6)), (F(3, 2), F(3))):
        assert mul(dt(a), dt(b)) == dt(a * b / (a + b))
    for a, k in ((F(3), 2), (F(21, 10), 2)):
        assert pow_nat(dt(a), k) == dt(a / k)
    assert pow_nat(dt(F(21, 10)), 3) == ZERO
    assert pow_nat(dt(F(21, 10)), 2) != ZERO
    mixed = sub(canonicalize(5, [(1, F(1, 4)), (-3, F(1, 2))]), 5)
    for h in (dt(1), dt(2), dt(3), mixed):
        assert mul(dt(1), h) == ZERO
    h = dt(1)
    assert ext_apply(CATALOG["exp"], h) == add(1, h)
    assert ext_apply(CATALOG["sin"], h) == h
    assert ext_apply(CATALOG["cos"], h) == ONE
    h3 = dt(3)
    want = sub(h3, mul(1 / 6, pow_nat(h3, 3)))
    got = ext_apply(CATALOG["sin"], h3)
    assert [t.exp for t in got.terms] == [t.exp for t in want.terms]
    helpers.assert_fermat_close(got, want, tol=1e-12)
    _ok(1, "worked-identity corpus exact")


def test_c02_product_power_oracle_equivalence():
    pool = (F(1), F(3, 2), F(2), F(3), F(4), F(6))
    cases = 0
    for n in (1, 2, 3):
        for orders in itertools.product(pool, repeat=n):
            for exps in itertools.product((1, 2, 3), repeat=n):
                prod = helpers.dt_chain(orders, exps)
                is_zero = product_power_zero(orders, exps)
                assert is_zero == (prod == ZERO), (orders, exps)
                if not is_zero:
                    assert order(prod) == product_power_order(orders, exps)
                cases += 1
    assert cases == 18 + 324 + 5832
    _ok(2, f"product-of-powers decisions match explicit products ({cases} cases)")


def _sin_times_v_partials(j, x):
    du, dv = j
    if dv == 0:
        return helpers.sin_derivative(du, x[0]) * x[1]
    if dv == 1:
        return helpers.sin_derivative(du, x[0])
    return 0.0


def test_c03_heat_and_schwarz_bookkeeping():
    dx, dtime = dt(6), dt(2)
    dv = pow_nat(dx, 3)
    assert mul(dv, dtime) != ZERO and order(mul(dv, dtime)) == 1
    assert mul(mul(dtime, dv), dx) == ZERO

    k, h, j = dt(2), dt(4), dt(4)
    assert mul(mul(j, k), h) == dt(1)
    at = (0.0, 0.0)
    f_hk = taylor_multi(_sin_times_v_partials, at, (h, k), 4)
    f_h0 = taylor_multi(_sin_times_v_partials, at, (h, ZERO), 4)
    f_0k = taylor_multi(_sin_times_v_partials, at, (ZERO, k), 4)
    f_00 = taylor_multi(_sin_times_v_partials, at, (ZERO, ZERO), 4)
    lhs = mul(j, add(sub(sub(f_hk, f_h0), f_0k), f_00))
    rhs = mul(mul(mul(j, k), h), from_real(_sin_times_v_partials((1, 1), at)))
    assert lhs == rhs == dt(1)
    _ok(3, "heat-flow and second-difference bookkeeping exact")


def test_c04_ideal_property_theorem():
    helpers.check_ideal_properties(random.Random(40404), trials=1000)
    _ok(4, "nine ideal/order properties on 1000 randomized infinitesimals")


def test_c05_order_relation():
    rng = random.Random(50505)
    dual = {Verdict.LT: Verdict.GT, Verdict.GT: Verdict.LT, Verdict.EQ: Verdict.EQ}
    for _ in range(10_000):
        x = helpers.rand_fermat(rng)
        y = helpers.rand_fermat(rng)
        v = compare(x, y)
        assert compare(y, x) is dual[v]
        assert (v is Verdict.EQ) == (x == y)
    for _ in range(10_000):
        x = helpers.rand_fermat(rng)
        y = helpers.rand_fermat(rng)
        z = helpers.rand_fermat(rng)
        if compare(x, y) is not Verdict.GT and compare(y, z) is not Verdict.GT:
            assert compare(x, z) is not Verdict.GT

    assert compare(sub(dt(2), mul(3, dt(1))), ZERO) is Verdict.GT
    assert compare(add(2, dt(2)), mul(3, dt(1))) is Verdict.GT
    assert compare(add(1, dt(2)), add(3, dt(1))) is Verdict.LT
    assert compare(mul(3, dt(5)), mul(2, dt(5))) is Verdict.GT
    base = add(dt(5), mul(-2, dt(3)))
    assert compare(add(base, mul(3, dt(1))), add(base, dt("3/2"))) is Verdict.LT

    radii = (1e-1, 1e-3, 1e-9)
    for _ in range(2000):
        x = helpers.rand_fermat(rng)
        sandwiched = all(
            compare(from_real(-r), x) is Verdict.LT
            and compare(x, from_real(r)) is Verdict.LT
            for r in radii
        )
        assert sandwiched == (x.std == 0.0)
    _ok(5, "trichotomy, transitivity, the five worked comparisons, sandwich")


def test_c06_derivation_formula():
    functions = [CATALOG[n] for n in ("exp", "ln", "sin", "cos", "tan", "atan",
                                      "sqrt", "recip")]
    functions.append(pow_const(2.5))
    ranges = {
        "exp": (-3.0, 3.0),
        "ln": (0.2, 5.0),
        "sin": (-6.0, 6.0),
        "cos": (-6.0, 6.0),
        "tan": (-1.2, 1.2),
        "atan": (-5.0, 5.0),
        "sqrt": (0.2, 5.0),
        "recip": (0.2, 5.0),
        "pow[2.5]": (0.2, 5.0),
    }
    assert len(functions) == 9
    for fn in functions:
        lo, hi = ranges[fn.name]
        f = partial(ext_apply, fn)
        for i in range(20):
            x = lo + (hi - lo) * (i + 0.5) / 20
            m = derive(f, x)
            fd = helpers.fd_central(fn.value, x)
            assert abs(m - fd) <= 1e-6 * max(1.0, abs(m)), (fn.name, x)
            residual = sub(
                ext_apply(fn, add(from_real(x), dt(1))),
                add(ext_apply(fn, from_real(x)), mul(from_real(m), dt(1))),
            )
            assert residual == ZERO, (fn.name, x)
    _ok(6, "derivative matches finite differences; increments have zero residual")


def test_c07_cancellation_laws():
    assert cancellation_order([1], [1]) == 2
    rng = random.Random(70707)
    h = dt(1)
    for _ in range(1000):
        m = helpers.rand_fermat(rng)
        assert mul(h, m) == mul(h, iota(m, 2))
    _ok(7, "truncation order balance gives 2; square-zero products truncate")


def test_c08_wave_equation_lemmas():
    m = ONE

    def cos_cubed(h):
        return pow_nat(ext_apply(CATALOG["cos"], h), 3)

    assert eq_up_to(mul(m, cos_cubed(dt(4))), m, 2)
    assert not eq_up_to(mul(m, cos_cubed(dt(F(9, 2)))), m, 2)

    sin_ext = partial(ext_apply, CATALOG["sin"])
    exp_ext = partial(ext_apply, CATALOG["exp"])
    corpus = [
        (
            ParamPoly([dt(2)], [((0,), sin_ext), ((1,), lambda x: x)], 2),
            ParamPoly([dt(2)], [((0,), sin_ext)], 2),
        ),
        (
            ParamPoly([dt("3/2")], [((0,), exp_ext), ((1,), exp_ext)], 2),
            ParamPoly([dt("3/2")], [((0,), exp_ext)], 2),
        ),
        (
            ParamPoly([dt(2)], [((0,), lambda x: mul(x, x)), ((1,), lambda x: add(x, 1))], 2),
            ParamPoly([dt(2)], [((0,), lambda x: mul(x, x))], 2),
        ),
    ]
    h = dt(1)
    for f, g in corpus:
        for r in (0.0, 0.4, 1.1):
            x = from_real(r)
            assert eq_up_to(eval_param_poly(f, x), eval_param_poly(g, x), 2)
            df = sub(eval_param_poly(f, add(x, h)), eval_param_poly(f, x))
            dg = sub(eval_param_poly(g, add(x, h)), eval_param_poly(g, x))
            assert df == dg
    _ok(8, "cos-cubed threshold at order 4; equal-up-to-2 pairs share increments")


def test_c09_identity_principle():
    rng = random.Random(90909)
    points = [add(from_real(r), dt(2)) for r in (0.0, 1.0, -1.0, 2.0, -2.0)]
    for _ in range(1000):
        degree = rng.randint(0, 4)
        coeffs = [
            helpers.rand_fermat(rng) if rng.random() < 0.8 else ZERO
            for _ in range(degree + 1)
        ]
        if all(c == ZERO for c in coeffs):
            coeffs[rng.randrange(len(coeffs))] = helpers.rand_fermat(
                rng, zero_std_prob=0.0
            )
        witnesses = 0
        for x in points[: degree + 1]:
            acc = ZERO
            for c in reversed(coeffs):  # Horner
                acc = add(mul(acc, x), c)
            if acc != ZERO:
                witnesses += 1
        assert witnesses >= 1
    _ok(9, "nonzero polynomials witnessed at one of the shifted sample points")


def _benign_value(rng, allow_std=True):
    exps = rng.sample([F(1, 3), F(1, 2), F(2, 3), F(1)], rng.randint(0, 3))
    std = rng.uniform(1.0, 2.0) * rng.choice((-1, 1)) if allow_std and rng.random() < 0.5 else 0.0
    return canonicalize(
        std, [(rng.uniform(1.0, 2.0) * rng.choice((-1, 1)), e) for e in exps]
    )


def _benign_positive(rng):
    # positive leading part: either a positive standard gap or a positive
    # leading infinitesimal coefficient
    if rng.random() < 0.3:
        return canonicalize(rng.uniform(1.0, 2.0), [])
    exps = sorted(rng.sample([F(1, 3), F(1, 2), F(2, 3), F(1)], rng.randint(1, 3)))
    raw = [(rng.uniform(1.0, 2.0) * rng.choice((-1, 1)), e) for e in exps]
    raw[0] = (abs(raw[0][0]), raw[0][1])
    return canonicalize(0.0, raw)


def test_c10_graph_representation():
    rng = random.Random(101010)

    seen = []
    for _ in range(50):
        x = helpers.rand_fermat(rng)
        while any(x == y for y in seen):
            x = helpers.rand_fermat(rng)
        seen.append(x)
    curves = [graph_samples(x, 0.01, 64).points for x in seen]
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            assert curves[i] != curves[j], (seen[i], seen[j])

    for _ in range(50):
        x = _benign_value(rng)
        y = add(x, _benign_positive(rng))
        assert compare(x, y) is Verdict.LT
        delta = 0.1
        found = False
        for _ in range(21):
            a = graph_samples(x, delta, 64).points
            b = graph_samples(y, delta, 64).points
            if all(pa < pb for (pa, ta), (pb, tb) in zip(a[1:], b[1:])) and a[0][0] <= b[0][0]:
                found = True
                break
            delta /= 2
        assert found, (str(x), str(y))

    for name, value, delta, samples in (
        ("dt2_delta005_n64.svg", dt(2), 0.05, 64),
        ("real1_default.svg", from_real(1.0), 0.01, 64),
    ):
        label = "dt[2]" if value == dt(2) else "1"
        once = render_svg(graph_samples(value, delta, samples), label=label)
        again = render_svg(graph_samples(value, delta, samples), label=label)
        assert once == again
        assert once.encode() == (GOLDEN / name).read_bytes()
    _ok(10, "curves injective at sample resolution, order-faithful, SVG stable")


def test_c11_front_end_round_trip_and_fuzz():
    rng = random.Random(111111)
    for _ in range(10_000):
        x = helpers.rand_fermat(rng)
        assert evaluate(parse(format_fermat(x))) == x
    for _ in range(10_000):
        text = helpers.mutate(rng, rng.choice(helpers.FUZZ_CORPUS))
        try:
            parse(text)
        except ParseError as e:
            assert 0 <= e.position <= len(text)
        except NonPositiveOrderError as e:
            assert e.position is not None
    _ok(11, "10k format/parse/eval round trips exact; 10k fuzz inputs handled")
