from __future__ import annotations

import math
import random
from fractions import Fraction as F
from functools import partial

import pytest

from fermatreals import (
    CATALOG,
    ONE,
    ParamPoly,
    ZERO,
    Verdict,
    add,
    compare,
    derive,
    dt,
    eq_up_to,
    eval_param_poly,
    ext_apply,
    from_real,
    invert,
    log,
    mul,
    neg,
    pow_const,
    pow_nat,
    power,
    sub,
    taylor_multi,
)
from fermatreals.calculus import _atan_poly, _tan_poly
from fermatreals.errors import (
    DomainError,
    NotInIdealError,
    NotSmoothAtPointError,
)

import helpers


# -- derivative towers -------------------------------------------------------

def test_tower_cycles_against_finite_differences():
    rng = random.Random(1)
    for name in ("exp", "ln", "sin", "cos", "tan", "atan", "sqrt", "recip"):
        fn = CATALOG[name]
        for _ in range(10):
            r = rng.uniform(0.3, 2.0)
            for i in range(4):
                want = helpers.fd_central(lambda v: fn.tower(v, i), r)
                got = fn.tower(r, i + 1)
                assert abs(got - want) <= 1e-4 * max(1.0, abs(got))


def test_ln_and_recip_towers_exact_to_high_order():
    for i in (1, 2, 5, 10, 33, 64):
        for r in (0.5, 2.0, 3.0):
            rq = F(r)
            want_ln = float(F((-1) ** (i - 1) * math.factorial(i - 1)) / rq**i)
            want_recip = float(F((-1) ** i * math.factorial(i)) / rq ** (i + 1))
            assert CATALOG["ln"].tower(r, i) == want_ln
            assert CATALOG["recip"].tower(r, i) == want_recip


def test_tan_tower_known_values():
    # derivatives of tan at 0 follow the tangent numbers
    at_zero = [0, 1, 0, 2, 0, 16, 0, 272, 0, 7936, 0, 353792, 0, 22368256]
    for i, want in enumerate(at_zero):
        assert CATALOG["tan"].tower(0.0, i) == want
    # at tan(r) = 1 the tower values are 2, 4, 16, 80, 512, ...
    for i, want in enumerate([2, 4, 16, 80, 512], start=1):
        assert sum(_tan_poly(i)) == want


def test_atan_tower_known_values():
    # odd derivatives at 0 alternate as (-1)**k * (2k)!; even ones vanish
    for k in range(7):
        n = 2 * k + 1
        assert CATALOG["atan"].tower(0.0, n) == (-1) ** k * math.factorial(2 * k)
        if k:
            assert CATALOG["atan"].tower(0.0, 2 * k) == 0.0
    assert len(_atan_poly(64)) == 64  # degree i - 1


def test_sqrt_and_pow_towers_match_falling_factorials():
    rng = random.Random(2)
    p = pow_const(0.5)
    recip, square = pow_const(-1.0), pow_const(2.0)
    for _ in range(20):
        r = rng.uniform(0.2, 4.0)
        for i in range(1, 6):
            a = CATALOG["sqrt"].tower(r, i)
            b = p.tower(r, i)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
        for i in range(65):
            assert recip.tower(r, i) == CATALOG["recip"].tower(r, i)
        exact = [F(r) ** 2, 2 * F(r), F(2)] + [F(0)] * 62
        for i in range(65):
            assert square.tower(r, i) == float(exact[i])


# -- ext_apply ---------------------------------------------------------------

def test_ext_apply_examples():
    assert ext_apply(CATALOG["sin"], dt(3)) == sub(dt(3), mul(1 / 6, dt(1)))
    h = dt(1)
    assert ext_apply(CATALOG["exp"], h) == add(1, h)
    assert ext_apply(CATALOG["cos"], h) == ONE
    assert ext_apply(CATALOG["sin"], h) == h
    assert ext_apply(CATALOG["recip"], add(1, dt(2))) == invert(add(1, dt(2)))


def _recip_series(x):
    r = F(x.std)
    depth = math.floor(x.terms[0].order) if x.terms else 0
    return helpers.oracle_series(
        [F(-1) ** k / r ** (k + 1) for k in range(depth + 1)], x
    )


def test_invert_and_recip_match_exact_series():
    # Each exponent's error is normalized by its sum of absolute
    # contributions, so cancellation does not inflate it.
    rng = random.Random(11)
    for _ in range(500):
        x = helpers.rand_invertible(rng)
        ref = _recip_series(x)
        assert helpers.series_error(invert(x), ref) <= 1e-15, x
        assert helpers.series_error(ext_apply(CATALOG["recip"], x), ref) <= 1e-15, x


def test_invert_is_scale_invariant():
    # Every true coefficient is an ordinary float here, though powers of the
    # standard part alone (1e-160**2, 1e200**-3) over- or underflow.
    for x in (mul(1e-160, add(1, dt(1))), mul(1e200, add(1, dt(2)))):
        got, ref = invert(x), _recip_series(x)
        assert [t.exp for t in got.terms] == sorted(e for e in ref if e), got
        assert all(math.isfinite(t.coeff) for t in got.terms), got
        assert helpers.series_error(got, ref) <= 1e-15, got
    rng = random.Random(12)
    for _ in range(500):
        x = mul(10.0 ** rng.randint(-250, 250), helpers.rand_invertible(rng))
        assert helpers.series_error(invert(x), _recip_series(x)) <= 1e-15, x


def test_ext_apply_on_reals_is_plain_evaluation():
    assert ext_apply(CATALOG["exp"], from_real(0.0)) == ONE
    assert ext_apply(CATALOG["sqrt"], from_real(9.0)) == from_real(3.0)


def test_ext_apply_domain_errors():
    with pytest.raises(DomainError):
        ext_apply(CATALOG["ln"], add(-1, dt(2)))
    with pytest.raises(DomainError):
        ext_apply(CATALOG["sqrt"], dt(2))  # standard part 0
    with pytest.raises(DomainError):
        ext_apply(CATALOG["recip"], dt(1))


# -- derive ------------------------------------------------------------------

def test_derive_examples():
    assert derive(partial(ext_apply, CATALOG["sin"]), 0.0) == 1.0
    assert derive(lambda v: mul(v, v), 3.0) == 6.0
    assert derive(lambda v: ext_apply(CATALOG["sqrt"], sub(1, v)), 0.0) == -0.5


def test_derive_domain_failure_raises_not_smooth():
    with pytest.raises(NotSmoothAtPointError):
        derive(partial(ext_apply, CATALOG["ln"]), -1.0)


def test_derive_rejects_wrong_order_residuals():
    def weird(v):
        return add(v, ZERO if v.is_real else dt(2))

    with pytest.raises(NotSmoothAtPointError):
        derive(weird, 0.0)


def test_derive_residual_exactly_zero():
    rng = random.Random(6)
    for name in CATALOG:
        fn = CATALOG[name]
        for _ in range(5):
            r = rng.uniform(0.3, 1.2)
            m = derive(partial(ext_apply, fn), r)
            shifted = ext_apply(fn, add(from_real(r), dt(1)))
            base = ext_apply(fn, from_real(r))
            assert sub(shifted, add(base, mul(from_real(m), dt(1)))) == ZERO


def test_derive_chain_and_product_corpus():
    from fermatreals import as_function, parse

    corpus = [
        ("sin(cos(t))", lambda t: -math.cos(math.cos(t)) * math.sin(t)),
        ("exp(2*t)", lambda t: 2 * math.exp(2 * t)),
        ("t*exp(t)", lambda t: (1 + t) * math.exp(t)),
        ("sin(t)*cos(t)", lambda t: math.cos(2 * t)),
        ("ln(1+t)", lambda t: 1 / (1 + t)),
        ("sqrt(1+t^2)", lambda t: t / math.sqrt(1 + t * t)),
        ("recip(1+t)", lambda t: -1 / (1 + t) ** 2),
        ("tan(t/2)", lambda t: 0.5 / math.cos(t / 2) ** 2),
        ("atan(2*t)", lambda t: 2 / (1 + 4 * t * t)),
        ("t^3 - 2*t + 5", lambda t: 3 * t * t - 2),
        ("exp(sin(t))", lambda t: math.cos(t) * math.exp(math.sin(t))),
        ("ln(exp(t))", lambda t: 1.0),
        ("(1+t)^-2", lambda t: -2 / (1 + t) ** 3),
        ("pow(2, t)", lambda t: math.log(2) * 2**t),
        ("sin(t)/(2+cos(t))", lambda t: (2 * math.cos(t) + 1) / (2 + math.cos(t)) ** 2),
    ]
    rng = random.Random(7)
    assert len(corpus) == 15
    for text, dfn in corpus:
        f = as_function(parse(text))
        for _ in range(4):
            t = rng.uniform(0.1, 0.9)
            got = derive(f, t)
            want = dfn(t)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (text, t)


# -- taylor_multi -------------------------------------------------------------

def _product_partials(j, x):
    # f(u, v) = u*v
    du, dv = j
    if du <= 1 and dv <= 1:
        if du == 1 and dv == 1:
            return 1.0
        if du == 1:
            return x[1]
        if dv == 1:
            return x[0]
        return x[0] * x[1]
    return 0.0


def _sinuv_partials(j, x):
    # f(u, v) = sin(u) * v
    du, dv = j
    if dv == 0:
        return CATALOG["sin"].tower(x[0], du) * x[1]
    if dv == 1:
        return CATALOG["sin"].tower(x[0], du)
    return 0.0


def test_taylor_multi_first_order_pair_vanishes():
    got = taylor_multi(_product_partials, (0.0, 0.0), (dt(1), dt(1)), 1)
    assert got == ZERO


def test_taylor_multi_mixed_orders():
    got = taylor_multi(_product_partials, (0.0, 0.0), (dt(4), dt(2)), 4)
    assert got == mul(dt(4), dt(2)) == dt(F(4, 3))


def test_taylor_multi_rejects_displacements_outside_level():
    with pytest.raises(NotInIdealError):
        taylor_multi(_product_partials, (0.0, 0.0), (dt(4), dt(2)), 2)
    with pytest.raises(ValueError):
        taylor_multi(_product_partials, (0.0,), (dt(2),), True)


def test_second_difference_identity():
    k = dt(2)
    h = dt(4)
    j = dt(4)
    at = (0.0, 0.0)
    f_hk = taylor_multi(_sinuv_partials, at, (h, k), 4)
    f_h0 = taylor_multi(_sinuv_partials, at, (h, ZERO), 4)
    f_0k = taylor_multi(_sinuv_partials, at, (ZERO, k), 4)
    f_00 = taylor_multi(_sinuv_partials, at, (ZERO, ZERO), 4)
    lhs = mul(j, add(sub(sub(f_hk, f_h0), f_0k), f_00))
    rhs = mul(mul(mul(j, k), h), from_real(_sinuv_partials((1, 1), at)))
    assert lhs == rhs == dt(1)


# -- power / log ---------------------------------------------------------------

def test_power_examples():
    helpers.assert_fermat_close(
        power(add(4, dt(1)), 0.5), add(2, mul(0.25, dt(1))), tol=1e-12
    )
    assert power(sub(1, dt(1)), -0.5) == add(1, mul(0.5, dt(1)))
    assert log(from_real(math.e), add(1, dt(1))) == dt(1)


def test_power_matches_pow_nat_on_integer_exponents():
    rng = random.Random(8)
    for _ in range(100):
        x = helpers.rand_fermat(rng, zero_std_prob=0.0)
        if x.std <= 0:
            x = add(sub(x, x.std), abs(x.std) + 1.0)
        n = rng.randint(0, 4)
        helpers.assert_fermat_close(power(x, n), pow_nat(x, n), tol=1e-9)


def test_power_and_log_domain_errors():
    with pytest.raises(DomainError):
        power(dt(2), 0.5)
    with pytest.raises(DomainError):
        power(from_real(-2), 0.5)
    with pytest.raises(DomainError):
        log(from_real(2), neg(dt(1)))
    with pytest.raises(DomainError):
        log(add(1, dt(2)), from_real(2))  # ln(base) not invertible


# -- transfer theorems ----------------------------------------------------------

def _sample_points(rng, lo=0.2, hi=1.4):
    for k in (1, 2, 3):
        r = rng.uniform(lo, hi)
        yield add(from_real(r), dt(k))


def test_transfer_equalities():
    rng = random.Random(9)
    sin, cos, expf, ln = (CATALOG[n] for n in ("sin", "cos", "exp", "ln"))
    for x in _sample_points(rng):
        lhs = add(pow_nat(ext_apply(sin, x), 2), pow_nat(ext_apply(cos, x), 2))
        helpers.assert_fermat_close(lhs, ONE, tol=1e-12)
        helpers.assert_fermat_close(ext_apply(expf, ext_apply(ln, x)), x, tol=1e-12)
        # sin(2t) = 2 sin t cos t
        helpers.assert_fermat_close(
            ext_apply(sin, mul(2, x)),
            mul(2, mul(ext_apply(sin, x), ext_apply(cos, x))),
            tol=1e-12,
        )
    # a witness point separates functions that differ as real functions
    x = add(from_real(0.7), dt(2))
    assert ext_apply(sin, x) != x


def test_transfer_inequalities():
    rng = random.Random(10)
    expf = CATALOG["exp"]
    for x in _sample_points(rng, lo=-0.9, hi=0.9):
        # exp(t) >= 1 + t everywhere on the reals, so also after extension
        assert compare(ext_apply(expf, x), add(1, x)) is not Verdict.LT
        assert compare(pow_nat(x, 2), ZERO) is not Verdict.LT
    # sin t <= t fails on the negative axis: a witness flips the verdict
    sin = CATALOG["sin"]
    pos = add(from_real(0.5), dt(2))
    neg_pt = add(from_real(-0.5), dt(2))
    assert compare(ext_apply(sin, pos), pos) is Verdict.LT
    assert compare(ext_apply(sin, neg_pt), neg_pt) is Verdict.GT


def test_integral_corollary_pairs():
    # F(x + h) - F(x) = h * f(x) exactly for h = dt[1], F' = f
    pairs = [
        ("sin", "cos"),
        ("exp", "exp"),
        ("ln", "recip"),
    ]
    rng = random.Random(11)
    h = dt(1)
    for big, small in pairs:
        Fn, fn = CATALOG[big], CATALOG[small]
        for _ in range(8):
            x = rng.uniform(0.3, 2.0)
            lhs = sub(ext_apply(Fn, add(from_real(x), h)), ext_apply(Fn, from_real(x)))
            rhs = mul(h, from_real(fn.value(x)))
            assert lhs == rhs


# -- parametrized polynomials -----------------------------------------------------

def test_param_poly_wave_snapshot():
    omega = 2.0
    u = ParamPoly(
        params=[dt(2)],
        entries=[((1,), lambda x, t: ext_apply(CATALOG["sin"], add(x, mul(omega, t))))],
        level=2,
    )
    assert eval_param_poly(u, 0.0, 0.0) == ZERO
    assert eval_param_poly(u, math.pi / 2, 0.0) == dt(2)


def test_param_poly_empty_parameters_reduce_to_ext():
    p = ParamPoly(
        params=[],
        entries=[((), lambda x: ext_apply(CATALOG["exp"], x))],
        level=0,
    )
    x = add(1, dt(2))
    assert eval_param_poly(p, x) == ext_apply(CATALOG["exp"], x)


def test_param_poly_root_splitting_identity():
    # exp((r1 + h)t) = exp(r1 t) + h t exp(r1 t) for square-zero h
    r1 = 1.0
    h = dt(1)
    p = ParamPoly(
        params=[h],
        entries=[
            ((0,), lambda t: ext_apply(CATALOG["exp"], mul(r1, t))),
            ((1,), lambda t: mul(t, ext_apply(CATALOG["exp"], mul(r1, t)))),
        ],
        level=1,
    )
    t = 2.0
    via_poly = eval_param_poly(p, from_real(t))
    direct = ext_apply(CATALOG["exp"], mul(add(from_real(r1), h), from_real(t)))
    assert via_poly == direct == add(
        from_real(math.exp(2.0)), mul(from_real(2 * math.exp(2.0)), dt(1))
    )


def test_param_poly_validation():
    assert issubclass(NotInIdealError, ValueError)
    with pytest.raises(NotInIdealError):
        ParamPoly(params=[add(1, dt(2))], entries=[], level=2)
    with pytest.raises(NotInIdealError):
        ParamPoly(params=[dt(4)], entries=[], level=2)  # order 4 not at level 2
    with pytest.raises(ValueError):
        ParamPoly(params=[dt(1)], entries=[((2,), lambda: 0)], level=1)
    with pytest.raises(ValueError):
        ParamPoly(params=[dt(2)], entries=[], level=2.9)
    with pytest.raises(ValueError):
        ParamPoly(params=[dt(2)], entries=[((1.5,), lambda: 0)], level=2)


# -- regressions from worked identities -------------------------------------------

def test_dipole_expansion():
    # (1 + s)^(-1/2) = 1 - s/2 for a first-order s
    s = dt(1)
    assert power(add(1, s), -0.5) == sub(1, mul(0.5, s))


def test_newtonian_limit_identities():
    v = dt(2)
    lhs = power(sub(1, mul(v, v)), -0.5)
    assert lhs == add(1, mul(0.5, mul(v, v)))
    h44 = dt(1)
    assert ext_apply(CATALOG["sqrt"], sub(1, h44)) == sub(1, mul(0.5, h44))


def _cos_cubed(h):
    return pow_nat(ext_apply(CATALOG["cos"], h), 3)


def test_wave_lemma_cos_cubed_threshold():
    m = ONE
    for spec_order, holds in ((F(4), True), (F(2), True), (F(9, 2), False)):
        h = dt(spec_order)
        assert eq_up_to(mul(m, _cos_cubed(h)), m, 2) == holds


def test_wave_lemma_difference_of_equal_up_to_2():
    # f =_2 g pointwise forces equal first-order increments
    h = dt(1)
    sin = CATALOG["sin"]
    expf = CATALOG["exp"]
    corpus = [
        (
            ParamPoly([dt(2)], [((0,), partial(ext_apply, sin)),
                                ((1,), lambda x: x)], 2),
            ParamPoly([dt(2)], [((0,), partial(ext_apply, sin))], 2),
        ),
        (
            ParamPoly([dt("3/2")], [((0,), partial(ext_apply, expf)),
                                    ((1,), partial(ext_apply, expf))], 2),
            ParamPoly([dt("3/2")], [((0,), partial(ext_apply, expf))], 2),
        ),
        (
            ParamPoly([dt(2)], [((0,), lambda x: mul(x, x)),
                                ((1,), lambda x: add(x, 1))], 2),
            ParamPoly([dt(2)], [((0,), lambda x: mul(x, x))], 2),
        ),
    ]
    for f, g in corpus:
        for r in (0.0, 0.5, 1.3):
            x = from_real(r)
            assert eq_up_to(eval_param_poly(f, x), eval_param_poly(g, x), 2)
            df = sub(eval_param_poly(f, add(x, h)), eval_param_poly(f, x))
            dg = sub(eval_param_poly(g, add(x, h)), eval_param_poly(g, x))
            assert df == dg
