from __future__ import annotations

import contextlib
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction as F
from functools import lru_cache, partial, reduce

import pytest

from fermatreals import (
    CATALOG,
    ONE,
    ElementaryFn,
    ParamPoly,
    ZERO,
    Verdict,
    add,
    cancellation_order,
    canonicalize,
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
    order,
    pow_const,
    pow_nat,
    power,
    product_power_order,
    product_power_zero,
    sub,
    taylor_multi,
)
from fermatreals import calculus, core
from fermatreals.errors import (
    DomainError,
    FermatError,
    NoFiniteOrderError,
    NonFiniteError,
    NotInIdealError,
    NotSmoothAtPointError,
    ProductIsZeroError,
)

import helpers


# -- Taylor-coefficient towers -----------------------------------------------

def _coefficients(f, r, n):
    """The first n Taylor coefficients of f at r: its tower to index n - 1."""
    got = f.tower(r, n - 1)
    assert len(got) == n
    return got


def test_tower_cycles_against_finite_differences():
    # a_{i+1} = a_i' / (i + 1); compared in derivative units f_i = a_i * i!
    rng = random.Random(1)
    for name in ("exp", "ln", "sin", "cos", "tan", "atan", "sqrt", "recip"):
        fn = CATALOG[name]
        for _ in range(10):
            r = rng.uniform(0.3, 2.0)
            for i in range(4):
                want = helpers.fd_central(
                    lambda v: _coefficients(fn, v, i + 1)[i] * math.factorial(i), r)
                got = _coefficients(fn, r, i + 2)[i + 1] * math.factorial(i + 1)
                assert abs(got - want) <= 1e-4 * max(1.0, abs(got))


def test_ln_and_recip_towers_exact_to_high_order():
    for i in (1, 2, 5, 10, 33, 64, 171, 400):
        for r in (0.5, 2.0, 3.0):
            rq = F(r)
            want_ln = float(F((-1) ** (i - 1) * math.factorial(i - 1)) / rq**i / math.factorial(i))
            want_recip = float(F((-1) ** i * math.factorial(i)) / rq ** (i + 1) / math.factorial(i))
            assert _coefficients(CATALOG["ln"], r, i + 1)[i] == want_ln
            assert _coefficients(CATALOG["recip"], r, i + 1)[i] == want_recip


def test_tan_tower_known_values():
    # derivatives of tan at 0 follow the tangent numbers
    at_zero = [0, 1, 0, 2, 0, 16, 0, 272, 0, 7936, 0, 353792, 0, 22368256]
    got = _coefficients(CATALOG["tan"], 0.0, len(at_zero))
    assert got == [float(F(want, math.factorial(i))) for i, want in enumerate(at_zero)]
    # at tan(r) = 1 the derivatives are 2, 4, 16, 80, 512, ...; the float
    # tan(atan(1)) is 1 - 2**-53, and the stream is exact there
    r = math.atan(1.0)
    got = _coefficients(CATALOG["tan"], r, 6)
    for i, want in enumerate([2, 4, 16, 80, 512], start=1):
        assert sum(helpers.tan_poly(i)) == want
        assert got[i] == helpers.taylor_coefficient(helpers.fraction_tan_tower, r, i)
        assert abs(got[i] - want / math.factorial(i)) <= 1e-14 * got[i]


def test_atan_tower_known_values():
    # odd derivatives at 0 alternate as (-1)**k * (2k)!; even ones vanish
    got = _coefficients(CATALOG["atan"], 0.0, 14)
    for k in range(7):
        n = 2 * k + 1
        assert got[n] == float(F((-1) ** k * math.factorial(2 * k), math.factorial(n)))
        if k:
            assert got[2 * k] == 0.0
    assert len(helpers.atan_poly(64)) == 64  # degree i - 1


def test_sqrt_and_pow_towers_match_falling_factorials():
    rng = random.Random(2)
    p = pow_const(0.5)
    recip, square = pow_const(-1.0), pow_const(2.0)
    for _ in range(20):
        r = rng.uniform(0.2, 4.0)
        # the two differ only in value(r): math.sqrt against r**0.5
        for a, b in zip(_coefficients(CATALOG["sqrt"], r, 6)[1:], _coefficients(p, r, 6)[1:]):
            assert abs(a - b) <= 1e-12 * abs(a)
        assert _coefficients(recip, r, 65) == _coefficients(CATALOG["recip"], r, 65)
        exact = [F(r) ** 2, 2 * F(r), F(1)] + [F(0)] * 62
        assert _coefficients(square, r, 65) == [float(a) for a in exact]


_ERRORS = (OverflowError, ValueError, ZeroDivisionError)


def _outcome(fn):
    """fn()'s value by its repr (so -0.0, nan and inf count), or the kind
    of error it raised."""
    try:
        return repr(fn())
    except _ERRORS as exc:
        return next(kind for kind in _ERRORS if isinstance(exc, kind))


def test_integer_towers_equal_their_fraction_forms():
    # Each tower runs on integers; bit for bit and error for error its a_i
    # is the Fraction form of f_i(r) divided by i! and rounded once, from the
    # smallest subnormal to the largest float, negative r, 0 and nan
    # included.  The list stops at the first error: an overflow is
    # NonFiniteError naming that index, any other error is raised as it is.
    rng = random.Random(41)
    rs = [5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-10, 0.3, 0.5, 1.0,
          2.0, 1e10, 1e300, 1.7976931348623157e308, 0.0, math.nan]
    rs += [rng.uniform(0.01, 10.0) for _ in range(10)]
    rs += [math.ldexp(rng.random(), rng.randint(-1074, 1023)) for _ in range(10)]
    rs += [-r for r in rs]
    fns = [(f, partial(helpers.fraction_tower, f.name)) for f in CATALOG.values()]
    for c in (0.5, -1.0, 2.0, -3.0, 2.5, -0.75, 7.0, 1e20, 1 / 3):
        ref = partial(helpers.fraction_power_tower, F(c), lambda r, e=c: math.pow(r, e))
        fns.append((pow_const(c), ref))
    overflows = 0
    for f, ref in fns:
        for r in rs:
            want = [_outcome(lambda: helpers.taylor_coefficient(ref, r, i)) for i in range(25)]
            bad = next((i for i, w in enumerate(want) if not isinstance(w, str)), None)
            if bad is None:
                assert list(map(repr, f.tower(r, 24))) == want, (f.name, r)
            elif want[bad] is OverflowError:
                overflows += 1
                with pytest.raises(NonFiniteError) as err:
                    f.tower(r, 24)
                assert str(err.value) == (f"{f.name}: Taylor coefficient {bad} at {r:g} "
                                          "has no finite binary64 value"), (f.name, r)
            else:
                with pytest.raises(want[bad]):
                    f.tower(r, 24)
            if bad is not None and bad:  # the list up to the first error
                assert list(map(repr, f.tower(r, bad - 1))) == want[:bad], (f.name, r)
    assert overflows > 50


def _exponent(r: float) -> int:
    """e with 2**e <= |r| < 2**(e+1) (-1 at 0 and nan, as math.frexp reads them)."""
    return math.frexp(r)[1] - 1


# The towers that take a scale exponent e, with their Fraction forms.
_SCALED = [(CATALOG[name], partial(helpers.fraction_tower, name))
           for name in ("ln", "sqrt", "recip", "atan")]


def _pow_fraction_form(c):
    return partial(helpers.fraction_power_tower, F(c), lambda r, e=c: math.pow(r, e))


def test_scaled_towers_equal_their_scaled_fraction_forms():
    # tower(r, n, e) gives b_i = a_i * 2**(e*i): bit for bit and error for
    # error the Fraction form times 2**(e*i), rounded once, over the same r
    # grid as the unscaled towers, with e the exponent of r (the scale
    # ext_apply nears) and e = 5 (one far from it).  A scaled tower raises
    # only where b_i itself is past binary64, which at e = exponent(r) is
    # seldom where a_i is.
    rng = random.Random(41)
    rs = [5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-10, 0.3, 0.5, 1.0,
          2.0, 1e10, 1e300, 1.7976931348623157e308, 0.0, math.nan]
    rs += [rng.uniform(0.01, 10.0) for _ in range(10)]
    rs += [math.ldexp(rng.random(), rng.randint(-1074, 1023)) for _ in range(10)]
    rs += [-r for r in rs]
    fns = _SCALED + [(pow_const(c), _pow_fraction_form(c))
                     for c in (0.5, -1.0, 2.0, -3.0, 2.5, -0.75, 7.0, 1e20, 1 / 3)]
    overflows = rescued = 0
    for f, ref in fns:
        ref = lru_cache(maxsize=None)(ref)  # one Fraction form per (r, i), both e
        for r in rs:
            for e in (_exponent(r), 5):
                want = [_outcome(lambda: helpers.taylor_coefficient(ref, r, i, e))
                        for i in range(25)]
                bad = next((i for i, w in enumerate(want) if not isinstance(w, str)), None)
                if bad is None:
                    assert list(map(repr, f.tower(r, 24, e))) == want, (f.name, r, e)
                    try:
                        f.tower(r, 24)
                    except NonFiniteError:
                        rescued += 1
                elif want[bad] is OverflowError:
                    overflows += 1
                    with pytest.raises(NonFiniteError) as err:
                        f.tower(r, 24, e)
                    assert str(err.value) == (f"{f.name}: Taylor coefficient {bad} at {r:g} "
                                              "has no finite binary64 value"), (f.name, r, e)
                else:
                    with pytest.raises(want[bad]):
                        f.tower(r, 24, e)
                if bad:  # the list up to the first error
                    assert list(map(repr, f.tower(r, bad - 1, e))) == want[:bad], (f.name, r)
    assert overflows > 20 and rescued > 50, (overflows, rescued)


def test_kernel_equals_mul_and_one_canonicalize():
    # The kernel builds powers and monomials as dicts on one lattice; they
    # must equal powers by mul, monomials folded by mul and every product
    # merged in one canonicalize, bit for bit.
    rng = random.Random(42)
    for _ in range(20):
        params = rng.sample(_kernel_params(rng), rng.randint(2, 3))
        entries = [(q, helpers.rand_coeff(rng)) for q in _kernel_entries(rng, params, 12)]
        thunks = [(q, lambda c=c: c) for q, c in entries]
        assert eval_param_poly(ParamPoly(params, thunks, 12)) == helpers.mul_poly(params, entries)
    for _ in range(40):
        h = reduce(add, rng.sample(_kernel_params(rng), 3))
        x = add(rng.uniform(0.3, 1.2), h)
        n = math.floor(order(h)) if h.ks else 0
        for f in CATALOG.values():
            tower = partial(helpers.fraction_tower, f.name)
            coeffs = [helpers.taylor_coefficient(tower, x.std, i) for i in range(n + 1)]
            want = helpers.mul_poly([h], [((i,), c) for i, c in enumerate(coeffs)])
            assert ext_apply(f, x) == want, (f.name, x)
        u = canonicalize(0.0, [(t.coeff / x.std, t.exp) for t in x.terms])
        s = 1.0 / x.std
        assert invert(x) == helpers.mul_poly([u], [((i,), -s if i % 2 else s) for i in range(n + 1)])


def test_taylor_kernel_equals_mul_on_mixed_lattices():
    # h of 1 to 8 terms with exponents over denominators 1..8 (den up to
    # 840) and depth floor(order(h)) up to 12: every catalog extension and
    # invert equal h's powers by mul and one canonicalize, bit for bit
    rng = random.Random(43)
    pool = sorted({F(p, q) for q in (1, 2, 3, 4, 5, 6, 7, 8, 10, 12) for p in range(1, q + 1)})
    dens = set()
    for _ in range(60):
        lead = F(1, rng.choice((1, 2, 3, 4, 5, 6, 7, 8, 10, 12)))
        above = [e for e in pool if e > lead]
        rest = rng.sample(above, min(len(above), rng.randint(0, 7)))
        h = canonicalize(0.0, [(helpers.rand_coeff(rng), e) for e in [lead] + rest])
        x = add(rng.uniform(0.3, 1.2), h)
        n = math.floor(order(h))
        dens.add(x.den)
        assert n <= 12 and len(x.ks) <= 8
        for f in CATALOG.values():
            tower = partial(helpers.fraction_tower, f.name)
            coeffs = [helpers.taylor_coefficient(tower, x.std, i) for i in range(n + 1)]
            want = helpers.mul_poly([h], [((i,), c) for i, c in enumerate(coeffs)])
            assert ext_apply(f, x) == want, (f.name, x)
        u = canonicalize(0.0, [(t.coeff / x.std, t.exp) for t in x.terms])
        s = 1.0 / x.std
        series = [((i,), -s if i % 2 else s) for i in range(n + 1)]
        assert invert(x) == helpers.mul_poly([u], series)
    assert max(dens) == 840 and min(dens) == 1


class _Requests:
    """A coefficient tower that logs each request ``(r, n)`` and answers
    with the first n + 1 of ``values``, or of 0.5, -0.25, 0.5, ..."""

    def __init__(self, log=None, values=None):
        self.log = [] if log is None else log
        self.values = values

    def __call__(self, r, n):
        self.log.append((r, n))
        if self.values is not None:
            return self.values[:n + 1]
        return [0.5 if i % 2 == 0 else -0.25 for i in range(n + 1)]


def test_taylor_kernel_reads_n_plus_1_coefficients_after_every_power(monkeypatch):
    # one request, for a_0 .. a_N, once the table h**0 .. h**N is built
    rng = random.Random(44)
    log = []
    powers = core._powers

    def logged(*args):
        table = powers(*args)
        log.append(len(table))
        return table

    monkeypatch.setattr(core, "_powers", logged)
    for _ in range(40):
        x = add(rng.choice((1.0, -0.5, 3.0)), helpers.rand_infinitesimal(rng, 1, 4))
        log.clear()
        core._taylor(x, _Requests(log))
        n = x.den // x.ks[0]
        assert log == [n + 1, (x.std, n)] and n == math.floor(order(x - x.std))
    monkeypatch.undo()
    tower = _Requests()
    assert core._taylor(from_real(2.0), tower) == from_real(0.5)
    assert tower.log == [(2.0, 0)]
    # fsum's answer hangs on the order of its addends only at overflow: the
    # bucket of dt[1] gets a_1*h, a_2*h**2, a_3*h**3 = 1e308, 1e308, -1e308
    # in that order, as in one canonicalize, so it overflows on the way
    x = add(1.0, add(dt(3), add(mul(0.5, dt("3/2")), dt(1))))
    a = [1.0, 1e308, 1e308, -1e308]
    series = [((i,), c) for i, c in enumerate(a)]
    tower = _Requests(values=a)
    with pytest.raises(NonFiniteError, match=r"^coefficient of dt\[1\] has no finite") as err:
        core._taylor(x, tower)
    assert tower.log == [(1.0, 3)]
    with pytest.raises(NonFiniteError) as want:
        helpers.mul_poly([x - 1.0], series)
    assert str(err.value) == str(want.value)
    a[2:] = a[3:1:-1]  # 1e308, -1e308, 1e308 sums to 1e308
    series = [((i,), c) for i, c in enumerate(a)]
    tower = _Requests(values=a)
    assert core._taylor(x, tower) == helpers.mul_poly([x - 1.0], series)
    assert tower.log == [(1.0, 3)]
    # h**2 has 2e308*dt[4/3], past binary64: that error comes before the
    # coefficients are asked for, so before exp's own at 1000
    x = add(1000.0, mul(1e154, add(dt(4), dt(2))))
    tower = _Requests()
    with pytest.raises(NonFiniteError, match=r"^coefficient of dt\[4/3\] has no finite"):
        core._taylor(x, tower)
    assert tower.log == []
    with pytest.raises(NonFiniteError, match=r"^coefficient of dt\[4/3\] has no finite"):
        ext_apply(CATALOG["exp"], x)
    with pytest.raises(NonFiniteError, match="^exp: Taylor coefficient 0 at 1000 has no finite"):
        ext_apply(CATALOG["exp"], add(1000.0, dt(3)))


def test_taylor_coefficients_past_a_binary64_derivative():
    # From i = 171 on f_i(r) passes binary64 but a_i = f_i(r) / i! does not.
    # At a power-of-two standard part every recip coefficient
    # (-1)**i / r**(i+1) is exact, as are invert's h / r and 1 / r, so the
    # two are equal bit for bit.
    x = add(1, dt(200))
    got, want = ext_apply(CATALOG["recip"], x), invert(x)
    assert got.ks == want.ks == tuple(range(1, 201))
    for r in (1.0, -1.0, 2.0, -0.5, 0.25):
        for depth in (40, 200):
            for h in (dt(depth), add(dt(depth), mul(-3, dt(7)))):
                x = add(r, h)
                assert ext_apply(CATALOG["recip"], x) == invert(x), (r, depth, h)
    half = F(1, 2)
    exact = {
        # at r = 1/2 the float sqrt(r) scales the exact part, (1/2)_i / r**i
        "sqrt": (0.5, [math.prod([half - k for k in range(i)], start=F(1)) / math.factorial(i)
                       * F(math.sqrt(0.5)) / half**i for i in range(201)]),
        "ln": (1.0, [F(0)] + [F((-1) ** (i - 1), i) for i in range(1, 201)]),
        "atan": (0.5, [F(math.atan(0.5))] + [
            sum(c * half**k for k, c in enumerate(helpers.atan_poly(i)))
            / (1 + half * half) ** i / math.factorial(i) for i in range(1, 201)]),
    }
    for name, (r, coeffs) in exact.items():
        x = add(r, dt(200))
        got = ext_apply(CATALOG[name], x)
        assert len(got.ks) == 200, name
        assert helpers.series_error(got, helpers.oracle_series(coeffs, x)) <= 1e-15, name


def test_exp_series_forms_no_factorial(monkeypatch):
    # exp, sin and cos divide f(r) by a running i!, so a depth of 2000 forms
    # no factorial; from i = 178 on e / i! is below 2**-1075, a zero
    calls = []
    factorial = math.factorial
    monkeypatch.setattr(math, "factorial", lambda n: calls.append(n) or factorial(n))
    x = add(1, add(dt(2000), dt(3)))
    got = ext_apply(CATALOG["exp"], x)
    monkeypatch.undo()
    assert calls == []
    coeffs = [float(F(math.e) / math.factorial(i)) for i in range(178)]
    assert coeffs[-1] > 0.0 == float(F(math.e) / math.factorial(178))
    assert got == helpers.mul_poly([sub(x, 1)], [((i,), c) for i, c in enumerate(coeffs)])
    # i! stops growing past 2**2200, and every coefficient keeps its bits
    for name in ("exp", "sin", "cos"):
        for r in (1.0, -2.5, 700.0, 1e-300):
            want = [repr(helpers.taylor_coefficient(partial(helpers.fraction_tower, name), r, i))
                    for i in range(400)]
            assert list(map(repr, _coefficients(CATALOG[name], r, 400))) == want, (name, r)
    # taylor_multi's quotient keeps the value's sign down to a zero; an
    # infinite value is an error
    assert calculus._taylor_coeff(1e308, (200,), "f", (0.0,)) == float(F(1e308) / math.factorial(200))
    assert math.copysign(1.0, calculus._taylor_coeff(-1e308, (400,), "f", (0.0,))) == -1.0
    assert math.copysign(1.0, calculus._taylor_coeff(0.0, (400,), "f", (0.0,))) == 1.0
    with pytest.raises(NonFiniteError, match="f: Taylor coefficient 400 at 0 has"):
        calculus._taylor_coeff(-math.inf, (400,), "f", (0.0,))


def test_deep_power_and_atan_series_are_fast():
    # one integer step per coefficient: depth 3000 took seconds when each
    # coefficient rebuilt its falling factorial or its power (n + d*1j)**i
    for name, r in (("recip", 1.0), ("sqrt", 1.0), ("ln", 1.0), ("atan", 0.5), ("recip", 0.5)):
        start = time.perf_counter()
        try:
            got = len(ext_apply(CATALOG[name], add(r, dt(3000))).ks)
        except NonFiniteError as exc:  # 2**1024 at coefficient 1023 of recip(0.5)
            got = str(exc)
        assert time.perf_counter() - start < 1.0, (name, r)
        assert got == (3000 if (name, r) != ("recip", 0.5) else
                       "recip: Taylor coefficient 1023 at 0.5 has no finite binary64 value")


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


def test_extensions_at_extreme_standard_parts_answer():
    # h = r*dt[3]: h**2 and h**3 leave binary64 at r = 1e200, and a_2, a_3
    # do at r = 1e-200; u = h/s with s near r keeps both in it.  Every
    # coefficient of these answers is near 1e-100, 1e100, 1e-200, 1e200 or 1.
    far = [(f, form, r) for r in (1e-200, 1e200) for f, form in _SCALED[:3]]
    far += [(pow_const(0.5), _pow_fraction_form(0.5), 1e-200), (*_SCALED[3], 1e200)]
    for f, form, r in far:
        x = add(r, mul(r, dt(3)))
        coeffs = [form(r, i) / math.factorial(i) for i in range(4)]
        got = ext_apply(f, x)
        assert len(got.ks) == 3, (f.name, r, got)
        assert helpers.series_error(got, helpers.oracle_series(coeffs, x)) <= 1e-15, (f.name, r)
    # pow(x, 0.5) of the expression language is exp(0.5 * ln(x)), whose
    # exp amplifies ln's rounding at 1e-200 by |ln x| / 2, about 230
    x = add(1e-200, mul(1e-200, dt(3)))
    coeffs = [helpers.fraction_tower("sqrt", 1e-200, i) / math.factorial(i) for i in range(4)]
    ref = helpers.oracle_series(coeffs, x)
    assert helpers.series_error(power(x, from_real(0.5)), ref) <= 1e-13


def test_extensions_at_the_largest_float_answer():
    # log2 of the largest float rounds to 1024, one past the largest scale
    # 2**1023: the scale's exponent is cut from frexp, so these answer
    top = 1.7976931348623157e308
    x = add(top, mul(top, dt(5)))
    for f, form in _SCALED + [(pow_const(0.5), _pow_fraction_form(0.5))]:
        coeffs = [form(top, i) / math.factorial(i) for i in range(6)]
        ref = helpers.oracle_series(coeffs, x)
        assert helpers.series_error(ext_apply(f, x), ref, floor=2.0**-1068) <= 1e-15, f.name
    # pow(x, 0.5) is exp(0.5 * ln(x)), whose exp amplifies ln's rounding by |ln x| / 2
    coeffs = [helpers.fraction_tower("sqrt", top, i) / math.factorial(i) for i in range(6)]
    assert helpers.series_error(power(x, from_real(0.5)), helpers.oracle_series(coeffs, x)) <= 1e-13
    x = mul(top, add(-1.0, dt(5)))
    coeffs = [helpers.fraction_tower("atan", -top, i) / math.factorial(i) for i in range(6)]
    got = ext_apply(CATALOG["atan"], x)
    assert helpers.series_error(got, helpers.oracle_series(coeffs, x), floor=2.0**-1068) <= 1e-15


def test_scaled_extensions_equal_the_unscaled_sum_at_every_magnitude():
    # standard parts across binary64 and h = r*c*dt[b]: each extension
    # agrees with the exact series (up to 64 subnormal steps where a true
    # coefficient is that small), and wherever the unscaled tower summed on
    # h's own powers stays in normal binary64, it equals that bit for bit;
    # also at the largest floats, with h's coefficient as large
    rng = random.Random(46)
    fns = _SCALED + [(pow_const(c), _pow_fraction_form(c)) for c in (0.5, -1.5, 1 / 3)]
    compared = answered = 0
    draws = [(math.ldexp(rng.uniform(1.0, 2.0), rng.randint(-1000, 1000)), rng.uniform(-2.0, 2.0),
              F(rng.randint(2, 12), 2)) for _ in range(150)]
    draws += [(r, c, F(5)) for r in (1.7976931348623157e308, -1.7976931348623157e308)
              for c in (1.0, -1.0)]
    for r, c, b in draws:
        h = mul(r * c, dt(b))
        x, n = add(r, h), math.floor(b)
        for f, form in fns:
            if not f.domain(r):
                continue
            try:  # OverflowError where an exact coefficient is past binary64
                coeffs = [form(r, i) / math.factorial(i) for i in range(n + 1)]
                ref = helpers.oracle_series(coeffs, x)
                [float(v) for v, _ in ref.values()]
            except OverflowError:
                with pytest.raises(NonFiniteError):
                    ext_apply(f, x)
                continue
            got = ext_apply(f, x)
            answered += 1
            assert helpers.series_error(got, ref, floor=2.0**-1068) <= 1e-15, (f.name, x)
            try:
                a = f.tower(r, n)
                terms = [abs(t) for i in range(1, n + 1)
                         for t in (a[i], (r * c) ** i, a[i] * (r * c) ** i)]
            except (NonFiniteError, OverflowError):
                continue
            if all(2.2250738585072014e-308 <= t < math.inf for t in terms):
                compared += 1
                want = helpers.mul_poly([h], [((i,), ai) for i, ai in enumerate(a)])
                assert got == want, (f.name, x)
    assert compared > 100 and answered > 2 * compared, (compared, answered)
    # h of two or three terms far apart: the scale is cut so that h's
    # smallest coefficient keeps its bits in u's powers, so wherever the
    # unscaled kernel answers, this answers no further from the exact series,
    # and bit for bit wherever that kernel's factors stay normal binary64
    compared = judged = 0
    for _ in range(60):  # exponents: far below r, near it, or where c*a_1 is normal and c/r is not
        mode = rng.randrange(3)
        k = rng.randint(*[(-1000, 1000), (-150, 150), (100, 500)][mode])
        low = [(k - 1100, k), (k - 300, k), (k // 2 - 1022, k - 1022)][mode]
        r = math.ldexp(rng.uniform(1.0, 2.0), k)
        cs = [r * rng.uniform(-2.0, 2.0)] + [
            math.ldexp(rng.choice((-1, 1)) * rng.uniform(1.0, 2.0), max(rng.randint(*low), -1070))
            for _ in range(rng.randint(1, 2))]
        x = reduce(add, [mul(c, dt(F(b, 2))) for c, b in zip(cs, rng.sample(range(2, 13), len(cs)))], r)
        n, lo, hi = x.den // x.ks[0], min(map(abs, cs)), max(map(abs, cs))
        # every product of i <= n coefficients of h lies in [lo**i, hi**i]
        powers = [(math.prod([lo] * i), math.prod([hi] * i)) for i in range(n + 1)]
        for f, form in fns:
            try:
                want = core._taylor(x, f.tower)
            except NonFiniteError:
                with contextlib.suppress(NonFiniteError):  # it may answer
                    ext_apply(f, x)
                continue
            got, a = ext_apply(f, x), f.tower(r, n)
            if all(2.2250738585072014e-308 <= abs(t) < math.inf for i in range(1, n + 1)
                   for t in (a[i], *powers[i], a[i] * powers[i][0], a[i] * powers[i][1])):
                compared += 1
                assert got == want, (f.name, x)
            else:
                judged += 1
                ref = helpers.oracle_series([form(r, i) / math.factorial(i) for i in range(n + 1)], x)
                err = helpers.series_error(got, ref, floor=2.0**-1068)
                assert err <= max(helpers.series_error(want, ref, floor=2.0**-1068), 1e-15), (f.name, x)
    assert compared > 60 and judged > 60, (compared, judged)
    # sqrt and pow_const(2) with a dt[3] term far below the rest: the unscaled
    # kernel's answers, where a scale of 2**332 or 2**66 would have flushed
    # that term in u, or kept 10 of its bits; and one that it cannot give,
    # as h**2 overflows, with the dt[3/2] term kept
    (sqrt, sqrt_form), two = _SCALED[1], (pow_const(2.0), _pow_fraction_form(2.0))
    for (f, form), (r, c3), text in (
            ((sqrt, sqrt_form), (1e100, 1e-250),
             "1e+50 + 5e-301*dt[3] + 5e+49*dt[2] - 2.5e-301*dt[6/5] - 1.25e+49*dt[1]"),
            (two, (1e20, 1e-305), "1e+40 + 2e-285*dt[3] + 2e+40*dt[2] + 2e-285*dt[6/5] + 1e+40*dt[1]"),
            ((sqrt, sqrt_form), (1e100, 1e-220),
             "1e+50 + 5e-271*dt[3] + 5e+49*dt[2] - 2.5e-271*dt[6/5] - 1.25e+49*dt[1]"),
            ((sqrt, sqrt_form), (2.0**600, 1.1), None)):
        x = add(add(r, mul(r, dt(2))), mul(c3, dt(3)))
        got = ext_apply(f, x)
        coeffs = [form(r, i) / math.factorial(i) for i in range(4)]
        ref = helpers.oracle_series(coeffs, x)
        assert helpers.series_error(got, ref, floor=2.0**-1068) <= 1e-15, (f.name, r, c3)
        assert len(got.ks) == 4 + (text is None), got
        if text:
            assert (str(got), got) == (text, core._taylor(x, f.tower)), (f.name, r, c3)


def test_scaling_keeps_deep_series_that_answer_unscaled():
    # s moves u and the a_i toward 1 and never past it, so a deep series
    # whose unscaled powers and coefficients stay in binary64 keeps its bits:
    # a power of two at or below 0.8 would make u = 1.6, whose 1500th power
    # overflows, and one at or above 1.1 would make u = 0.55, whose 1300th
    # power is below the subnormals
    fns = [f for f, _ in _SCALED] + [pow_const(2.0), pow_const(-1.5)]
    for r, c, n in ((0.9, 0.8, 1600), (1.1, 1.1, 1600), (3.0, -2.5, 500), (2**-20, -0.7 * 2**-20, 40)):
        x = add(r, mul(c, dt(n)))
        for f in fns:
            assert ext_apply(f, x) == core._taylor(x, f.tower), (f.name, r, c)


def test_a_user_function_runs_on_its_own_tower_unscaled():
    # a user's ElementaryFn is asked for tower(r, n) alone and runs on s = 1,
    # with a catalog function's domain or with a domain that returns a
    # number; only a tower that carries a bound is asked for tower(r, n, e)
    sqrt, asked = CATALOG["sqrt"], []

    def user(r, n):
        asked.append(n)
        return sqrt.tower(r, n)

    fns = [ElementaryFn("s", user, sqrt.domain, sqrt.domain_desc),
           ElementaryFn("t", user, lambda r: abs(r), sqrt.domain_desc)]
    for r, c in ((4.0, 1.0), (1e10, 1e10), (2.0**-600, 2.0**-600)):
        x = add(r, mul(c, dt(2)))
        assert [ext_apply(f, x) for f in fns] == [core._taylor(x, sqrt.tower)] * 2, r
    assert asked == [2] * 6
    x = add(1e-200, mul(1e-200, dt(3)))  # a_3 is past binary64; u = h/s keeps it
    for f in fns:
        with pytest.raises(NonFiniteError, match="^sqrt: Taylor coefficient 3 at 1e-200 "):
            ext_apply(f, x)
    assert len(ext_apply(sqrt, x).ks) == len(ext_apply(fns[0]._replace(tower=sqrt.tower), x).ks) == 3


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
    # a single residual term of another order: dt[b] for an integer b is
    # stored with exponent numerator 1, like dt[1], on the lattice den = b
    for residual in (dt(2), dt(3), mul(5, dt(2)), dt("3/2")):
        with pytest.raises(NotSmoothAtPointError):
            derive(lambda v, r=residual: ZERO if v.is_real else r, 0.0)


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
        return helpers.sin_derivative(du, x[0]) * x[1]
    if dv == 1:
        return helpers.sin_derivative(du, x[0])
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


# -- the polynomial kernel ---------------------------------------------------------

def _kernel_params(rng):
    """Parameters of leading orders 21/10, 9/2 and 12, some with lower-order
    terms, and one or two zeros, in a random order."""
    params = [ZERO] * rng.randint(1, 2)
    for b in (F(21, 10), F(9, 2), F(12)):
        lower = [e for e in helpers.EXP_POOL if e > 1 / b]
        lower = rng.sample(lower, rng.randint(0, 2))
        params.append(canonicalize(
            0.0, [(helpers.rand_coeff(rng), e) for e in [1 / b] + lower]))
    rng.shuffle(params)
    return params


def _kernel_entries(rng, params, level):
    """Multi-indices around each parameter's nilpotency index, so about half
    vanish, a few of them repeated."""
    qs = []
    while len(qs) < 150:
        q = tuple(rng.randint(0, math.floor(order(h)) + 1) for h in params)
        if sum(q) <= level:
            qs.append(q)
    return qs + rng.sample(qs, 15)


def test_poly_kernel_calls_exactly_the_surviving_coefficients():
    rng = random.Random(21)
    for _ in range(8):
        params = _kernel_params(rng)
        qs = _kernel_entries(rng, params, 12)
        coeffs = [helpers.rand_fermat(rng) if rng.random() < 0.2
                  else helpers.rand_coeff(rng) for _ in qs]
        calls = []

        def coeff(i):
            calls.append(i)
            return coeffs[i]

        entries = [(q, partial(coeff, i)) for i, q in enumerate(qs)]
        got = eval_param_poly(ParamPoly(params, entries, 12))
        survivors = []
        for i, q in enumerate(qs):
            used = [(h, k) for h, k in zip(params, q) if k]
            if any(h == ZERO for h, _ in used) or (used and product_power_zero(
                    [order(h) for h, _ in used], [k for _, k in used])):
                continue
            survivors.append(i)
        assert calls == survivors
        assert 0 < len(survivors) < len(qs)
        ref = helpers.oracle_poly(params, [(q, coeffs[i]) for i, q in enumerate(qs)])
        assert helpers.series_error(got, ref) <= 1e-14, got


def test_taylor_multi_matches_exact_multivariate_oracle():
    rng = random.Random(22)
    for _ in range(40):
        hs = [helpers.rand_infinitesimal(rng) for _ in range(rng.randint(1, 3))]
        n = max(math.floor(order(h)) for h in hs)
        xs = tuple(rng.uniform(-2.0, 2.0) for _ in hs)
        js = [j for j in itertools.product(range(n + 1), repeat=len(hs)) if sum(j) <= n]
        table = {j: helpers.rand_coeff(rng, 0.01, 10.0) for j in js}
        got = taylor_multi(lambda j, x: table[j], xs, hs, n)
        ref = helpers.oracle_poly(
            hs, [(j, F(table[j]) / math.prod(map(math.factorial, j))) for j in js])
        assert helpers.series_error(got, ref) <= 1e-14, got


def test_taylor_multi_lists_only_surviving_multi_indices(monkeypatch):
    # the oracle sees exactly the multi-indices of total degree <= n whose
    # monomial survives the product-of-powers test, in lexicographic order;
    # the sum is the polynomial over them with each d^j f / j! rounded once,
    # which equals plain float division while every j! is exact (n <= 18)
    listed = []
    poly = calculus._poly
    monkeypatch.setattr(calculus, "_poly",
                        lambda hs, entries: listed.append(len(entries)) or poly(hs, entries))
    rng = random.Random(23)
    cases = [((dt(2), dt(3), dt(150)), 150), ((dt(4), ZERO, dt("7/2")), 4)]
    cases += [([helpers.rand_infinitesimal(rng) for _ in range(rng.randint(1, 3))], None)
              for _ in range(20)]
    for hs, n in cases:
        n = n or max(math.floor(order(h)) for h in hs)
        xs = tuple(rng.uniform(-2.0, 2.0) for _ in hs)
        calls = []

        def partials(j, x):
            calls.append(j)
            return math.fsum(x) + sum(j)

        got = taylor_multi(partials, xs, hs, n)
        # a power past a parameter's own nilpotency index already vanishes
        ranges = [range(min(n, math.floor(order(h))) + 1) for h in hs]
        want = [j for j in itertools.product(*ranges) if sum(j) <= n and not (
            any(j) and product_power_zero(*zip(*[(order(h), k) for h, k in zip(hs, j) if k])))]
        assert calls == want and listed[-1] == len(want)
        once = [(j, float(F(partials(j, xs)) / math.prod(map(math.factorial, j))))
                for j in want]
        assert got == eval_param_poly(ParamPoly(hs, [(j, lambda c=c: c) for j, c in once], n))
        if n <= 18:
            every = [(j, lambda j=j: partials(j, xs) / math.prod(map(math.factorial, j)))
                     for j in itertools.product(range(n + 1), repeat=len(hs)) if sum(j) <= n]
            assert got == eval_param_poly(ParamPoly(hs, every, n))
    assert listed[0] == 407


def test_taylor_multi_divides_by_factorials_once():
    # 171! is past binary64, but 1/171! is a subnormal float: the exp series
    got = taylor_multi(lambda j, x: 1.0, (0.0,), (dt(171),), 171)
    assert got == ext_apply(CATALOG["exp"], dt(171))
    assert str(got).endswith("e-310*dt[1]")
    for bad in (math.inf, math.nan):
        with pytest.raises(NonFiniteError, match=r"taylor_multi: Taylor coefficient 0 at 0 has"):
            taylor_multi(lambda j, x: bad, (0.0,), (dt(2),), 2)


def test_taylor_multi_holds_one_factorial_at_a_time():
    # each coefficient divides by its own j!, so a deep one-parameter sum
    # holds no table of 0! .. n! (one would take 2.4 MB more here, and grows
    # as n**2 * log(n))
    tracemalloc.start()
    try:
        got = taylor_multi(lambda j, x: 1.0, (0.0,), (dt(2000),), 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ext_apply(CATALOG["exp"], dt(2000))
    assert peak < 3_000_000, peak


def test_an_order_past_the_int_digit_limit_keeps_each_errors_type(int_digit_limit):
    # printing such an order is a FermatError; inside another error's
    # message it reads as a placeholder, and that error keeps its type
    long = reduce(mul, [dt(10**999 + 2 * i + 1) for i in range(5)])
    with pytest.raises(FermatError, match="^exact order too long to print: past Python's limit"):
        str(long)
    gone = "<not printed: an exact order of over 4300 digits>"
    with pytest.raises(NonFiniteError) as info:
        add(mul(1e308, long), mul(1e308, long))
    assert str(info.value) == f"coefficient of {gone} has no finite binary64 value"
    with pytest.raises(NotInIdealError) as info:
        ParamPoly([add(1, long)], [], 0)
    assert str(info.value) == f"parameter {gone} is not nilpotent at level 0"
    with pytest.raises(NotSmoothAtPointError) as info:
        derive(lambda x: long if x.ks else ZERO, 0.5)
    assert str(info.value) == f"increment at 0.5 has residual terms of order != 1: {gone}"
    # the exact sums of the order decisions: five orders of 1000 digits give
    # a denominator of about 5000
    with pytest.raises(ProductIsZeroError) as info:
        product_power_order([10**999 + 2 * i + 1 for i in range(5)], [10**999] * 5)
    assert str(info.value) == f"product of powers is zero: reciprocal-order sum {gone} exceeds 1"
    with pytest.raises(NoFiniteOrderError) as info:
        cancellation_order([10**999] * 5, [10**999 + 2 * i for i in range(5)])
    assert str(info.value) == f"no finite truncation order: level sum {gone} reaches 1"


def test_taylor_multi_partials_errors_propagate():
    # an error raised by the partials oracle itself is the caller's: it
    # propagates unchanged, not as NonFiniteError
    def partials(j, x):
        raise ValueError("oracle failed")

    with pytest.raises(ValueError, match="oracle failed") as info:
        taylor_multi(partials, (0.0,), (dt(2),), 2)
    assert not isinstance(info.value, NonFiniteError)


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
