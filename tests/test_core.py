from __future__ import annotations

import decimal
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from fermatreals import (
    CATALOG,
    FermatReal,
    ONE,
    Term,
    Verdict,
    ZERO,
    add,
    canonicalize,
    compare,
    derive,
    dt,
    eq_up_to,
    ext_apply,
    from_real,
    graph_samples,
    invert,
    iota,
    leading_sign,
    mul,
    neg,
    order,
    pow_const,
    pow_nat,
    standard_part,
    sub,
    taylor_multi,
)
from fermatreals import calculus, core
from fermatreals.errors import NonFiniteError, NonPositiveOrderError, NotInvertibleError

import helpers


# -- canonicalize -----------------------------------------------------------

def test_canonicalize_sorts_ascending_exponents():
    x = canonicalize(1, [(1, F(1, 3)), (1, F(1, 2)), (1, 1)])
    assert x == FermatReal(1.0, (Term(1.0, F(1, 3)), Term(1.0, F(1, 2)), Term(1.0, F(1))))
    assert str(x) == "1 + dt[3] + dt[2] + dt[1]"


def test_canonicalize_drops_exponents_above_one():
    assert canonicalize(0, [(5, F(3, 2))]) == ZERO


def test_canonicalize_cancels_coefficients():
    assert canonicalize(2, [(1, F(1, 2)), (-1, F(1, 2))]) == from_real(2)


def test_canonicalize_non_finite_sum_is_typed():
    with pytest.raises(NonFiniteError, match=r"coefficient of dt\[1\]"):
        canonicalize(0.0, [(1e308, F(1)), (1e308, F(1))])
    with pytest.raises(NonFiniteError, match="standard part"):
        canonicalize(0.0, [(math.inf, F(0)), (-math.inf, F(0))])


def test_nan_never_enters_a_value():
    # nor does +-inf: the Fermat reals have no infinite element, so an input
    # or a result past binary64 raises where the value would be made
    nan, inf, big = math.nan, math.inf, 1.7976931348623157e308
    for make in (
        lambda: from_real(nan),
        lambda: from_real(inf),
        lambda: from_real(-inf),
        lambda: canonicalize(nan, []),
        lambda: canonicalize(-inf, [(1.0, F(1, 2))]),
        lambda: add(big, big),
        lambda: sub(-big, big),
        lambda: mul(big, 2),
        lambda: mul(add(big, dt(2)), 2),
        lambda: pow_nat(2, 1024),
        lambda: from_real(10**400),
        lambda: dt(2) + 10**400,
        lambda: 10**400 * dt(2),
        lambda: core.as_fermat(F(10**400)),
        lambda: core.as_fermat(F(-(10**400), 3)),
    ):
        with pytest.raises(NonFiniteError, match="^standard part has no finite binary64 value$"):
            make()
    for bad in (nan, inf, -inf):
        with pytest.raises(NonFiniteError, match=r"^coefficient of dt\[3/2\] has no finite"):
            canonicalize(1.0, [(bad, F(2, 3))])
    with pytest.raises(NonFiniteError, match=r"^coefficient of dt\[2\] has no finite"):
        mul(add(1, mul(big, dt(2))), 2)


def _past_binary64_calls():
    """(id, call, args, error type, message) for each entry point that turns a
    caller's number into a float, given a number with no finite binary64 value."""
    std = "standard part has no finite binary64 value"
    dt1 = "coefficient of dt[1] has no finite binary64 value"
    exponent = "pow_const exponent has no finite binary64 value"
    point = "taylor_multi point has no finite binary64 value"
    samples = "samples has no finite binary64 value"
    calls = [
        ("pow_const-inf", pow_const, (math.inf,), NonFiniteError, exponent),
        ("pow_const-nan", pow_const, (math.nan,), NonFiniteError, exponent),
        ("graph_samples-samples-10**310", graph_samples, (dt(2), 0.5, 10**310),
         NonFiniteError, samples),
        ("graph_samples-samples-10**400", graph_samples, (dt(2), 0.5, 10**400),
         NonFiniteError, samples),
    ]
    for kind, big in (("10**400", 10**400), ("-10**400", -(10**400)),
                      ("Fraction", F(10**400))):
        delta = f"delta must be > 0 and finite, got {'-' if big < 0 else ''}inf"
        calls += [
            (f"canonicalize-std-{kind}", canonicalize, (big, []), NonFiniteError, std),
            (f"canonicalize-coeff-{kind}", canonicalize, (0, [(big, F(1))]),
             NonFiniteError, dt1),
            (f"FermatReal-{kind}", FermatReal, (0.0, [(big, F(1))]), NonFiniteError, dt1),
            (f"derive-{kind}", derive, (neg, big), NonFiniteError, std),
            (f"pow_const-{kind}", pow_const, (big,), NonFiniteError, exponent),
            (f"taylor_multi-{kind}", taylor_multi, (lambda j, x: 1.0, (big,), [dt(2)], 1),
             NonFiniteError, point),
            # as delta=inf does: the gate keeps its own ValueError and message
            (f"graph_samples-delta-{kind}", graph_samples, (dt(2), big, 4), ValueError, delta),
        ]
    return calls


@pytest.mark.parametrize("call, args, error, message",
                         [pytest.param(*c[1:], id=c[0]) for c in _past_binary64_calls()])
def test_a_number_past_binary64_raises_a_typed_error(call, args, error, message):
    with pytest.raises(error) as info:
        call(*args)
    assert type(info.value) is error and str(info.value) == message


def test_canonicalize_folds_exponent_zero_into_std():
    assert canonicalize(1, [(2, F(0)), (1, F(1, 2))]) == add(3, dt(2))


def test_canonicalize_rejects_negative_exponent():
    with pytest.raises(ValueError):
        canonicalize(0, [(1, F(-1, 2))])


@given(
    std=st.floats(-1e6, 1e6, allow_nan=False),
    parts=st.lists(
        st.tuples(
            st.floats(-1e3, 1e3).filter(lambda v: v != 0.0),
            st.fractions(min_value=F(1, 12), max_value=1, max_denominator=12),
        ),
        max_size=6,
    ),
)
def test_canonicalize_idempotent(std, parts):
    x = canonicalize(std, parts)
    again = canonicalize(x.std, [(t.coeff, t.exp) for t in x.terms])
    assert again == x
    # canonical invariants
    exps = [t.exp for t in x.terms]
    assert exps == sorted(exps) and len(set(exps)) == len(exps)
    assert all(0 < t.exp <= 1 and t.coeff != 0.0 for t in x.terms)


# -- dt ---------------------------------------------------------------------

def test_dt_examples():
    assert dt(2) == FermatReal(0.0, (Term(1.0, F(1, 2)),))
    assert dt(F(1, 2)) == ZERO
    assert dt(1) == FermatReal(0.0, (Term(1.0, F(1)),))
    assert dt("3/2") == dt(F(3, 2))


def test_dt_rejects_nonpositive_and_float_orders():
    with pytest.raises(NonPositiveOrderError):
        dt(0)
    with pytest.raises(NonPositiveOrderError):
        dt(-2)
    with pytest.raises(TypeError):
        dt(1.5)


def test_dt_takes_a_fraction_as_is_and_every_other_order_as_before():
    # a Fraction skips the copy through numbers.Rational; every other input
    # gives the same value or the same error type and message as ever
    class Sub(F):
        pass

    for order in (F(3, 2), Sub(3, 2), "3/2", "1.5", decimal.Decimal("1.5")):
        assert dt(order) == core._make(0.0, 3, (2,), (1.0,)), order
    assert dt(F(1, 2)) is dt(Sub(1, 2)) is dt("0.5") is ZERO
    assert dt(F(7)) == dt(7) == core._make(0.0, 7, (1,), (1.0,))
    exact = "dt order must be exact: pass an int, Fraction, or string like '3/2' or '2.1', not "
    errors = [  # a list, since 0 and F(0) are one dict key
        (1.5, TypeError, exact + "1.5"),
        (True, TypeError, exact + "True"),
        (math.inf, TypeError, exact + "inf"),
        ("abc", ValueError, "invalid dt order: 'abc'"),
        ("1/0", ValueError, "invalid dt order: '1/0'"),
        ("", ValueError, "invalid dt order: ''"),
        (0, NonPositiveOrderError, "dt order must be positive, got 0"),
        (F(0), NonPositiveOrderError, "dt order must be positive, got 0"),
        (F(-1, 2), NonPositiveOrderError, "dt order must be positive, got -1/2"),
        (Sub(-3), NonPositiveOrderError, "dt order must be positive, got -3"),
        ("-3/2", NonPositiveOrderError, "dt order must be positive, got -3/2"),
        (-2, NonPositiveOrderError, "dt order must be positive, got -2"),
    ]
    for order, kind, message in errors:
        with pytest.raises(kind) as err:
            dt(order)
        assert type(err.value) is kind and str(err.value) == message, order


# -- add / neg / sub --------------------------------------------------------

def test_add_merges_like_terms():
    assert add(dt(2), dt(2)) == mul(2, dt(2))


def test_add_identity():
    x = add(3, dt(3))
    assert add(x, ZERO) == x


def test_add_hand_canonicalization():
    lhs = add(add(1, dt(2)), add(add(-1, neg(dt(2))), dt(1)))
    assert lhs == dt(1)


def test_add_sub_round_trips_match_term_multiset_oracle():
    rng = random.Random(2024)
    for _ in range(2000):
        x = helpers.rand_fermat(rng)
        y = helpers.rand_fermat(rng)
        via_impl = sub(add(x, y), y)
        want = helpers.oracle_sub(
            helpers.oracle_add(helpers.to_dict(x), helpers.to_dict(y)),
            helpers.to_dict(y),
        )
        assert helpers.dicts_equal(helpers.to_dict(via_impl), want)


# -- mul --------------------------------------------------------------------

def test_mul_examples():
    assert mul(dt(2), dt(2)) == dt(1)
    assert mul(dt(1), dt(1)) == ZERO
    assert mul(mul(mul(dt(6), dt(6)), dt(6)), dt(2)) == dt(1)


def test_mul_matches_term_multiset_oracle():
    rng = random.Random(77)
    for _ in range(2000):
        x = helpers.rand_fermat(rng)
        y = helpers.rand_fermat(rng)
        got = helpers.to_dict(mul(x, y))
        want = helpers.oracle_mul(helpers.to_dict(x), helpers.to_dict(y))
        assert helpers.dicts_equal(got, want)


def test_mul_commutative_bitwise():
    rng = random.Random(31)
    for _ in range(500):
        x = helpers.rand_fermat(rng)
        y = helpers.rand_fermat(rng)
        assert mul(x, y) == mul(y, x)


def _same(got: FermatReal, want: dict) -> None:
    """Equal to an oracle dict: same exact exponents, bit-identical
    coefficients (``==`` on nonzero floats), and the hash of the value
    built from the dict by the raw constructor."""
    assert helpers.to_dict(got) == want, (got, want)
    assert all(type(t.exp) is F for t in got.terms)
    built = helpers.from_dict(want)
    assert got == built and hash(got) == hash(built)


def test_lattice_arithmetic_matches_fraction_keyed_oracle():
    rng = random.Random(997)
    for _ in range(1000):
        x, y = helpers.rand_wide(rng), helpers.rand_wide(rng)
        dx, dy = helpers.to_dict(x), helpers.to_dict(y)
        _same(add(x, y), helpers.oracle_add(dx, dy))
        _same(mul(x, y), helpers.oracle_mul(dx, dy))
        assert hash(add(x, y)) == hash(add(y, x)) and hash(mul(x, y)) == hash(mul(y, x))
        # raw input: repeats, cancellations, exponent 0 and exponents above 1
        raw = [(t.coeff, t.exp) for t in x.terms + y.terms]
        raw += [(-c, e) for c, e in raw[:1]] + [(c, e * 2) for c, e in raw[1:3]]
        raw += [(helpers.rand_coeff(rng), F(0)), (1.0, F(999, 997))]
        rng.shuffle(raw)
        want = helpers.oracle_canonicalize(x.std, raw)
        _same(canonicalize(x.std, raw), want)
        # unreduced exponent strings reach the same value
        text = [(c, f"{3 * e.numerator}/{3 * e.denominator}") for c, e in reversed(raw)]
        _same(canonicalize(x.std, text), want)
        v = helpers.rand_wide(rng, helpers.WIDE_LOW_ORDER_POOL, zero_std_prob=0.0)
        _same(invert(v), helpers.oracle_invert(v))


# -- stored lattice -----------------------------------------------------------

def _assert_stored(v: FermatReal) -> None:
    """The stored lattice is canonical, ``terms`` is its exact view, the
    raw constructor rebuilds the same value, and nothing can be set."""
    assert type(v.ks) is tuple and type(v.cs) is tuple and len(v.ks) == len(v.cs)
    assert math.gcd(v.den, *v.ks) == 1, v
    assert v.ks or v.den == 1, v  # dt[1] is on den 1 too: ks == (1,)
    assert all(0 < k <= v.den for k in v.ks) and list(v.ks) == sorted(set(v.ks)), v
    assert all(type(k) is int for k in v.ks) and 0.0 not in v.cs, v
    assert v.terms is v.terms
    assert [(t.coeff, t.exp) for t in v.terms] == [(c, F(k, v.den)) for k, c in zip(v.ks, v.cs)]
    assert all(type(t.exp) is F for t in v.terms)
    again = FermatReal(v.std, v.terms)
    assert again == v and hash(again) == hash(v)
    assert (again.den, again.ks, again.cs) == (v.den, v.ks, v.cs)
    for name in ("std", "den", "ks", "cs", "terms", "_terms", "extra"):
        with pytest.raises(AttributeError):
            setattr(v, name, 0)
    with pytest.raises(AttributeError):
        del v.std


def test_every_route_stores_a_canonical_lattice():
    rng = random.Random(77)
    for v in (ZERO, ONE, dt(1), dt(F(7, 3)), dt(150), from_real(-2.5)):
        _assert_stored(v)
    for _ in range(300):
        # wide orders run to 997, too deep for benign Taylor coefficients
        x, y, z = helpers.rand_wide(rng), helpers.rand_fermat(rng), helpers.rand_fermat(rng)
        # cancelling x's leading term can shrink the denominator
        raw = [(t.coeff, t.exp) for t in y.terms + x.terms] + [
            (-t.coeff, t.exp) for t in x.terms[:1]]
        k = F(rng.randint(0, 8), rng.randint(1, 3))
        values = [x, y, FermatReal(y.std, y.terms), canonicalize(y.std, raw),
                  add(x, y), sub(x, y), neg(x), mul(x, y), mul(x, x),
                  pow_nat(z, rng.randint(0, 5)), iota(x, k), iota(y, math.inf),
                  ext_apply(CATALOG["sin"], y), ext_apply(CATALOG["exp"], z)]
        if z.std != 0.0:
            values.append(invert(z))
        hs = [FermatReal(0.0, v.terms) for v in (y, z)]
        n = max(v.den // v.ks[0] if v.ks else 0 for v in hs)
        values.append(taylor_multi(lambda j, p: 1.0 / (1 + sum(j)), (0.5, 0.25), hs, n))
        for v in values:
            _assert_stored(v)



def test_raw_constructor_canonicalizes():
    want = canonicalize(0.0, [(1.0, F(1, 2)), (2.0, F(1, 3))])
    # unsorted terms
    x = FermatReal(0.0, (Term(1.0, F(1, 2)), Term(2.0, F(1, 3))))
    assert str(x) == "2*dt[3] + dt[2]" and order(x) == 3
    assert x == want and hash(x) == hash(want) and compare(x, want) is Verdict.EQ
    # a zero coefficient
    y = FermatReal(1.0, (Term(0.0, F(1, 2)),))
    assert str(y) == "1" and y == ONE and hash(y) == hash(ONE)
    # repeated exponents merge; exponents 0 and above 1 fold or vanish
    z = FermatReal(0.0, (Term(1.0, F(1, 2)), Term(1.0, F(1, 2)), Term(3.0, F(0)), Term(5.0, F(2))))
    assert z == add(3, mul(2, dt(2)))
    for v in (x, y, z):
        _assert_stored(v)

# -- pow_nat ----------------------------------------------------------------

def test_pow_nat_examples():
    assert pow_nat(dt(3), 2) == dt(F(3, 2))
    assert pow_nat(dt("21/10"), 3) == ZERO
    assert pow_nat(dt("21/10"), 2) == dt(F(21, 20))
    assert pow_nat(add(2, dt(2)), 0) == ONE


def test_pow_nat_rejects_negative():
    with pytest.raises(ValueError):
        pow_nat(dt(2), -1)


def _left_to_right(x, n):
    acc = ONE
    for _ in range(n):
        acc = mul(acc, x)
    return acc


def _binomial_series(x, n):
    """The exact oracle of x**n: C(n, i) * std**(n-i) times h**i."""
    depth = math.floor(x.terms[0].order) if x.terms else 0
    r = F(x.std)
    return helpers.oracle_series(
        [math.comb(n, i) * r ** (n - i) for i in range(min(n, depth) + 1)], x)


def test_pow_nat_by_squaring_matches_left_to_right_product():
    rng = random.Random(15)
    for _ in range(300):
        x = helpers.rand_fermat(rng)
        for n in range(4):
            assert pow_nat(x, n) == _left_to_right(x, n), (x, n)
        n = rng.randint(4, 40)
        ref = _binomial_series(x, n)
        assert helpers.series_error(pow_nat(x, n), ref) <= 1e-14, (x, n)
        assert helpers.series_error(_left_to_right(x, n), ref) <= 1e-14, (x, n)


def test_pow_nat_huge_exponents():
    assert pow_nat(dt(3), 10**9) == ZERO
    n = 10**8
    want = canonicalize(1.0, [(math.comb(n, i), F(i, 3)) for i in (1, 2, 3)])
    helpers.assert_fermat_close(pow_nat(add(1, dt(3)), n), want, tol=1e-12)


# -- invert -----------------------------------------------------------------

def test_invert_examples():
    assert invert(add(1, dt(2))) == add(sub(1, dt(2)), dt(1))
    assert invert(from_real(2)) == from_real(0.5)
    with pytest.raises(NotInvertibleError):
        invert(dt(3))


def test_invert_deep_truncation_is_the_exact_alternating_series():
    # 200! overflows a float, so no coefficient may pass through i!.
    want = canonicalize(1, [((-1) ** k, F(k, 200)) for k in range(1, 201)])
    assert invert(add(1, dt(200))) == want


def test_invert_past_binary64_is_typed():
    # 1/std or a coefficient of the inverse past binary64 raises; there is
    # no infinite standard part whose inverse could be 0
    with pytest.raises(NonFiniteError, match="^standard part has no finite"):
        invert(5e-324)
    with pytest.raises(NonFiniteError, match="^standard part has no finite"):
        invert(-5e-324)
    with pytest.raises(NonFiniteError, match=r"^coefficient of dt\[3/2\] has no finite"):
        invert(add(1e-300, dt(3)))


def test_invert_round_trip():
    rng = random.Random(5)
    for _ in range(10_000):
        x = helpers.rand_invertible(rng)
        helpers.assert_fermat_close(mul(x, invert(x)), ONE, tol=1e-12)


def _outcome(fn):
    """The value's lattice with the sign of its standard part, or the type
    and message of what it raised."""
    try:
        v = fn()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return v.std, math.copysign(1.0, v.std), v.den, v.ks, v.cs


def test_real_operands_give_the_general_kernels_bits(monkeypatch):
    # -0.0 survives as a standard part only when built by _make
    points = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, 1e308,
              -1.7976931348623157e308)
    reals = [core._make(r, 1, (), ()) for r in points]
    for x, y in itertools.product(reals, repeat=2):
        assert _outcome(lambda: add(x, y)) == _outcome(
            lambda: core._lattice({0: [x.std + y.std]}, 1)), (x.std, y.std)
        assert _outcome(lambda: mul(x, y)) == _outcome(
            lambda: core._lattice({0: [x.std * y.std]}, 1)), (x.std, y.std)
    # ext_apply hands the Taylor kernel its coefficient tower; given the
    # same tower, the general kernel asks it for a_0 alone, its one entry
    seen = []

    def general(x, tower):
        seen.append(x)
        asked = []
        got = core._poly([ZERO], [((0,), lambda: asked.append(0) or tower(x.std, 0)[0])])
        assert asked == [0]
        return got

    # invert of a real stops before the kernel, which would run on
    # u = 1 + h/std = 1 with the coefficients 1/std, -1/std, ...
    for x in reals:
        s = 1.0 / x.std if x.std else 0.0
        slow = _outcome(lambda: general(ONE, lambda r, n: [s, -s][:n + 1]))
        want = slow if x.std else (NotInvertibleError, "not invertible: standard part is 0")
        assert _outcome(lambda: invert(x)) == want, x.std
    for f, x in itertools.product(CATALOG.values(), reals):
        seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(core, "_taylor", general)
            patch.setattr(calculus, "_taylor", general)
            slow = _outcome(lambda: ext_apply(f, x))
        asked = []
        counted = calculus.ElementaryFn(
            f.name, lambda r, n: asked.append(n) or f.tower(r, n), f.domain, f.domain_desc)
        if seen:  # not refused before the kernel (domain, zero to invert)
            assert _outcome(lambda: ext_apply(counted, x)) == slow, (f.name, x)
            assert asked == [0], (f.name, x)  # one request, for a_0
    with pytest.raises(NonFiniteError, match="^exp: Taylor coefficient 0 at 1000 has no finite"):
        ext_apply(CATALOG["exp"], from_real(1000.0))


def test_a_one_addend_bucket_is_its_fsum():
    # a bucket with one addend is taken as it is, which is its fsum: a zero
    # of either sign vanishes, a subnormal stays; +-inf and NaN raise, and so
    # does a power of h past binary64
    for v in (0.0, -0.0, 5e-324, -5e-324):
        want = math.fsum([v])
        got = core._lattice({0: [v], 2: [v]}, 3)
        assert (got.std, got.den, got.ks, got.cs) == (
            (want, 3, (2,), (want,)) if want else (0.0, 1, (), ())), v
        assert want or math.copysign(1.0, got.std) == 1.0
        # h**2 of h = v*dt[3] has the one addend v*v at dt[3/2]
        h = core._make(0.0, 3, (1,), (v,))
        square = math.fsum([v * v])
        assert core._powers(h, 3, 1)[2] == ({2: square} if square else {})
        assert core._sums({1: [v], 2: [v, 0.0]}, 3) == ({1: want, 2: want} if want else {})
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteError, match=r"^standard part has no finite"):
            core._lattice({0: [bad]}, 1)
        with pytest.raises(NonFiniteError, match=r"^coefficient of dt\[3\] has no finite"):
            core._sums({1: [bad]}, 3)
        with pytest.raises(NonFiniteError, match=r"^coefficient of dt\[3/2\] has no finite"):
            core._lattice({0: [1.0], 2: [bad]}, 3)
    with pytest.raises(NonFiniteError, match=r"^coefficient of dt\[3/2\] has no finite"):
        core._powers(core._make(0.0, 3, (1,), (1e200,)), 3, 1)


# -- iota / eq / standard part ----------------------------------------------

def test_iota_examples():
    x = canonicalize(3, [(1, F(1, 3)), (2, 1)])
    assert iota(x, 2) == add(3, dt(3))
    assert iota(x, math.inf) == from_real(3)
    assert iota(x, 0) == x


def test_iota_wave_lemma_case():
    h = dt(4)
    m = sub(1, mul(1.5, mul(h, h)))
    assert iota(m, 4) == ONE


def test_iota_idempotent_and_respects_ops():
    rng = random.Random(9)
    for _ in range(500):
        x = helpers.rand_fermat(rng)
        y = helpers.rand_fermat(rng)
        z = helpers.rand_fermat(rng)
        k = F(rng.randint(0, 8), rng.randint(1, 3))
        assert iota(iota(x, k), k) == iota(x, k)
        if eq_up_to(x, y, k):
            assert eq_up_to(add(x, z), add(y, z), k)
            assert eq_up_to(mul(x, z), mul(y, z), k)


def test_eq_examples():
    assert add(dt(2), dt(2)) == mul(2, dt(2))
    rng = random.Random(12)
    for _ in range(50):
        x = helpers.rand_fermat(rng)
        assert eq_up_to(x, add(x, dt(1)), 2)
    assert standard_part(add(1, dt(3))) == 1.0


def test_eq_up_to_is_membership_of_difference():
    # x =_k y exactly when the difference has zero std and order <= k
    rng = random.Random(13)
    from fermatreals import order

    for _ in range(300):
        x = helpers.rand_fermat(rng)
        y = helpers.rand_fermat(rng)
        k = F(rng.randint(0, 8), 2)
        d = sub(x, y)
        want = d.std == 0.0 and order(d) <= k
        assert eq_up_to(x, y, k) == want


# -- ring axioms -------------------------------------------------------------

def test_ring_axioms_randomized():
    rng = random.Random(42)
    for _ in range(10_000):
        x = helpers.rand_fermat(rng)
        y = helpers.rand_fermat(rng)
        z = helpers.rand_fermat(rng)
        assert add(x, y) == add(y, x)
        assert mul(x, y) == mul(y, x)
        helpers.assert_fermat_close(add(add(x, y), z), add(x, add(y, z)))
        helpers.assert_fermat_close(mul(mul(x, y), z), mul(x, mul(y, z)))
        helpers.assert_fermat_close(mul(x, add(y, z)), add(mul(x, y), mul(x, z)))
        assert add(x, ZERO) == x and mul(x, ONE) == x
        assert add(x, neg(x)) == ZERO


def test_decomposition_uniqueness():
    # equal values have identical (std, terms); distinct tuples differ
    rng = random.Random(88)
    for _ in range(500):
        x = helpers.rand_fermat(rng)
        y = helpers.rand_fermat(rng)
        same = x.std == y.std and x.terms == y.terms
        assert (x == y) == same


# -- operator sugar -----------------------------------------------------------

def test_operator_overloads():
    h = dt(2)
    assert 1 + h == add(1, h)
    assert h * h == dt(1)
    assert (1 + h) ** -1 == invert(1 + h)
    assert 3 - h == sub(3, h)
    assert -h == neg(h)
    assert abs(-h) == h
    assert (1 + h) / (1 + h) == ONE
    assert h < 1 and h > 0 and h <= h
    assert bool(h) and not bool(ZERO)
    assert hash(from_real(2.0)) == hash(2.0)
    assert from_real(2.0) == 2


def test_leading_sign():
    assert leading_sign(add(2, dt(2))) == 1
    assert leading_sign(neg(dt(2))) == -1
    assert leading_sign(ZERO) == 0
    assert leading_sign(canonicalize(0, [(-3, F(1, 2)), (5, 1)])) == -1


# -- formatting ----------------------------------------------------------------

def test_str_examples():
    assert str(canonicalize(1, [(1, F(1, 3)), (1, F(1, 2)), (1, 1)])) == (
        "1 + dt[3] + dt[2] + dt[1]"
    )
    assert str(ZERO) == "0"
    assert str(canonicalize(3, [(-2, F(2, 3))])) == "3 - 2*dt[3/2]"
    assert str(neg(dt(2))) == "-dt[2]"
    assert str(canonicalize(0, [(1, F(1, 3)), (-1 / 6, 1)])) == (
        "dt[3] - 0.16666666666666666*dt[1]"
    )
