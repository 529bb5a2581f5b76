from __future__ import annotations

import math
import random
import sys
from fractions import Fraction as F

import pytest

from fermatreals import (
    ZERO,
    Verdict,
    absolute,
    add,
    cancellation_order,
    compare,
    dt,
    from_real,
    ideal_of_product,
    in_ideal,
    leading_sign,
    mul,
    neg,
    nilpotency_index,
    order,
    product_power_order,
    product_power_zero,
    sub,
)
from fermatreals.errors import (
    LengthMismatchError,
    NoFiniteOrderError,
    ProductIsZeroError,
)

import helpers


def test_order_examples():
    x = add(add(add(1, dt(3)), dt(2)), dt(1))
    assert order(x) == 3
    assert order(from_real(5)) == 0
    assert order(mul(dt(2), dt(3))) == F(6, 5)


def test_in_ideal_examples():
    assert in_ideal(dt(3), 3)
    # membership threshold: dt[k] is in the level-1 ideal only for k < 2
    assert in_ideal(dt(1), 1)
    assert in_ideal(dt("3/2"), 1)
    assert not in_ideal(dt(2), 1)
    assert not in_ideal(add(1, dt(1)), math.inf)
    assert in_ideal(ZERO, 0)


def test_in_ideal_checks_its_level_whatever_x_is():
    for x in (add(1, dt(2)), 2.5, dt(2)):
        with pytest.raises(ValueError, match="invalid ideal level: 'abc'"):
            in_ideal(x, "abc")
        with pytest.raises(TypeError, match="ideal level must be exact"):
            in_ideal(x, 2.5)
        with pytest.raises(ValueError, match="ideal level must be >= 0, got -1"):
            in_ideal(x, -1)


def test_nilpotency_index_examples():
    assert nilpotency_index(dt("21/10")) == 3
    assert nilpotency_index(dt(1)) == 2
    assert nilpotency_index(from_real(7)) is None
    assert nilpotency_index(ZERO) == 1


def test_product_power_zero_examples():
    assert not product_power_zero([6, 6, 6, 2], [1, 1, 1, 1])
    assert product_power_zero([6, 6, 6, 2, 6], [1, 1, 1, 1, 1])
    assert product_power_zero([1, 1], [1, 1])


def test_product_power_order_examples():
    assert product_power_order([2, 4, 4], [1, 1, 1]) == 1
    assert product_power_order([3], [1]) == 3
    assert product_power_order([6, 6, 6, 2], [1, 1, 1, 1]) == 1
    with pytest.raises(ProductIsZeroError):
        product_power_order([1, 1], [1, 1])


def test_product_power_length_mismatch():
    with pytest.raises(LengthMismatchError):
        product_power_zero([2, 3], [1])
    with pytest.raises(LengthMismatchError):
        product_power_order([], [])


def test_ideal_of_product_examples():
    assert ideal_of_product([2, 4, 4], [1, 1, 1], 1)
    assert not ideal_of_product([3], [1], 1)
    assert not ideal_of_product([1, 1], [1, 1], 5)


def test_ideal_of_product_agrees_with_membership():
    rng = random.Random(3)
    pool = [F(1), F(3, 2), F(2), F(3), F(4), F(6)]
    for _ in range(300):
        n = rng.randint(1, 3)
        orders = [rng.choice(pool) for _ in range(n)]
        exps = [rng.randint(1, 3) for _ in range(n)]
        p = F(rng.randint(1, 8), rng.randint(1, 2))
        prod = helpers.dt_chain(orders, exps)
        want = prod != ZERO and in_ideal(prod, p)
        assert ideal_of_product(orders, exps, p) == want


def test_cancellation_order_examples():
    assert cancellation_order([1], [1]) == 2
    assert cancellation_order([1], [3]) == F(4, 3)
    with pytest.raises(NoFiniteOrderError):
        cancellation_order([2], [1])
    with pytest.raises(LengthMismatchError):
        cancellation_order([1, 1], [1])
    with pytest.raises(ValueError):
        cancellation_order([0], [1])


# Orders and levels of 1000 digits, whose common lattice can pass the 4,300
# digits Python prints, exponents 0 and 10**20, level math.inf, and bad
# arguments of every kind, several to a call, so that which one is reported
# first is checked too.
_BIG = 10**999
_BAD_ORDERS = (0, F(1, 2), -1, F(999, 1000), 2.5, True, "x", "1/0", None)
_BAD_EXPS = (0, -1, True, 2.0, "1", None)
_BAD_LEVELS = (0, -1, 2.5, math.inf, -math.inf, True, "x", "1/0", None)


def _pick(rng, bad, good):
    return rng.choice(bad) if rng.random() < 0.08 else good


def _rand_rational(rng):
    """A rational >= 1: small, decimal text, or of 1000 digits."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(1, 6)
    if kind == 1:
        q = rng.randint(1, 4)
        return F(rng.randint(q, 6 * q), q)
    if kind == 2:
        return rng.choice(("3/2", "2.1", "21/10", "6", " 7/3 "))
    if kind == 3:
        return _BIG + rng.randrange(10**6)
    return F(_BIG + rng.randrange(10**6), rng.choice((1, 3, _BIG // 7 + 1)))


def _rand_lengths(rng, n):
    """n, or now and then a length that does not match, or 0."""
    r = rng.random()
    return (n, n) if r < 0.94 else (n, n + rng.choice((-1, 1))) if r < 0.98 else (0, 0)


def _product_args(rng):
    near = rng.random() < 0.15  # 1000-digit orders with i/w summing near 1
    n, m = _rand_lengths(rng, rng.randint(1, 6 if near else 4))
    if near:
        orders = [_BIG + rng.randrange(10**6) for _ in range(n)]
        exps = [w // n + rng.choice((-1, 0, 1)) for w in orders]
    else:
        orders = [_pick(rng, _BAD_ORDERS, _rand_rational(rng)) for _ in range(n)]
        exps = [_pick(rng, _BAD_EXPS, rng.choice((1, 1, 2, 3, 10**20))) for _ in range(n)]
    return orders, (exps + [1])[:m]


def _level(rng, near=None):
    """An ideal or nilpotency level > 0, at times the boundary value near."""
    kind = rng.randrange(5)
    if kind == 0 and near is not None and near > 0:
        return near
    if kind <= 1:
        return F(rng.randint(1, 12), rng.randint(1, 4))
    if kind == 2:
        return rng.choice((_BIG, F(1, _BIG), F(_BIG, 3), "3/2"))
    return rng.randint(1, 5)


def test_order_decisions_match_the_fraction_oracle():
    """order.py's lattice decisions against helpers' Fraction sums: the same
    value, or the same exception type and message, on 12,500 seeded calls."""
    rng = random.Random(16)
    seen, unprinted = {}, 0
    for _ in range(2500):
        orders, exps = _product_args(rng)
        total = helpers.outcome(helpers._fraction_reciprocal_order_sum, orders, exps)
        near = 1 / total[2] - 1 if total[0] == "ok" else None  # 1/(p+1) == total
        p = _pick(rng, _BAD_LEVELS, _level(rng, near))
        n, m = _rand_lengths(rng, rng.randint(1, 3))
        j = [_pick(rng, _BAD_EXPS[1:], rng.choice((0, 1, 1, 2, 10**20, _BIG))) for _ in range(n)]
        alpha = [_pick(rng, _BAD_LEVELS, _level(rng, _BIG - 1 if ji == _BIG else None))
                 for ji in j]
        x = rng.choice((helpers.rand_fermat(rng), helpers.rand_wide(rng), dt(_BIG + 1),
                        dt(F(_BIG, 3)), ZERO, add(1, dt(2)), 2.5, 3, "abc", None))
        boundary = 1 if isinstance(x, str) or x is None else order(x) - 1
        level = rng.choice((_pick(rng, _BAD_LEVELS, _level(rng)), math.inf, 0, boundary))
        for fn, oracle, args in (
            (product_power_zero, helpers.fraction_product_power_zero, (orders, exps)),
            (product_power_order, helpers.fraction_product_power_order, (orders, exps)),
            (ideal_of_product, helpers.fraction_ideal_of_product, (orders, exps, p)),
            (cancellation_order, helpers.fraction_cancellation_order, (j, (alpha + [1])[:m])),
            (in_ideal, helpers.fraction_in_ideal, (x, level)),
        ):
            got = helpers.outcome(fn, *args)
            assert got == helpers.outcome(oracle, *args), (fn.__name__, args)
            kind = got[0] if got[0] == "raised" else got[2] if got[1] is bool else "ok"
            seen[fn.__name__, kind] = seen.get((fn.__name__, kind), 0) + 1
            unprinted += kind == "raised" and "<not printed: " in got[2]
    assert sum(seen.values()) == 12500
    # a sum past the digits Python prints is a placeholder in its error's message
    assert unprinted or not getattr(sys, "get_int_max_str_digits", int)()
    for name in ("product_power_zero", "ideal_of_product", "in_ideal"):
        assert seen[name, True] and seen[name, False] and seen[name, "raised"]
    for name in ("product_power_order", "cancellation_order"):
        assert seen[name, "ok"] and seen[name, "raised"]


def test_compare_examples():
    assert compare(dt(2), mul(3, dt(1))) is Verdict.GT
    assert compare(add(2, dt(2)), mul(3, dt(1))) is Verdict.GT
    assert compare(add(1, dt(2)), add(3, dt(1))) is Verdict.LT
    base = add(dt(5), mul(-2, dt(3)))
    assert compare(add(base, mul(3, dt(1))), add(base, dt("3/2"))) is Verdict.LT
    assert compare(add(base, mul(3, dt(1))), sub(base, dt(1))) is Verdict.GT


def test_absolute_examples():
    assert absolute(neg(dt(2))) == dt(2)
    assert absolute(sub(3, dt(1))) == sub(3, dt(1))
    assert absolute(ZERO) == ZERO


def test_total_order_properties():
    rng = random.Random(101)
    for _ in range(2000):
        x = helpers.rand_fermat(rng)
        y = helpers.rand_fermat(rng)
        z = helpers.rand_fermat(rng)
        vxy = compare(x, y)
        assert compare(y, x) is {
            Verdict.LT: Verdict.GT,
            Verdict.GT: Verdict.LT,
            Verdict.EQ: Verdict.EQ,
        }[vxy]
        assert (vxy is Verdict.EQ) == (x == y)
        if compare(x, y) is not Verdict.GT and compare(y, z) is not Verdict.GT:
            assert compare(x, z) is not Verdict.GT
        # compatibility with multiplication by nonnegative values
        w = absolute(helpers.rand_fermat(rng))
        if compare(x, y) is not Verdict.GT:
            assert compare(mul(x, w), mul(y, w)) is not Verdict.GT


def test_total_order_matches_oracle():
    # Extremes included: a sign-of-difference comparison overflows on huge
    # opposite coefficients.
    big = mul(1e308, dt(1))
    assert compare(big, neg(big)) is Verdict.GT
    rng = random.Random(404)
    for _ in range(20000):
        x, y = helpers.rand_order_pair(rng)
        s = helpers.oracle_compare(x, y)
        assert compare(x, y) is (Verdict.LT, Verdict.EQ, Verdict.GT)[s + 1], (x, y)
        assert compare(y, x) is (Verdict.GT, Verdict.EQ, Verdict.LT)[s + 1], (x, y)
        assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0), (x, y)
        assert leading_sign(x) == helpers.oracle_compare(x, ZERO), x


def test_infinitesimal_sandwich():
    rng = random.Random(303)
    radii = [1e-1, 1e-3, 1e-9]
    for _ in range(300):
        x = helpers.rand_fermat(rng)
        sandwiched = all(
            compare(from_real(-r), x) is Verdict.LT
            and compare(x, from_real(r)) is Verdict.LT
            for r in radii
        )
        assert sandwiched == (x.std == 0.0)


def test_first_order_products_vanish():
    rng = random.Random(404)
    for _ in range(300):
        h = helpers.rand_infinitesimal(rng)
        k = helpers.rand_infinitesimal(rng)
        if in_ideal(h, 1) and in_ideal(k, 1):
            assert mul(h, k) == ZERO


def test_ideal_property_bundle():
    helpers.check_ideal_properties(random.Random(505), trials=300)


def test_order_of_sum_cancellation_caveat():
    # with equal leading orders the max rule can fail without the sum
    # being zero: the leading terms cancel and a lower order survives
    x = dt(2)
    y = add(neg(dt(2)), dt(1))
    s = add(x, y)
    assert s == dt(1)
    assert order(s) == 1 != max(order(x), order(y))


def test_cancellation_laws():
    rng = random.Random(606)
    h = dt(1)
    from fermatreals import iota

    for _ in range(300):
        m = helpers.rand_fermat(rng)
        assert mul(h, m) == mul(h, iota(m, 2))
    for _ in range(300):
        r = rng.uniform(-5, 5)
        s = rng.uniform(-5, 5)
        x = helpers.rand_fermat(rng)
        if x == ZERO:
            continue
        lhs = mul(absolute(x), from_real(r))
        rhs = mul(absolute(x), from_real(s))
        if compare(lhs, rhs) is not Verdict.GT:
            assert r <= s
