from __future__ import annotations

import math
import random
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
    # Extremes included: the parent's sign-of-difference comparison said
    # inf < inf and overflowed on huge opposite coefficients.
    inf = from_real(math.inf)
    assert compare(inf, inf) is Verdict.EQ and not inf < inf
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
