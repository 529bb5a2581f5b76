from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from fermatreals import (
    FermatReal,
    ONE,
    Term,
    ZERO,
    add,
    canonicalize,
    dt,
    eq,
    eq_up_to,
    from_real,
    invert,
    iota,
    leading_sign,
    mul,
    neg,
    pow_nat,
    standard_part,
    sub,
)
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


# -- pow_nat ----------------------------------------------------------------

def test_pow_nat_examples():
    assert pow_nat(dt(3), 2) == dt(F(3, 2))
    assert pow_nat(dt("21/10"), 3) == ZERO
    assert pow_nat(dt("21/10"), 2) == dt(F(21, 20))
    assert pow_nat(add(2, dt(2)), 0) == ONE


def test_pow_nat_rejects_negative():
    with pytest.raises(ValueError):
        pow_nat(dt(2), -1)


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


def test_invert_infinite_standard_part_is_zero():
    assert invert(canonicalize(math.inf, [(1.0, F(1, 2))])) == ZERO


def test_invert_round_trip():
    rng = random.Random(5)
    for _ in range(10_000):
        x = helpers.rand_invertible(rng)
        helpers.assert_fermat_close(mul(x, invert(x)), ONE, tol=1e-12)


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
    assert eq(add(dt(2), dt(2)), mul(2, dt(2)))
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
