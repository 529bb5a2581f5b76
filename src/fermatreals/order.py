"""Order-of-infinitesimal machinery.

The order of a value is the largest order among its terms (0 for plain
reals).  Around it live the nilpotency ideals, exact decision procedures
for products of powers of infinitesimals, the truncation order arising in
cancellation laws, and the total order on values.

Every decision compares integers on the arithmetic's own exponent lattice,
the one ``core`` multiplies on (``core._leading`` and ``core._as_level``);
Fractions appear only in parsed inputs and returned orders.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Sequence

from .core import (FermatReal, as_fermat, dt, _as_level, _as_rational, _cmp, _format_order,
                   _leading, _natural, _printable)
from .errors import LengthMismatchError, NoFiniteOrderError, ProductIsZeroError

#: Orders are exact rationals; 0 encodes a standard real, and finite
#: nonzero orders are always >= 1.
OrderValue = Fraction


class Verdict(Enum):
    """Outcome of comparing two values under the total order."""

    LT = "LT"
    EQ = "EQ"
    GT = "GT"


def order(x) -> Fraction:
    """Largest order in the decomposition; 0 for a standard real."""
    x = as_fermat(x)
    return Fraction(x.den, x.ks[0]) if x.ks else Fraction(0)


def in_ideal(x, a) -> bool:
    """Whether x is nilpotent at level a: zero standard part and order
    < a + 1.  Level math.inf admits every infinitesimal."""
    x = as_fermat(x)
    p, q = _as_level(a, "ideal level")
    return x.std == 0.0 and (not x.ks or x.den * q < (p + q) * x.ks[0])


def nilpotency_index(x) -> int | None:
    """Smallest k with x**k == 0, or None when no power vanishes.

    Zero has index 1; anything with a nonzero standard part is
    invertible-up-to-infinitesimals and never nilpotent; otherwise the
    index is floor(order) + 1.
    """
    x = as_fermat(x)
    if x.std != 0.0:
        return None
    return x.den // x.ks[0] + 1 if x.ks else 1


def _lattice_sum(pairs: list[tuple[Fraction, int]]) -> tuple[int, int]:
    """sum(i / w) over (order w >= 1, natural i) pairs as s/den on the lattice of the dt(w)."""
    den, kmin = _leading([dt(w) for w, _ in pairs])
    return sum(i * k for (_, i), k in zip(pairs, kmin)), den


def _reciprocal_order_sum(orders: Sequence, exps: Sequence[int]) -> tuple[int, int]:
    if len(orders) != len(exps) or not orders:
        raise LengthMismatchError(
            f"need equal nonzero lengths, got {len(orders)} orders and "
            f"{len(exps)} exponents"
        )
    pairs = []
    for w, i in zip(orders, exps):
        wq = _as_rational(w, "factor order")
        if wq < 1:
            raise ValueError(f"factor orders must be >= 1, got {wq}")
        pairs.append((wq, _natural(i, "power exponent", least=1)))
    return _lattice_sum(pairs)


def product_power_zero(orders: Sequence, exps: Sequence[int]) -> bool:
    """Decide whether a product of powers of nonzero infinitesimals is 0.

    For factors of orders w_k raised to naturals i_k, the product
    vanishes exactly when sum(i_k / w_k) > 1.  The test is _poly's, in
    integers on the generators' exponent lattice, and agrees with
    actually multiplying out the corresponding dt generators.
    """
    s, den = _reciprocal_order_sum(orders, exps)
    return s > den


def product_power_order(orders: Sequence, exps: Sequence[int]) -> Fraction:
    """Order of a nonzero product of powers: 1 / sum(i_k / w_k)."""
    s, den = _reciprocal_order_sum(orders, exps)
    if s > den:
        raise ProductIsZeroError("product of powers is zero: reciprocal-order sum "
                                 f"{_printable(lambda: _format_order(s, den))} exceeds 1")
    return Fraction(den, s)


def ideal_of_product(orders: Sequence, exps: Sequence[int], p) -> bool:
    """Whether the product of powers is a nonzero member of the level-p
    ideal: 1/(p+1) < sum(i_k / w_k) <= 1."""
    pq = _as_rational(p, "ideal level")
    if pq <= 0:
        raise ValueError(f"ideal level must be > 0, got {pq}")
    (s, den), (a, b) = _reciprocal_order_sum(orders, exps), pq.as_integer_ratio()
    return b * den < (a + b) * s <= (a + b) * den  # b/(a+b) < s/den <= 1


def cancellation_order(j: Sequence[int], alpha: Sequence) -> Fraction:
    """Truncation order k balancing 1/k + sum(j_i / (alpha_i + 1)) = 1.

    Multiplying by a tuple of powers h**j with h_i nilpotent at level
    alpha_i only sees a factor up to k-th order infinitesimals; this
    computes that k exactly.
    """
    if len(j) != len(alpha) or not j:
        raise LengthMismatchError(
            f"need equal nonzero lengths, got {len(j)} powers and "
            f"{len(alpha)} levels"
        )
    if all(ji == 0 for ji in j):
        raise ValueError("power vector must not be all zeros")
    pairs = []
    for ji, ai in zip(j, alpha):
        _natural(ji, "power")
        aq = _as_rational(ai, "nilpotency level")
        if aq <= 0:
            raise ValueError(f"nilpotency levels must be > 0, got {aq}")
        pairs.append((aq + 1, ji))
    s, den = _lattice_sum(pairs)
    if s >= den:
        raise NoFiniteOrderError("no finite truncation order: level sum "
                                 f"{_printable(lambda: _format_order(s, den))} reaches 1")
    return Fraction(den, den - s)


def compare(x, y) -> Verdict:
    """Total-order comparison: the standard parts decide, and if they are
    equal, the highest-order term where x and y differ does.  Works on the
    two decompositions directly; x - y is never formed."""
    return (Verdict.LT, Verdict.EQ, Verdict.GT)[_cmp(as_fermat(x), as_fermat(y)) + 1]


def absolute(x) -> FermatReal:
    """|x| under the total order."""
    return abs(as_fermat(x))
