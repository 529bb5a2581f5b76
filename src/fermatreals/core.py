"""Arithmetic core: reals extended with nilpotent infinitesimals.

A value is kept in canonical decomposed form: a binary64 standard part plus
a sorted tuple of infinitesimal terms ``c * dt[b]``, where ``dt[b]`` denotes
the infinitesimal of order ``b >= 1`` and ``dt[1]`` is the smallest nonzero
one.  Internally each term stores the *potential* exponent ``a = 1/b`` in
``(0, 1]`` as an exact :class:`fractions.Fraction`; multiplication adds
potential exponents, and any term whose exponent exceeds 1 is identically
zero.  This makes nilpotency decidable by exact rational comparisons.

Exponent arithmetic never rounds.  Coefficients are floats compared exactly:
a term exists iff its coefficient is not ``0.0``.  Coefficient merging uses
``math.fsum``, so the result of a sum depends only on the multiset of
addends, never on their order.  One truncated Taylor kernel, ``_taylor``,
serves :func:`invert` and every smooth extension in ``calculus``.

Values are immutable; every operation is a pure function, so values can be
shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Tuple, Union

from .errors import NonPositiveOrderError, NotInvertibleError

Exponent = Fraction
RationalLike = Union[int, Fraction, str]


def _as_rational(value, what: str) -> Fraction:
    """Convert an exact input to Fraction, refusing bare floats."""
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(
            f"{what} must be exact: pass an int, Fraction, or string like "
            f"'3/2' or '2.1', not {value!r}"
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid {what}: {value!r}") from exc


def format_real(v: float) -> str:
    """Shortest round-trip decimal; integral values drop the trailing .0."""
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _format_order(b: Fraction) -> str:
    if b.denominator == 1:
        return str(b.numerator)
    return f"{b.numerator}/{b.denominator}"


@dataclass(frozen=True)
class Term:
    """One infinitesimal term: ``coeff * dt[1/exp]`` with 0 < exp <= 1."""

    coeff: float
    exp: Fraction

    @property
    def order(self) -> Fraction:
        return 1 / self.exp


@dataclass(frozen=True, eq=False)
class FermatReal:
    """A real number plus finitely many nilpotent infinitesimal terms.

    ``terms`` is sorted by strictly increasing exponent (equivalently
    strictly decreasing order); no zero coefficients, no repeated
    exponents, no exponent above 1.  A pure real has no terms.  Build
    values with :func:`canonicalize`, :func:`dt` or :func:`from_real`
    rather than the raw constructor.
    """

    std: float
    terms: Tuple[Term, ...] = ()

    @property
    def is_real(self) -> bool:
        return not self.terms

    @property
    def is_infinitesimal(self) -> bool:
        return self.std == 0.0

    def __str__(self) -> str:
        out = []
        if self.std != 0.0 or not self.terms:
            out.append(format_real(self.std))
        for t in self.terms:
            mag = abs(t.coeff)
            unit = f"dt[{_format_order(t.order)}]"
            body = unit if mag == 1.0 else f"{format_real(mag)}*{unit}"
            if out:
                out.append(" - " if t.coeff < 0 else " + ")
                out.append(body)
            else:
                out.append("-" + body if t.coeff < 0 else body)
        return "".join(out)

    def __repr__(self) -> str:
        return f"<FermatReal {self}>"

    # -- equality and total order -------------------------------------

    def __eq__(self, other) -> bool:
        o = _try_fermat(other)
        if o is None:
            return NotImplemented
        return self.std == o.std and self.terms == o.terms

    def __hash__(self):
        if not self.terms:
            return hash(self.std)
        return hash((self.std, self.terms))

    def __lt__(self, other):
        o = _try_fermat(other)
        return NotImplemented if o is None else leading_sign(sub(self, o)) < 0

    def __le__(self, other):
        o = _try_fermat(other)
        return NotImplemented if o is None else leading_sign(sub(self, o)) <= 0

    def __gt__(self, other):
        o = _try_fermat(other)
        return NotImplemented if o is None else leading_sign(sub(self, o)) > 0

    def __ge__(self, other):
        o = _try_fermat(other)
        return NotImplemented if o is None else leading_sign(sub(self, o)) >= 0

    def __bool__(self) -> bool:
        return self.std != 0.0 or bool(self.terms)

    # -- ring operators ------------------------------------------------

    def __add__(self, other):
        o = _try_fermat(other)
        return NotImplemented if o is None else add(self, o)

    __radd__ = __add__

    def __sub__(self, other):
        o = _try_fermat(other)
        return NotImplemented if o is None else sub(self, o)

    def __rsub__(self, other):
        o = _try_fermat(other)
        return NotImplemented if o is None else sub(o, self)

    def __mul__(self, other):
        o = _try_fermat(other)
        return NotImplemented if o is None else mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _try_fermat(other)
        return NotImplemented if o is None else mul(self, invert(o))

    def __rtruediv__(self, other):
        o = _try_fermat(other)
        return NotImplemented if o is None else mul(o, invert(self))

    def __neg__(self):
        return neg(self)

    def __pos__(self):
        return self

    def __abs__(self):
        return neg(self) if leading_sign(self) < 0 else self

    def __pow__(self, n):
        # Integer powers only; fractional or Fermat exponents go through
        # calculus.power, which needs a strictly positive base.
        if isinstance(n, int) and not isinstance(n, bool):
            return pow_nat(self, n) if n >= 0 else invert(pow_nat(self, -n))
        return NotImplemented


ZERO = FermatReal(0.0, ())
ONE = FermatReal(1.0, ())


def from_real(r: float) -> FermatReal:
    """Embed an ordinary real."""
    return FermatReal(float(r) + 0.0, ())


def _try_fermat(value):
    if isinstance(value, FermatReal):
        return value
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return from_real(value)
    if isinstance(value, Fraction):
        return from_real(float(value))
    return None


def as_fermat(value) -> FermatReal:
    """Coerce a FermatReal, int, float or Fraction; reject anything else."""
    v = _try_fermat(value)
    if v is None:
        raise TypeError(f"cannot interpret {value!r} as a Fermat real")
    return v


def canonicalize(std: float, raw: Iterable[tuple]) -> FermatReal:
    """Normalize ``std + sum(coeff * t**exp)`` into canonical form.

    Terms with exponent above 1 vanish, exponent-0 terms fold into the
    standard part, equal exponents merge by summing coefficients, zero
    coefficients disappear, and the survivors come out sorted by
    increasing exponent.  Exponents must be nonnegative rationals.
    """
    base = [float(std)]
    buckets: dict[Fraction, list[float]] = {}
    for coeff, exp in raw:
        e = exp if isinstance(exp, Fraction) else Fraction(exp)
        c = float(coeff)
        if e < 0:
            raise ValueError(f"potential exponent must be >= 0, got {e}")
        if e == 0:
            base.append(c)
        elif e <= 1:
            buckets.setdefault(e, []).append(c)
    terms = []
    for e in sorted(buckets):
        c = math.fsum(buckets[e])
        if c != 0.0:
            terms.append(Term(c, e))
    return FermatReal(math.fsum(base) + 0.0, tuple(terms))


def dt(order: RationalLike) -> FermatReal:
    """The infinitesimal generator of the given order.

    Orders below 1 collapse to zero; nonpositive orders are rejected.
    The order must be exact (int, Fraction, or a string such as ``"3/2"``
    or ``"2.1"``).
    """
    b = _as_rational(order, "dt order")
    if b <= 0:
        raise NonPositiveOrderError(f"dt order must be positive, got {b}")
    if b < 1:
        return ZERO
    return FermatReal(0.0, (Term(1.0, 1 / b),))


def add(x, y) -> FermatReal:
    x, y = as_fermat(x), as_fermat(y)
    raw = [(t.coeff, t.exp) for t in x.terms]
    raw += [(t.coeff, t.exp) for t in y.terms]
    return canonicalize(x.std + y.std, raw)


def neg(x) -> FermatReal:
    x = as_fermat(x)
    return FermatReal(-x.std + 0.0, tuple(Term(-t.coeff, t.exp) for t in x.terms))


def sub(x, y) -> FermatReal:
    return add(x, neg(y))


def mul(x, y) -> FermatReal:
    """Ring product; cross terms whose exponents sum above 1 vanish."""
    x, y = as_fermat(x), as_fermat(y)
    raw = []
    if y.std != 0.0:
        raw += [(t.coeff * y.std, t.exp) for t in x.terms]
    if x.std != 0.0:
        raw += [(t.coeff * x.std, t.exp) for t in y.terms]
    for tx in x.terms:
        for ty in y.terms:
            e = tx.exp + ty.exp
            if e <= 1:
                raw.append((tx.coeff * ty.coeff, e))
    return canonicalize(x.std * y.std, raw)


def pow_nat(x, n: int) -> FermatReal:
    """Repeated multiplication; n = 0 gives 1."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"exponent must be a natural number, got {n!r}")
    acc = ONE
    for _ in range(n):
        acc = mul(acc, x)
        if acc == ZERO:
            break
    return acc


def _taylor(x: FermatReal, a: Callable[[int], float]) -> FermatReal:
    """Taylor sum ``sum(a(i) * h**i)`` at x = r + h, with a(i) the i-th
    Taylor coefficient at r and i up to N = floor(order(h)): h**(N+1)
    vanishes, so the sum is exact.  One canonicalize rounds each
    coefficient's sum once."""
    if not x.terms:
        return from_real(a(0))
    h = FermatReal(0.0, x.terms)
    raw = []
    hp = ONE
    for i in range(1, math.floor(x.terms[0].order) + 1):
        hp = mul(hp, h)
        if not hp.terms:
            break
        c = a(i)
        raw += [(c * t.coeff, t.exp) for t in hp.terms]
    return canonicalize(a(0), raw)


def invert(x) -> FermatReal:
    """Multiplicative inverse, defined iff the standard part is nonzero.

    The Taylor kernel of every smooth extension, run on u = 1 + h/std with
    the coefficients (-1)**i / std of 1/(std * u).  Dividing h by std first
    keeps every rounded intermediate near the size of the true coefficient,
    whatever the magnitude of std; powers of std alone never appear.
    """
    x = as_fermat(x)
    if x.std == 0.0:
        raise NotInvertibleError("not invertible: standard part is 0")
    u = canonicalize(1.0, [(t.coeff / x.std, t.exp) for t in x.terms])
    s = 1.0 / x.std
    return _taylor(u, lambda i: -s if i % 2 else s)


def iota(x, k) -> FermatReal:
    """Truncation at level k: keep the standard part and the terms of
    order strictly greater than k.  ``iota(x, 0) == x``; k = math.inf
    strips every infinitesimal."""
    x = as_fermat(x)
    if isinstance(k, float) and math.isinf(k) and k > 0:
        return FermatReal(x.std, ())
    kq = _as_rational(k, "truncation level")
    if kq < 0:
        raise ValueError(f"truncation level must be >= 0, got {kq}")
    return FermatReal(x.std, tuple(t for t in x.terms if t.order > kq))


def eq(x, y) -> bool:
    """Exact equality of canonical forms (the ring equality)."""
    return as_fermat(x) == as_fermat(y)


def eq_up_to(x, y, k) -> bool:
    """Equality up to infinitesimals of order <= k."""
    return iota(x, k) == iota(y, k)


def standard_part(x) -> float:
    """The real shadow: the value at t = 0."""
    return as_fermat(x).std


def leading_sign(x) -> int:
    """Sign of x in the total order.

    A nonzero standard part decides; otherwise the coefficient of the
    highest-order (smallest-exponent) infinitesimal term does; zero has
    sign 0.  Term-by-term comparison of representatives near t = 0
    reduces to exactly this rule on canonical forms.
    """
    x = as_fermat(x)
    if x.std != 0.0:
        return 1 if x.std > 0 else -1
    if x.terms:
        return 1 if x.terms[0].coeff > 0 else -1
    return 0
