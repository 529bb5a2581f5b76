"""Arithmetic core: reals extended with nilpotent infinitesimals.

A value is kept in canonical decomposed form: a binary64 standard part plus
a sorted tuple of infinitesimal terms ``c * dt[b]``, where ``dt[b]`` denotes
the infinitesimal of order ``b >= 1`` and ``dt[1]`` is the smallest nonzero
one.  Each term shows the *potential* exponent ``a = 1/b`` in ``(0, 1]`` as
an exact reduced :class:`fractions.Fraction`; multiplication adds potential
exponents, and any term whose exponent exceeds 1 is identically zero.  This
makes nilpotency decidable by exact rational comparisons.

Exponent arithmetic never rounds, and it runs on integers: an operation
puts its operands' exponents over one common denominator ``L``, so each is
an integer ``k`` with ``a = k/L``, adding exponents adds integers and
truncation is ``k <= L``.  Only the surviving terms are given a Fraction.
Coefficients are floats compared exactly: a term exists iff its coefficient
is not ``0.0``.  Coefficient merging uses ``math.fsum``, so the result of a
sum depends only on the multiset of addends, never on their order; a sum
with no finite binary64 value, NaN included, raises NonFiniteError.  One
infinitesimal-polynomial kernel, ``_poly``, serves :func:`invert`, every
smooth extension and every polynomial in infinitesimals in ``calculus``.

Values are immutable; every operation is a pure function, so values can be
shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import zip_longest
from typing import Callable, Iterable, Tuple, Union

from .errors import NonFiniteError, NonPositiveOrderError, NotInvertibleError

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


def _operator(fn):
    """A binary operator method: coerce the other operand with
    ``_try_fermat`` and apply ``fn``, or return NotImplemented."""

    def method(self, other):
        o = _try_fermat(other)
        return NotImplemented if o is None else fn(self, o)

    return method


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

    # -- equality, total order and ring operators -----------------------
    # Each lambda looks up add, sub, mul, invert or _cmp when called, so
    # rebinding those module names (as a tracer does) reaches them too.

    __eq__ = _operator(lambda x, y: x.std == y.std and x.terms == y.terms)
    __lt__ = _operator(lambda x, y: _cmp(x, y) < 0)
    __le__ = _operator(lambda x, y: _cmp(x, y) <= 0)
    __gt__ = _operator(lambda x, y: _cmp(x, y) > 0)
    __ge__ = _operator(lambda x, y: _cmp(x, y) >= 0)
    __add__ = __radd__ = _operator(lambda x, y: add(x, y))
    __sub__ = _operator(lambda x, y: sub(x, y))
    __rsub__ = _operator(lambda x, y: sub(y, x))
    __mul__ = __rmul__ = _operator(lambda x, y: mul(x, y))
    __truediv__ = _operator(lambda x, y: mul(x, invert(y)))
    __rtruediv__ = _operator(lambda x, y: mul(y, invert(x)))

    def __hash__(self):
        if not self.terms:
            return hash(self.std)
        return hash((self.std, self.terms))

    def __bool__(self) -> bool:
        return self.std != 0.0 or bool(self.terms)

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
    """Embed an ordinary real; NaN raises NonFiniteError."""
    r = float(r) + 0.0
    if r != r:
        raise NonFiniteError("standard part has no finite binary64 value")
    return FermatReal(r, ())


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
    increasing exponent.  Exponents must be nonnegative rationals; a sum
    with no finite binary64 value raises NonFiniteError.
    """
    base = [float(std)]
    kept = []
    for coeff, exp in raw:
        e = exp if isinstance(exp, Fraction) else Fraction(exp)
        c = float(coeff)
        n, d = e.numerator, e.denominator
        if n < 0:
            raise ValueError(f"potential exponent must be >= 0, got {e}")
        if n == 0:
            base.append(c)
        elif n <= d:
            kept.append((c, n, d))
    den = math.lcm(*[d for _, _, d in kept])
    return _lattice(base, [(c, n * (den // d)) for c, n, d in kept], den)


def _common_den(terms) -> int:
    """The least common denominator of the terms' exponents."""
    return math.lcm(*[t.exp.denominator for t in terms])


def _on_lattice(terms, den: int) -> list:
    """Each term as ``(coeff, k)``, exponent ``k/den``; den a common denominator."""
    return [(t.coeff, t.exp.numerator * (den // t.exp.denominator)) for t in terms]


def _lattice(base: list, raw: list, den: int) -> FermatReal:
    """The canonical form of ``fsum(base) + sum(c * t**(k/den))`` over the
    ``(c, k)`` in raw, each with ``0 < k <= den``.  Equal k merge in one
    fsum, zero sums vanish, and only the survivors get a Fraction exponent.
    A standard part or coefficient with no finite binary64 value (an fsum
    overflow, ``inf - inf``, or NaN) raises NonFiniteError."""
    buckets: dict[int, list[float]] = {}
    for c, k in raw:
        buckets.setdefault(k, []).append(c)
    terms = []
    k = 0
    try:
        std = math.fsum(base) + 0.0
        if std != std:
            raise ValueError
        for k in sorted(buckets):
            c = math.fsum(buckets[k])
            if c != c:
                raise ValueError
            if c != 0.0:
                terms.append(Term(c, Fraction(k, den)))
    except (OverflowError, ValueError):
        what = f"coefficient of dt[{_format_order(Fraction(den, k))}]" if k else "standard part"
        raise NonFiniteError(f"{what} has no finite binary64 value") from None
    return FermatReal(std, tuple(terms))


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
    den = _common_den(x.terms + y.terms)
    return _lattice([x.std + y.std], _on_lattice(x.terms + y.terms, den), den)


def neg(x) -> FermatReal:
    x = as_fermat(x)
    return FermatReal(-x.std + 0.0, tuple(Term(-t.coeff, t.exp) for t in x.terms))


def sub(x, y) -> FermatReal:
    return add(x, neg(y))


def mul(x, y) -> FermatReal:
    """Ring product; cross terms whose exponents sum above 1 vanish."""
    x, y = as_fermat(x), as_fermat(y)
    den = _common_den(x.terms + y.terms)
    kx, ky = _on_lattice(x.terms, den), _on_lattice(y.terms, den)
    raw = []
    if y.std != 0.0:
        raw += [(c * y.std, k) for c, k in kx]
    if x.std != 0.0:
        raw += [(c * x.std, k) for c, k in ky]
    raw += [(cx * cy, i + j) for cx, i in kx for cy, j in ky if i + j <= den]
    return _lattice([x.std * y.std], raw, den)


def _natural(n, what: str, least: int = 0) -> int:
    """Check an int (not a bool) of at least ``least``, for counts such as
    powers, degrees and levels; ``what`` names it in the error."""
    if not isinstance(n, int) or isinstance(n, bool) or n < least:
        floor = "" if least == 0 else f" >= {least}"
        raise ValueError(f"{what} must be a natural number{floor}, got {n!r}")
    return n


def pow_nat(x, n: int) -> FermatReal:
    """x**n by square-and-multiply over the bits of n; n = 0 gives 1."""
    acc = as_fermat(x) if _natural(n, "exponent") else ONE
    for bit in bin(n)[3:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, x)
    return acc


def _poly(hs, entries) -> FermatReal:
    """``sum(c() * prod(h_k ** q_k))`` over the ``(q, c)`` entries: q a
    multi-index over the infinitesimals hs, c a thunk giving a float or a
    FermatReal.  On the hs' common lattice den, with kmin_k the leading
    exponent of h_k (den + 1 for a zero h_k), a monomial vanishes iff
    ``sum(q_k * kmin_k) > den`` (the product-of-powers theorem), and then c
    is not called.  Powers of each h_k are built once; every float product
    goes into one ``_lattice`` call, so each coefficient is one fsum, and the
    infinitesimal part of a FermatReal c is multiplied and added apart."""
    den = _common_den([t for h in hs for t in h.terms])
    kmin = [_on_lattice(h.terms[:1], den)[0][1] if h.terms else den + 1 for h in hs]
    powers = [[ONE, h] for h in hs]
    for table, h, k in zip(powers, hs, kmin):
        while len(table) * k <= den:
            table.append(mul(table[-1], h))
    base, raw, rest = [], [], []
    for q, coeff in entries:
        if sum(i * k for i, k in zip(q, kmin)) > den:
            continue
        factors = [table[i] for table, i in zip(powers, q) if i]
        mono = reduce(mul, factors) if factors else ONE
        c = coeff()
        if isinstance(c, FermatReal):
            if c.terms:
                part = FermatReal(0.0, c.terms)
                rest.append(part if mono is ONE else mul(part, mono))
            c = c.std
        if mono is ONE:
            base.append(c)
        raw += [(c * ck, k) for ck, k in _on_lattice(mono.terms, den)]
    return reduce(add, rest, _lattice(base, raw, den))


def _taylor(x: FermatReal, a: Callable[[int], float]) -> FermatReal:
    """Taylor sum ``sum(a(i) * h**i)`` at x = r + h, with a(i) the i-th
    Taylor coefficient at r and i up to N = floor(order(h)): h**(N+1)
    vanishes, so the sum is exact.  The one-parameter case of ``_poly``."""
    n = math.floor(x.terms[0].order) if x.terms else 0
    entries = [((i,), partial(a, i)) for i in range(n + 1)]
    return _poly([FermatReal(0.0, x.terms)], entries)


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
    den = _common_den(x.terms)
    u = _lattice([1.0], [(c / x.std, k) for c, k in _on_lattice(x.terms, den)], den)
    s = 1.0 / x.std
    return _taylor(u, lambda i: -s if i % 2 else s)


def _as_level(a, what: str):
    """Truncation and ideal levels: nonnegative rationals, or math.inf."""
    if isinstance(a, float) and math.isinf(a) and a > 0:
        return math.inf
    q = _as_rational(a, what)
    if q < 0:
        raise ValueError(f"{what} must be >= 0, got {q}")
    return q


def iota(x, k) -> FermatReal:
    """Truncation at level k: keep the standard part and the terms of
    order strictly greater than k.  ``iota(x, 0) == x``; k = math.inf
    strips every infinitesimal."""
    x = as_fermat(x)
    level = _as_level(k, "truncation level")
    return FermatReal(x.std, tuple(t for t in x.terms if t.order > level))


def eq_up_to(x, y, k) -> bool:
    """Equality up to infinitesimals of order <= k."""
    return iota(x, k) == iota(y, k)


def standard_part(x) -> float:
    """The real shadow: the value at t = 0."""
    return as_fermat(x).std


_END = Term(0.0, Fraction(2))  # after every term: exponents are at most 1


def _cmp(x: FermatReal, y: FermatReal) -> int:
    """Sign of x - y in the total order, without forming x - y.

    The standard parts decide, then the highest-order term where x and y
    differ: comparing representatives near t = 0 reduces to this rule on
    canonical forms.  Terms are sorted, so it is the first position where
    the tuples differ; a side with no term at the smaller exponent there
    (``_END`` pads the shorter) counts 0.  Nothing is added or subtracted,
    so nothing can overflow.
    """
    a, b = x.std, y.std
    if a == b:
        for tx, ty in zip_longest(x.terms, y.terms, fillvalue=_END):
            if tx.exp != ty.exp or tx.coeff != ty.coeff:
                a = tx.coeff if tx.exp <= ty.exp else 0.0
                b = ty.coeff if ty.exp <= tx.exp else 0.0
                break
        else:
            return 0
    return 1 if a > b else -1


def leading_sign(x) -> int:
    """Sign of x in the total order: 1 or -1, and 0 for zero.  A nonzero
    standard part decides, otherwise the highest-order term's coefficient."""
    return _cmp(as_fermat(x), ZERO)
