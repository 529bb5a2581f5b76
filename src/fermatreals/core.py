"""Arithmetic core: reals extended with nilpotent infinitesimals.

A value is kept in canonical decomposed form: a binary64 standard part plus
finitely many infinitesimal terms ``c * dt[b]``, where ``dt[b]`` denotes
the infinitesimal of order ``b >= 1`` and ``dt[1]`` is the smallest nonzero
one.  A term carries the *potential* exponent ``a = 1/b`` in ``(0, 1]``;
multiplication adds potential exponents, and any term whose exponent
exceeds 1 is identically zero.  This makes nilpotency decidable by exact
rational comparisons.

Exponents never round: a value stores one least denominator ``den`` and an
integer numerator ``k`` per term, ``a = k/den``.  An operation puts its
operands on one common denominator, so adding exponents adds integers and
truncation is ``k <= den``.  ``FermatReal.terms`` is an exact
``Term(coeff, Fraction)`` view, built only when read.  Coefficients are
floats compared exactly: a term exists iff its coefficient is not ``0.0``.
Operations append float addends to buckets ``k -> [addends]`` (k = 0 is the
standard part) and round each bucket once with ``math.fsum`` (a lone addend
is its own fsum).  Every value is finite, as the Fermat reals have no
infinite element: ``_binary64`` alone turns a caller's number into a float,
and ``from_real``, the bucket sums and the entry points reject ±inf and NaN
with NonFiniteError.  ``_taylor`` (:func:`invert`, smooth extensions) and
``_poly`` (``calculus``' polynomials) read one power table, ``_powers``: the
list [h**0, h**1, ..., h**N], each power a ``{k: c}`` dict on one lattice.
One rule scales every Taylor sum: ``_taylor`` runs on u = h/s (s = std for
``invert``, a power of two for an extension) and folds each b_i * u**i,
b_i = a_i * s**i, into one set of buckets.  Real operands of ``add``, ``mul``
and ``_taylor`` take a short cut, ``from_real`` of one float: the same bits.

Values are immutable; every operation is a pure function, so values can be
shared freely across threads.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from functools import reduce
from typing import Iterable, NamedTuple, Tuple, Union

from .errors import FermatError, NonFiniteError, NonPositiveOrderError, NotInvertibleError

RationalLike = Union[int, Fraction, str]
_MAX_ORDER_DIGITS = 1000  # a dt literal's digits; any exact string's decimal exponent


def _long_exponent(text: str) -> bool:
    """Whether a decimal's exponent, after its e or E, is past _MAX_ORDER_DIGITS
    in magnitude: read from the text, before ``Fraction`` builds 10**exponent
    (seconds at 1e9999999, about ten times longer for each further digit)."""
    exponent = text.lower().partition("e")[2].strip()
    magnitude = exponent.lstrip("+-").replace("_", "").lstrip("0")
    return len(magnitude) > len(str(_MAX_ORDER_DIGITS)) or (
        magnitude.isdecimal() and int(magnitude) > _MAX_ORDER_DIGITS)


def _as_rational(value, what: str) -> Fraction:
    """Convert an exact input to Fraction, refusing bare floats and a string
    whose decimal exponent is past _MAX_ORDER_DIGITS."""
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(
            f"{what} must be exact: pass an int, Fraction, or string like "
            f"'3/2' or '2.1', not {value!r}"
        )
    if isinstance(value, str) and _long_exponent(value):
        raise ValueError(f"invalid {what}: {value!r} has a decimal exponent past "
                         f"{_MAX_ORDER_DIGITS} in magnitude")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid {what}: {value!r}") from exc


def format_real(v: float) -> str:
    """Shortest round-trip decimal; integral values drop the trailing .0."""
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _format_order(den: int, k: int) -> str:
    """The order ``den/k`` of the exponent ``k/den``, in lowest terms; one
    past Python's limit on the digits of a printed int raises FermatError."""
    g = math.gcd(den, k)
    try:
        return str(den // g) if k == g else f"{den // g}/{k // g}"
    except ValueError:
        raise FermatError(f"exact order too long to print: past Python's limit of "
                          f"{sys.get_int_max_str_digits()} digits per int") from None


def _printable(text) -> str:
    """``text()`` for another error's message: a value whose exact order is too
    long to print reads as a placeholder there, so that error keeps its type."""
    try:
        return text()
    except FermatError:
        return f"<not printed: an exact order of over {sys.get_int_max_str_digits()} digits>"


class Term(NamedTuple):
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


class FermatReal:
    """A real number plus finitely many nilpotent infinitesimal terms.

    Stored on its exponent lattice as ``std + sum(c * t**(k/den))`` over the
    parallel tuples ``ks`` (ints strictly increasing in ``(0, den]``) and
    ``cs`` (nonzero floats), with ``gcd(den, *ks) == 1`` (den 1 for a pure
    real).  ``terms``, the same Terms by increasing exponent (a reduced
    Fraction), is a read-only view built on first access.  Build values
    with :func:`canonicalize`, :func:`dt` or :func:`from_real`, or with the
    raw constructor ``FermatReal(std, terms)``, which canonicalizes them.
    """

    __slots__ = ("std", "den", "ks", "cs", "_terms")

    def __new__(cls, std: float, terms: Iterable[Term] = ()):
        return canonicalize(std, terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"FermatReal values are immutable: cannot change {name!r}")

    def __delattr__(self, name):
        self.__setattr__(name, None)

    def __reduce__(self):
        return FermatReal, (self.std, self.terms)

    @property
    def terms(self) -> Tuple[Term, ...]:
        try:
            return self._terms
        except AttributeError:
            terms = tuple([Term(c, Fraction(k, self.den)) for k, c in zip(self.ks, self.cs)])
            _set_terms(self, terms)
            return terms

    @property
    def is_real(self) -> bool:
        return not self.ks

    @property
    def is_infinitesimal(self) -> bool:
        return self.std == 0.0

    def __str__(self) -> str:
        out = []
        if self.std != 0.0 or not self.ks:
            out.append(format_real(self.std))
        for k, c in zip(self.ks, self.cs):
            mag = abs(c)
            unit = f"dt[{_format_order(self.den, k)}]"
            body = unit if mag == 1.0 else f"{format_real(mag)}*{unit}"
            if out:
                out.append(" - " if c < 0 else " + ")
                out.append(body)
            else:
                out.append("-" + body if c < 0 else body)
        return "".join(out)

    def __repr__(self) -> str:
        return f"<FermatReal {self}>"

    # -- equality, total order and ring operators -----------------------
    # Each lambda looks up add, sub, mul, invert or _cmp when called, so
    # rebinding those module names (as a tracer does) reaches them too.

    __eq__ = _operator(lambda x, y: x.std == y.std and x.den == y.den
                       and x.ks == y.ks and x.cs == y.cs)
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
        if not self.ks:
            return hash(self.std)
        return hash((self.std, self.den, self.ks, self.cs))

    def __bool__(self) -> bool:
        return self.std != 0.0 or bool(self.ks)

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


_set_std, _set_den, _set_ks, _set_cs, _set_terms = (
    FermatReal.__dict__[name].__set__ for name in FermatReal.__slots__
)


def _make(std: float, den: int, ks: tuple, cs: tuple) -> FermatReal:
    """A value from its lattice, which must already be canonical.  The
    slots are filled through their descriptors, past ``__setattr__``."""
    v = object.__new__(FermatReal)
    _set_std(v, std)
    _set_den(v, den)
    _set_ks(v, ks)
    _set_cs(v, cs)
    return v


ZERO = _make(0.0, 1, (), ())
ONE = _make(1.0, 1, (), ())


def _binary64(v, what: str = "") -> float:
    """float(v), an int or Fraction past binary64 read as ±inf: the one conversion
    of a number a caller passes.  Given ``what``, ±inf and NaN raise NonFiniteError."""
    try:
        v = float(v)
    except OverflowError:
        v = math.inf if v > 0 else -math.inf
    if what and v - v != 0.0:  # ±inf or NaN
        raise NonFiniteError(f"{what} has no finite binary64 value")
    return v


def from_real(r: float) -> FermatReal:
    """Embed an ordinary real; one with no finite binary64 value raises NonFiniteError."""
    return _make(_binary64(r, "standard part") + 0.0, 1, (), ())


def _try_fermat(value):
    if isinstance(value, FermatReal):
        return value
    if isinstance(value, (int, float, Fraction)) and not isinstance(value, bool):
        return from_real(value)
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
    kept = []
    for coeff, exp in raw:
        e = exp if isinstance(exp, Fraction) else Fraction(exp)
        c = _binary64(coeff)
        n, d = e.numerator, e.denominator
        if n < 0:
            raise ValueError(f"potential exponent must be >= 0, got {e}")
        if n <= d:
            kept.append((c, n, d))
    den = math.lcm(*[d for _, _, d in kept])
    buckets = {0: [_binary64(std)]}
    for c, n, d in kept:
        buckets.setdefault(n * (den // d), []).append(c)
    return _lattice(buckets, den)


def _on(x: FermatReal, den: int) -> tuple:
    """x's exponent numerators on the lattice ``den``, a multiple of x.den."""
    s = den // x.den
    return x.ks if s == 1 else tuple([k * s for k in x.ks])


def _lattice(buckets: dict, den: int) -> FermatReal:
    """The canonical form of ``sum(fsum(buckets[k]) * t**(k/den))`` over the
    buckets ``k -> [addends]``, each k in ``[0, den]``; bucket 0, the
    standard part, may be empty.  Zero sums vanish, and den and the
    surviving k are divided by their gcd (den 1 with no term)."""
    sums = _sums(buckets, den)
    std = sums.pop(0, 0.0)
    ks = list(sums)
    g = math.gcd(den, *ks)
    if g > 1:
        den //= g
        ks = [k // g for k in ks]
    return _make(std, den, tuple(ks), tuple(sums.values()))


def _sums(buckets: dict, den: int) -> dict:
    """``k -> fsum(buckets[k])`` by increasing k, for each nonzero sum (a lone
    addend is its own fsum); a sum with no finite binary64 value (overflow,
    ±inf, NaN) raises."""
    sums = {}
    try:
        for k in sorted(buckets):
            s = buckets[k]
            c = s[0] if len(s) == 1 else math.fsum(s)
            if c - c != 0.0:  # ±inf or NaN
                raise ValueError
            if c != 0.0:
                sums[k] = c
    except (OverflowError, ValueError):
        what = ("coefficient of " + _printable(lambda: f"dt[{_format_order(den, k)}]")
                if k else "standard part")
        raise NonFiniteError(f"{what} has no finite binary64 value") from None
    return sums


def _convolve(buckets: dict, xs, ys, den: int) -> dict:
    """Append each product of a term of xs and one of ys, ``(k, c)`` pairs,
    to the bucket of its exponent, x outermost as mul always did; ys (a list
    or dict view) has increasing k, so a row ends at the first k past den."""
    for i, a in xs:
        for j, b in ys:
            k = i + j
            if k > den:
                break
            if k in buckets:
                buckets[k].append(a * b)
            else:
                buckets[k] = [a * b]
    return buckets


def dt(order: RationalLike) -> FermatReal:
    """The infinitesimal generator of the given order.

    Orders below 1 collapse to zero; nonpositive orders are rejected.
    The order must be exact (int, Fraction, or a string such as ``"3/2"``
    or ``"2.1"``).
    """
    b = order if type(order) is Fraction else _as_rational(order, "dt order")
    if b <= 0:
        raise NonPositiveOrderError(f"dt order must be positive, got {b}")
    if b < 1:
        return ZERO
    return _make(0.0, b.numerator, (b.denominator,), (1.0,))


def add(x, y) -> FermatReal:
    x, y = as_fermat(x), as_fermat(y)
    if not (x.ks or y.ks):
        return from_real(x.std + y.std)
    den = math.lcm(x.den, y.den)
    buckets = {0: [x.std + y.std]}
    for k, c in zip(_on(x, den) + _on(y, den), x.cs + y.cs):
        buckets.setdefault(k, []).append(c)
    return _lattice(buckets, den)


def neg(x) -> FermatReal:
    x = as_fermat(x)
    return _make(-x.std + 0.0, x.den, x.ks, tuple([-c for c in x.cs]))


def sub(x, y) -> FermatReal:
    return add(x, neg(y))


def mul(x, y) -> FermatReal:
    """Ring product; cross terms whose exponents sum above 1 vanish."""
    x, y = as_fermat(x), as_fermat(y)
    if not (x.ks or y.ks):
        return from_real(x.std * y.std)
    den = math.lcm(x.den, y.den)
    kx, ky = _on(x, den), _on(y, den)
    buckets = {0: [x.std * y.std]} | {k: [c * y.std] for k, c in zip(kx, x.cs) if y.std != 0.0}
    xs = zip(kx, x.cs) if x.std == 0.0 else zip((0,) + kx, (x.std,) + x.cs)
    return _lattice(_convolve(buckets, xs, list(zip(ky, y.cs)), den), den)


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


def _leading(hs) -> tuple[int, list[int]]:
    """The infinitesimals hs' common lattice den, and on it each one's
    leading exponent numerator kmin_k (den + 1 for a zero h_k)."""
    den = math.lcm(*[h.den for h in hs])
    return den, [h.ks[0] * (den // h.den) if h.ks else den + 1 for h in hs]


def _powers(h: FermatReal, den: int, k: int) -> list:
    """h**0 .. h**(den // k), and h**1 in any case, as ``{k: c}`` dicts on the
    lattice den, k being h's leading numerator there: mul's convolution of
    the last power with h and one fsum per exponent, so mul's bits."""
    table = [{0: 1.0}, dict(zip(_on(h, den), h.cs))]
    while len(table) * k <= den:
        table.append(_sums(_convolve({}, table[-1].items(), table[1].items(), den), den))
    return table


def _poly(hs, entries) -> FermatReal:
    """``sum(c() * prod(h_k ** q_k))`` over the ``(q, c)`` entries: q a
    multi-index over the infinitesimals hs, c a thunk giving a float or a
    FermatReal.  On the lattice of ``_leading(hs)``, a monomial vanishes iff
    ``sum(q_k * kmin_k) > den`` (the product-of-powers theorem), and then c
    is not called.  A monomial is its ``_powers`` entries convolved on that
    one lattice.  Every float product goes into one set of buckets, so each
    coefficient is one fsum; the infinitesimal part of a FermatReal c is
    multiplied and added apart."""
    den, kmin = _leading(hs)
    unit, powers = {0: 1.0}, [_powers(h, den, k) for h, k in zip(hs, kmin)]
    buckets, rest = {}, []
    for q, coeff in entries:
        if sum(map(operator.mul, q, kmin)) > den:
            continue
        mono = unit
        for table, i in zip(powers, q):
            if i and mono is unit:
                mono = table[i]
            elif i:
                mono = _sums(_convolve({}, mono.items(), table[i].items(), den), den)
        c = coeff()
        if isinstance(c, FermatReal):
            if c.ks:
                mono_value = _lattice({k: [ck] for k, ck in mono.items()}, den)
                rest.append(mul(_make(0.0, c.den, c.ks, c.cs), mono_value))
            c = c.std
        for k, ck in mono.items():
            buckets.setdefault(k, []).append(c * ck)
    return reduce(add, rest, _lattice(buckets, den))


def _taylor(x: FermatReal, tower, s: float = 1.0) -> FermatReal:
    """Taylor sum ``sum(a_i * h**i)`` at x = r + h to N = floor(order(h)), as
    h**(N+1) vanishes, run as ``sum(b_i * u**i)`` on u = h/s: the list
    ``tower(r, N)`` of b_i = a_i * s**i is asked for once, after every power
    of u is built (``tower(r, 0)`` at a real x), and every b_i * u**i goes
    into one set of buckets, as in ``_poly``.  An s near the size of h keeps
    u and the b_i in binary64 where h**i or a_i would leave it; a power of
    two moves no bit, away from overflow and subnormals."""
    u = x if s == 1.0 else _lattice({k: [c / s] for k, c in zip(x.ks, x.cs)}, x.den)
    if not u.ks:
        return from_real(tower(x.std, 0)[0])
    buckets = {}
    for power, c in zip(_powers(u, u.den, u.ks[0]), tower(x.std, u.den // u.ks[0])):
        for k, ck in power.items():
            if k in buckets:
                buckets[k].append(c * ck)
            else:
                buckets[k] = [c * ck]
    return _lattice(buckets, u.den)


def invert(x) -> FermatReal:
    """Multiplicative inverse, defined iff the standard part is nonzero.

    The Taylor kernel of every smooth extension, run on u = h/std with the
    coefficients (-1)**i / std of 1/(std * (1 + u)): every rounded
    intermediate stays near the size of the true coefficient, whatever the
    magnitude of std; powers of std alone never appear.
    """
    x = as_fermat(x)
    if x.std == 0.0:
        raise NotInvertibleError("not invertible: standard part is 0")
    return _taylor(x, lambda r, n: ([1.0 / r, -1.0 / r] * (n // 2 + 1))[:n + 1], x.std)


def _as_level(a, what: str) -> tuple[int, int]:
    """A truncation or ideal level p/q >= 0 as the pair (p, q); math.inf is (1, 0)."""
    if isinstance(a, float) and math.isinf(a) and a > 0:
        return 1, 0
    q = _as_rational(a, what)
    if q < 0:
        raise ValueError(f"{what} must be >= 0, got {q}")
    return q.as_integer_ratio()


def iota(x, k) -> FermatReal:
    """Truncation at level k: keep the standard part and the terms of
    order strictly greater than k.  ``iota(x, 0) == x``; k = math.inf
    strips every infinitesimal."""
    x = as_fermat(x)
    p, q = _as_level(k, "truncation level")
    # Order den/j > p/q, cross-multiplied; level inf is p/q = 1/0.
    kept = {j: [c] for j, c in zip(x.ks, x.cs) if x.den * q > p * j}
    return _lattice({0: [x.std]} | kept, x.den)


def eq_up_to(x, y, k) -> bool:
    """Equality up to infinitesimals of order <= k."""
    return iota(x, k) == iota(y, k)


def standard_part(x) -> float:
    """The real shadow: the value at t = 0."""
    return as_fermat(x).std


def _cmp(x: FermatReal, y: FermatReal) -> int:
    """Sign of x - y in the total order, without forming x - y.

    The standard parts decide, then the highest-order term where x and y
    differ (the rule on representatives near t = 0): the first position
    where the sorted terms differ, each exponent numerator scaled by the
    other value's den.  A side with no term at the smaller exponent there
    counts 0; one with no terms left reads as exponent inf.  Nothing is
    added or subtracted, so nothing can overflow.
    """
    a, b = x.std, y.std
    if a == b:
        xs = zip(x.ks + (math.inf,), x.cs + (0.0,))
        ys = zip(y.ks + (math.inf,), y.cs + (0.0,))
        for (i, cx), (j, cy) in zip(xs, ys):
            i, j = i * y.den, j * x.den
            if i != j or cx != cy:
                a = cx if i <= j else 0.0
                b = cy if j <= i else 0.0
                break
        else:
            return 0
    return 1 if a > b else -1


def leading_sign(x) -> int:
    """Sign of x in the total order: 1 or -1, and 0 for zero.  A nonzero
    standard part decides, otherwise the highest-order term's coefficient."""
    return _cmp(as_fermat(x), ZERO)
