"""Remainder-free calculus over nilpotent infinitesimals.

Extending a smooth function f to an argument x = r + h (r real, h the
infinitesimal part) is a *finite* Taylor sum

    sum_{i=0..N} a_i * h**i,      a_i = f_i(r)/i!,  N = floor(order(h)),

exact because h**(N+1) vanishes.  Each catalog function streams its a_i as
exact integer pairs (p, q), each from the last by an integer recurrence, and
each is rounded once: correctly, even where f_i(r) itself is past binary64.

Also here: the first-derivative extractor built on square-zero
increments, powers and logarithms with positive invertible bases, and
infinitesimal polynomials with smooth coefficients, which also evaluate
the multivariate Taylor sum.  Taylor sums run core's kernel, like
``invert``; polynomials run its multi-index kernel, which prunes vanishing
monomials with the exact product-of-powers test.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, NamedTuple, Sequence

from .core import (
    FermatReal,
    add,
    as_fermat,
    dt,
    from_real,
    invert,
    mul,
    sub,
    _leading,
    _natural,
    _poly,
    _taylor,
)
from .errors import (
    DomainError,
    NonFiniteError,
    NotInIdealError,
    NotInvertibleError,
    NotSmoothAtPointError,
)
from .order import in_ideal

_DT1 = dt(1)

Pairs = Iterator[tuple[int, int]]


# -- Taylor-coefficient streams: a_i = p / q exactly, in order ------------

def _cycle_tower(cycle, r: float) -> Pairs:
    """(p, q * i!) for derivatives f_i(r) = p / q that repeat ``cycle(r)``; i!
    stops growing past 2**2200, where p / q over either is the same signed 0."""
    scale = 1
    for i, v in enumerate(itertools.cycle(cycle(r)), 1):
        p, q = v.as_integer_ratio()
        yield p, q * scale
        if scale.bit_length() <= 2200:
            scale *= i


_exp_tower = partial(_cycle_tower, lambda r: (math.exp(r),))
_sin_tower = partial(_cycle_tower,
                     lambda r: (math.sin(r), math.cos(r), -math.sin(r), -math.cos(r)))
_cos_tower = partial(_cycle_tower,
                     lambda r: (math.cos(r), -math.sin(r), -math.cos(r), math.sin(r)))


def _tan_tower(r: float) -> Pairs:
    """With tan(r) = n/d, a_k = A_k / (k! * d**(k+1)): A_0 = n, A_1 = n*n + d*d
    from tan' = 1 + tan**2, whose Cauchy product gives the integers
    A_{k+1} = sum_j C(k, j) * A_j * A_{k-j}."""
    n, d = math.tan(r).as_integer_ratio()
    A, q = [n, n * n + d * d], d
    for k in itertools.count(1):
        yield A[k - 1], q
        q *= k * d
        A.append(sum(math.comb(k, j) * A[j] * A[k - j] for j in range(k + 1)))


def _atan_tower(r: float) -> Pairs:
    """atan' = Im(1 / (r - 1j)), so a_i = Im((-1)**(i-1) / (r - 1j)**i) / i
    for i >= 1, and 1 / (r - 1j) = d * (n + d*1j) / (n*n + d*d) at r = n/d:
    one Gaussian-integer step per i, with d**i (d a power of two) a shift."""
    yield math.atan(r).as_integer_ratio()
    n, d = r.as_integer_ratio()
    m, k = n * n + d * d, d.bit_length() - 1
    re, im, q = -1, 0, 1
    for i in itertools.count(1):
        re, im, q = im * d - re * n, -re * d - im * n, q * m
        yield im << k * i, i * q


def _power_tower(c: Fraction, value, r: float) -> Pairs:
    """r**c by a_{i+1} = a_i * (c - i) / ((i + 1) * r) on the integers of
    r = n/d, from the exact r**c for an integer |c| <= 1024 (past that,
    powers of r run to megabits), with a_i = C(c, i) * r**(c-i) for i < c so
    that r = 0 divides nothing there; else from ``value(r)``, which for sqrt
    is math.sqrt, since ``r**0.5`` is not always sqrt(r)."""
    p, q = c.numerator, c.denominator
    exact = q == 1 and abs(p) <= 1024
    if exact:
        n, d = r.as_integer_ratio()
        for i in range(p):
            yield math.comb(p, i) * n ** (p - i), d ** (p - i)
        a, b = (1, 1) if p >= 0 else (d**-p, n**-p)
    else:
        a, b = value(r).as_integer_ratio()
    yield a, b
    n, d = r.as_integer_ratio()
    n, d = abs(n), -d if n < 0 else d  # b keeps its sign: a zero a_i stays 0.0
    for i in itertools.count(max(p, 0) if exact else 0):
        a, b = a * (p - i * q) * d, b * (i + 1) * q * n
        yield a, b


_sqrt_tower = partial(_power_tower, Fraction(1, 2), math.sqrt)
_recip_tower = partial(_power_tower, Fraction(-1), None)


def _ln_tower(r: float) -> Pairs:
    yield math.log(r).as_integer_ratio()
    for i, (a, b) in enumerate(_recip_tower(r), 1):
        yield a, b * i


def _any_real(r: float) -> bool:
    return True


def _positive(r: float) -> bool:
    return r > 0


def _nonzero(r: float) -> bool:
    return r != 0


def _cos_nonzero(r: float) -> bool:
    return math.cos(r) != 0.0


class ElementaryFn(NamedTuple):
    """A smooth function with an exact Taylor-coefficient stream: ``tower(r)``
    lazily yields a_i = f_i(r) / i! at the real point r, i = 0 first, as
    integer pairs (p, q) with a_i = p / q exactly, given the float f(r) where
    f is transcendental (or, where a_i rounds to a signed zero, a pair that
    rounds to it).  ``domain`` checks an argument's standard part."""

    name: str
    tower: Callable[[float], Pairs]
    domain: Callable[[float], bool]
    domain_desc: str

    def value(self, r: float) -> float:
        p, q = next(self.tower(r))
        return p / q


EXP = ElementaryFn("exp", _exp_tower, _any_real, "any real")
LN = ElementaryFn("ln", _ln_tower, _positive, "standard part > 0")
SIN = ElementaryFn("sin", _sin_tower, _any_real, "any real")
COS = ElementaryFn("cos", _cos_tower, _any_real, "any real")
TAN = ElementaryFn("tan", _tan_tower, _cos_nonzero, "cos(standard part) != 0")
ATAN = ElementaryFn("atan", _atan_tower, _any_real, "any real")
SQRT = ElementaryFn("sqrt", _sqrt_tower, _positive, "standard part > 0")
RECIP = ElementaryFn("recip", _recip_tower, _nonzero, "standard part != 0")

CATALOG = {f.name: f for f in (EXP, LN, SIN, COS, TAN, ATAN, SQRT, RECIP)}


def pow_const(c: float) -> ElementaryFn:
    """Power function with a fixed real exponent, on positive bases."""
    e = float(c)
    tower = partial(_power_tower, Fraction(e), lambda r: math.pow(r, e))
    return ElementaryFn(f"pow[{c}]", tower, _positive, "standard part > 0")


def _non_finite(name: str, js, at) -> NonFiniteError:
    index, point = ",".join(map(str, js)), ", ".join(f"{v:g}" for v in at)
    return NonFiniteError(f"{name}: Taylor coefficient {index} at {point} "
                          "has no finite binary64 value")


def _taylor_coeff(value, js, name: str, at) -> float:
    """value / prod(j! for j in js) rounded once; inf or NaN raises NonFiniteError."""
    try:
        p, q = float(value).as_integer_ratio()
    except (OverflowError, ValueError):
        raise _non_finite(name, js, at) from None
    return p / (q * math.prod(map(math.factorial, js)))


def _coefficients(f: ElementaryFn, r: float) -> Iterator[float]:
    """f's Taylor coefficients at r, rounded once; an overflow raises NonFiniteError."""
    i = 0
    try:
        for p, q in f.tower(r):
            yield p / q
            i += 1
    except OverflowError:
        raise _non_finite(f.name, (i,), (r,)) from None


def ext_apply(f: ElementaryFn, x) -> FermatReal:
    """Extend f to a Fermat-real argument by exact Taylor truncation.

    Runs core's Taylor kernel, the one ``invert`` uses, on f's coefficient
    stream, read lazily and in order: an error stops at the first bad
    coefficient.  Domain membership is checked on the standard part only,
    which infinitesimal perturbations never leave.  sin, cos and tan have no
    value at an infinite standard part: that is NonFiniteError, as is a
    coefficient past binary64."""
    x = as_fermat(x)
    r = x.std
    coeffs = _coefficients(f, r)
    try:
        inside = f.domain(r)
        if inside and math.isinf(r):
            coeffs = itertools.chain([next(coeffs)], coeffs)
    except ValueError:
        raise NonFiniteError(f"{f.name}: no value at standard part {r:g}") from None
    if not inside:
        raise DomainError(
            f"{f.name}: standard part {format(r, 'g')} outside domain "
            f"({f.domain_desc})"
        )
    return _taylor(x, coeffs)


def derive(f: Callable[[FermatReal], FermatReal], at: float) -> float:
    """First derivative of f at a real point via a square-zero increment.

    Evaluates f at ``at + dt[1]`` and demands that the increment over
    f(at) be exactly ``m * dt[1]``; that m is the derivative.  Any
    surviving residual of a different order, or a domain failure while
    evaluating, means f is not smooth at the point.

    f is any callable over Fermat reals, e.g. ``expr.as_function`` of a
    parsed expression or ``functools.partial(ext_apply, CATALOG["sin"])``.
    """
    at = float(at)
    try:
        base = as_fermat(f(from_real(at)))
        shifted = as_fermat(f(add(from_real(at), _DT1)))
    except (DomainError, NotInvertibleError) as exc:
        raise NotSmoothAtPointError(f"evaluation failed at {at!r}: {exc}") from exc
    d = sub(shifted, base)
    if d.std != 0.0:
        raise NotSmoothAtPointError(
            f"increment at {at!r} has nonzero standard part {d.std!r}"
        )
    if not d.ks:
        return 0.0
    if d.den != 1 or d.ks != (1,):  # anything but one term dt[1], exponent 1/1
        raise NotSmoothAtPointError(
            f"increment at {at!r} has residual terms of order != 1: {d}"
        )
    return d.cs[0]


def taylor_multi(
    partials: Callable[[tuple[int, ...], tuple[float, ...]], float],
    x: Sequence[float],
    h: Sequence,
    n: int,
) -> FermatReal:
    """Multivariate Taylor sum f(x + h) to total degree n, exact when
    every displacement is nilpotent at level n.

    ``partials(j, x)`` must return the mixed partial of multi-index j at
    the real point x.  The sum is evaluated as the infinitesimal polynomial
    in h with coefficients d^j f(x) / j! (rounded once), as by
    :func:`eval_param_poly`.  Only the multi-indices whose monomial h**j
    survives the product-of-powers test are listed, so the oracle is never
    consulted for a vanishing one.
    """
    _natural(n, "degree")
    xs = tuple(float(v) for v in x)
    hs = ParamPoly(h, (), n).params  # its parameter checks alone: no entries
    den, kmin = _leading(hs)
    # (j, room, degree left), extended one parameter at a time in
    # lexicographic order, keeping sum(j) <= n and sum(j_k * kmin_k) <= den
    js = [((), den, n)]
    for k in kmin:
        js = [(j + (i,), room - i * k, left - i)
              for j, room, left in js for i in range(min(left, room // k) + 1)]
    entries = [
        (j, lambda j=j: _taylor_coeff(partials(j, xs), j, "taylor_multi", xs))
        for j, _, _ in js
    ]
    return _poly(hs, entries)


def power(x, y) -> FermatReal:
    """x ** y for a strictly positive invertible base, as exp(y * ln x)."""
    x, y = as_fermat(x), as_fermat(y)
    if not x.std > 0:
        raise DomainError("power: base must be strictly positive and invertible")
    return ext_apply(EXP, mul(y, ext_apply(LN, x)))


def log(base, y) -> FermatReal:
    """Logarithm of y in the given base, as ln(y)/ln(base); both
    arguments must be strictly positive and invertible."""
    base, y = as_fermat(base), as_fermat(y)
    if not base.std > 0:
        raise DomainError("log: base must be strictly positive and invertible")
    if not y.std > 0:
        raise DomainError("log: argument must be strictly positive and invertible")
    ln_base = ext_apply(LN, base)
    if ln_base.std == 0.0:
        raise DomainError("log: base has standard part 1, so ln(base) is not invertible")
    return mul(ext_apply(LN, y), invert(ln_base))


class ParamPoly:
    """Infinitesimal polynomial with smooth coefficients.

    Models functions of the shape ``sum_q a_q(point) * p**q`` where the
    parameters p are infinitesimal, nilpotent at the given level, and
    each multi-index q has total degree at most that level.  Every
    non-standard smooth map looks locally like this.

    ``entries`` pairs a multi-index over the parameters with a
    coefficient callable; the callable receives the evaluation point
    (one positional argument per variable) and may return a float or a
    FermatReal.  A parameter not nilpotent at the level raises
    NotInIdealError.
    """

    def __init__(self, params: Sequence, entries: Sequence, level: int):
        self.params = tuple(as_fermat(p) for p in params)
        self.level = _natural(level, "level")
        self.entries = tuple((tuple(q), fn) for q, fn in entries)
        for p in self.params:
            if not in_ideal(p, self.level):
                raise NotInIdealError(
                    f"parameter {p} is not nilpotent at level {self.level}"
                )
        for q, _ in self.entries:
            if len(q) != len(self.params):
                raise ValueError(
                    f"multi-index {q} does not match {len(self.params)} parameters"
                )
            for qi in q:
                _natural(qi, f"multi-index {q} entry")
            if sum(q) > self.level:
                raise ValueError(
                    f"multi-index {q} exceeds total degree {self.level}"
                )

    def __repr__(self) -> str:
        return (
            f"<ParamPoly {len(self.entries)} entries, "
            f"{len(self.params)} params, level {self.level}>"
        )


def eval_param_poly(p: ParamPoly, *point) -> FermatReal:
    """Evaluate the polynomial at a point (one argument per variable).

    A call to core's polynomial kernel: vanishing parameter monomials are
    pruned by the product-of-powers test before their coefficient is
    evaluated, and every entry counts, repeated multi-indices included.
    Domain errors from coefficient callables propagate.
    """
    vals = tuple(as_fermat(v) for v in point)
    return _poly(p.params, [(q, partial(fn, *vals)) for q, fn in p.entries])
