"""Remainder-free calculus over nilpotent infinitesimals.

Extending a smooth function f to an argument x = r + h (r real, h the
infinitesimal part) is a *finite* Taylor sum

    f(r) + sum_{i=1..N} f_i(r)/i! * h**i,      N = floor(order(h)),

exact because h**(N+1) vanishes.  Each catalog function carries a
derivative tower giving f_i(r) in closed form (cycles for sin/cos, an
integer-polynomial recurrence for tan), so high-order coefficients never
accumulate error from nested differentiation.  The towers of atan and of
sqrt, recip, pow_const and ln (one falling-factorial tower) are exact on
the integers n, d of r = n/d and round once, as one int / int division; a
derivative past binary64 is divided by i! before that rounding.

Also here: the first-derivative extractor built on square-zero
increments, powers and logarithms with positive invertible bases, and
infinitesimal polynomials with smooth coefficients, which also evaluate
the multivariate Taylor sum.  These Taylor sums and polynomials, like
``invert``, are calls to core's one infinitesimal-polynomial kernel, which
prunes vanishing monomials with the exact product-of-powers test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Sequence

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


# -- derivative towers --------------------------------------------------

def _exp_tower(r: float, i: int) -> float:
    return math.exp(r)


_SIN_CYCLE = (
    math.sin,
    math.cos,
    lambda r: -math.sin(r),
    lambda r: -math.cos(r),
)


def _sin_tower(r: float, i: int) -> float:
    return _SIN_CYCLE[i % 4](r)


def _cos_tower(r: float, i: int) -> float:
    return _SIN_CYCLE[(i + 1) % 4](r)


def _poly_eval(p: tuple[int, ...], u: float) -> float:
    acc = 0.0
    for c in reversed(p):
        acc = acc * u + c
    return acc


@lru_cache(maxsize=None)
def _tan_poly(i: int) -> tuple[int, ...]:
    # p_i over u = tan(r) with d^i tan = p_i(u):  p_0 = u,
    # p_{i+1} = p_i' * (1 + u**2).  Integer coefficients, exact.
    if i == 0:
        return (0, 1)
    dp = tuple(k * c for k, c in enumerate(_tan_poly(i - 1)))[1:]
    out = [0] * (len(dp) + 2)
    for k, c in enumerate(dp):
        out[k] += c
        out[k + 2] += c
    return tuple(out)


def _tan_tower(r: float, i: int) -> float:
    return _poly_eval(_tan_poly(i), math.tan(r))


class _Huge(OverflowError):
    """A tower value past binary64, as the ``(n, d, scale)`` of _exact."""


def _exact(n: int, d: int, scale=None) -> float:
    """n / d rounded once, times ``scale()`` if given; CPython rounds an
    int / int true division correctly, as ``float(Fraction(n, d))`` does."""
    if d < 0:
        n, d = -n, -d
    try:
        ratio = n / d
    except OverflowError:
        raise _Huge(n, d, scale) from None
    return ratio * scale() if scale else ratio


def _atan_tower(r: float, i: int) -> float:
    """With r = n/d, atan's i-th derivative is
    ``(-1)**(i-1) * (i-1)! * Im((n + d*1j)**i) * d**i / (n*n + d*d)**i``."""
    if i == 0:
        return math.atan(r)
    n, d = r.as_integer_ratio()
    re, im = 1, 0
    for _ in range(i):
        re, im = re * n - im * d, re * d + im * n
    return _exact((-1) ** (i - 1) * math.factorial(i - 1) * im * d**i, (n * n + d * d) ** i)


def _power_tower(c: Fraction, value, r: float, i: int) -> float:
    """Derivative tower of r**c: ``(c)_i * r**(c-i)``, the falling factorial
    ``(c)_i`` exact.  An integer |c| <= 1024 rounds the whole product once
    (past that, powers of r run to megabits); otherwise ``(c)_i / r**i`` is
    rounded once and scaled by ``value(r)``, the float r**c, which for sqrt
    is math.sqrt, since ``r**0.5`` is not always ``sqrt(r)``.
    """
    p, q = c.numerator, c.denominator
    exact = q == 1 and abs(p) <= 1024
    if i == 0 and not exact:
        return value(r)
    falling = math.prod(range(p, p - i * q, -q))
    n, d = r.as_integer_ratio()
    if not exact:
        return _exact(falling * d**i, (q * n) ** i, partial(value, r))
    e = p - i
    return _exact(falling * n**e, d**e) if e >= 0 else _exact(falling * d**-e, n**-e)


_sqrt_tower = partial(_power_tower, Fraction(1, 2), math.sqrt)
_recip_tower = partial(_power_tower, Fraction(-1), None)


def _ln_tower(r: float, i: int) -> float:
    return math.log(r) if i == 0 else _recip_tower(r, i - 1)


def _any_real(r: float) -> bool:
    return True


def _positive(r: float) -> bool:
    return r > 0


def _nonzero(r: float) -> bool:
    return r != 0


def _cos_nonzero(r: float) -> bool:
    return math.cos(r) != 0.0


class ElementaryFn(NamedTuple):
    """A smooth function with a closed-form derivative tower.

    ``tower(r, i)`` is the i-th derivative at the real point r (i = 0 is
    the value itself); ``domain`` checks the standard part of an
    argument before extension.
    """

    name: str
    tower: Callable[[float, int], float]
    domain: Callable[[float], bool]
    domain_desc: str

    def value(self, r: float) -> float:
        return self.tower(r, 0)


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
    tower = partial(_power_tower, Fraction(e), lambda r: r**e)
    return ElementaryFn(f"pow[{c}]", tower, _positive, "standard part > 0")


def _taylor_coeff(value, js, name: str, at) -> float:
    """value / prod(j! for j in js), the exact quotient rounded once, for
    any js; value is a float or a tower's _Huge.  An infinite or NaN value,
    or a quotient past binary64, raises NonFiniteError naming the function,
    the multi-index and the point."""
    if not isinstance(value, _Huge):
        value = float(value)
    try:
        if isinstance(value, float):
            p, q = value.as_integer_ratio()
            if max(js, default=0) >= 320:  # 320! > 2**2200: below 2**-1075
                return math.copysign(0.0, p)
            return p / (q * math.prod(map(math.factorial, js)))
        p, q, scale = value.args
        c = p / (q * math.prod(map(math.factorial, js))) * (scale() if scale else 1.0)
        if math.isinf(c):
            raise OverflowError
        return c
    except (OverflowError, ValueError):
        index, point = ",".join(map(str, js)), ", ".join(f"{v:g}" for v in at)
        raise NonFiniteError(f"{name}: Taylor coefficient {index} at {point} "
                             "has no finite binary64 value") from None


def ext_apply(f: ElementaryFn, x) -> FermatReal:
    """Extend f to a Fermat-real argument by exact Taylor truncation.

    Runs core's Taylor kernel, the one ``invert`` uses, with coefficients
    f_i(r) / i! from the tower; the sum stops at floor(order(h)) and on a
    plain real is just f itself.  Domain membership is checked on the
    standard part only: infinitesimal perturbations never leave the domain.
    sin, cos and tan have no value at an infinite standard part: that is
    NonFiniteError, as is a tower value past binary64.
    """
    x = as_fermat(x)
    r = x.std

    def coeff(i: int) -> float:
        try:
            value = f.tower(r, i)
        except OverflowError as exc:  # the tower's value is past binary64
            value = exc if isinstance(exc, _Huge) else math.inf
        return _taylor_coeff(value, (i,), f.name, (r,))

    try:
        inside = f.domain(r)
        if inside and math.isinf(r):
            coeff(0)
    except ValueError:
        raise NonFiniteError(f"{f.name}: no value at standard part {r:g}") from None
    if not inside:
        raise DomainError(
            f"{f.name}: standard part {format(r, 'g')} outside domain "
            f"({f.domain_desc})"
        )
    return _taylor(x, coeff)


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
    in h with coefficients d^j f(x) / j! (rounded once) by
    :func:`eval_param_poly`.  Only the multi-indices whose monomial h**j
    survives the product-of-powers test are listed, so the oracle is never
    consulted for a vanishing one.
    """
    _natural(n, "degree")
    xs = tuple(float(v) for v in x)
    hs = [as_fermat(v) for v in h]
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
    return eval_param_poly(ParamPoly(hs, entries, n))


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
