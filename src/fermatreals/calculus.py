"""Remainder-free calculus over nilpotent infinitesimals.

Extending a smooth function f to an argument x = r + h (r real, h the
infinitesimal part) is a *finite* Taylor sum

    sum_{i=0..N} a_i * h**i,      a_i = f_i(r)/i!,  N = floor(order(h)),

exact because h**(N+1) vanishes, so N is known before any a_i is needed.
Each catalog function's ``tower(r, n)`` is the list a_0 .. a_n: its fill
steps exact integers by a recurrence and puts each a_i as p / q * 2**k, and
the tower alone scales and rounds it, once, even where f_i(r) is past binary64.

Also here: the first-derivative extractor built on square-zero
increments, powers and logarithms with positive invertible bases, and
infinitesimal polynomials with smooth coefficients, which also evaluate
the multivariate Taylor sum.  Taylor sums run core's kernel, like
``invert``; polynomials run its multi-index kernel, which prunes vanishing
monomials with the exact product-of-powers test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
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
    _binary64,
    _leading,
    _natural,
    _poly,
    _printable,
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

# -- Taylor-coefficient towers: each fill puts a_0 .. a_n as exact integers

def _cycle(values: tuple, n: int, put) -> None:
    """p / (q * i!) for derivatives f_i(r) = p / q that repeat ``values``;
    i! stops growing past 2**2200, where p / q over either is the same signed 0."""
    pqs, scale = [v.as_integer_ratio() for v in values], 1
    for i in range(n + 1):
        p, q = pqs[i % len(pqs)]
        put(p, q * scale)
        if scale.bit_length() <= 2200:
            scale *= i + 1


def _tan_tower(r: float, n: int, put) -> None:
    """With tan(r) = t/d, a_k = A_k / (k! * d**(k+1)): A_0 = t, A_1 = t*t + d*d
    from tan' = 1 + tan**2, whose Cauchy product gives the integers
    A_{k+1} = sum_j C(k, j) * A_j * A_{k-j}, each symmetric pair once, along
    a running binomial row."""
    t, d = math.tan(r).as_integer_ratio()
    A, q = [t, t * t + d * d], d
    put(t, q)
    for k in range(1, n + 1):
        q *= k * d
        put(A[k], q)
        if k < n:
            s, c = 0, 1
            for j in range((k + 1) // 2):
                s += c * A[j] * A[k - j]
                c = c * (k - j) // (j + 1)
            A.append(2 * s + (0 if k % 2 else c * A[k // 2] ** 2))


def _atan_tower(r: float, n: int, put) -> None:
    """atan' = Im(1 / (r - 1j)), so a_i = Im((-1)**(i-1) / (r - 1j)**i) / i
    for i >= 1, and 1 / (r - 1j) = d * (m + d*1j) / (m*m + d*d) at r = m/d:
    one Gaussian-integer step per i, with d**i (d a power of two) a shift."""
    put(*math.atan(r).as_integer_ratio())
    m, d = r.as_integer_ratio()
    mm, k, re, im, q = m * m + d * d, d.bit_length() - 1, -1, 0, 1
    for i in range(1, n + 1):
        re, im, q = im * d - re * m, -re * d - im * m, q * mm
        put(im, i * q, k * i)


def _power_tower(c: Fraction, value, r: float, n: int, put) -> None:
    """r**c by a_{i+1} = a_i * (c - i) / ((i + 1) * r) on the integers of
    r = m/d, from the exact r**c for an integer |c| <= 1024 (past that,
    powers of r run to megabits), with a_i = C(c, i) * r**(c-i) for i < c
    so that r = 0 divides nothing there; else from ``value(r)``, which for
    sqrt is math.sqrt, since ``r**0.5`` is not always sqrt(r)."""
    (p, q), (m, d) = c.as_integer_ratio(), r.as_integer_ratio()
    if q == 1 and abs(p) <= 1024:
        start, a, b = (p, 1, 1) if p >= 0 else (0, d**-p, m**-p)
        for i in range(min(start, n + 1)):
            put(math.comb(p, i) * m ** (p - i), d ** (p - i))
    else:
        start, (a, b) = 0, value(r).as_integer_ratio()
    m, d = abs(m), -d if m < 0 else d  # b keeps its sign
    for i in range(start, n + 1):
        put(a, b)
        a, b = a * (p - i * q) * d, b * (i + 1) * q * m


def _ln_tower(r: float, n: int, put) -> None:
    """a_i = (-1)**(i-1) / (i * r**i), i >= 1, on the integers of r = m/d."""
    put(*math.log(r).as_integer_ratio())
    (m, d), a, b = r.as_integer_ratio(), -1, 1
    for i in range(1, n + 1):
        a, b = -a * d, b * m
        put(a, b * i)


class ElementaryFn(NamedTuple):
    """A smooth function with exact Taylor coefficients: ``tower(r, n)`` is
    the list a_0 .. a_n, a_i = f_i(r) / i! at the real point r, each put as
    exact integers and rounded once by the tower (f(r) is the float where f
    is transcendental); the first with no finite binary64 value raises
    NonFiniteError naming its index.  ``domain`` checks an argument's standard part."""

    name: str
    tower: Callable[[float, int], list]
    domain: Callable[[float], bool]
    domain_desc: str

    def value(self, r: float) -> float:
        return self.tower(r, 0)[0]


def _fn(name: str, fill, domain, domain_desc: str, bound=None) -> ElementaryFn:
    """Its ``tower(r, n)`` is the list a_0 .. a_n that ``fill(r, n, put)`` puts,
    in order and exactly: ``put(p, q, k=0)`` is a_i = p / q * 2**k, rounded once
    as it is put.  With a ``tower.bound``, ``tower(r, n, e)`` adds e*i to k, for
    a_i * 2**(e*i); the first OverflowError, at i, is NonFiniteError naming i."""

    def tower(r: float, n: int, e: int = 0) -> list:
        if e and bound is None:  # _cycle's capped i! is no scaled coefficient
            raise TypeError(f"{name}: tower takes no scale")
        out = []

        def put(p: int, q: int, k: int = 0) -> None:
            k += e * len(out)
            out.append((p << k) / q if k >= 0 else p / (q << -k))

        try:
            fill(r, n, put)
        except OverflowError:
            raise _non_finite(name, (len(out),), (r,)) from None
        return out

    tower.bound = bound
    return ElementaryFn(name, tower, domain, domain_desc)


_ANY, _POSITIVE = "any real", "standard part > 0"
EXP = _fn("exp", lambda r, n, put: _cycle((math.exp(r),), n, put), lambda r: True, _ANY)
LN = _fn("ln", _ln_tower, lambda r: r > 0, _POSITIVE, abs)
SIN = _fn("sin", lambda r, n, put: _cycle(
    (math.sin(r), math.cos(r), -math.sin(r), -math.cos(r)), n, put), lambda r: True, _ANY)
COS = _fn("cos", lambda r, n, put: _cycle(
    (math.cos(r), -math.sin(r), -math.cos(r), math.sin(r)), n, put), lambda r: True, _ANY)
TAN = _fn("tan", _tan_tower, lambda r: math.cos(r) != 0.0, "cos(standard part) != 0")
ATAN = _fn("atan", _atan_tower, lambda r: True, _ANY, lambda r: max(abs(r), 1.0))
SQRT = _fn("sqrt", partial(_power_tower, Fraction(1, 2), math.sqrt), lambda r: r > 0,
           _POSITIVE, abs)
RECIP = _fn("recip", partial(_power_tower, Fraction(-1), None), lambda r: r != 0,
            "standard part != 0", abs)

CATALOG = {f.name: f for f in (EXP, LN, SIN, COS, TAN, ATAN, SQRT, RECIP)}


def pow_const(c: float) -> ElementaryFn:
    """Power function with a fixed real exponent, on positive bases."""
    e = _binary64(c, "pow_const exponent")
    fill = partial(_power_tower, Fraction(e), lambda r: math.pow(r, e))
    return _fn(f"pow[{c}]", fill, lambda r: r > 0, _POSITIVE, abs)


def _non_finite(name: str, js, at) -> NonFiniteError:
    index, point = ",".join(map(str, js)), ", ".join(f"{v:g}" for v in at)
    return NonFiniteError(f"{name}: Taylor coefficient {index} at {point} "
                          "has no finite binary64 value")


def _taylor_coeff(value, js, name: str, at) -> float:
    """value / prod(j! for j in js) rounded once; inf or NaN raises NonFiniteError."""
    try:
        p, q = _binary64(value).as_integer_ratio()
    except (OverflowError, ValueError):
        raise _non_finite(name, js, at) from None
    return p / (q * math.prod(map(math.factorial, js)))


def _log2(v: float) -> int:
    """log2 v cut toward 0, exactly, from frexp's v = m * 2**x, m in [0.5, 1):
    so at most 1023, where math.log2 rounds the largest floats up to 1024."""
    m, x = math.frexp(v)
    return x - 1 if x > 0 or m == 0.5 else x


def ext_apply(f: ElementaryFn, x) -> FermatReal:
    """Extend f to a Fermat-real argument by exact Taylor truncation.

    Runs core's Taylor kernel, the one ``invert`` uses, on u = h/s: s = 1
    unless f's tower has a ``bound``, else 2**e, e the median of 0, log2
    ``bound(r)`` and log2 of h's largest coefficient cut toward 0, and cut so
    that (m/s)**N, m h's smallest, stays normal: s moves u and the a_i toward
    1, and no product of u's coefficients leaves binary64 where h's stayed.
    Domain membership is checked on the standard part only, which no
    infinitesimal leaves; the first a_i * s**i past binary64 is NonFiniteError."""
    x = as_fermat(x)
    r = x.std
    if not f.domain(r):
        raise DomainError(
            f"{f.name}: standard part {format(r, 'g')} outside domain "
            f"({f.domain_desc})"
        )
    if (bound := getattr(f.tower, "bound", None)) is None:
        return _taylor(x, f.tower)
    e = sorted([0, _log2(bound(r)), _log2(max(map(abs, x.cs), default=1.0))])[1]
    if e > 0:  # log2 m >= frexp's exponent - 1; N = den // ks[0]
        e = max(0, min(e, math.frexp(min(map(abs, x.cs)))[1] - 1 + 1022 // (x.den // x.ks[0])))
    return _taylor(x, lambda r, n: f.tower(r, n, e), math.ldexp(1.0, e))


def derive(f: Callable[[FermatReal], FermatReal], at: float) -> float:
    """First derivative of f at a real point via a square-zero increment.

    Evaluates f at ``at + dt[1]`` and demands that the increment over
    f(at) be exactly ``m * dt[1]``; that m is the derivative.  Any
    surviving residual of a different order, or a domain failure while
    evaluating, means f is not smooth at the point.

    f is any callable over Fermat reals, e.g. ``expr.as_function`` of a
    parsed expression or ``functools.partial(ext_apply, CATALOG["sin"])``.
    """
    at = _binary64(at)
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
            f"increment at {at!r} has residual terms of order != 1: {_printable(d.__str__)}"
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
    xs = tuple(_binary64(v, "taylor_multi point") for v in x)
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
                    f"parameter {_printable(p.__str__)} is not nilpotent at level {self.level}"
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
