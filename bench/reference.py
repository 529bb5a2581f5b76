"""Independent reference for the deep-extension checks.

A value is ``(std, {exponent: (coeff, mag)})`` with exact ``Fraction``
potential exponents (``dt[b]`` has exponent ``1/b``); a term whose exponent
exceeds 1 vanishes.  ``mag`` carries the sum of the absolute values of
everything that went into a coefficient, so a check can scale its tolerance
to the rounding that cancellation leaves behind.

Smooth functions use their univariate Taylor coefficients
``a_k = f^(k)(r) / k!`` at the standard part ``r``, built from ``math`` by
Taylor-series arithmetic (Griewank & Walther, *Evaluating Derivatives*,
ch. 13) rather than from the library's derivative towers, and
``f(r + h) = sum_k a_k h**k`` stops at ``k = floor(order(h))``.
"""

from __future__ import annotations

import math
from fractions import Fraction

RTOL = 1e-8


def from_fermat(v):
    return (v.std, {t.exp: (t.coeff, abs(t.coeff)) for t in v.terms})


def from_parts(std: float, parts) -> tuple:
    """Value from ``[(coeff, order), ...]`` with rational orders >= 1."""
    terms: dict = {}
    for c, b in parts:
        e = 1 / Fraction(b)
        old = terms.get(e, (0.0, 0.0))
        terms[e] = (old[0] + c, old[1] + abs(c))
    return (std, terms)


def _add_into(acc: dict, e, c: float, m: float):
    old = acc.get(e, (0.0, 0.0))
    acc[e] = (old[0] + c, old[1] + m)


def _mul_inf(x: dict, y: dict) -> dict:
    out: dict = {}
    for ex, (cx, mx) in x.items():
        for ey, (cy, my) in y.items():
            e = ex + ey
            if e <= 1:
                _add_into(out, e, cx * cy, mx * my)
    return out


def mul(x, y):
    (sx, tx), (sy, ty) = x, y
    out = _mul_inf(tx, ty)
    for e, (c, m) in tx.items():
        _add_into(out, e, c * sy, m * abs(sy))
    for e, (c, m) in ty.items():
        _add_into(out, e, c * sx, m * abs(sx))
    return (sx * sy, out)


def apply_series(a: list[float], x):
    """``sum_k a[k] * h**k`` for ``x = r + h``; ``a`` covers the depth."""
    std, h = x
    out: dict = {}
    power = dict(h)
    for k in range(1, len(a)):
        if not power:
            break
        for e, (c, m) in power.items():
            _add_into(out, e, a[k] * c, abs(a[k]) * m)
        power = _mul_inf(power, h)
    return (a[0], out)


def depth(x) -> int:
    return math.floor(1 / min(x[1])) if x[1] else 0


# -- Taylor coefficients of f at r, k = 0..n ------------------------------

def _recip_series(p: list[float], n: int) -> list[float]:
    """Coefficients of 1 / p(t) for a polynomial p with p[0] != 0."""
    q = [0.0] * (n + 1)
    q[0] = 1.0 / p[0]
    for k in range(1, n + 1):
        s = sum(p[j] * q[k - j] for j in range(1, min(k, len(p) - 1) + 1))
        q[k] = -s / p[0]
    return q


def _binomial_series(c: float, r: float, n: int) -> list[float]:
    """(r + t)**c = r**c * sum_k binom(c, k) (t / r)**k."""
    out, coeff = [], r ** c
    for k in range(n + 1):
        out.append(coeff)
        coeff *= (c - k) / ((k + 1) * r)
    return out


def coefficients(name: str, r: float, n: int, c: float | None = None) -> list[float]:
    fact = [float(math.factorial(k)) for k in range(n + 1)]
    if name == "exp":
        return [math.exp(r) / fact[k] for k in range(n + 1)]
    if name in ("sin", "cos", "tan"):
        cyc = (math.sin(r), math.cos(r), -math.sin(r), -math.cos(r))
        s = [cyc[k % 4] / fact[k] for k in range(n + 1)]
        co = [cyc[(k + 1) % 4] / fact[k] for k in range(n + 1)]
        if name == "sin":
            return s
        if name == "cos":
            return co
        inv = _recip_series(co, n)
        return [sum(s[j] * inv[k - j] for j in range(k + 1)) for k in range(n + 1)]
    if name == "ln":
        return [math.log(r)] + [(-1) ** (k + 1) / (k * r ** k) for k in range(1, n + 1)]
    if name == "atan":
        d = _recip_series([1 + r * r, 2 * r, 1.0], n)
        return [math.atan(r)] + [d[k - 1] / k for k in range(1, n + 1)]
    if name == "recip":
        return [(-1) ** k / r ** (k + 1) for k in range(n + 1)]
    if name == "sqrt":
        return _binomial_series(0.5, r, n)
    if name == "pow":
        return _binomial_series(c, r, n)
    raise ValueError(f"no reference series for {name!r}")


def extend(name: str, x, c: float | None = None):
    return apply_series(coefficients(name, x[0], depth(x), c), x)


# -- comparison ----------------------------------------------------------

def mismatch(result, ref) -> str | None:
    """None when ``result`` (a FermatReal) matches ``ref`` within RTOL."""
    std, terms = ref
    got = {t.exp: t.coeff for t in result.terms}
    if not _close(result.std, std, abs(std)):
        return f"standard part {result.std!r} != reference {std!r}"
    for e in set(got) | set(terms):
        c, m = terms.get(e, (0.0, 0.0))
        if not _close(got.get(e, 0.0), c, m):
            return f"dt[{1 / e}] coefficient {got.get(e, 0.0)!r} != reference {c!r}"
    return None


def _close(a: float, b: float, mag: float) -> bool:
    return abs(a - b) <= RTOL * mag + 1e-300
