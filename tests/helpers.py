"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from functools import lru_cache, reduce

from fermatreals import (
    FermatReal,
    ONE,
    Term,
    ZERO,
    add,
    canonicalize,
    dt,
    in_ideal,
    mul,
    order,
    pow_nat,
)
from fermatreals.core import _as_rational, _natural, as_fermat
from fermatreals.errors import LengthMismatchError, NoFiniteOrderError, ProductIsZeroError

F = Fraction

# Potential exponents in (0, 1] with small denominators (orders 1..6).
EXP_POOL = sorted({F(p, q) for q in range(1, 7) for p in range(1, q + 1)})


def rand_coeff(rng: random.Random, lo: float = 0.25, hi: float = 3.0) -> float:
    mag = rng.uniform(lo, hi)
    return mag if rng.random() < 0.5 else -mag


def rand_fermat(
    rng: random.Random,
    max_terms: int = 4,
    zero_std_prob: float = 0.35,
    lo: float = 0.25,
    hi: float = 3.0,
) -> FermatReal:
    """A random canonical value with benign coefficient magnitudes."""
    std = 0.0 if rng.random() < zero_std_prob else rand_coeff(rng, lo, hi)
    k = rng.randint(0, max_terms)
    exps = rng.sample(EXP_POOL, k)
    return canonicalize(std, [(rand_coeff(rng, lo, hi), e) for e in exps])


def rand_infinitesimal(
    rng: random.Random, min_terms: int = 1, max_terms: int = 3
) -> FermatReal:
    k = rng.randint(min_terms, max_terms)
    exps = rng.sample(EXP_POOL, k)
    return canonicalize(0.0, [(rand_coeff(rng), e) for e in exps])


# Orders at most 4 and coefficients below the standard part keep the
# geometric series of the inverse well conditioned.
_LOW_ORDER_POOL = sorted({F(p, q) for q in range(1, 5) for p in range(1, q + 1)})


def rand_invertible(rng: random.Random) -> FermatReal:
    std = rng.uniform(1.0, 3.0) * rng.choice((-1, 1))
    exps = rng.sample(_LOW_ORDER_POOL, rng.randint(0, 3))
    return canonicalize(std, [(rand_coeff(rng, 0.1, 1.0), e) for e in exps])


# Standard parts and coefficients for order tests: benign, near the top of
# binary64, and subnormal.
def _order_coeff(rng: random.Random) -> float:
    kind = rng.randrange(3)
    if kind == 0:
        mag = rng.uniform(0.25, 3.0)
    elif kind == 1:
        mag = rng.uniform(1e307, 1.7976931348623157e308)
    else:
        mag = 5e-324 * rng.randint(1, 3)
    return mag if rng.random() < 0.5 else -mag


def rand_order_pair(rng: random.Random) -> tuple[FermatReal, FermatReal]:
    """Two canonical values for total-order tests.  A third of the pairs
    share the standard part and differ in one term (changed, dropped or
    added), a sixth are equal, the rest are independent."""

    def draw():
        std = 0.0 if rng.random() < 0.3 else _order_coeff(rng)
        picks = rng.sample(range(len(EXP_POOL)), rng.randint(0, 4))
        return std, {i: _order_coeff(rng) for i in picks}

    def build(std, terms):
        # EXP_POOL is sorted, so sorted indices give canonical term order.
        return FermatReal(std, tuple(Term(terms[i], EXP_POOL[i]) for i in sorted(terms)))

    std, tx = draw()
    r = rng.random()
    if r < 1 / 3:
        sy, ty = std, dict(tx)
        i = rng.randrange(len(EXP_POOL))
        if i in ty and rng.random() < 0.5:
            del ty[i]
        else:
            ty[i] = _order_coeff(rng)
    elif r < 1 / 2:
        sy, ty = std, dict(tx)
    else:
        sy, ty = draw()
    return build(std, tx), build(sy, ty)


# Potential exponents with large coprime denominators: orders 997, 991/3,
# 21/10, 997/500 and 991/331, so one common denominator passes 10**6.
# EXP_POOL alone never takes it past 60.
WIDE_EXP_POOL = sorted(set(EXP_POOL) | {F(1, 997), F(3, 991), F(10, 21),
                                        F(500, 997), F(331, 991)})
# The orders among them below 4, for the inverse, whose work grows with
# the order.
WIDE_LOW_ORDER_POOL = [e for e in WIDE_EXP_POOL if e > F(1, 4)]


def rand_wide(
    rng: random.Random, pool=WIDE_EXP_POOL, zero_std_prob: float = 0.35
) -> FermatReal:
    """A canonical value on ``pool``, built with the raw constructor."""
    std = 0.0 if rng.random() < zero_std_prob else rand_coeff(rng)
    exps = sorted(rng.sample(pool, rng.randint(0, 4)))
    return FermatReal(std, tuple(Term(rand_coeff(rng), e) for e in exps))


# -- dict-based term-multiset oracle --------------------------------------

def to_dict(x: FermatReal) -> dict[Fraction, float]:
    d = {F(0): x.std}
    for t in x.terms:
        d[t.exp] = t.coeff
    return d


def _squash(buckets: dict[Fraction, list[float]]) -> dict[Fraction, float]:
    out = {F(0): math.fsum(buckets.pop(F(0), [0.0]))}
    for e, parts in buckets.items():
        c = math.fsum(parts)
        if c != 0.0:
            out[e] = c
    return out


def oracle_add(a: dict, b: dict) -> dict[Fraction, float]:
    buckets: dict[Fraction, list[float]] = {}
    for d in (a, b):
        for e, c in d.items():
            buckets.setdefault(e, []).append(c)
    return _squash(buckets)


def oracle_neg(a: dict) -> dict[Fraction, float]:
    return {e: -c for e, c in a.items()}


def oracle_sub(a: dict, b: dict) -> dict[Fraction, float]:
    return oracle_add(a, oracle_neg(b))


def oracle_mul(a: dict, b: dict) -> dict[Fraction, float]:
    buckets: dict[Fraction, list[float]] = {}
    for ea, ca in a.items():
        if ca == 0.0 and ea == 0:
            continue
        for eb, cb in b.items():
            if cb == 0.0 and eb == 0:
                continue
            e = ea + eb
            if e <= 1:
                buckets.setdefault(e, []).append(ca * cb)
    return _squash(buckets)


def oracle_canonicalize(std: float, raw) -> dict[Fraction, float]:
    """canonicalize keyed by Fraction exponent: exponents above 1 dropped,
    one fsum per exponent, 0 the standard part."""
    buckets: dict[Fraction, list[float]] = {F(0): [float(std)]}
    for c, e in raw:
        if F(e) <= 1:
            buckets.setdefault(F(e), []).append(float(c))
    return _squash(buckets)


def oracle_invert(x: FermatReal) -> dict[Fraction, float]:
    """invert's Taylor sum of 1/(std * (1 + h/std)), as core forms it: the
    powers of h/std by oracle_mul, each scaled by +-1/std, then one fsum
    per exponent."""
    s = 1.0 / x.std
    h = {t.exp: t.coeff / x.std for t in x.terms if t.coeff / x.std != 0.0}
    buckets: dict[Fraction, list[float]] = {F(0): [s]}
    power, sign = {F(0): 1.0}, s
    while True:
        power = oracle_mul(power, h)
        del power[F(0)]
        if not power:
            return _squash(buckets)
        sign = -sign
        for e, c in power.items():
            buckets.setdefault(e, []).append(sign * c)


def from_dict(d: dict[Fraction, float]) -> FermatReal:
    """The value an oracle dict describes, built with the raw constructor."""
    return FermatReal(d[F(0)], tuple(Term(d[e], e) for e in sorted(d) if e != 0))


def dicts_equal(a: dict, b: dict) -> bool:
    ka = {e for e, c in a.items() if c != 0.0 or e == 0}
    kb = {e for e, c in b.items() if c != 0.0 or e == 0}
    if ka != kb:
        return False
    return all(a.get(e, 0.0) == b.get(e, 0.0) for e in ka)


def oracle_compare(x: FermatReal, y: FermatReal) -> int:
    """Sign of x - y in the total order, as a lexicographic comparison of
    the coefficient dicts over exponents (0, the standard part, first)."""
    dx, dy = to_dict(x), to_dict(y)
    for e in sorted(set(dx) | set(dy)):
        a, b = dx.get(e, 0.0), dy.get(e, 0.0)
        if a != b:
            return 1 if a > b else -1
    return 0


def assert_fermat_close(x: FermatReal, y: FermatReal, tol: float = 1e-12):
    """Same exponent support, coefficients within a relative tolerance."""
    dx, dy = to_dict(x), to_dict(y)
    for e in sorted(set(dx) | set(dy)):
        cx, cy = dx.get(e, 0.0), dy.get(e, 0.0)
        bound = tol * max(1.0, abs(cx), abs(cy))
        assert abs(cx - cy) <= bound, (
            f"coefficient mismatch at exponent {e}: {cx!r} vs {cy!r} "
            f"(|diff|={abs(cx - cy):.3e} > {bound:.3e})\n  x={x}\n  y={y}"
        )


# -- exact-rational truncated-series oracle ----------------------------------
#
# An oracle dict maps each exponent (0 for the standard part) to
# ``(value, mag)``: the exact coefficient, and the sum of the absolute values
# of every contribution to it, which scales the rounding a float evaluation
# is allowed.

def _exact(x) -> dict[Fraction, tuple[Fraction, Fraction]]:
    """A number or FermatReal as an oracle dict of one contribution each."""
    if not isinstance(x, FermatReal):
        return {F(0): (F(x), abs(F(x)))}
    d = {F(0): F(x.std)} | {t.exp: F(t.coeff) for t in x.terms}
    return {e: (c, abs(c)) for e, c in d.items()}


def _oracle_product(a: dict, b: dict) -> dict[Fraction, tuple[Fraction, Fraction]]:
    """Product of two oracle dicts; exponents above 1 vanish."""
    out: dict[Fraction, tuple[Fraction, Fraction]] = {}
    for e1, (c1, m1) in a.items():
        for e2, (c2, m2) in b.items():
            if e1 + e2 <= 1:
                c, m = out.get(e1 + e2, (F(0), F(0)))
                out[e1 + e2] = (c + c1 * c2, m + m1 * m2)
    return out


def oracle_poly(params, entries) -> dict[Fraction, tuple[Fraction, Fraction]]:
    """``sum(c * prod(h_k ** q_k))`` over the ``(q, c)`` entries, in exact
    rationals: q a multi-index over the infinitesimals ``params``, c a
    number or a FermatReal.  Every entry counts, and nothing is pruned
    before multiplying out."""
    hs = [{t.exp: (F(t.coeff), abs(F(t.coeff))) for t in h.terms} for h in params]
    powers = [[{F(0): (F(1), F(1))}] for _ in hs]
    out = {F(0): (F(0), F(0))}
    for q, c in entries:
        mono = _exact(c)
        for h, table, i in zip(hs, powers, q):
            while len(table) <= i:
                table.append(_oracle_product(table[-1], h))
            mono = _oracle_product(mono, table[i])
        for e, (v, m) in mono.items():
            w, n = out.get(e, (F(0), F(0)))
            out[e] = (w + v, n + m)
    return out


def oracle_series(coeffs, x: FermatReal) -> dict[Fraction, tuple[Fraction, Fraction]]:
    """``sum_k coeffs[k] * h**k`` at ``x = r + h``, in exact rationals.

    ``coeffs`` holds the Fraction Taylor coefficients at the standard part
    for k = 0..floor(order(h)); the one-parameter :func:`oracle_poly`.
    """
    h = FermatReal(0.0, x.terms)
    return oracle_poly([h], [((k,), F(a)) for k, a in enumerate(coeffs)])


def mul_poly(hs, entries) -> FermatReal:
    """``sum(c * prod(h_k ** q_k))`` over float coefficients c, by the
    public API: ``h**(i+1)`` is ``mul(h**i, h)``, a monomial is mul folded
    over its powers left to right, and every product ``c * coeff`` goes into
    one canonicalize.  The kernel must equal it bit for bit."""
    tables = [[ONE, h] for h in hs]
    raw = []
    for q, c in entries:
        for table, h, i in zip(tables, hs, q):
            while len(table) <= i:
                table.append(mul(table[-1], h))
        factors = [table[i] for table, i in zip(tables, q) if i]
        if not factors:
            raw.append((c, 0))
        else:
            raw += [(c * t.coeff, t.exp) for t in reduce(mul, factors).terms]
    return canonicalize(0.0, raw)


def series_error(got: FermatReal, ref: dict, floor: float = 0.0) -> float:
    """Largest error of ``got`` against an :func:`oracle_poly` result, each
    exponent's error divided by its sum of absolute contributions; an error
    of at most ``floor`` (room for rounding to subnormals) counts as none."""
    have = to_dict(got)
    worst = 0.0
    for e in set(have) | set(ref):
        value, mag = ref.get(e, (F(0), F(0)))
        err = abs(F(have.get(e, 0.0)) - value)
        if err > floor:
            worst = max(worst, float(err / mag) if mag else math.inf)
    return worst


# -- the Fraction forms of the derivatives f_i(r) -----------------------------
#
# calculus streams the Taylor coefficients a_i = f_i(r) / i! as exact integer
# pairs; each a_i must equal the Fraction form below divided by i! and rounded
# once, bit for bit and error for error.  "Exact" is given the float f(r)
# where f(r) is transcendental, and value(r) for a non-integer power.

def sin_derivative(i: int, r: float) -> float:
    """The i-th derivative of sin at r, by the cycle sin, cos, -sin, -cos."""
    return (math.sin, math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v))[i % 4](r)


@lru_cache(maxsize=None)
def tan_poly(i: int) -> tuple[int, ...]:
    """p_i over u = tan(r) with d^i tan = p_i(u):  p_0 = u,
    p_{i+1} = p_i' * (1 + u**2)."""
    if i == 0:
        return (0, 1)
    dp = tuple(k * c for k, c in enumerate(tan_poly(i - 1)))[1:]
    out = [0] * (len(dp) + 2)
    for k, c in enumerate(dp):
        out[k] += c
        out[k + 2] += c
    return tuple(out)


@lru_cache(maxsize=None)
def atan_poly(i: int) -> tuple[int, ...]:
    """q_i over r with d^i atan = q_i(r) / (1 + r**2)**i for i >= 1:
    q_1 = 1,  q_{i+1} = q_i' * (1 + r**2) - 2*i*r * q_i."""
    if i == 1:
        return (1,)
    q = atan_poly(i - 1)
    out = [0] * (len(q) + 1)
    for k, c in enumerate(q[1:], start=1):
        out[k - 1] += k * c
        out[k + 1] += k * c
    for k, c in enumerate(q):
        out[k + 1] -= 2 * (i - 1) * c
    return tuple(out)


def fraction_tan_tower(r: float, i: int) -> Fraction:
    u = Fraction(math.tan(r))
    return sum(c * u**k for k, c in enumerate(tan_poly(i)))


def fraction_atan_tower(r: float, i: int) -> Fraction:
    if i == 0:
        return Fraction(math.atan(r))
    rq = Fraction(r)
    num = sum(c * rq**k for k, c in enumerate(atan_poly(i)))
    return Fraction(num) / (1 + rq * rq) ** i


def fraction_power_tower(c: Fraction, value, r: float, i: int) -> Fraction:
    p, q = c.numerator, c.denominator
    exact = q == 1 and abs(p) <= 1024
    if i == 0 and not exact:
        return Fraction(value(r))
    falling = 1
    for k in range(i):
        falling *= p - k * q
    if exact:
        return falling * Fraction(r) ** (p - i)
    return falling / (q * Fraction(r)) ** i * Fraction(value(r))


def fraction_tower(name: str, r: float, i: int) -> Fraction:
    """f_i(r) for the catalog function of that name, in exact rationals."""
    if name == "exp":
        return Fraction(math.exp(r))
    if name in ("sin", "cos"):
        return Fraction(sin_derivative(i + (name == "cos"), r))
    if name == "tan":
        return fraction_tan_tower(r, i)
    if name == "atan":
        return fraction_atan_tower(r, i)
    if name == "ln":
        return Fraction(math.log(r)) if i == 0 else fraction_power_tower(Fraction(-1), None, r, i - 1)
    if name == "recip":
        return fraction_power_tower(Fraction(-1), None, r, i)
    return fraction_power_tower(Fraction(1, 2), math.sqrt, r, i)


def taylor_coefficient(tower, r: float, i: int, e: int = 0) -> float:
    """A Fraction form f_i(r) divided exactly by i! and rounded once; given
    e, the scaled tower's b_i: that quotient times 2**(e*i), rounded once."""
    p, q = (tower(r, i) / math.factorial(i)).as_integer_ratio()
    return (p << max(e * i, 0)) / (q << max(-e * i, 0))


def fd_central(f, x: float, step: float = 1e-5) -> float:
    return (f(x + step) - f(x - step)) / (2 * step)


def dt_chain(orders, exps) -> FermatReal:
    """Explicit multiplication of powers of dt generators."""
    acc = canonicalize(1.0, [])
    for w, i in zip(orders, exps):
        acc = mul(acc, pow_nat(dt(w), i))
    return acc


def first_differential(x: FermatReal) -> FermatReal:
    """The highest-order term alone; zero for plain reals."""
    return FermatReal(0.0, x.terms[:1])


# -- the Fraction forms of the order decisions ------------------------------
#
# order.py decides on core's integer exponent lattice.  These are the same
# decisions as Fraction sums, with the same argument checks in the same
# order; they must agree with it in value, exception type and message.

def _fraction_level(a, what: str):
    if isinstance(a, float) and math.isinf(a) and a > 0:
        return math.inf
    q = _as_rational(a, what)
    if q < 0:
        raise ValueError(f"{what} must be >= 0, got {q}")
    return q


def fraction_in_ideal(x, a) -> bool:
    """The level is checked whatever x is, then order(x) < a + 1."""
    x = as_fermat(x)
    level = _fraction_level(a, "ideal level")
    return x.std == 0.0 and (x.terms[0].order if x.terms else F(0)) < level + 1


def _fraction_reciprocal_order_sum(orders, exps) -> Fraction:
    if len(orders) != len(exps) or not orders:
        raise LengthMismatchError(
            f"need equal nonzero lengths, got {len(orders)} orders and "
            f"{len(exps)} exponents"
        )
    total = F(0)
    for w, i in zip(orders, exps):
        wq = _as_rational(w, "factor order")
        if wq < 1:
            raise ValueError(f"factor orders must be >= 1, got {wq}")
        total += F(_natural(i, "power exponent", least=1)) / wq
    return total


def _sum_text(total: Fraction) -> str:
    """str(total), or a placeholder when it has an int past the digits Python prints."""
    try:
        return str(total)
    except ValueError:
        return f"<not printed: an exact order of over {sys.get_int_max_str_digits()} digits>"


def fraction_product_power_zero(orders, exps) -> bool:
    return _fraction_reciprocal_order_sum(orders, exps) > 1


def fraction_product_power_order(orders, exps) -> Fraction:
    total = _fraction_reciprocal_order_sum(orders, exps)
    if total > 1:
        raise ProductIsZeroError(
            f"product of powers is zero: reciprocal-order sum {_sum_text(total)} exceeds 1"
        )
    return 1 / total


def fraction_ideal_of_product(orders, exps, p) -> bool:
    pq = _as_rational(p, "ideal level")
    if pq <= 0:
        raise ValueError(f"ideal level must be > 0, got {pq}")
    total = _fraction_reciprocal_order_sum(orders, exps)
    return F(1, 1) / (pq + 1) < total <= 1


def fraction_cancellation_order(j, alpha) -> Fraction:
    if len(j) != len(alpha) or not j:
        raise LengthMismatchError(
            f"need equal nonzero lengths, got {len(j)} powers and "
            f"{len(alpha)} levels"
        )
    if all(ji == 0 for ji in j):
        raise ValueError("power vector must not be all zeros")
    total = F(0)
    for ji, ai in zip(j, alpha):
        _natural(ji, "power")
        aq = _as_rational(ai, "nilpotency level")
        if aq <= 0:
            raise ValueError(f"nilpotency levels must be > 0, got {aq}")
        total += F(ji) / (aq + 1)
    if total >= 1:
        raise NoFiniteOrderError(
            f"no finite truncation order: level sum {_sum_text(total)} reaches 1"
        )
    return 1 / (1 - total)


def outcome(fn, *args):
    """``("ok", type, value)``, or ``("raised", type, message)`` for an exception."""
    try:
        value = fn(*args)
        return "ok", type(value), value
    except Exception as exc:
        return "raised", type(exc), str(exc)


# -- the nine ideal/order property checks ----------------------------------

def check_ideal_properties(rng: random.Random, trials: int) -> None:
    """Randomized verification of the nilpotency-ideal property bundle."""
    for _ in range(trials):
        x = rand_infinitesimal(rng)
        y = rand_infinitesimal(rng)

        # monotone ideals: a <= b implies membership carries over
        a = order(x) + F(rng.randint(0, 4), 2)
        b = a + F(rng.randint(0, 4), 2)
        assert in_ideal(x, a) and in_ideal(x, b)

        # every infinitesimal sits in the ideal at its own order
        assert in_ideal(x, order(x))

        # integer level: membership == vanishing of the (a+1)-th power
        n = rng.randint(1, 5)
        assert in_ideal(x, n) == (pow_nat(x, n + 1) == ZERO)

        # rational level: membership forces the ceiling power to vanish
        level = F(rng.randint(1, 12), rng.randint(1, 4))
        if in_ideal(x, level):
            assert pow_nat(x, math.ceil(level) + 1) == ZERO

        # floor of the order pins the membership threshold
        k = math.floor(order(x))
        assert in_ideal(x, k)
        assert not in_ideal(x, k - 1)

        # leading term of a product is the product of leading terms
        xy = mul(x, y)
        if xy != ZERO:
            assert first_differential(xy) == mul(
                first_differential(x), first_differential(y)
            )
            # reciprocal orders add under multiplication
            assert 1 / order(xy) == 1 / order(x) + 1 / order(y)

        # order of a sum is the max (leading orders distinct, no cancellation)
        if order(x) != order(y):
            s = add(x, y)
            assert s != ZERO and order(s) == max(order(x), order(y))

        # ideal closure: sums stay in, products with anything stay in
        level = max(order(x), order(y))
        assert in_ideal(add(x, y), level)
        z = rand_fermat(rng)
        assert in_ideal(mul(x, z), level)

    # ceiling counter-case: level 1.2, generator of order 2.1
    x = dt("21/10")
    assert in_ideal(x, F(6, 5))
    assert pow_nat(x, 2) != ZERO  # floor(1.2) + 1 = 2 does not kill it
    assert pow_nat(x, 3) == ZERO  # ceil(1.2) + 1 = 3 does


# -- parser fuzz corpus -----------------------------------------------------

FUZZ_CORPUS = [
    "1 + dt[3] + dt[2] + dt[1]",
    "(1+dt[2])^-1",
    "3 - 2*dt[3/2]",
    "sin(x)*cos(y) - tan(z)/atan(w)",
    "dt[21/10]^3 / (1 + dt[2])",
    "pow(1+dt[2], 1/2) + log(2, 4)",
    "exp(ln(sqrt(recip(2))))",
    "2+3*dt[2]^2",
    "-x^2 + 1.5e-3*dt[6]",
    "u0*sin(x + 2*t)",
]

_FUZZ_ALPHABET = "0123456789+-*/^()[]dt.,exp sinlogcatqru_"


def mutate(rng: random.Random, text: str) -> str:
    s = list(text)
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(4)
        if not s:
            op = 1
        if op == 0:
            del s[rng.randrange(len(s))]
        elif op == 1:
            s.insert(rng.randint(0, len(s)), rng.choice(_FUZZ_ALPHABET))
        elif op == 2:
            s[rng.randrange(len(s))] = rng.choice(_FUZZ_ALPHABET)
        else:
            i = rng.randrange(len(s))
            j = rng.randrange(len(s))
            s[i], s[j] = s[j], s[i]
    return "".join(s)
