"""The three workloads: seeded inputs, one operation each, and output checks.

A workload object is built in each of its ``setup_reps`` set-up repetitions,
after the library is imported, and gets the loaded modules as ``lib``; its
first ``warm_up_ops`` operations are the warm-up.  It calls the library only
through module attributes (``lib.core.mul``, ``lib.expr.parse`` ...) so that
the traced run's wrappers see every call.

``run(i)`` is the timed operation ``i`` of a pass and returns its outcome;
``line(out)`` is the outcome's canonical text for the output digest;
``check(i, out, first_line)`` returns a failure message or ``None``; on
later passes ``first_line`` is the first pass's line for operation ``i``.
A pass runs every operation once, in order, after ``start_pass()``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys

# -- expression generator (shared by expr_roundtrip and cli_oneshot) ---------

DT_ORDERS = ("1", "2", "3", "4", "5", "6", "3/2", "21/10", "5/2")
NUMBERS = ("0.25", "0.5", "0.75", "1", "1.5", "2", "2.5", "3")
FUNCS = ("exp", "ln", "sin", "cos", "tan", "atan", "sqrt", "recip")


def gen_expr(shape, height: int, var: str = "x", dt_leaves: bool = True):
    """Random expression of exactly this height, and whether it is an atom.

    Catalog calls only take operands of height <= 2, so values stay far
    from float overflow (``exp`` sees at most a product or quotient of
    leaves).
    """
    if height <= 1:
        r = shape.random()
        if r < 0.45:
            return var, True
        if r < 0.85 or not dt_leaves:
            return shape.choice(NUMBERS), True
        return f"dt[{shape.choice(DT_ORDERS)}]", True
    kinds = ["+", "-", "*", "/", "^", "^-1"] + (["call"] if height <= 3 else [])
    kind = shape.choice(kinds)
    a = _wrap(*gen_expr(shape, height - 1, var, dt_leaves))
    if kind == "call":
        return f"{shape.choice(FUNCS)}{a if a.startswith('(') else f'({a})'}", True
    if kind == "^":
        return f"{a}^{shape.choice((2, 3))}", False
    if kind == "^-1":
        return f"{a}^-1", False
    b = _wrap(*gen_expr(shape, shape.randint(1, height - 1), var, dt_leaves))
    if shape.random() < 0.5:
        a, b = b, a
    return f"{a}{kind}{b}", False


def _wrap(text: str, atom: bool) -> str:
    return text if atom else f"({text})"


def gen_value_parts(shape, rng, n_terms: int):
    """Standard part in [0.5, 1.5] and ``n_terms`` infinitesimal terms of
    distinct orders.  ``rng`` draws only the coefficients: the standard part
    alone decides every domain error and every inverse, so each seed meets
    the same typed errors and does the same work."""
    std = round(shape.uniform(0.5, 1.5), 3)
    return std, [(_coeff(rng), b) for b in shape.sample(DT_ORDERS, n_terms)]


def _coeff(rng) -> float:
    c = 0.0
    while c == 0.0:
        c = round(rng.uniform(-2.0, 2.0), 3)
    return c


def build_value(lib, std: float, parts):
    """Canonical value from ``[(coeff, order), ...]`` via ``core.canonicalize``."""
    from fractions import Fraction

    return lib.core.canonicalize(std, [(c, 1 / Fraction(b)) for c, b in parts])


def depth_of(v) -> int:
    """Truncation depth floor(order(h)) of a value's infinitesimal part."""
    return math.floor(v.terms[0].order) if v.terms else 0


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


# -- expr_roundtrip ---------------------------------------------------------

QUERY_KINDS = ("compare", "order", "nilpotency_index", "in_ideal", "iota")
QUERY_SHARE = 0.5  # share of operations that end with a decision query
LEVELS = ("0", "1", "3/2", "2", "5")


class ExprRoundtrip:
    """parse -> evaluate (x bound) -> format_fermat, then a decision query."""

    name = "expr_roundtrip"
    size = 300
    setup_reps = 7
    warm_up_ops = 30

    def __init__(self, lib, shape, rng):
        self.lib = lib
        self.ops = []
        n_queries = round(self.size * QUERY_SHARE)
        for i in range(self.size):
            text, _ = gen_expr(shape, 2 + i % 3)
            std, parts = gen_value_parts(shape, rng, i % 5)
            query = QUERY_KINDS[i % len(QUERY_KINDS)] if i < n_queries else None
            level = shape.choice(LEVELS)
            self.ops.append((text, build_value(lib, std, parts), query, level))
        shape.shuffle(self.ops)
        self.start_pass()

    def start_pass(self):
        self.prev = self.lib.core.ONE

    def run(self, i):
        L, (text, x, query, level) = self.lib, self.ops[i]
        v = L.expr.evaluate(L.expr.parse(text), {"x": x})
        s = L.expr.format_fermat(v)
        if query == "compare":
            q = L.order.compare(v, self.prev)
        elif query == "order":
            q = L.order.order(v)
        elif query == "nilpotency_index":
            q = L.order.nilpotency_index(v)
        elif query == "in_ideal":
            q = L.order.in_ideal(v, level)
        elif query == "iota":
            q = L.core.iota(v, level)
        else:
            q = None
        prev, self.prev = self.prev, v
        return v, s, q, prev

    @staticmethod
    def line(out) -> str:
        v, s, q, _ = out
        return f"{s} | {q.value if hasattr(q, 'value') else q}"

    def check(self, i, out, first_line):
        if first_line is not None:
            return _same(self.line(out), first_line)
        L, (text, x, query, level) = self.lib, self.ops[i]
        v, s, q, prev = out
        back = L.expr.evaluate(L.expr.parse(s))
        if back != v:
            return f"round trip of {text!r}: {s!r} reads back as {back}"
        expected = _expected_query(query, v, prev, level)
        got = q.value if query == "compare" else q
        if query == "iota":
            got = (q.std, q.terms)
        if got != expected:
            return f"{query} on {s!r}: got {got!r}, expected {expected!r}"
        return None

    def sizes(self) -> dict:
        return {
            "operations per pass": len(self.ops),
            "mean expression length (chars)": _mean([len(o[0]) for o in self.ops]),
            "mean terms per bound value": _mean([len(o[1].terms) for o in self.ops]),
            "mean truncation depth of x": _mean([depth_of(o[1]) for o in self.ops]),
            "max truncation depth of x": max(depth_of(o[1]) for o in self.ops),
            "decision query share": QUERY_SHARE,
            "query mix": _mix(o[2] or "none" for o in self.ops),
        }


def _expected_query(query, v, prev, level):
    """Decision queries recomputed from the canonical terms."""
    from fractions import Fraction

    order = 1 / v.terms[0].exp if v.terms else Fraction(0)
    if query == "compare":
        return _merge_compare(v, prev)
    if query == "order":
        return order
    if query == "nilpotency_index":
        if v.std != 0.0:
            return None
        return math.floor(order) + 1 if v.terms else 1
    if query == "in_ideal":
        return v.std == 0.0 and order < Fraction(level) + 1
    if query == "iota":
        return (v.std, tuple(t for t in v.terms if 1 / t.exp > Fraction(level)))
    return None


def _merge_compare(x, y) -> str:
    """Sign of x - y in the total order by a merge walk over both term lists:
    the standard part decides, then the highest-order term that differs."""
    if x.std != y.std:
        return "GT" if x.std > y.std else "LT"
    tx = {t.exp: t.coeff for t in x.terms}
    ty = {t.exp: t.coeff for t in y.terms}
    for e in sorted(set(tx) | set(ty)):
        a, b = tx.get(e, 0.0), ty.get(e, 0.0)
        if a != b:
            return "GT" if a > b else "LT"
    return "EQ"


def _same(line: str, first_line: str):
    return None if line == first_line else f"{line!r} differs from the first pass: {first_line!r}"


def _mix(kinds) -> dict:
    out: dict = {}
    for k in kinds:
        out[k] = out.get(k, 0) + 1
    return dict(sorted(out.items()))


# -- deep_extension ---------------------------------------------------------

DEEP_ORDERS = ("12", "8", "6", "9/2", "10/3", "3", "21/10", "2", "1")
POW_EXPONENTS = (0.5, -1.5, 2.5, 1 / 3)
DEEP_KINDS = tuple(f"ext:{f}" for f in FUNCS) + (
    "pow_const", "invert", "power", "log", "taylor_multi")


def _partials(j, xs):
    """Mixed partials of exp(x0) * sin(x1), the taylor_multi oracle."""
    cyc = (math.sin, math.cos, lambda r: -math.sin(r), lambda r: -math.cos(r))
    return math.exp(xs[0]) * cyc[j[1] % 4](xs[1])


class DeepExtension:
    """One calculus call on an argument built at set-up.

    The leading order of every argument cycles through ``DEEP_ORDERS``, so
    each kind meets every truncation depth from 1 to 12 on every seed.
    """

    name = "deep_extension"
    per_order = 2
    setup_reps = 7
    warm_up_ops = 30

    def __init__(self, lib, shape, rng):
        from fractions import Fraction

        self.lib = lib
        self.ops = []
        for kind in DEEP_KINDS:
            for rep in range(self.per_order):
                for k, top in enumerate(DEEP_ORDERS):
                    lower = [b for b in DEEP_ORDERS if Fraction(b) < Fraction(top)]
                    extra = shape.sample(lower, min(len(lower), (k + rep) % 4))
                    args = [self._arg(rng, [top] + extra)]
                    if kind in ("power", "log", "taylor_multi"):
                        # A second argument of lower order lets taylor_multi prune.
                        args.append(self._arg(rng, [shape.choice(lower or [top])]))
                    c = POW_EXPONENTS[(k + rep) % len(POW_EXPONENTS)]
                    self.ops.append((kind, args, c))
        shape.shuffle(self.ops)

    def _arg(self, rng, orders):
        std = round(rng.uniform(0.3001, 1.2), 4)
        parts = [(_coeff(rng), b) for b in orders]
        return (std, parts), build_value(self.lib, std, parts)

    def start_pass(self):
        pass

    def run(self, i):
        kind, args, c = self.ops[i]
        C = self.lib.calculus
        x = args[0][1]
        if kind.startswith("ext:"):
            return C.ext_apply(C.CATALOG[kind[4:]], x)
        if kind == "pow_const":
            return C.ext_apply(C.pow_const(c), x)
        if kind == "invert":
            return self.lib.core.invert(x)
        y = args[1][1]
        if kind == "power":
            return C.power(x, y)
        if kind == "log":
            return C.log(x, y)
        h = [self.lib.core.FermatReal(0.0, v.terms) for v in (x, y)]
        n = max(depth_of(x), depth_of(y))
        return C.taylor_multi(_partials, (x.std, y.std), h, n)

    @staticmethod
    def line(out) -> str:
        return str(out)

    def check(self, i, out, first_line):
        if first_line is not None:
            return _same(self.line(out), first_line)
        import reference as R

        kind, args, c = self.ops[i]
        x = R.from_parts(*args[0][0])
        if kind.startswith("ext:"):
            ref = R.extend(kind[4:], x)
        elif kind == "pow_const":
            ref = R.extend("pow", x, c)
        elif kind == "invert":
            ref = R.extend("recip", x)
        else:
            y = R.from_parts(*args[1][0])
            if kind == "power":
                ref = R.extend("exp", R.mul(y, R.extend("ln", x)))
            elif kind == "log":
                ref = R.mul(R.extend("ln", y), R.extend("recip", R.extend("ln", x)))
            else:
                ref = R.mul(R.extend("exp", x), R.extend("sin", y))
        bad = R.mismatch(out, ref)
        return None if bad is None else f"{kind} at depth {depth_of(args[0][1])}: {bad}"

    def sizes(self) -> dict:
        args = [a[1] for _, xs, _ in self.ops for a in xs]
        depths = [max(depth_of(a[1]) for a in xs) for _, xs, _ in self.ops]
        return {
            "operations per pass": len(self.ops),
            "mean terms per operand (infinitesimal)": _mean([len(a.terms) for a in args]),
            "mean truncation depth": _mean(depths),
            "max truncation depth": max(depths),
            "command mix": _mix(k for k, _, _ in self.ops),
        }


# -- cli_oneshot ------------------------------------------------------------

README_EXAMPLES = (
    (["eval", "(1+dt[2])^-1"], "1 - dt[2] + dt[1]\n"),
    (["eval", "sin(x)", "-b", "x=dt[3]"], "dt[3] - 0.16666666666666666*dt[1]\n"),
    (["cmp", "dt[2]", "3*dt[1]"], "GT\n"),
    (["order", "dt[2]*dt[3]"], "6/5\n"),
    (["nilpotent", "dt[21/10]"], "3\n"),
    (["diff", "sin(t)", "--at", "0"], "1\n"),
    (["prodzero", "--orders", "6,6,6,2", "--exps", "1,1,1,1"], "nonzero, order 1\n"),
    (["iota", "3 + dt[3] + 2*dt[1]", "--k", "2"], "3 + dt[3]\n"),
    (["plot", "dt[2]", "--delta", "0.05", "--out", "dt2.svg"], None),
    (["plot", "dt[2]", "--format", "csv", "--out", "dt2.csv"], None),
)
SUBCOMMANDS = ("eval", "canon", "cmp", "order", "nilpotent", "diff",
               "prodzero", "iota", "plot-svg", "plot-csv")


class CliOneshot:
    """One ``python -m fermatreals`` process per operation, spawn to exit.

    A pass runs every README example, checked against its documented
    output, and one seeded command per subcommand, checked against the
    library called in-process.  ``in_process`` runs ``cli.main`` in this
    process instead, for the traced run.
    """

    name = "cli_oneshot"
    setup_reps = 5
    warm_up_ops = 1

    def __init__(self, lib, shape, rng, workdir):
        self.lib = lib
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(lib.src))
        self.ops = [self._readme(argv, text) for argv, text in README_EXAMPLES]
        self.ops += [self._seeded(shape, rng, sub) for sub in SUBCOMMANDS]
        shape.shuffle(self.ops)
        self.in_process = False

    # An operation is (argv, expected exit code, expected stdout, plot file,
    # expected file content).

    def _out(self, name):
        return os.path.join(self.workdir, name)

    def _readme(self, argv, text):
        argv = list(argv)
        if argv[0] != "plot":
            return (argv, 0, text, None, None)
        name = argv[argv.index("--out") + 1]
        argv[argv.index("--out") + 1] = self._out(name)
        fmt = "csv" if "csv" in argv else "svg"
        delta = float(argv[argv.index("--delta") + 1]) if "--delta" in argv else 0.01
        return (argv, 0, "", self._out(name), self._plot_content(argv[1], {}, delta, 64, fmt))

    def _plot_content(self, text, env, delta, samples, fmt):
        L = self.lib
        v = L.expr.evaluate(L.expr.parse(text), env)
        sample = L.plot.graph_samples(v, delta, samples)
        return L.plot.render_csv(sample) if fmt == "csv" else L.plot.render_svg(sample, label=text)

    def _seeded(self, shape, rng, sub):
        L = self.lib
        text, _ = gen_expr(shape, 2)
        std, parts = gen_value_parts(shape, rng, shape.randint(0, 3))
        xtext = L.expr.format_fermat(build_value(L, std, parts))
        bind = ["-b", f"x={xtext}"]
        env = {"x": L.expr.evaluate(L.expr.parse(xtext))}

        def value():
            return L.expr.evaluate(L.expr.parse(text), env)

        if sub in ("eval", "canon"):
            return self._expect([sub, text] + bind, lambda: L.expr.format_fermat(value()))
        if sub == "cmp":
            other, _ = gen_expr(shape, 2)
            return self._expect(
                ["cmp", text, other] + bind,
                lambda: L.order.compare(value(), L.expr.evaluate(L.expr.parse(other), env)).value)
        if sub == "order":
            return self._expect(["order", text] + bind, lambda: _rational(L.order.order(value())))
        if sub == "nilpotent":
            text = f"({text})*dt[{shape.choice(DT_ORDERS)}]"  # value() reads the new text

            def index():
                k = L.order.nilpotency_index(value())
                return "none" if k is None else str(k)

            return self._expect(["nilpotent", text] + bind, index)
        if sub == "diff":
            t, _ = gen_expr(shape, 2, var="t", dt_leaves=False)
            at = round(rng.uniform(0.2, 1.4), 2)
            return self._expect(
                ["diff", t, "--at", str(at)],
                lambda: L.core.format_real(L.calculus.derive(L.expr.as_function(L.expr.parse(t)), at)))
        if sub == "prodzero":
            n = rng.randint(1, 4)
            orders = [rng.choice(DT_ORDERS) for _ in range(n)]
            exps = [rng.randint(1, 3) for _ in range(n)]
            argv = ["prodzero", "--orders", ",".join(orders), "--exps", ",".join(map(str, exps))]
            return (argv, 0, _prodzero_text(orders, exps) + "\n", None, None)
        if sub == "iota":
            k = rng.choice(LEVELS)
            return self._expect(["iota", text, "--k", k] + bind,
                                lambda: L.expr.format_fermat(L.core.iota(value(), k)))
        fmt = sub[5:]
        delta, samples = rng.choice((0.01, 0.05)), shape.choice((16, 64))
        name = f"seeded-{rng.randrange(10**9)}.{fmt}"
        argv = ["plot", text, "--delta", str(delta), "--samples", str(samples),
                "--out", self._out(name), "--format", fmt] + bind
        try:
            content = self._plot_content(text, env, delta, samples, fmt)
        except L.errors.FermatError as exc:
            return (argv, _exit_code(L, exc), "", None, None)
        return (argv, 0, "", self._out(name), content)

    def _expect(self, argv, produce):
        try:
            return (argv, 0, produce() + "\n", None, None)
        except self.lib.errors.FermatError as exc:
            return (argv, _exit_code(self.lib, exc), "", None, None)

    def start_pass(self):
        pass

    def run(self, i):
        argv = self.ops[i][0]
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.lib.cli.main(list(argv))
            return code, out.getvalue()
        proc = subprocess.run([sys.executable, "-m", "fermatreals", *argv],
                              cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout

    @staticmethod
    def line(out) -> str:
        return f"{out[0]} {out[1]!r}"

    def check(self, i, out, first_line):
        argv, code, stdout, path, content = self.ops[i]
        if out != (code, stdout):
            return f"{argv}: got exit {out[0]} and {out[1]!r}, expected exit {code} and {stdout!r}"
        if path is not None:
            try:
                with open(path, encoding="utf-8", newline="") as fh:
                    written = fh.read()
            except OSError as exc:
                return f"{argv}: {exc}"
            os.remove(path)
            if written != content:
                return f"{argv}: {path} differs from the in-process rendering"
        return None

    def sizes(self) -> dict:
        exprs = [c[0][1] for c in self.ops if c[0][0] != "prodzero"]
        return {
            "operations per pass": len(self.ops),
            "mean expression length (chars)": _mean([len(e) for e in exprs]),
            "command mix": _mix(c[0][0] for c in self.ops),
        }


def _rational(q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _prodzero_text(orders, exps) -> str:
    from fractions import Fraction

    total = sum(Fraction(i) / Fraction(w) for w, i in zip(orders, exps))
    return "zero" if total > 1 else f"nonzero, order {_rational(1 / total)}"


def _exit_code(lib, exc) -> int:
    """The CLI's documented exit codes: 2 parse error, 3 evaluation error."""
    return 2 if isinstance(exc, (lib.errors.ParseError, lib.errors.NonPositiveOrderError)) else 3
