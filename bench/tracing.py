"""Traced run: spans and work counters around the library's public functions.

Nothing in ``src/`` changes to trace.  :func:`install` replaces each traced
function by a wrapper and rebinds the name in *every* package module that
holds it, because modules bind each other's functions at import time
(``calculus.mul``, ``expr._add``, ``order.sub`` ...).  Derivative towers are
reached by swapping the ``CATALOG`` entries, the ``calculus.EXP``/``LN``
globals and the towers that ``pow_const`` builds for copies with a wrapped
tower.

A span is ``[name, start, end, parent, op]``; spans stay in memory until
the pass ends, and :meth:`Tracer.dump` writes them out.  Self time is a
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import time

# Functions wrapped per module, as in the benchmark doc's per-layer table.
TRACED = {
    "core": ("canonicalize", "mul", "add", "invert", "pow_nat"),
    "order": ("compare", "in_ideal", "order", "nilpotency_index", "product_power_zero"),
    "calculus": ("ext_apply", "taylor_multi", "power", "log"),
    "expr": ("parse", "evaluate", "format_fermat"),
    "plot": ("graph_samples", "render_svg", "render_csv"),
}

# Counters that must repeat exactly across two traced runs of one seed.
DETERMINISTIC = (".calls", ".terms_in", ".terms_out", ".term_pairs",
                 ".depth_sum", ".true_ratio", "errors.typed_raised")


def _n_terms(v) -> int:
    return len(getattr(v, "terms", ()))


def _depth(x) -> int:
    terms = getattr(x, "terms", ())
    return math.floor(terms[0].order) if terms else 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.op = -1

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def bump(self, key: str, n: float = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, count=None):
        """Span around ``fn``; ``count(tracer, args, result)`` adds counters."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                self.bump(name + ".calls")
            if count is not None:
                count(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Counters plus ``.self_ms`` per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_ms[name] = self_ms.get(name, 0.0) + (end - start - child[i]) * 1e3
        out = dict(self.counts)
        for name, ms in self_ms.items():
            out[name + ".self_ms"] = ms
        ppz = "order.product_power_zero"
        calls = out.get(ppz + ".calls", 0)
        out[ppz + ".true_ratio"] = out.pop(ppz + ".pruned", 0) / calls if calls else 0.0
        return out

    def dump(self, path, label: str):
        """Write the spans as JSON lines: name, start/end in s, parent index, op."""
        with gzip.open(path, "at", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"run": label, "i": i, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _count_canonicalize(tr, args, result):
    tr.bump("core.canonicalize.terms_in", len(args[1]))
    tr.bump("core.canonicalize.terms_out", _n_terms(result))


def _count_mul(tr, args, result):
    tr.bump("core.mul.term_pairs", _n_terms(args[0]) * _n_terms(args[1]))
    tr.bump("core.mul.terms_out", _n_terms(result))


def _count_ext_apply(tr, args, result):
    tr.bump("calculus.ext_apply.depth_sum", _depth(args[1]))


def _count_product_power_zero(tr, args, result):
    if result:
        tr.bump("order.product_power_zero.pruned")


def _count_parse(tr, args, result):
    tr.bump("expr.parse.chars", len(args[0]))


COUNTERS = {
    "core.canonicalize": _count_canonicalize,
    "core.mul": _count_mul,
    "calculus.ext_apply": _count_ext_apply,
    "order.product_power_zero": _count_product_power_zero,
    "expr.parse": _count_parse,
}


def install(tracer: Tracer, lib):
    """Wrap the traced functions of ``lib`` (the loaded package's modules)
    and rebind every module-level name that refers to them.

    Returns a function that puts every original back.
    """
    package_modules = [m for name, m in list(sys.modules.items())
                       if name == "fermatreals" or name.startswith("fermatreals.")]
    undo = []

    def rebind(original, replacement):
        for m in package_modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, replacement)
                    undo.append((m, attr, original))

    for mod_name, fn_names in TRACED.items():
        mod = getattr(lib, mod_name)
        for fn_name in fn_names:
            full = f"{mod_name}.{fn_name}"
            original = getattr(mod, fn_name)
            rebind(original, tracer.wrap(full, original, COUNTERS.get(full)))

    calculus = lib.calculus

    def traced_fn(f):
        tower = tracer.wrap("calculus.tower", f.tower)
        return calculus.ElementaryFn(f.name, tower, f.domain, f.domain_desc)

    catalog = dict(calculus.CATALOG)
    for key, f in catalog.items():
        calculus.CATALOG[key] = traced_fn(f)
    for name in ("EXP", "LN"):
        undo.append((calculus, name, getattr(calculus, name)))
        setattr(calculus, name, calculus.CATALOG[name.lower()])
    pow_const = calculus.pow_const
    rebind(pow_const, lambda c: traced_fn(pow_const(c)))

    def uninstall():
        for m, attr, original in undo:
            setattr(m, attr, original)
        calculus.CATALOG.update(catalog)

    return uninstall
