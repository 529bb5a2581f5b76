"""Reals extended with nilpotent infinitesimals of rational order.

The public surface re-exports the canonical representation and ring
operations (:mod:`.core`), the order/nilpotency machinery (:mod:`.order`),
remainder-free calculus (:mod:`.calculus`), the expression front-end
(:mod:`.expr`), and curve plotting (:mod:`.plot`); the last three load on
first use.  The ``fermat`` CLI lives in :mod:`.cli`.
"""

from .core import (
    FermatReal,
    ONE,
    Term,
    ZERO,
    add,
    as_fermat,
    canonicalize,
    dt,
    eq_up_to,
    format_real,
    from_real,
    invert,
    iota,
    leading_sign,
    mul,
    neg,
    pow_nat,
    standard_part,
    sub,
)
from .order import (
    OrderValue,
    Verdict,
    absolute,
    cancellation_order,
    compare,
    ideal_of_product,
    in_ideal,
    nilpotency_index,
    order,
    product_power_order,
    product_power_zero,
)
from . import errors

# Imported on first access (PEP 562) and then bound here: the ring and its
# decisions need none of these, so a CLI call that runs no smooth function
# and draws no plot compiles neither calculus nor plot.
_LAZY = {
    "calculus": ("CATALOG", "ElementaryFn", "ParamPoly", "derive", "eval_param_poly",
                 "ext_apply", "log", "pow_const", "power", "taylor_multi"),
    "expr": ("Expr", "as_function", "evaluate", "format_fermat", "free_variables", "parse"),
    "plot": ("GraphSample", "graph_samples", "render_csv", "render_svg"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")  # binds the submodule here; -X importtime times it
    module = globals()[home]
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


__version__ = "0.1.0"

__all__ = [
    "FermatReal",
    "Term",
    "ZERO",
    "ONE",
    "add",
    "as_fermat",
    "canonicalize",
    "dt",
    "eq_up_to",
    "format_real",
    "from_real",
    "invert",
    "iota",
    "leading_sign",
    "mul",
    "neg",
    "pow_nat",
    "standard_part",
    "sub",
    "OrderValue",
    "Verdict",
    "absolute",
    "cancellation_order",
    "compare",
    "ideal_of_product",
    "in_ideal",
    "nilpotency_index",
    "order",
    "product_power_order",
    "product_power_zero",
    *(name for names in _LAZY.values() for name in names),
    "errors",
    "__version__",
]
