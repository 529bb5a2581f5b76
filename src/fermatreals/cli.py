"""Command-line interface: ``fermat <subcommand> [args]``.

Exit codes: 0 ok, 2 parse error or bad flag value, 3 evaluation or internal
error, 4 I/O error.

The grammar is one table, ``_COMMANDS``, with a row of arguments per
subcommand; ``_parser`` builds the argparse parser from it.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from typing import NamedTuple

from .core import FermatReal, _as_level, _binary64, _format_order, format_real, iota
from .errors import FermatError, NonPositiveOrderError, ParseError
from .expr import as_function, evaluate, parse
from .order import (
    compare,
    nilpotency_index,
    order,
    product_power_order,
    product_power_zero,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_MAX_SAMPLES = 100_000  # plot holds every point: about 0.15 s and 15 MB at this count


class _UsageError(FermatError):
    """A malformed command-line option value: exit code 2, like a parse error."""


def _value_json(v: FermatReal) -> dict:
    return {
        "std": v.std,
        "terms": [{"coeff": c, "order": _format_order(v.den, k)} for k, c in zip(v.ks, v.cs)],
    }


def _bindings(args) -> dict[str, FermatReal]:
    env: dict[str, FermatReal] = {}
    for item in args.bind or []:
        name, sep, text = item.partition("=")
        if not sep or not _NAME_RE.match(name):
            raise _UsageError(f"bad binding {item!r}: expected name=expression")
        env[name] = evaluate(parse(text))
    return env


def _emit(args, text: str, payload: dict) -> int:
    if args.json:  # only --json loads json, so a plain call does not pay for it
        import json
        text = json.dumps(payload, allow_nan=False)
    print(text)
    return 0


def _cmd_eval(args) -> int:
    v = evaluate(parse(args.expr), _bindings(args))
    return _emit(args, str(v), _value_json(v))


def _cmd_cmp(args) -> int:
    env = _bindings(args)
    verdict = compare(evaluate(parse(args.left), env), evaluate(parse(args.right), env))
    return _emit(args, verdict.value, {"verdict": verdict.value})


def _cmd_order(args) -> int:
    text = _format_order(*order(evaluate(parse(args.expr), _bindings(args))).as_integer_ratio())
    return _emit(args, text, {"order": text})


def _cmd_nilpotent(args) -> int:
    k = nilpotency_index(evaluate(parse(args.expr), _bindings(args)))
    return _emit(args, "none" if k is None else str(k), {"nilpotency_index": k})


def _cmd_diff(args) -> int:
    if not math.isfinite(args.at):
        raise _UsageError("--at must be finite")
    from .calculus import derive  # calculus and plot load only for the commands that run them
    m = derive(as_function(parse(args.expr)), args.at)
    return _emit(args, format_real(m), {"derivative": m})


def _cmd_prodzero(args) -> int:
    orders = args.orders.split(",")
    try:
        exps = [int(piece.strip()) for piece in args.exps.split(",")]
    except ValueError:
        raise _UsageError(f"bad exponent list: {args.exps!r}") from None
    if product_power_zero(orders, exps):
        return _emit(args, "zero", {"zero": True, "order": None})
    text = _format_order(*product_power_order(orders, exps).as_integer_ratio())
    return _emit(args, f"nonzero, order {text}", {"zero": False, "order": text})


def _cmd_iota(args) -> int:
    text = args.k.strip()
    k = math.inf if text in ("inf", "infinity") else text
    try:
        _as_level(k, "--k")
    except ValueError:
        raise _UsageError(f"bad --k value {args.k!r}") from None
    v = iota(evaluate(parse(args.expr), _bindings(args)), k)
    return _emit(args, str(v), _value_json(v))


def _cmd_plot(args) -> int:
    from .plot import graph_samples, render_csv, render_svg
    if not 0 < args.delta < math.inf:
        raise _UsageError("--delta must be > 0 and finite")
    if args.samples < 2:
        raise _UsageError("--samples must be >= 2")
    if not math.isfinite(args.delta * _binary64(args.samples - 1)):  # graph_samples' delta * i
        raise _UsageError("--delta * (--samples - 1) must be finite")
    if args.samples > _MAX_SAMPLES:
        raise _UsageError(f"--samples must be <= {_MAX_SAMPLES}")
    v = evaluate(parse(args.expr), _bindings(args))
    sample = graph_samples(v, args.delta, args.samples)
    if args.format == "csv":
        content = render_csv(sample)
    else:
        content = render_svg(sample, label=args.expr)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)
    return 0


class _Command(NamedTuple):
    """A subcommand; its handler, ``_cmd_<name>``, is looked up when a parser is built."""
    help: str
    positionals: tuple[str, ...] = ("expr",)
    options: dict = {}  # flag: add_argument keywords
    bind: bool = True  # takes -b/--bind
    aliases: tuple[str, ...] = ()


_COMMANDS = {
    "eval": _Command("evaluate an expression to canonical form", aliases=("canon",)),
    "cmp": _Command("compare two expressions: LT, EQ or GT", positionals=("left", "right")),
    "order": _Command("order of the value (0 for plain reals)"),
    "nilpotent": _Command("smallest k with value**k == 0, or none"),
    "diff": _Command(
        "derivative of a one-variable expression",
        options={"--at": dict(type=float, required=True, metavar="X")},
    ),
    "prodzero": _Command(
        "decide whether a product of powers of infinitesimals is 0",
        positionals=(),
        options={
            "--orders": dict(required=True, help="comma-separated orders, e.g. 6,6,6,2"),
            "--exps": dict(required=True, help="comma-separated natural exponents"),
        },
        bind=False,
    ),
    "iota": _Command(
        "truncate: drop terms of order <= K",
        options={"--k": dict(required=True, metavar="K", help="rational level, or 'inf'")},
    ),
    "plot": _Command(
        "write the representing curve as SVG or CSV",
        options={
            "--delta": dict(type=float, default=0.01),
            "--samples": dict(type=int, default=64),
            "--out": dict(required=True),
            "--format": dict(choices=("svg", "csv"), default="svg"),
        },
    ),
}


def _arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    command = _COMMANDS[name]
    for dest in command.positionals:
        parser.add_argument(dest)
    for flag, kwargs in command.options.items():
        parser.add_argument(flag, **kwargs)
    if command.bind:
        parser.add_argument(
            "-b",
            "--bind",
            action="append",
            metavar="NAME=EXPR",
            help="bind a variable (repeatable)",
        )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.set_defaults(handler=globals()[f"_cmd_{name}"])
    return parser


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fermat",
        description="Arithmetic with nilpotent infinitesimals: evaluate, "
        "compare, differentiate, decide nilpotency, and plot.",
    )
    subs = p.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        _arguments(subs.add_parser(name, aliases=command.aliases, help=command.help), name)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, NonPositiveOrderError, _UsageError) as e:
        print(f"fermat: {e}", file=sys.stderr)
        return 2
    except (FermatError, ValueError) as e:
        print(f"fermat: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"fermat: {e}", file=sys.stderr)
        return 4
    except Exception as e:
        print(f"fermat: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def run() -> None:
    """The process entry point: ``main()``, then exit once the output is flushed.

    ``os._exit`` skips interpreter finalization, a fixed cost that a one-shot
    process gains nothing from, so no atexit handler runs; ``plot`` closes its
    file before ``main`` returns.  A flush that fails, on a closed pipe or a
    full disk, leaves the exit to ``sys.exit``, whose own flush reports it.
    argparse's exits (``--help``, usage errors) raise ``SystemExit`` in ``main``.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at start
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
