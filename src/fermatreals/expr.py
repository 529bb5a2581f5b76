"""Expression language: grammar, recursive-descent parser, evaluator,
and the canonical text formatter.

Grammar (EBNF, also in the README):

    expression = term { ("+" | "-") term } ;
    term       = factor { ("*" | "/") factor } ;
    factor     = "-" factor | power ;
    power      = atom [ "^" factor ] ;              (* right associative *)
    atom       = NUMBER | dtliteral | call | NAME | "(" expression ")" ;
    call       = NAME "(" expression { "," expression } ")" ;
    dtliteral  = "dt" "[" ["-"] (INTEGER "/" INTEGER | NUMBER) "]" ;

NUMBER is a decimal with optional fraction and exponent.  dt orders are
exact rationals: ``dt[1.5]`` is sugar for ``dt[3/2]`` (decimals beyond 12
significant digits are rejected to keep exponent rationals small).  Before
any int is built, a dt order's digits are bounded by core's
``_MAX_ORDER_DIGITS``, and so is its decimal exponent's magnitude, by
``core._long_exponent``, which ``core._as_rational`` applies to every exact
string: every literal's order prints within Python's 4,300-digit int to
str limit (a product's may not: that is a FermatError).

The parser reads tokens by index from parallel lists of texts and offsets,
and tells a number, a name and the end of input ``""`` apart by a token's
first character.  The evaluator branches on the exact node type and calls
``core.add``, ``calculus.ext_apply`` and the like through the module, so
rebinding them reaches it.  Only a call, or a power with a non-integer
exponent, imports ``calculus``: arithmetic on the ring never loads it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Mapping

from . import core
from .core import FermatReal, as_fermat, dt, from_real, _MAX_ORDER_DIGITS, _long_exponent
from .errors import NonPositiveOrderError, ParseError, UnboundVariableError

_MAX_DEPTH = 100

_ARITHMETIC = {"+": lambda x, y: core.add(x, y), "-": lambda x, y: core.sub(x, y),
               "*": lambda x, y: core.mul(x, y), "/": lambda x, y: core.mul(x, core.invert(y))}
_BINARY_LEVEL = {"+": 0, "-": 0, "*": 1, "/": 1}


class Expr:
    """Base class for expression nodes: immutable, and compared, hashed and shown
    by the fields its subclass names in ``__slots__`` and sets in ``__init__``."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"expression nodes are immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        """The node's type and field values: Lit(2.0) and DtLit(2) differ."""
        return type(self), tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Expr) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return self._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


_set = object.__setattr__


class Lit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        _set(self, "value", value)


class DtLit(Expr):
    __slots__ = ("order",)

    def __init__(self, order: Fraction):
        _set(self, "order", order)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Unary(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        _set(self, "op", op)
        _set(self, "operand", operand)


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class Call(Expr):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple):
        _set(self, "name", name)
        _set(self, "args", args)


# A token and the whitespace before it; no two kinds share a first character.
_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<op>[-+*/^()\[\],])
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<bad>\S)
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> tuple[list, list]:
    """Parallel lists of token texts and offsets, ended by "" at len(text)."""
    texts, offsets = [], []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(m.start(kind), "a token", repr(m[kind]))
        texts.append(m[kind])
        offsets.append(m.start(kind))
    texts.append("")
    offsets.append(len(text))
    return texts, offsets


class _Parser:
    """Recursive descent over the token lists; ``i`` indexes the next token.
    A token's first character tells its kind, and the text "" ends the input."""

    def __init__(self, text: str):
        self.texts, self.offsets = _tokenize(text)
        self.i = 0
        self.depth = 0

    def fail(self, i: int, expected: str):
        found = repr(self.texts[i]) if self.texts[i] else "end of input"
        raise ParseError(self.offsets[i], expected, found)

    def expect(self, symbol: str):
        if self.texts[self.i] != symbol:
            self.fail(self.i, repr(symbol))
        self.i += 1

    # Precedence climbing: an operator of level >= ``level`` joins, and its right
    # operand takes only higher levels, so each level is left associative.
    def expression(self, level: int = 0) -> Expr:
        node = self.factor()
        while (op_level := _BINARY_LEVEL.get(op := self.texts[self.i], -1)) >= level:
            self.i += 1
            node = Binary(op, node, self.expression(op_level + 1))
        return node

    # Unary minus, "^", "(" and call arguments all recurse through factor.
    def factor(self) -> Expr:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.fail(self.i, "a shallower expression")
        if self.texts[self.i] == "-":
            self.i += 1
            node = Unary("-", self.factor())
        else:
            node = self.atom()
            if self.texts[self.i] == "^":
                self.i += 1
                node = Binary("^", node, self.factor())
        self.depth -= 1
        return node

    def atom(self) -> Expr:
        i = self.i
        text = self.texts[i]
        if text[:1].isdecimal() or text[:1] == ".":  # \d is any Unicode digit; "" is none
            self.i = i + 1
            return Lit(float(text))
        if text == "(":
            self.i = i + 1
            node = self.expression()
            self.expect(")")
            return node
        if text.isidentifier():
            if text == "dt":
                return self.dt_literal()
            self.i = i + 1
            if self.texts[i + 1] == "(":
                return self.call(i)
            return Var(text)
        self.fail(i, "a number, dt literal, name, or '('")

    def call(self, at: int) -> Expr:  # token at is the name, the next one "("
        name = self.texts[at]
        arity = 2 if name in ("pow", "log") else 1
        from . import calculus  # the catalog's names, loaded by the first call parsed
        if arity == 1 and name not in calculus.CATALOG:
            self.fail(at, "a known function name")
        self.i += 1
        args = [self.expression()]
        while self.texts[self.i] == ",":
            self.i += 1
            args.append(self.expression())
        closing = self.i
        self.expect(")")
        if len(args) != arity:
            raise ParseError(
                self.offsets[closing],
                f"{arity} argument{'s' if arity != 1 else ''} to {name}",
                f"{len(args)}",
            )
        return Call(name, tuple(args))

    def dt_literal(self) -> Expr:
        texts = self.texts
        self.i += 1  # the 'dt' name
        self.expect("[")
        negative = texts[self.i] == "-"
        if negative:
            self.i += 1
        num = self.i
        text = texts[num]
        digits = text.replace(".", "").replace("E", "e").partition("e")[0]
        if not digits.isdecimal():  # no name, op or "" leaves only digits
            self.fail(num, "a dt order")
        self.i += 1
        if len(digits) > _MAX_ORDER_DIGITS:
            self.fail(num, f"a dt order of at most {_MAX_ORDER_DIGITS} digits")
        if _long_exponent(text):
            self.fail(num, f"a dt order with an exponent of at most {_MAX_ORDER_DIGITS}")
        if texts[self.i] == "/":
            if not text.isdecimal():  # a ".", "e" or "E" in it
                self.fail(num, "an integer numerator")
            self.i += 1
            den = self.i
            if not texts[den].isdecimal():  # no name, op or "" is all digits
                self.fail(den, "an integer denominator")
            if len(texts[den]) > _MAX_ORDER_DIGITS:
                self.fail(den, f"a denominator of at most {_MAX_ORDER_DIGITS} digits")
            self.i += 1
            if int(texts[den]) == 0:
                self.fail(den, "a nonzero denominator")
            q = Fraction(int(text), int(texts[den]))
        else:
            if not text.isdecimal() and len(digits.lstrip("0")) > 12:
                self.fail(num, "a dt order with at most 12 significant digits")
            q = Fraction(text)
        self.expect("]")
        if negative:
            q = -q
        if q <= 0:
            pos = self.offsets[num]
            raise NonPositiveOrderError(
                f"dt order must be positive, got {q} (offset {pos})", position=pos
            )
        return DtLit(q)


def parse(text: str) -> Expr:
    """Parse expression text, raising ParseError with the offending offset."""
    p = _Parser(text)
    node = p.expression()
    if p.texts[p.i]:
        p.fail(p.i, "end of input")
    return node


def _literal_int(e: Expr) -> int | None:
    if isinstance(e, Lit) and float(e.value).is_integer() and abs(e.value) <= 2**53:
        return int(e.value)
    if isinstance(e, Unary) and e.op == "-":
        inner = _literal_int(e.operand)
        return None if inner is None else -inner
    return None


def evaluate(e: Expr, env: Mapping[str, FermatReal] | None = None) -> FermatReal:
    """Evaluate bottom-up over the Fermat reals.

    Division multiplies by the inverse; ``^`` with an integer-literal
    exponent is ``pow_nat``, square-and-multiply (inverted when negative,
    with no positivity requirement), while any other exponent goes through
    ``calculus.power`` and needs a strictly positive base.
    """
    env = {} if env is None else env
    return _eval(e, env)


def _eval(e: Expr, env: Mapping[str, FermatReal]) -> FermatReal:
    kind = type(e)
    if kind is Binary:
        if e.op == "^":
            base = _eval(e.left, env)
            n = _literal_int(e.right)
            if n is None:
                from . import calculus
                return calculus.power(base, _eval(e.right, env))
            return base ** n
        # A flat chain such as 1+1+...+1 nests to the left as deep as it is
        # long, so walk its left spine in a loop; operands still evaluate
        # left to right.
        spine = []
        while type(e) is Binary and e.op in _ARITHMETIC:
            spine.append(e)
            e = e.left
        acc = _eval(e, env)
        for node in reversed(spine):
            acc = _ARITHMETIC[node.op](acc, _eval(node.right, env))
        return acc
    if kind is Lit:
        return from_real(e.value)
    if kind is Var:
        try:
            return as_fermat(env[e.name])
        except KeyError:
            raise UnboundVariableError(e.name) from None
    if kind is DtLit:
        return dt(e.order)
    if kind is Unary:
        return core.neg(_eval(e.operand, env))
    if kind is Call:
        from . import calculus
        args = [_eval(a, env) for a in e.args]
        if e.name == "pow":
            return calculus.power(args[0], args[1])
        if e.name == "log":
            return calculus.log(args[0], args[1])
        return calculus.ext_apply(calculus.CATALOG[e.name], args[0])
    raise TypeError(f"not an expression node: {e!r}")


def free_variables(e: Expr) -> set[str]:
    out: set[str] = set()
    todo = [e]
    while todo:
        e = todo.pop()
        if isinstance(e, Var):
            out.add(e.name)
        elif isinstance(e, Unary):
            todo.append(e.operand)
        elif isinstance(e, Binary):
            todo += (e.left, e.right)
        elif isinstance(e, Call):
            todo += e.args
    return out


def as_function(e: Expr, var: str | None = None) -> Callable[[object], FermatReal]:
    """Turn a one-variable expression into a callable over Fermat reals.
    More than one free variable raises ValueError ("expression must have
    exactly one free variable or none, found: x, y")."""
    if var is None:
        names = sorted(free_variables(e))
        if len(names) > 1:
            raise ValueError(
                "expression must have exactly one free variable or none, found: "
                + ", ".join(names)
            )
        var = names[0] if names else None

    def fn(value) -> FermatReal:
        return evaluate(e, {} if var is None else {var: as_fermat(value)})

    return fn


def format_fermat(x) -> str:
    """Canonical text form; ``evaluate(parse(format_fermat(x)))`` is x,
    exactly."""
    return str(as_fermat(x))
