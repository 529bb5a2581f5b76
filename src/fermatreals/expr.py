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
significant digits are rejected to keep exponent rationals small).
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

from . import calculus
from .calculus import CATALOG, ext_apply
from .core import FermatReal, as_fermat, dt, from_real
from .errors import NonPositiveOrderError, ParseError, UnboundVariableError

_MAX_DEPTH = 100

_FUNCTION_ARITY = {name: 1 for name in CATALOG}
_FUNCTION_ARITY["pow"] = 2
_FUNCTION_ARITY["log"] = 2
_ARITHMETIC = {"+": operator.add, "-": operator.sub,
               "*": operator.mul, "/": operator.truediv}


class Expr:
    """Base class for expression nodes: immutable, and built, compared,
    hashed and shown by the fields its subclass names in ``__slots__``."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

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


class Lit(Expr):
    __slots__ = ("value",)  # float


class DtLit(Expr):
    __slots__ = ("order",)  # Fraction


class Var(Expr):
    __slots__ = ("name",)  # str


class Unary(Expr):
    __slots__ = ("op", "operand")  # str, Expr


class Binary(Expr):
    __slots__ = ("op", "left", "right")  # str, Expr, Expr


class Call(Expr):
    __slots__ = ("name", "args")  # str, tuple[Expr, ...]


class _Token(NamedTuple):
    kind: str  # "number" | "name" | "op" | "eof"
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>[-+*/^()\[\],])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(pos, "a token", repr(text[pos]))
        if m.lastgroup != "ws":
            toks.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    toks.append(_Token("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _found(self, tok: _Token) -> str:
        return "end of input" if tok.kind == "eof" else repr(tok.text)

    def fail(self, tok: _Token, expected: str):
        raise ParseError(tok.pos, expected, self._found(tok))

    def expect_op(self, symbol: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != symbol:
            self.fail(tok, repr(symbol))
        return self.advance()

    def at_op(self, *symbols: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in symbols

    # expression = term { (+|-) term }
    def expression(self) -> Expr:
        node = self.term()
        while self.at_op("+", "-"):
            op = self.advance().text
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.at_op("*", "/"):
            op = self.advance().text
            node = Binary(op, node, self.factor())
        return node

    # Unary minus, "^", "(" and call arguments all recurse through factor.
    def factor(self) -> Expr:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.fail(self.peek(), "a shallower expression")
        if self.at_op("-"):
            self.advance()
            node = Unary("-", self.factor())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Expr:
        node = self.atom()
        if self.at_op("^"):
            self.advance()
            node = Binary("^", node, self.factor())
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Lit(float(tok.text))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expression()
            self.expect_op(")")
            return node
        if tok.kind == "name":
            if tok.text == "dt":
                return self.dt_literal()
            self.advance()
            if self.at_op("("):
                return self.call(tok)
            return Var(tok.text)
        self.fail(tok, "a number, dt literal, name, or '('")

    def call(self, name_tok: _Token) -> Expr:
        arity = _FUNCTION_ARITY.get(name_tok.text)
        if arity is None:
            self.fail(name_tok, "a known function name")
        self.expect_op("(")
        args = [self.expression()]
        while self.at_op(","):
            self.advance()
            args.append(self.expression())
        closing = self.peek()
        self.expect_op(")")
        if len(args) != arity:
            raise ParseError(
                closing.pos,
                f"{arity} argument{'s' if arity != 1 else ''} to {name_tok.text}",
                f"{len(args)}",
            )
        return Call(name_tok.text, tuple(args))

    def dt_literal(self) -> Expr:
        self.advance()  # the 'dt' name
        self.expect_op("[")
        negative = False
        if self.at_op("-"):
            self.advance()
            negative = True
        num = self.peek()
        if num.kind != "number":
            self.fail(num, "a dt order")
        self.advance()
        if self.at_op("/"):
            if "." in num.text or "e" in num.text or "E" in num.text:
                self.fail(num, "an integer numerator")
            self.advance()
            den = self.peek()
            if den.kind != "number" or not den.text.isdigit():
                self.fail(den, "an integer denominator")
            self.advance()
            if int(den.text) == 0:
                self.fail(den, "a nonzero denominator")
            q = Fraction(int(num.text), int(den.text))
        else:
            if "." in num.text or "e" in num.text or "E" in num.text:
                digits = num.text.split("e")[0].split("E")[0].replace(".", "")
                if len(digits.lstrip("0")) > 12:
                    self.fail(num, "a dt order with at most 12 significant digits")
            q = Fraction(num.text)
        self.expect_op("]")
        if negative:
            q = -q
        if q <= 0:
            raise NonPositiveOrderError(
                f"dt order must be positive, got {q} (offset {num.pos})",
                position=num.pos,
            )
        return DtLit(q)


def parse(text: str) -> Expr:
    """Parse expression text, raising ParseError with the offending offset."""
    p = _Parser(text)
    node = p.expression()
    tail = p.peek()
    if tail.kind != "eof":
        p.fail(tail, "end of input")
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
    if isinstance(e, Lit):
        return from_real(e.value)
    if isinstance(e, DtLit):
        return dt(e.order)
    if isinstance(e, Var):
        try:
            return as_fermat(env[e.name])
        except KeyError:
            raise UnboundVariableError(e.name) from None
    if isinstance(e, Unary):
        return -_eval(e.operand, env)
    if isinstance(e, Binary):
        if e.op == "^":
            base = _eval(e.left, env)
            n = _literal_int(e.right)
            if n is None:
                return calculus.power(base, _eval(e.right, env))
            return base ** n
        # A flat chain such as 1+1+...+1 nests to the left as deep as it is
        # long, so walk its left spine in a loop; operands still evaluate
        # left to right.
        spine = []
        while isinstance(e, Binary) and e.op in _ARITHMETIC:
            spine.append(e)
            e = e.left
        acc = _eval(e, env)
        for node in reversed(spine):
            acc = _ARITHMETIC[node.op](acc, _eval(node.right, env))
        return acc
    if isinstance(e, Call):
        args = [_eval(a, env) for a in e.args]
        if e.name == "pow":
            return calculus.power(args[0], args[1])
        if e.name == "log":
            return calculus.log(args[0], args[1])
        return ext_apply(CATALOG[e.name], args[0])
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
