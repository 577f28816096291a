"""A minimal arithmetic-expression language for scalar functions of t.

Grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-')* power
    power  := atom (('^' | '**') factor)?   # right-associative
    atom   := NUMBER | 't' | 'e' | 'pi'
            | ('sqrt' | 'log' | 'exp' | 'abs') '(' expr ')'
            | '(' expr ')'

Just enough to write things like "t^2", "sqrt(t)", or
"(exp(t) - 1) / (exp(1) - 1)" on a command line. Parse errors carry the
offending position; evaluation outside a function's domain raises a domain
error rather than returning NaN.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

from .errors import DomainError, UsageError

_FUNCTIONS = {"sqrt": math.sqrt, "log": math.log, "exp": math.exp, "abs": math.fabs}
_CONSTANTS = {"e": math.e, "pi": math.pi}


def _tokenize(source: str) -> List[Tuple[str, object, int]]:
    """Tokens as (kind, value, position); kinds: num, name, op, end."""
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE" and (
                    j + 1 < n and (source[j + 1].isdigit()
                                   or (source[j + 1] in "+-" and j + 2 < n
                                       and source[j + 2].isdigit()))):
                j += 2 if source[j + 1] in "+-" else 1
                while j < n and source[j].isdigit():
                    j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise UsageError(
                    f"malformed number {text!r} at position {i}") from None
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and source[j].isalpha():
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        if source.startswith("**", i):
            tokens.append(("op", "^", i))
            i += 2
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise UsageError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, at = self.peek()
        if kind == "op" and value == symbol:
            return self.advance()
        raise UsageError(f"expected {symbol!r} at position {at}")

    def parse(self) -> Callable[[float], float]:
        node = self.expr()
        kind, value, at = self.peek()
        if kind != "end":
            raise UsageError(f"unexpected {value!r} at position {at}")
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = (lambda l, r: lambda t: l(t) + r(t))(node, rhs) \
                    if value == "+" else \
                    (lambda l, r: lambda t: l(t) - r(t))(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                node = (lambda l, r: lambda t: l(t) * r(t))(node, rhs) \
                    if value == "*" else \
                    (lambda l, r: lambda t: l(t) / r(t))(node, rhs)
            else:
                return node

    def factor(self):
        negate = False
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                if value == "-":
                    negate = not negate
            else:
                break
        node = self.power()
        if negate:
            inner = node
            node = lambda t: -inner(t)
        return node

    def power(self):
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent = self.factor()
            return lambda t: base(t) ** exponent(t)
        return base

    def atom(self):
        kind, value, at = self.advance()
        if kind == "num":
            return lambda t, v=value: v
        if kind == "name":
            if value == "t":
                return lambda t: t
            if value in _CONSTANTS:
                return lambda t, v=_CONSTANTS[value]: v
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                fn = _FUNCTIONS[value]
                return lambda t, f=fn, a=arg: f(a(t))
            raise UsageError(f"unknown name {value!r} at position {at}")
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise UsageError("unexpected end of expression")
        raise UsageError(f"unexpected {value!r} at position {at}")


@dataclass(frozen=True)
class FunctionExpr:
    """A parsed scalar expression in the variable t, callable on floats."""

    source: str
    _evaluate: Callable[[float], float]

    def __call__(self, t: float) -> float:
        # an array t fails here with a plain TypeError, before a message naming
        # it is built, so trying an array first costs scalar-only callers little
        t = float(t)
        try:
            value = self._evaluate(t)
        except (ValueError, OverflowError, ZeroDivisionError, TypeError) as exc:
            raise DomainError(
                f"cannot evaluate {self.source!r} at t = {t!r}: {exc}") from None
        if isinstance(value, complex):
            raise DomainError(
                f"expression {self.source!r} is complex-valued at t = {t!r}")
        return float(value)


def parse_function(source: str) -> FunctionExpr:
    """Parse an expression in t; raises a usage error with the bad position."""
    if not isinstance(source, str) or not source.strip():
        raise UsageError("empty function expression")
    evaluate = _Parser(source).parse()
    return FunctionExpr(source, evaluate)
