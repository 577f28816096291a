"""A minimal arithmetic-expression language for scalar functions of t.

Grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-')* power
    power  := atom (('^' | '**') factor)?   # right-associative
    atom   := NUMBER | 't' | 'e' | 'pi'
            | ('sqrt' | 'log' | 'exp' | 'abs') '(' expr ')'
            | '(' expr ')'

Just enough to write "t^2", "sqrt(t)" or "(exp(t) - 1) / (exp(1) - 1)" on a
command line. `_tokenize` decides which characters, numbers and names are
legal; Python's parser reads the tokens (numbers as the name `_k`, '^' as
'**') with exactly the grammar's precedence and associativity; a whitelist
of nodes builds closures and rejects the rest, such as t(2) or (). No user
text reaches eval, exec or compile. Parse errors carry the offending
position; evaluation outside a function's domain raises a domain error.
"""
from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

from .errors import DomainError, UsageError

_FUNCTIONS = {"sqrt": math.sqrt, "log": math.log, "exp": math.exp, "abs": math.fabs}
_CONSTANTS = {"e": math.e, "pi": math.pi}
_NAMES = frozenset(("t", *_CONSTANTS, *_FUNCTIONS))     # the names an expression may use
_BINARY = {ast.Add: lambda l, r: lambda t: l(t) + r(t),
           ast.Sub: lambda l, r: lambda t: l(t) - r(t),
           ast.Mult: lambda l, r: lambda t: l(t) * r(t),
           ast.Div: lambda l, r: lambda t: l(t) / r(t),
           ast.Pow: lambda l, r: lambda t: l(t) ** r(t)}


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


def _python_source(tokens):
    """Python source, each token at twice its offset from the first (room for '**'
    and `_k`), and its tokens by column; a unary sign run folds into its first."""
    at = {2 * (tok[2] - tokens[0][2]): tok for tok in tokens}
    chars, unary, sign = [" "] * max(at), True, None
    for column, (kind, value, pos) in list(at.items())[:-1]:
        if kind == "name" and value not in _NAMES:
            raise UsageError(f"unknown name {value!r} at position {pos}")
        if unary and value in ("+", "-"):
            sign = column if sign is None else sign
            chars[sign] = "+-"[(chars[sign] == "-") ^ (value == "-")]
            continue
        sign = None
        piece = "_k" if kind == "num" else "**" if value == "^" else value
        chars[column:column + len(piece)] = piece
        unary = kind == "op" and value != ")"
    return "".join(chars), at


def _build(node, text, at):
    """The closures of a whitelisted node; any other node is a syntax error, and
    so is a function whose name is not right before its '(', as in (sqrt)(t)."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_build(node.left, text, at), _build(node.right, text, at))
    if isinstance(node, ast.UnaryOp) and type(node.op) in (ast.UAdd, ast.USub):
        inner = _build(node.operand, text, at)
        return inner if isinstance(node.op, ast.UAdd) else lambda t: -inner(t)
    if isinstance(node, ast.Name) and node.id in ("t", "_k", *_CONSTANTS):
        value = at[node.col_offset][1] if node.id == "_k" else _CONSTANTS.get(node.id)
        return (lambda t: t) if node.id == "t" else lambda t, v=value: v
    column = node.col_offset
    if isinstance(node, ast.Call):
        column = text.index("(", node.func.end_col_offset)     # the call's '('
        if (getattr(node.func, "id", None) in _FUNCTIONS and len(node.args) == 1
                and not node.keywords and not text[node.func.end_col_offset:column].strip()):
            fn, arg = _FUNCTIONS[node.func.id], _build(node.args[0], text, at)
            return lambda t, f=fn, a=arg: f(a(t))
    raise SyntaxError("invalid syntax", ("", 1, column + 1, text))


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
    text, at = _python_source(_tokenize(source))
    try:
        return FunctionExpr(source, _build(ast.parse(text, mode="eval").body, text, at))
    except SyntaxError as exc:
        # offset: the 1-based column of the bad token, 0 where the text ended
        kind, value, pos = at.get((exc.offset or 0) - 1, ("end", None, None))
        why = "" if exc.msg.startswith("invalid syntax") else f" ({exc.msg})"
        where = "end of expression" if kind == "end" else f"{value!r} at position {pos}{why}"
        raise UsageError(f"unexpected {where}") from None
    except (RecursionError, MemoryError):     # how Python reports too deep a tree
        raise UsageError("expression nested too deeply") from None
