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
command line. One regular expression, _TOKEN, scans numbers, names and
operators and rejects any other character; Python's parser reads the tokens
(numbers as the name `_k`, '^' as '**') with exactly the grammar's
precedence and associativity; a whitelist of nodes builds closures and
rejects the rest, such as t(2) or (). No user text reaches eval, exec or
compile. Parse errors carry the offending position; evaluation outside a
function's domain raises a domain error.

_OPS holds every interpretation of the tree: a row per operation (+ - * /
^, negation, each function, the variable t and the constant lift), a column
per interpretation (0 on a float, 1 on a whole array). An operation's entry
takes its children's results; t's entry is t's evaluator, and the lift's
turns a number into its evaluator. _build walks the tree once per column and
never asks which, so a new interpretation is one more entry per row, taking
and giving that column's results (say, (value, error) pairs), and one more
field of FunctionExpr. The two columns agree bit for bit: on arrays, + - * /,
sqrt and abs run in numpy (exact or correctly rounded, as in Python), and ^,
exp and log run Python's operator.pow, math.exp and math.log per element;
non-finite inputs and constants are refused, Python raises where it would
overflow, and numpy's divide, overflow and invalid flags raise, so every
array either fails or is the float path's.
"""
from __future__ import annotations

import ast
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .errors import DOMAIN_ERRORS, DomainError, UsageError


def _finite(values):
    """values, once every one is finite: the flags catch finite operands that
    leave the finite range, not non-finite ones (inf / 0 is inf and sets no
    flag, where Python raises), so the array path refuses them at the start."""
    if not np.isfinite(values).all():
        raise FloatingPointError("non-finite value")
    return values


def _python(fn, nin: int):
    """fn applied to each element as a Python float: its results exactly. An
    error of fn propagates and a complex result fails as a TypeError; finite
    arguments give finite results, as Python raises rather than overflow."""
    ufunc = np.frompyfunc(fn, nin, 1)
    return lambda *args: np.asarray(ufunc(*args), dtype=float)


_CONSTANTS = {"e": math.e, "pi": math.pi}
_FUNCTIONS = ("sqrt", "log", "exp", "abs")
_NAMES = frozenset(("t", *_CONSTANTS, *_FUNCTIONS))     # the names an expression may use
# rows keyed by ast operator or function name, columns (float, array); a numpy entry
# leaves the finite range only by raising a flag, and the array lift refuses inf (1e999)
_OPS = {"t": (lambda t: t, lambda t: t),
        "const": (lambda k: lambda t: k,
                  lambda k: (lambda t: k) if math.isfinite(k) else (lambda t: _finite(k))),
        ast.Add: (operator.add, np.add), ast.Sub: (operator.sub, np.subtract),
        ast.Mult: (operator.mul, np.multiply), ast.Div: (operator.truediv, np.divide),
        ast.Pow: (operator.pow, _python(operator.pow, 2)), ast.USub: (operator.neg, np.negative),
        "sqrt": (math.sqrt, np.sqrt), "log": (math.log, _python(math.log, 1)),
        "exp": (math.exp, _python(math.exp, 1)), "abs": (math.fabs, np.abs)}
# after optional whitespace: a number, a name, an operator or any other
# character, which is an error
_TOKEN = (r"\s*(?:(?P<num>\.?\d[\d.]*(?:[eE][+-]?\d+)?)|(?P<name>[^\W\d_]+)"
          r"|(?P<op>\*\*|[-+*/^()])|(?P<bad>\S))")


def _tokenize(source: str) -> List[Tuple[str, object, int]]:
    """Tokens as (kind, value, position); kinds: num, name, op, end. The first
    malformed number or stray character, in source order, is a usage error."""
    tokens = []
    for match in re.finditer(_TOKEN, source):
        kind = match.lastgroup
        text, pos = match[kind], match.start(kind)
        if kind == "bad":
            raise UsageError(f"unexpected character {text!r} at position {pos}")
        try:
            value = float(text) if kind == "num" else "^" if text == "**" else text
        except ValueError:     # digits with two or more dots
            raise UsageError(f"malformed number {text!r} at position {pos}") from None
        tokens.append((kind, value, pos))
    return tokens + [("end", None, len(source))]


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


def _build(node, text, at, column):
    """The evaluator of a whitelisted node in one column of _OPS; any other
    node is a syntax error, and so is a function whose name is not right
    before its '(', as in (sqrt)(t)."""
    key, operands, where = None, (), node.col_offset
    if isinstance(node, ast.Name) and node.id in ("t", "_k", *_CONSTANTS):
        k = at[where][1] if node.id == "_k" else _CONSTANTS.get(node.id)
        return _OPS["t"][column] if k is None else _OPS["const"][column](k)
    if isinstance(node, ast.BinOp):
        key, operands = type(node.op), (node.left, node.right)
    elif isinstance(node, ast.UnaryOp):
        key, operands = type(node.op), (node.operand,)
    elif isinstance(node, ast.Call):
        where = text.index("(", node.func.end_col_offset)     # the call's '('
        if (getattr(node.func, "id", None) in _FUNCTIONS and len(node.args) == 1
                and not node.keywords and not text[node.func.end_col_offset:where].strip()):
            key, operands = node.func.id, node.args
    if key is ast.UAdd:
        return _build(node.operand, text, at, column)
    if key not in _OPS:
        raise SyntaxError("invalid syntax", ("", 1, where + 1, text))
    fn, kids = _OPS[key][column], [_build(child, text, at, column) for child in operands]
    a, b = kids if len(kids) == 2 else (kids[0], None)
    return (lambda t: fn(a(t), b(t))) if b else (lambda t: fn(a(t)))


@dataclass(frozen=True)
class FunctionExpr:
    """A parsed scalar expression in the variable t.

    A float, numpy scalar or 0-d array gives a float, or a DomainError
    outside the domain. An array of one or more dimensions gives the float
    calls' values elementwise, bit for bit; where one of them would fail, or
    a value on the way would not be finite, the array call raises a plain
    error (not a DomainError, and not formatting the array), so that a
    caller can retry point by point.
    """

    source: str
    _evaluate: Callable[[float], float]
    _evaluate_array: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        if isinstance(t, np.ndarray) and t.ndim:
            x = t.astype(float, casting="same_kind", copy=False)
            # an operation that leaves the finite range raises FloatingPointError
            with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
                out = self._evaluate_array(_finite(x))
            # "t" returns x itself and a constant a scalar: give both a new array
            return out if out is not x and np.shape(out) == x.shape else np.full(x.shape, out)
        t = float(t)
        try:
            value = self._evaluate(t)
        except DOMAIN_ERRORS as exc:
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
        tree = ast.parse(text, mode="eval").body
        return FunctionExpr(source, *(_build(tree, text, at, column) for column in (0, 1)))
    except SyntaxError as exc:
        # offset: the 1-based column of the bad token, 0 where the text ended
        kind, value, pos = at.get((exc.offset or 0) - 1, ("end", None, None))
        why = "" if exc.msg.startswith("invalid syntax") else f" ({exc.msg})"
        where = "end of expression" if kind == "end" else f"{value!r} at position {pos}{why}"
        raise UsageError(f"unexpected {where}") from None
    except (RecursionError, MemoryError):     # how Python reports too deep a tree
        raise UsageError("expression nested too deeply") from None
