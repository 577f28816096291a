"""JSON helpers with fixed-width float formatting.

All numeric text emitted by the package uses 17 significant digits, which is
enough to round-trip IEEE double precision bit-for-bit. Serialization is
deterministic: same value in, same text out.
"""
from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .errors import UsageError

_LITERALS = {None: "null", True: "true", False: "false"}


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return f"{x:.17g}"


def _encode(obj: Any) -> str:
    # containers first: a report's matrices make most of its values lists
    if isinstance(obj, (list, tuple)):
        if all(map(isinstance, obj, repeat(float))):
            return _encode_floats(obj)
        return "[" + ", ".join(map(_encode, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_quote(str(k))}: {_encode(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or isinstance(obj, bool):
        return _LITERALS[obj]
    if isinstance(obj, int):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _encode_floats(xs) -> str:
    """A list of floats, each as format_float writes it, by one printf-style
    .17g format of the whole list after one finiteness pass."""
    if not all(map(math.isfinite, xs)):
        for x in xs:
            format_float(x)     # raises at the first non-finite value
    return _list_format(len(xs)) % tuple(xs)


@lru_cache(maxsize=64)
def _list_format(n: int) -> str:
    return "[" + ", ".join(["%.17g"] * n) + "]"


def dumps(obj: Any) -> str:
    """Serialize to a single-line JSON string with 17-digit floats."""
    return _encode(obj)


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise UsageError("invalid JSON: nested too deeply") from None


def load_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
