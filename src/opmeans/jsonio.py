"""JSON helpers with fixed-width float formatting.

All numeric text emitted by the package uses 17 significant digits, which is
enough to round-trip IEEE double precision bit-for-bit. Serialization is
deterministic: same value in, same text out.
"""
from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .errors import UsageError

_LITERALS = {None: "null", True: "true", False: "false"}


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return f"{x:.17g}"


def _encode(obj: Any) -> str:
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or isinstance(obj, bool):
        return _LITERALS[obj]
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_quote(str(k))}: {_encode(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_encode, obj)) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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
