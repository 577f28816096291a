"""The closed loop: one caller, one op at a time, no threads."""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"(%d" % len(obj))
        for item in obj:
            _feed(h, item)
        h.update(b")")
    else:
        h.update(repr(obj).encode())


def digest(obj) -> bytes:
    """Digest of an op output: equal outputs, bit for bit, give equal digests."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, obj)
    return h.digest()


@dataclass
class Pass:
    """What one run of a list of ops saw: outputs, their digests, latencies."""

    outputs: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    latency: list = field(default_factory=list)   # seconds, per op
    elapsed: float = 0.0                           # wall time of the loop


def run_ops(ops: list, tracer=None, first_index: int = 0) -> Pass:
    """Run each op once, in order; each starts when the previous one has returned.

    An op that raises yields ("exception", message) as its output. Digests
    are taken after the loop, so they cost no timed time. Traced ops are
    numbered from first_index.
    """
    result = Pass()
    clock = time.perf_counter
    start = clock()
    for k, op in enumerate(ops):
        t0 = clock()
        try:
            out = op.run() if tracer is None else tracer.run_op(first_index + k, op.run)
        except Exception as exc:   # the loop must go on; the failure is the op's result
            out = ("exception", f"{type(exc).__name__}: {exc}")
        result.latency.append(clock() - t0)
        result.outputs.append(out)
    result.elapsed = clock() - start
    result.digests = [digest(out) for out in result.outputs]
    return result


def concat(parts: list) -> Pass:
    """One Pass out of runs over consecutive lists of ops."""
    out = Pass()
    for part in parts:
        out.outputs += part.outputs
        out.digests += part.digests
        out.latency += part.latency
        out.elapsed += part.elapsed
    return out


def first_of_each_kind(ops: list) -> list:
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())
