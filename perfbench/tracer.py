"""Span and counter wrappers around the package's public functions.

install() replaces every public function of each layer module (and a few
public methods) with a wrapper that records one span per call, at every
place the package binds it: a `from .spd import sqrt_pair` inside `means` is
swapped too, as is the attribute on the `opmeans` package. uninstall() puts
the originals back. Spans stay in memory (compact arrays) and are reduced to
per-layer and per-op numbers by `summarize`.
"""
from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("spd", "hdensity", "means", "orders", "monocheck", "solvers",
          "cli", "funcexpr", "jsonio")
BENCH = "bench"   # the op spans the benchmark itself opens
_METHODS = {"spd": ("SpdMatrix.__post_init__", "SpectralDecomposition.apply"),
            "funcexpr": ("FunctionExpr.__call__",)}

# per-function counters: name -> counter key; "size" counts points of the t
# argument, "trials" reads trials_run off the returned verdict
DECOMPOSITIONS = ("sym_eigendecompose", "min_eig_and_norm", "loewner_leq",
                  "SpdMatrix.__post_init__")
_COUNTED = {
    **{("spd", n): ("decompositions", "one") for n in DECOMPOSITIONS},
    **{("hdensity", n): ("points", "size")
       for n in ("eval_symmetric_rep", "eval_selfadjoint_rep",
                 "symmetric_rep_derivative", "selfadjoint_rep_derivative")},
    ("means", "eval_mean_from_function"): ("evals", "one"),
    ("orders", "phi_profile"): ("phi_profiles", "one"),
    ("monocheck", "loewner_matrix"): ("loewner_matrices", "one"),
    ("monocheck", "is_operator_monotone_sampled"): ("trials_run", "trials"),
    ("monocheck", "falsify_transfer"): ("trials_run", "trials"),
    **{("solvers", n): ("inversions", "one")
       for n in ("invert_phi", "invert_f_alpha", "invert_geom_heinz_ratio")},
}


class Tracer:
    """Records spans: (id, parent, name index, start, end, error, op, counter value)."""

    def __init__(self):
        self.names: list[tuple[str, str]] = [(BENCH, "op")]   # (layer, function)
        self.ids = array("q")
        self.parents = array("q")
        self.name_idx = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.errors = array("b")
        self.ops = array("q")
        self.values = array("d")
        self._stack = [-1]
        self._next = 0
        self.op = -1
        self._patches: list = []
        self._op_runner = self.span(0, lambda call: call(), None)

    # --------------------------------------------------------------- recording

    def _record(self, sid, parent, idx, t0, t1, err, value):
        self.ids.append(sid)
        self.parents.append(parent)
        self.name_idx.append(idx)
        self.starts.append(t0)
        self.ends.append(t1)
        self.errors.append(err)
        self.ops.append(self.op)
        self.values.append(value)

    def span(self, idx: int, fn, measure: str | None):
        """Wrap fn so each call records a span under name index idx."""
        stack = self._stack
        clock = time.perf_counter
        record = self._record

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            err = 1
            value = 0.0
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                err = 0
                if measure == "trials":
                    value = float(out.trials_run)
                return out
            finally:
                t1 = clock()
                stack.pop()
                if measure == "size" and args:
                    value = float(np.size(args[1] if len(args) > 1 else args[0]))
                elif measure == "one":
                    value = 1.0
                record(sid, parent, idx, t0, t1, err, value)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def run_op(self, op_index: int, call):
        """Run one op under a bench-layer span."""
        self.op = op_index
        return self._op_runner(call)

    # --------------------------------------------------------------- patching

    def install(self, package) -> None:
        """Wrap every public function of each layer module of `package`.

        The wrappers are built on the first call; later calls swap the same
        wrappers back in, so install/uninstall can alternate cheaply.
        """
        if not self._patches:
            self._patches = self._plan(package)
        for owner, name, _, wrapped in self._patches:
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)

    def _plan(self, package) -> list:
        """(owner, attribute, original, wrapper) for every binding to patch."""
        prefix = package.__name__
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        patches = []
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{prefix}.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
            for qual in _METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                patches.append((cls, meth, fn, self._wrap(layer, qual, fn)))
        for mod in modules:
            for name, obj in vars(mod).items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((mod, name, obj, hit[1]))
        return patches

    def _wrap(self, layer: str, name: str, fn):
        self.names.append((layer, name))
        measure = _COUNTED.get((layer, name), (None, None))[1]
        return self.span(len(self.names) - 1, fn, measure)

    # ---------------------------------------------------------------- reduce

    def arrays(self) -> dict:
        """Spans as numpy arrays sorted by span id."""
        ids = np.frombuffer(self.ids, dtype=np.int64)
        order = np.argsort(ids)
        return {"id": ids[order],
                "parent": np.frombuffer(self.parents, dtype=np.int64)[order],
                "name": np.frombuffer(self.name_idx, dtype=np.int64)[order],
                "start": np.frombuffer(self.starts)[order],
                "end": np.frombuffer(self.ends)[order],
                "error": np.frombuffer(self.errors, dtype=np.int8)[order],
                "op": np.frombuffer(self.ops, dtype=np.int64)[order],
                "value": np.frombuffer(self.values)[order]}


def self_times(ids, parents, durations) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    ids must be 0..N-1 in order (span ids are assigned densely); a parent of
    -1 marks a root. Summing the result over a layer gives the layer's span
    time minus the time of its child spans in other layers.
    """
    child = np.zeros(len(ids))
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], durations[has_parent])
    return durations - child


def summarize(spans: dict, names: list, op_kinds: list) -> dict:
    """Per-layer and per-op-kind totals from the span arrays."""
    dur = spans["end"] - spans["start"]
    excl = self_times(spans["id"], spans["parent"], dur)
    layer_of = np.array([LAYERS.index(layer) if layer in LAYERS else -1
                         for layer, _ in names])
    fn_of = [fn for _, fn in names]
    layer = layer_of[spans["name"]]
    parent_layer = np.where(spans["parent"] >= 0, layer[np.maximum(spans["parent"], 0)], -2)
    entry = layer != parent_layer     # first span of a layer on its call path
    out = {"layers": {}, "bench_self_s": float(np.sum(excl[layer == -1]))}
    for li, name in enumerate(LAYERS):
        mine = layer == li
        counters = {}
        for (lname, fname), (key, measure) in _COUNTED.items():
            if lname != name:
                continue
            sel = mine & np.array([fn == fname for fn in fn_of])[spans["name"]]
            if measure in ("size", "trials"):
                sel = sel & entry   # count at layer entry: nested calls re-see the same points
            counters[key] = counters.get(key, 0.0) + float(np.sum(spans["value"][sel]))
        out["layers"][name] = {"calls": int(np.sum(mine)),
                               "self_s": float(np.sum(excl[mine])),
                               "errors": int(np.sum(mine & entry & (spans["error"] == 1))),
                               **counters}
    is_decomp = np.array([fn in DECOMPOSITIONS and lay == "spd" for lay, fn in names])[spans["name"]]
    per_op = np.bincount(spans["op"][is_decomp], minlength=len(op_kinds))
    decomp_by_kind: dict = {}
    for k, kind in enumerate(op_kinds):
        decomp_by_kind.setdefault(kind, []).append(int(per_op[k]))
    out["decompositions_per_op"] = {kind: float(np.mean(v)) for kind, v in decomp_by_kind.items()}
    return out
