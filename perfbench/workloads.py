"""Seeded workloads: one pass of generated ops per workload.

Each workload has a fixed pattern of op slots (kind, matrix size, mean
family) that is the same for every seed; the seed draws the matrices,
densities, parameters and sampler seeds that fill the slots. A pass is one
copy of the pattern, and every pass draws its own inputs from (seed, pass
index), so no input is timed twice. Mean families rotate over the slots of
a kind from one pass to the next. Ops call the package through attribute lookups on
the imported modules at call time, so tracing wrappers installed later are
seen.

Input generation uses numpy and the oracle only; the package sees nothing
but the generated inputs.
"""
from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracle

WORKLOADS = ("pair-solve", "sampled-checks", "density-cli")
WARMUP_PASS = 1_000_000    # pass index of the untimed inputs that warm each op kind
_PATTERN_SEED = 20180319   # fixes the slot order; the run seed never moves it


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]        # the timed call; returns plain data
    spec: dict = field(default_factory=dict)   # what the oracle needs
    cli: bool = False             # output is (exit code, stdout text)


def _pattern(slots: list) -> list:
    order = np.random.default_rng(_PATTERN_SEED).permutation(len(slots))
    return [slots[i] for i in order]


def _root(x: np.ndarray) -> np.ndarray:
    return oracle.spectral(x, np.sqrt)


def _descriptor(om, mean: tuple):
    kind, param = mean
    if param is None:
        return om.MeanDescriptor(kind)
    return om.MeanDescriptor(kind, param=param)


def _witness(w) -> tuple:
    return (w.matrix_a, w.matrix_b)


# ------------------------------------------------------------------ pair-solve

_PAIR_SLOTS = (
    [("eval_mean", n, None) for n in (2, 2, 2, 2, 2, 3, 3, 3, 3, 3,
                                       4, 4, 4, 5, 5, 6, 8, 12, 16, 24)]
    + [("solve_pair", n, None) for n in (2, 2, 2, 3, 3, 3, 4, 4, 5, 6, 8, 10)]
    + [("solve_heinz_heron", n, None) for n in (2, 2, 3, 3, 5, 8)]
    + [("solve_geom_heinz", n, None) for n in (2, 2, 3, 3, 5, 8)]
    + [("chain", n, None) for n in (2, 2, 3, 3, 4, 4)])
_EVAL_MEANS = ("arithmetic", "harmonic", "geometric", "wgeo", "heinz", "heron")
_SOLVE_MEANS = ("arithmetic", "heron", "heinz", "wgeo", "harmonic")
_HH_S = (0.1, 0.25, 0.7, 0.9)


def _draw_mean(rng, kind: str) -> tuple:
    # parameters stay away from 1/2, where the realize map flattens and the
    # pair problem's condition number grows without bound
    if kind == "wgeo":
        return kind, float(rng.uniform(0.1, 0.35))
    if kind == "heinz":
        s = float(rng.uniform(0.05, 0.35))
        return kind, (s if rng.random() < 0.5 else 1.0 - s)
    if kind == "heron":
        return kind, float(rng.uniform(0.2, 1.0))
    return kind, None


def pair_solve(om, rng, pass_index: int) -> list:
    geo = oracle.catalog("geometric")
    ops = []
    counters = {}
    for kind, n, _ in _pattern(_PAIR_SLOTS):
        k = counters[kind] = counters.get(kind, pass_index - 1) + 1
        if kind == "eval_mean":
            mean = _draw_mean(rng, _EVAL_MEANS[k % len(_EVAL_MEANS)])
            a = oracle.random_spd(rng, n)
            b = oracle.random_spd(rng, n)
            ops.append(Op(kind, lambda a=a, b=b, m=mean: om.eval_mean(a, b, _descriptor(om, m)),
                          {"a": a, "b": b, "mean": mean}))
        elif kind == "solve_pair":
            mean = _draw_mean(rng, _SOLVE_MEANS[k % len(_SOLVE_MEANS)])
            if mean[0] == "wgeo":
                # weighted power means are not above the geometric mean, so
                # the target is built on the ratio side: Y = X^1/2 (I + P) X^1/2
                x = oracle.random_spd(rng, n)
                r = _root(x)
                y = oracle.sym(r @ (np.eye(n) + oracle.spd_bump(rng, n, 0.5)) @ r)
            else:
                a = oracle.random_spd(rng, n)
                b = a + oracle.spd_bump(rng, n)
                x = oracle.mean(a, b, geo)
                y = oracle.mean(a, b, oracle.catalog(*mean))
            ops.append(Op(kind, lambda x=x, y=y, m=mean: _witness(
                om.solve_matrix_pair(_descriptor(om, m), x, y)),
                {"x": x, "y": y, "fx": ("geometric", None), "fy": mean}))
        elif kind in ("solve_heinz_heron", "solve_geom_heinz"):
            s = _HH_S[int(rng.integers(len(_HH_S)))]
            a = oracle.random_spd(rng, n)
            b = a + oracle.spd_bump(rng, n)
            if kind == "solve_heinz_heron":
                fx, fy = ("heinz", s), ("heron", (2.0 * s - 1.0) ** 2)
                solver = "solve_heinz_heron_matrix"
            else:
                fx, fy = ("geometric", None), ("heinz", s)
                solver = "solve_geom_heinz_matrix"
            x = oracle.mean(a, b, oracle.catalog(*fx))
            y = oracle.mean(a, b, oracle.catalog(*fy))
            ops.append(Op(kind, lambda f=solver, s=s, x=x, y=y: _witness(getattr(om, f)(s, x, y)),
                          {"x": x, "y": y, "fx": fx, "fy": fy}))
        else:
            mean = (("arithmetic", None), ("heron", 0.5))[k % 2]
            x = oracle.random_spd(rng, n)
            y = x + oracle.spd_bump(rng, n, float(rng.uniform(0.1, 4.0)))

            def chain(x=x, y=y, m=mean):
                c = om.build_monotone_chain(_descriptor(om, m), x, y)
                return (c.links, c.gamma0, [_witness(w) for w in c.pair_witnesses])
            ops.append(Op(kind, chain, {"x": x, "y": y, "mean": mean}))
    return ops


# -------------------------------------------------------------- sampled-checks

# (name, monotone?, package form, exact value, exact derivative); a string
# package form is handed to opmeans.parse_function inside the op
KNOWN_FUNCTIONS = (
    ("sqrt", True, np.sqrt, np.sqrt, lambda t: 0.5 / np.sqrt(t)),
    ("t/(1+t)", True, "t/(1+t)", lambda t: t / (1.0 + t), lambda t: 1.0 / (1.0 + t) ** 2),
    ("t^0.3", True, "t^0.3", lambda t: t ** 0.3, lambda t: 0.3 * t ** -0.7),
    ("t^2", False, lambda t: t * t, lambda t: t * t, lambda t: 2.0 * t),
    ("t^3", False, "t^3", lambda t: t ** 3, lambda t: 3.0 * t * t),
    ("scaled-exp", False, lambda t: math.expm1(t) / math.expm1(1.0),
     lambda t: np.expm1(t) / math.expm1(1.0), lambda t: np.exp(t) / math.expm1(1.0)),
)
_CHECK_SLOTS = (
    # n = 3 carries the middle of the latency distribution, so the median op
    # sits inside one group instead of on the edge between two
    [("ineq_chain", n, s) for s in (0.1, 0.3, 0.49, 0.7) for n in (2, 2, 3, 3, 3, 5)]
    + [("ka_check", 3, None)] * 2
    + [("mono_check", 0, j) for j in range(len(KNOWN_FUNCTIONS))]
    + [("falsify_transfer", 0, j) for j in range(len(KNOWN_FUNCTIONS))])
_TRANSFER_PAIRS = (("geometric", "arithmetic"), ("harmonic", "arithmetic"))
MONO_CONFIG = {"trials": 16, "grids": ((1e-2, 1e2, 5),), "sizes": (2, 3, 4)}
KA_TRIALS = 3
# a non-monotone function stops at its first witness, so it gets the package's
# default budget and a missed refutation is rare; a monotone one spends its
# whole budget, so that budget is short
TRANSFER_TRIALS = {True: 12, False: 1000}


def _spread_pair(rng, n):
    # relative spectrum kept away from 1 (as in acceptance 04): the Heinz-Heron
    # gap is quartic in the spread and would sink below double precision
    a = oracle.random_spd(rng, n)
    root = _root(a)
    q = np.exp(rng.uniform(np.log(1.3), np.log(3.0), size=n) * rng.choice([-1.0, 1.0], size=n))
    z = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return a, oracle.sym(root @ oracle.sym((z * q) @ z.T) @ root)


def _package_function(om, form):
    return om.parse_function(form) if isinstance(form, str) else form


def sampled_checks(om, rng, pass_index: int) -> list:
    ops = []
    for kind, n, var in _pattern(_CHECK_SLOTS):
        seed = int(rng.integers(2 ** 31))
        if kind == "ineq_chain":
            a, b = _spread_pair(rng, n)

            def call(a=a, b=b, s=var):
                r = om.verify_inequality_chain(a, b, s)
                return (r.all_hold(), [(m.name, m.min_eigenvalue, m.diff_norm) for m in r.links])
            ops.append(Op(kind, call, {"a": a, "b": b, "s": var}))
        elif kind == "ka_check":
            w = float(rng.uniform(0.1, 0.9))

            def call(w=w, seed=seed, n=n):
                r = om.ka_condition_check(om.MeanDescriptor.geometric(),
                                          om.MeanDescriptor.weighted_geometric(w),
                                          trials=KA_TRIALS, seed=seed, n=n)
                return (r.ok, r.min_margin, len(r.violations))
            ops.append(Op(kind, call, {"w": w, "seed": seed, "n": n}))
        elif kind == "mono_check":
            form = KNOWN_FUNCTIONS[var][2]

            def call(form=form, seed=seed):
                v = om.is_operator_monotone_sampled(
                    _package_function(om, form), None, om.MonoConfig(seed=seed, **MONO_CONFIG))
                w = v.witness
                return (v.status, None if w is None else (w.points, w.min_eigenvalue, w.matrix_norm))
            ops.append(Op(kind, call, {"fn": var}))
        else:
            form = KNOWN_FUNCTIONS[var][2]
            sigma, tau = _TRANSFER_PAIRS[pass_index % 2]

            def call(form=form, seed=seed, sigma=sigma, tau=tau,
                     trials=TRANSFER_TRIALS[KNOWN_FUNCTIONS[var][1]]):
                v = om.falsify_transfer(_package_function(om, form), om.MeanDescriptor(sigma),
                                        om.MeanDescriptor(tau), trials=trials, seed=seed)
                w = v.witness
                return (v.status, None if w is None
                        else (w.matrix_a, w.matrix_b, w.min_eigenvalue, w.diff_norm))
            ops.append(Op(kind, call, {"fn": var, "sigma": sigma, "tau": tau}))
    return ops


# ----------------------------------------------------------------- density-cli

_DENSITY_SLOTS = ([("rep_eval", 0, c) for c in ("sym", "sa") * 6]
                  + [("cli_eval_mean", n, c) for n in (2, 3, 4) for c in ("sym", "sa")] * 2
                  + [("cli_check_order", 0, c) for c in ("sym", "sa") * 2]
                  + [("cli_solve_pair", n, "sa") for n in (2, 3, 2, 3)]
                  + [("density_lattice", 0, c) for c in ("sym", "sa") * 5 + ("sym",)])
POOL_SIZE = 320        # per class; with the raised partners the pool holds
SOLVER_POOL_SIZE = 96  # 4 * 320 + 96 densities, far past 256-entry caches
CHECK_ORDER_TRIALS = 20


def _random_density(rng, cls: str, segments: int, lo_v: float = 0.0, hi_v: float = 1.0) -> dict:
    lo, hi = (0.0, 1.0) if cls == "sym" else (-1.0, 0.0)
    cuts = np.sort(rng.uniform(lo, hi, segments - 1))
    breaks = [lo, *[float(c) for c in cuts], hi]
    values = [float(v) for v in rng.uniform(lo_v, hi_v, len(breaks) - 1)]
    return {"class": cls, "breaks": breaks, "values": values}


def _raised(rng, density: dict) -> dict:
    values = [min(1.0, v + float(rng.uniform(0.05, 0.5))) for v in density["values"]]
    return {**density, "values": values}


def _skewed(rng, size: int) -> int:
    # a few hot densities, a long cold tail: P(index < size/10) ~ 0.46
    return min(size - 1, int(size * rng.random() ** 3))


def _cli(om, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = om.cli.main(argv)
    return code, out.getvalue()


def density_cli(om, pool_rng, rng, tag: str, workdir: str, write: bool = True) -> list:
    """Ops through opmeans.cli.main; inputs are JSON files under workdir.

    The density pool comes from pool_rng and is the same for every pass; an
    op's own files carry the pass tag in their names.
    """
    def save(name: str, obj, shared: bool = False) -> str:
        path = os.path.join(workdir, name)
        if write and not (shared and os.path.exists(path)):   # pool files: written once
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        return path

    def save_matrix(name: str, m: np.ndarray) -> str:
        return save(name, {"n": int(m.shape[0]), "rows": m.tolist()})

    # the segment count (1-4) follows the pool index, so the hot densities have
    # the same shape under every seed; the seed draws breaks and values
    pool = {cls: [_random_density(pool_rng, cls, 1 + j % 4) for j in range(POOL_SIZE)]
            for cls in ("sym", "sa")}
    raised = {cls: [_raised(pool_rng, h) for h in pool[cls]] for cls in ("sym", "sa")}
    solvers = [_random_density(pool_rng, "sa", 1 + j % 4, 0.05, 0.35)
               for j in range(SOLVER_POOL_SIZE)]
    files = {cls: [save(f"{cls}{i}.json", h, True) for i, h in enumerate(pool[cls])]
             for cls in pool}
    raised_files = {cls: [save(f"{cls}{i}up.json", h, True) for i, h in enumerate(raised[cls])]
                    for cls in raised}
    solver_files = [save(f"sigma{i}.json", h, True) for i, h in enumerate(solvers)]

    ops = []
    for i, (kind, n, cls) in enumerate(_pattern(_DENSITY_SLOTS)):
        if kind == "rep_eval":
            j = _skewed(rng, POOL_SIZE)
            size = int(rng.integers(9, 26))
            t = np.logspace(-3.0, 3.0, size) * np.exp(rng.uniform(-0.1, 0.1))
            argv = ["rep-eval", "--density", files[cls][j], "--t", ",".join(repr(float(x)) for x in t)]
            spec = {"density": pool[cls][j], "t": t}
        elif kind == "cli_eval_mean":
            j = _skewed(rng, POOL_SIZE)
            a, b = oracle.random_spd(rng, n), oracle.random_spd(rng, n)
            argv = ["eval-mean", "--mean", "hdensity:" + files[cls][j],
                    "--a", save_matrix(f"{tag}op{i}a.json", a),
                    "--b", save_matrix(f"{tag}op{i}b.json", b)]
            spec = {"density": pool[cls][j], "a": a, "b": b}
        elif kind == "cli_check_order":
            j = _skewed(rng, POOL_SIZE)
            seed = int(rng.integers(2 ** 31))
            # f has the larger density, which orders its mean below g's in the
            # symmetric class and above it in the self-adjoint class; both
            # make the sampled test's answer "consistent"
            argv = ["check-order", "--f", "hdensity:" + raised_files[cls][j],
                    "--g", "hdensity:" + files[cls][j],
                    "--trials", str(CHECK_ORDER_TRIALS), "--seed", str(seed)]
            spec = {"f": raised[cls][j], "g": pool[cls][j]}
        elif kind == "cli_solve_pair":
            j = _skewed(rng, SOLVER_POOL_SIZE)
            x = oracle.random_spd(rng, n)
            r = _root(x)
            y = oracle.sym(r @ (np.eye(n) + oracle.spd_bump(rng, n, 0.5)) @ r)
            argv = ["solve-pair", "--mean", "hdensity:" + solver_files[j],
                    "--x", save_matrix(f"{tag}op{i}x.json", x),
                    "--y", save_matrix(f"{tag}op{i}y.json", y)]
            spec = {"density": solvers[j], "x": x, "y": y}
        else:
            hf = pool[cls][_skewed(rng, POOL_SIZE)]
            hg = pool[cls][_skewed(rng, POOL_SIZE)]

            def lattice(hf=hf, hg=hg):
                f = om.HDensity.from_json_dict(hf)
                g = om.HDensity.from_json_dict(hg)
                meet, join = om.lattice_meet_join(f, g)
                dag = om.dagger_density(f)
                return (om.h_order(f, g), meet.breaks, meet.values,
                        join.breaks, join.values, dag.values)
            ops.append(Op(kind, lattice, {"f": hf, "g": hg}))
            continue
        ops.append(Op(kind, lambda argv=argv: _cli(om, argv), spec, cli=True))
    return ops


PATTERN_LEN = {"pair-solve": len(_PAIR_SLOTS), "sampled-checks": len(_CHECK_SLOTS),
               "density-cli": len(_DENSITY_SLOTS)}
KINDS = ("eval_mean", "solve_pair", "solve_heinz_heron", "solve_geom_heinz", "chain",
         "ineq_chain", "ka_check", "falsify_transfer", "mono_check", "rep_eval",
         "cli_eval_mean", "cli_check_order", "cli_solve_pair", "density_lattice")


def build(name: str, om, seed: int, pass_index: int, workdir: str, write: bool = True) -> list:
    """Pass `pass_index` of workload `name`, drawn from (seed, pass_index).

    write=False builds the same ops without writing their input files.
    """
    rng = np.random.default_rng([seed, 1, pass_index])
    if name == "pair-solve":
        return pair_solve(om, rng, pass_index)
    if name == "sampled-checks":
        return sampled_checks(om, rng, pass_index)
    if name == "density-cli":
        return density_cli(om, np.random.default_rng([seed, 0]), rng, f"p{pass_index}",
                           workdir, write)
    raise ValueError(f"unknown workload {name!r}")
