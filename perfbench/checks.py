"""Per-op verdicts: each op's output against the oracle.

check(op, output) returns a Verdict. A failed op is one that raised, one
whose numbers miss the package's contract tolerance against the oracle, or
one with a wrong verdict. Failures of the kind ROADMAP item 1 describes (a
"refuted" verdict, or a failed inequality, on a case that is true) are
tagged `unsound_refutation`; they count as failed ops like any other.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

import oracle
from workloads import KA_TRIALS, KNOWN_FUNCTIONS

UNSOUND = "unsound_refutation"


@dataclass(frozen=True)
class Verdict:
    ok: bool
    digits: Optional[float] = None     # None when the op yields no number to check
    reason: str = ""                   # failure class; "" when ok


def _numeric(err: float, tol: float) -> Verdict:
    ok = bool(np.isfinite(err) and err <= tol)
    return Verdict(ok, oracle.digits(err), "" if ok else "tolerance")


def _raised(output) -> bool:
    return (isinstance(output, tuple) and len(output) == 2 and isinstance(output[0], str)
            and output[0] == "exception")


def _catalog(mean):
    return oracle.catalog(*mean)


def _pair(spec, output, f_x, f_y) -> Verdict:
    a, b = output
    rx, ry = oracle.pair_residuals(a, b, spec["x"], spec["y"], f_x, f_y)
    return _numeric(max(rx, ry), oracle.RESIDUAL_TOL)


def _loewner_leq(a, b, tol: float) -> bool:
    d = oracle.sym(b - a)
    return oracle.min_eig(d) >= -tol * max(1.0, float(np.linalg.norm(d)))


def _chain(spec, output) -> Verdict:
    links, gamma0, witnesses = output
    x, y = spec["x"], spec["y"]
    if not (np.array_equal(links[0], x) and np.array_equal(links[-1], y)):
        return Verdict(False, None, "chain endpoints")
    if len(witnesses) != len(links) - 1:
        return Verdict(False, None, "chain witnesses")
    geo = oracle.catalog("geometric")
    sigma = _catalog(spec["mean"])
    worst = 0.0
    for lo, hi, (a, b) in zip(links, links[1:], witnesses):
        if not (_loewner_leq(lo, hi, 1e-10) and _loewner_leq(hi, gamma0 * lo, 1e-10)):
            return Verdict(False, None, "chain link order")
        rx, ry = oracle.pair_residuals(a, b, lo, hi, geo, sigma)
        worst = max(worst, rx, ry)
    return _numeric(worst, oracle.RESIDUAL_TOL)


def _ineq_chain(spec, output) -> Verdict:
    holds, links = output
    ref = oracle.chain_link_margins(spec["a"], spec["b"], spec["s"])
    err = max(abs(m - ref[name]) / max(1.0, norm) for name, m, norm in links)
    v = _numeric(err, oracle.MARGIN_TOL)
    if not holds:
        return Verdict(False, v.digits, UNSOUND)
    return v


def _ka(spec, output) -> Verdict:
    ok, margin, _ = output
    rng = np.random.default_rng(spec["seed"])
    pairs = [(oracle.random_spd(rng, spec["n"], 50.0), oracle.random_spd(rng, spec["n"], 50.0))
             for _ in range(KA_TRIALS)]
    v = _numeric(abs(margin - oracle.ka_margins(pairs, spec["w"])), oracle.MARGIN_TOL)
    if not ok:
        return Verdict(False, v.digits, UNSOUND)
    return v


def _function_verdict(spec, status: str, witness_check) -> Verdict:
    _, monotone, _, f, fprime = KNOWN_FUNCTIONS[spec["fn"]]
    if monotone:
        return Verdict(True) if status == "consistent" else Verdict(False, None, UNSOUND)
    if status != "refuted":
        return Verdict(False, None, "missed refutation")
    genuine, err = witness_check(f, fprime)
    if not genuine:
        return Verdict(False, oracle.digits(err), "witness does not re-verify")
    return _numeric(err, oracle.MARGIN_TOL)


def _mono(spec, output) -> Verdict:
    status, witness = output

    def witness_check(f, fprime):
        points, min_eig, norm = witness
        ref, ref_norm = oracle.loewner_min_eig(points, (f, fprime))
        return ref < -oracle.MARGIN_TOL * ref_norm, abs(min_eig - ref) / ref_norm
    return _function_verdict(spec, status, witness_check)


def _transfer(spec, output) -> Verdict:
    status, witness = output

    def witness_check(f, _fprime):
        a, b, min_eig, _norm = witness
        lo = oracle.spectral(oracle.mean(a, b, oracle.catalog(spec["sigma"])), f)
        hi = oracle.spectral(oracle.mean(a, b, oracle.catalog(spec["tau"])), f)
        d = hi - lo
        scale = max(1.0, float(np.linalg.norm(d)))
        ref = oracle.min_eig(d)
        return ref < -oracle.MARGIN_TOL * scale, abs(min_eig - ref) / scale
    return _function_verdict(spec, status, witness_check)


def _cli_payload(output):
    code, text = output
    if code not in (0, 1):
        return None
    return json.loads(text)


def _matrix(d) -> np.ndarray:
    return np.asarray(d["rows"], dtype=float)


def _rep_eval(spec, payload) -> Verdict:
    t = spec["t"]
    if payload["t"] != [float(x) for x in t]:
        return Verdict(False, None, "points echo")
    f, df = oracle.density_rep_and_slope(spec["density"], t)
    err = max(float(np.max(np.abs(np.asarray(payload["value"]) - f) / np.abs(f))),
              float(np.max(np.abs(np.asarray(payload["derivative"]) - df) / np.abs(df))))
    return _numeric(err, oracle.MEAN_TOL)


def _cli_eval_mean(spec, payload) -> Verdict:
    ref = oracle.mean(spec["a"], spec["b"], oracle.density_rep(spec["density"]))
    return _numeric(oracle.rel_diff(_matrix(payload["value"]), ref), oracle.MEAN_TOL)


def _cli_check_order(spec, payload) -> Verdict:
    expect = oracle.density_order(spec["f"], spec["g"])
    if expect not in ("equal", "leq" if spec["f"]["class"] == "sym" else "geq"):
        return Verdict(False, None, "input pair not ordered")
    if payload["status"] != "consistent":
        return Verdict(False, None, UNSOUND)
    return Verdict(True)


def _cli_solve_pair(spec, payload) -> Verdict:
    a, b = _matrix(payload["A"]), _matrix(payload["B"])
    rx, ry = oracle.pair_residuals(a, b, spec["x"], spec["y"], oracle.catalog("geometric"),
                                   oracle.density_rep(spec["density"]))
    return _numeric(max(rx, ry), oracle.RESIDUAL_TOL)


def _lattice(spec, output) -> Verdict:
    order, meet_b, meet_v, join_b, join_v, dag_v = output
    hf, hg = spec["f"], spec["g"]
    if order != oracle.density_order(hf, hg):
        return Verdict(False, None, "wrong order")
    cuts = sorted(set(hf["breaks"]) | set(hg["breaks"]))
    mids = 0.5 * (np.array(cuts[:-1]) + np.array(cuts[1:]))
    vf, vg = oracle.step_values(hf, mids), oracle.step_values(hg, mids)
    hi, lo = np.maximum(vf, vg), np.minimum(vf, vg)
    meet, join = (hi, lo) if hf["class"] == "sym" else (lo, hi)
    if list(meet_b) != cuts or list(join_b) != cuts:
        return Verdict(False, None, "lattice breaks")
    err = max(float(np.max(np.abs(np.asarray(meet_v) - meet))),
              float(np.max(np.abs(np.asarray(join_v) - join))),
              float(np.max(np.abs(np.asarray(dag_v) - (1.0 - np.asarray(hf["values"]))))))
    return _numeric(err, 1e-15)


_PLAIN = {
    "eval_mean": lambda s, o: _numeric(
        oracle.rel_diff(o, oracle.mean(s["a"], s["b"], _catalog(s["mean"]))), oracle.MEAN_TOL),
    "solve_pair": lambda s, o: _pair(s, o, _catalog(s["fx"]), _catalog(s["fy"])),
    "solve_heinz_heron": lambda s, o: _pair(s, o, _catalog(s["fx"]), _catalog(s["fy"])),
    "solve_geom_heinz": lambda s, o: _pair(s, o, _catalog(s["fx"]), _catalog(s["fy"])),
    "chain": _chain,
    "ineq_chain": _ineq_chain,
    "ka_check": _ka,
    "mono_check": _mono,
    "falsify_transfer": _transfer,
    "density_lattice": _lattice,
}
_CLI = {"rep_eval": _rep_eval, "cli_eval_mean": _cli_eval_mean,
        "cli_check_order": _cli_check_order, "cli_solve_pair": _cli_solve_pair}


def check(op, output) -> Verdict:
    if _raised(output):
        return Verdict(False, None, "exception")
    if op.cli:
        try:
            payload = _cli_payload(output)
        except json.JSONDecodeError:
            payload = None
        if payload is None:
            return Verdict(False, None, "cli error")
        return _CLI[op.kind](op.spec, payload)
    return _PLAIN[op.kind](op.spec, output)


def cross_check_densities(densities, points=(0.05, 3.7)) -> float:
    """Worst relative gap between closed-form and quadrature representations."""
    worst = 0.0
    for d in densities:
        for t in points:
            closed = float(oracle.density_rep(d)(np.array([t]))[0])
            worst = max(worst, abs(closed - oracle.density_rep_by_quad(d, t)) / closed)
    return worst
