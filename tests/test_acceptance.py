"""Acceptance suite: one test per advertised guarantee, at fixed tolerances.

Each test prints a single "acceptance NN <label>: PASS/FAIL" line and then
asserts, so a verbose run reads as a checklist. Tolerances and counts here
are the package's contract; loosening them is a behavior change.
"""
import math
import time

import numpy as np
import pytest

import opmeans
from opmeans import (SELF_ADJOINT, SYMMETRIC, HDensity, MeanDescriptor,
                     MonoConfig, apply_spectral_function, build_monotone_chain,
                     dagger, dagger_density, eval_mean, eval_selfadjoint_rep,
                     eval_symmetric_rep, f_alpha, falsify_transfer,
                     geom_heinz_ratio, h_order, invert_f_alpha,
                     invert_geom_heinz_ratio, is_operator_monotone_sampled,
                     ka_condition_check, lattice_meet_join, loewner_leq,
                     loewner_matrix, order_leq_sym, random_spd,
                     representing_function, solve_geom_heinz_matrix,
                     solve_heinz_heron_matrix, solve_matrix_pair,
                     verify_inequality_chain)

from mp_oracle import loewner_min_eigenvalue, transfer_min_eigenvalue

GEO = MeanDescriptor.geometric()
ARITH = MeanDescriptor.arithmetic()


def _finish(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"acceptance {num:02d} {label}: {status}")
    assert not failures, f"{label}: " + "; ".join(failures[:5])


def _rand_spd(n, seed, cond_cap=100.0):
    return random_spd(n, cond_cap=cond_cap, seed=seed).entries


def _spd_bump(rng, n, scale=1.0):
    g = rng.standard_normal((n, n))
    return scale * (g @ g.T) / n


# --------------------------------------------------------------- criterion 1

def test_acceptance_01_representation_fidelity():
    failures = []
    t = np.logspace(-3.0, 3.0, 200)
    cases = [
        (SYMMETRIC, 0.5, np.sqrt(t)),
        (SYMMETRIC, 0.0, 0.5 * (1.0 + t)),
        (SYMMETRIC, 1.0, 2.0 * t / (1.0 + t)),
        (SELF_ADJOINT, 0.5, np.sqrt(t)),
        (SELF_ADJOINT, 0.0, np.ones_like(t)),
        (SELF_ADJOINT, 1.0, t),
    ]
    start = time.perf_counter()
    for cls, const, expect in cases:
        h = HDensity.constant(const, cls)
        got = (eval_symmetric_rep(h, t) if cls == SYMMETRIC
               else eval_selfadjoint_rep(h, t))
        rel = float(np.max(np.abs(got - expect) / np.abs(expect)))
        if rel > 1e-8:
            failures.append(f"{cls} h={const}: rel err {rel:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed > 2.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 2s")
    _finish(1, "representation fidelity", failures)


# --------------------------------------------------------------- criterion 2

def test_acceptance_02_solver_roundtrips():
    failures = []
    start = time.perf_counter()
    wgeo_density = MeanDescriptor.from_h_density(
        HDensity.constant(0.3, SELF_ADJOINT))
    sigmas = [ARITH, MeanDescriptor.heron(0.5), MeanDescriptor.heinz(0.25),
              wgeo_density]

    # geometric-mean / sigma-mean pairs
    rng = np.random.default_rng(2024)
    for k in range(200):
        sigma = sigmas[k % 4]
        n = (k % 6) + 1
        x = _rand_spd(n, seed=1000 + k)
        if sigma is wgeo_density:
            # weighted-power means are not globally above the geometric
            # mean, so build a feasible target directly on the ratio side
            from opmeans import sqrt_pair
            root, _ = sqrt_pair(x)
            y = root @ (np.eye(n) + _spd_bump(rng, n, 0.5)) @ root
            y = 0.5 * (y + y.T)
        else:
            a = _rand_spd(n, seed=3000 + k)
            b = a + _spd_bump(rng, n)
            x = eval_mean(a, b, GEO)
            y = eval_mean(a, b, sigma)
        w = solve_matrix_pair(sigma, x, y)
        r1 = np.linalg.norm(eval_mean(w.matrix_a, w.matrix_b, GEO) - x)
        r2 = np.linalg.norm(eval_mean(w.matrix_a, w.matrix_b, sigma) - y)
        if r1 > 1e-7 * np.linalg.norm(x) or r2 > 1e-7 * np.linalg.norm(y):
            failures.append(f"pair solve {k}: residuals {r1:.2e}, {r2:.2e}")

    # Heinz/Heron target pairs
    s_grid = (0.1, 0.25, 0.7, 0.9)
    for k in range(200):
        s = s_grid[k % 4]
        alpha2 = (2.0 * s - 1.0) ** 2
        n = (k % 6) + 1
        a = _rand_spd(n, seed=5000 + k)
        b = a + _spd_bump(rng, n)
        x = eval_mean(a, b, MeanDescriptor.heinz(s))
        y = eval_mean(a, b, MeanDescriptor.heron(alpha2))
        w = solve_heinz_heron_matrix(s, x, y)
        r1 = np.linalg.norm(
            eval_mean(w.matrix_a, w.matrix_b, MeanDescriptor.heinz(s)) - x)
        r2 = np.linalg.norm(
            eval_mean(w.matrix_a, w.matrix_b, MeanDescriptor.heron(alpha2)) - y)
        if r1 > 1e-7 * np.linalg.norm(x) or r2 > 1e-7 * np.linalg.norm(y):
            failures.append(f"heinz/heron solve {k}: {r1:.2e}, {r2:.2e}")

    # geometric/Heinz target pairs
    for k in range(200):
        s = s_grid[k % 4]
        n = (k % 6) + 1
        a = _rand_spd(n, seed=7000 + k)
        b = a + _spd_bump(rng, n)
        x = eval_mean(a, b, GEO)
        y = eval_mean(a, b, MeanDescriptor.heinz(s))
        w = solve_geom_heinz_matrix(s, x, y)
        r1 = np.linalg.norm(eval_mean(w.matrix_a, w.matrix_b, GEO) - x)
        r2 = np.linalg.norm(
            eval_mean(w.matrix_a, w.matrix_b, MeanDescriptor.heinz(s)) - y)
        if r1 > 1e-7 * np.linalg.norm(x) or r2 > 1e-7 * np.linalg.norm(y):
            failures.append(f"geom/heinz solve {k}: {r1:.2e}, {r2:.2e}")

    elapsed = time.perf_counter() - start
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _finish(2, "solver roundtrips", failures)


# --------------------------------------------------------------- criterion 3

def test_acceptance_03_chain_soundness():
    failures = []
    rng = np.random.default_rng(33)
    sigmas = (ARITH, MeanDescriptor.heron(0.5))
    for k in range(100):
        sigma = sigmas[k % 2]
        n = (k % 5) + 1
        x = _rand_spd(n, seed=900 + k)
        y = x + _spd_bump(rng, n, scale=float(rng.uniform(0.1, 4.0)))
        chain = build_monotone_chain(sigma, x, y)
        g0 = chain.gamma0
        if not (np.array_equal(chain.links[0], x)
                and np.array_equal(chain.links[-1], y)):
            failures.append(f"chain {k}: endpoints not exact")
        for a, b in zip(chain.links, chain.links[1:]):
            if not loewner_leq(a, b, tol=1e-10):
                failures.append(f"chain {k}: link order fails")
            if not loewner_leq(b, g0 * a, tol=1e-10):
                failures.append(f"chain {k}: ratio bound fails")
        for w in chain.pair_witnesses:
            if w.residual_x > 1e-7 or w.residual_y > 1e-7:
                failures.append(f"chain {k}: link residuals too large")
    _finish(3, "chain soundness", failures)


# --------------------------------------------------------------- criterion 4

def _spread_pair(rng, n):
    # Pair whose relative spectrum stays away from 1: the Heinz-Heron gap
    # is quartic in the spread, so near-coincident pairs would push that
    # difference below what doubles can certify at a relative tolerance.
    a = _rand_spd(n, seed=int(rng.integers(2 ** 31)), cond_cap=100.0)
    w, u = np.linalg.eigh(a)
    root = (u * np.sqrt(w)) @ u.T
    q = np.exp(rng.uniform(np.log(1.3), np.log(3.0), size=n)
               * rng.choice([-1.0, 1.0], size=n))
    z = np.linalg.qr(rng.normal(size=(n, n)))[0]
    rel = (z * q) @ z.T
    b = root @ (0.5 * (rel + rel.T)) @ root
    return a, 0.5 * (b + b.T)


def test_acceptance_04_inequality_chains():
    failures = []
    rng = np.random.default_rng(4)
    for n in (2, 3, 5):
        for s in (0.1, 0.3, 0.49, 0.7):
            worst = np.inf
            for k in range(1000):
                a, b = _spread_pair(rng, n)
                report = verify_inequality_chain(a, b, s=s)
                for link in report.links:
                    margin = link.min_eigenvalue + 1e-8 * link.diff_norm
                    worst = min(worst, margin)
            if worst < 0.0:
                failures.append(f"(n={n}, s={s}): margin {worst:.3e}")

    # scalar Heinz <= Heron((2s-1)^2) on a 100x100 grid
    grid = np.logspace(-3.0, 3.0, 100)
    a, b = np.meshgrid(grid, grid)
    for s in (0.1, 0.3, 0.49, 0.7):
        heinz = 0.5 * (a ** s * b ** (1.0 - s) + a ** (1.0 - s) * b ** s)
        alpha2 = (2.0 * s - 1.0) ** 2
        heron = alpha2 * 0.5 * (a + b) + (1.0 - alpha2) * np.sqrt(a * b)
        margin = float(np.min((heron - heinz) / np.maximum(1.0, heron)))
        if margin < -1e-12:
            failures.append(f"scalar s={s}: margin {margin:.3e}")
    _finish(4, "inequality chains", failures)


# --------------------------------------------------------------- criterion 5

_CALIBRATION_REFUTED = (("square", lambda t: t * t), ("cube", lambda t: t ** 3),
                        ("scaled-exp", lambda t: math.expm1(t) / math.expm1(1.0)))


def test_acceptance_05_monotonicity_calibration():
    failures = []
    monotone = [("sqrt", np.sqrt), ("identity", lambda t: t),
                ("harmonic-rep", lambda t: 2.0 * t / (1.0 + t)),
                ("power-0.3", lambda t: t ** 0.3),
                ("heinz-rep", lambda t: 0.5 * (t ** 0.25 + t ** 0.75))]
    for name, f in monotone:
        if is_operator_monotone_sampled(f).status != "consistent":
            failures.append(f"{name} wrongly refuted")
    for name, f in _CALIBRATION_REFUTED:
        if is_operator_monotone_sampled(f).status != "refuted":
            failures.append(f"{name} not refuted")
        verdict = falsify_transfer(f, GEO, ARITH, trials=1000, seed=11)
        if verdict.status != "refuted":
            failures.append(f"{name}: no matrix-pair witness")
            continue
        wa, wb = verdict.witness.matrix_a, verdict.witness.matrix_b
        if wa.shape != (2, 2):
            failures.append(f"{name}: witness not 2x2")
        lo = apply_spectral_function(eval_mean(wa, wb, GEO), f)
        hi = apply_spectral_function(eval_mean(wa, wb, ARITH), f)
        if loewner_leq(lo, hi, tol=1e-8):
            failures.append(f"{name}: witness does not re-verify")

    # hand-computed 2x2 divided-difference matrices
    got = loewner_matrix([1.0, 4.0], np.sqrt, fprime=lambda t: 0.5 / np.sqrt(t))
    expect = np.array([[0.5, 1.0 / 3.0], [1.0 / 3.0, 0.25]])
    if np.max(np.abs(got - expect)) > 1e-14:
        failures.append("sqrt hand values off")
    got = loewner_matrix([0.0, 1.0], lambda t: t * t, fprime=lambda t: 2.0 * t)
    expect = np.array([[0.0, 1.0], [1.0, 2.0]])
    if np.max(np.abs(got - expect)) > 1e-14:
        failures.append("square hand values off")
    _finish(5, "monotonicity calibration", failures)


# --------------------------------------------------------------- criterion 6

def _random_density(rng, cls):
    lo, hi = (0.0, 1.0) if cls == SYMMETRIC else (-1.0, 0.0)
    cuts = np.sort(rng.uniform(lo, hi, int(rng.integers(1, 4))))
    breaks = (lo, *[float(c) for c in cuts], hi)
    values = tuple(float(v) for v in rng.uniform(0.0, 1.0, len(breaks) - 1))
    return HDensity(cls, breaks, values)


def _raise_density(rng, h):
    lifted = tuple(min(1.0, v + float(rng.uniform(0.05, 0.5)))
                   for v in h.values)
    return HDensity(h.domain_class, h.breaks, lifted)


def test_acceptance_06_order_machinery():
    failures = []
    rng = np.random.default_rng(6)
    quick = MonoConfig(trials=20, seed=0)

    # density order versus the sampled functional order, decisive cases only
    done = 0
    attempts = 0
    while done < 50 and attempts < 500:
        attempts += 1
        h = _random_density(rng, SYMMETRIC)
        g = _raise_density(rng, h)
        verdict = h_order(g, h)     # g has the larger density
        if verdict == "equal":
            continue
        if verdict != "leq":
            failures.append(f"density pair {done}: verdict {verdict}")
            done += 1
            continue
        fg = representing_function(MeanDescriptor.from_h_density(g))
        fh = representing_function(MeanDescriptor.from_h_density(h))
        if order_leq_sym(fg, fh, quick).status != "consistent":
            failures.append(f"density pair {done}: sampled order refutes")
        done += 1
    if done < 50:
        failures.append(f"only {done} decisive density pairs found")

    # dagger: involution and order reversal on self-adjoint densities
    t_grid = np.logspace(-2.0, 2.0, 31)
    for k in range(50):
        h = _random_density(rng, SELF_ADJOINT)
        twice = dagger_density(dagger_density(h))
        if max(abs(u - v) for u, v in zip(twice.values, h.values)) > 1e-15:
            failures.append(f"density {k}: dagger not involutive")
        f = representing_function(MeanDescriptor.from_h_density(h))
        ff = dagger(dagger(f))
        rel = np.max(np.abs(np.asarray(ff.value(t_grid))
                            - np.asarray(f.value(t_grid)))
                     / np.abs(np.asarray(f.value(t_grid))))
        if rel > 1e-12:
            failures.append(f"density {k}: function dagger not involutive")
        g = _raise_density(rng, h)
        before = h_order(g, h)
        after = h_order(dagger_density(g), dagger_density(h))
        flip = {"leq": "geq", "geq": "leq", "equal": "equal",
                "incomparable": "incomparable"}
        if after != flip[before]:
            failures.append(f"density {k}: dagger does not reverse order")

    # lattice operations on a fixed pool
    pool = [_random_density(rng, SYMMETRIC) for _ in range(10)]
    for i, hf in enumerate(pool):
        meet, join = lattice_meet_join(hf, hf)
        if h_order(meet, hf) != "equal" or h_order(join, hf) != "equal":
            failures.append(f"pool {i}: meet/join not idempotent")
        for j, hg in enumerate(pool):
            meet, join = lattice_meet_join(hf, hg)
            meet2, join2 = lattice_meet_join(hg, hf)
            if h_order(meet, meet2) != "equal" or h_order(join, join2) != "equal":
                failures.append(f"pool ({i},{j}): not commutative")
            for side in (hf, hg):
                if h_order(meet, side) not in ("leq", "equal"):
                    failures.append(f"pool ({i},{j}): meet not a lower bound")
                if h_order(join, side) not in ("geq", "equal"):
                    failures.append(f"pool ({i},{j}): join not an upper bound")
    _finish(6, "order machinery", failures)


# --------------------------------------------------------------- criterion 7

def test_acceptance_07_mixing_condition():
    failures = []
    for i, w in enumerate(np.linspace(0.1, 0.9, 9)):
        report = ka_condition_check(GEO, MeanDescriptor.weighted_geometric(float(w)),
                                    trials=500, seed=70 + i)
        if report.violations:
            failures.append(f"w={w:.1f}: {len(report.violations)} violations")

    # scalar product identity: (a tau b)(a tau' b) = ab
    grid = np.logspace(-3.0, 3.0, 25)
    a, b = np.meshgrid(grid, grid)
    for w in np.linspace(0.1, 0.9, 9):
        f = representing_function(MeanDescriptor.weighted_geometric(float(w)))
        fp = dagger(f)
        lhs = (a * np.asarray(f.value(b / a))) * (a * np.asarray(fp.value(b / a)))
        rel = float(np.max(np.abs(lhs - a * b) / (a * b)))
        if rel > 1e-12:
            failures.append(f"w={w:.1f}: product identity off by {rel:.3e}")
    _finish(7, "mixing condition", failures)


# --------------------------------------------------------------- criterion 8

def test_acceptance_08_ratio_map_inversions():
    failures = []
    r_grid = np.linspace(0.01, 0.99, 99)
    alphas = [a for a in np.linspace(-0.9, 0.9, 19) if abs(a) > 1e-12]
    for alpha in alphas:
        worst = 0.0
        for r in r_grid:
            c = invert_f_alpha(float(alpha), float(r))
            worst = max(worst, abs(f_alpha(float(alpha), c) - r) / r)
        if worst > 1e-12:
            failures.append(f"alpha={alpha:.2f}: roundtrip {worst:.3e}")
        if f_alpha(float(alpha), 0.0) != 1.0:
            failures.append(f"alpha={alpha:.2f}: value at 0 not 1")
        samples = [f_alpha(float(alpha), c)
                   for c in np.linspace(0.0, 20.0, 200)]
        if not all(u > v for u, v in zip(samples, samples[1:])):
            failures.append(f"alpha={alpha:.2f}: not strictly decreasing")

    s_values = [s for s in np.linspace(0.05, 0.95, 19) if abs(s - 0.5) > 1e-12]
    for s in s_values:
        worst = 0.0
        for r in r_grid:
            x = invert_geom_heinz_ratio(float(s), float(r))
            worst = max(worst, abs(geom_heinz_ratio(float(s), x) - r) / r)
        if worst > 1e-12:
            failures.append(f"s={s:.2f}: ratio roundtrip {worst:.3e}")
    _finish(8, "ratio map inversions", failures)


# --------------------------------------------------------------- criterion 9
#
# The abstract (PAPER.md), claim by claim. A row is (f, sigma, tau, expected
# verdict, how reached): "sampled" runs falsify_transfer(f, sigma, tau) at
# 1,000 trials, seed 0, which tests f(A sigma B) <= f(A tau B); a row that
# waits for a construction or for the paper's hypotheses is a strict xfail
# that says which.

_HARM = MeanDescriptor.harmonic()
_SYMMETRIC_SIGMAS = (MeanDescriptor.heinz(0.25), MeanDescriptor.heron(0.3))
_OM = (("sqrt t", np.sqrt), ("log(1+t)", np.log1p), ("t/(1+t)", lambda t: t / (1.0 + t)))
_NOT_OM = (("t^2", lambda t: t * t), ("t^1.01", lambda t: t ** 1.01), ("exp t", np.exp))
# f(A ! B) <= f(A sigma B) <= f(A nabla B), sigma symmetric
_DISPLAYED = tuple((_HARM, s) for s in _SYMMETRIC_SIGMAS) + tuple(
    (s, ARITH) for s in _SYMMETRIC_SIGMAS)
# ! and nabla replaced by #: f(A # B) <= f(A sigma B) for sigma >= #, and
# f(A ! B) <= f(A # B)
_GEOMETRIC_FORM = tuple((GEO, s) for s in (*_SYMMETRIC_SIGMAS, ARITH)) + ((_HARM, GEO),)
_NO_QUOTE = ("characterization; PAPER.md holds only the abstract, so its hypotheses "
             "cannot be quoted")


def _rows(functions, pairs, expected, how):
    return [(name, f, sigma, tau, expected, how) for name, f in functions for sigma, tau in pairs]


_PAPER_CLAIMS = {
    # (a) the displayed inequality holds for operator monotone f
    "(a) displayed inequality": _rows(_OM, _DISPLAYED, "consistent", "sampled"),
    # (b) Ando-Hiai: either inequality, for a symmetric sigma other than !
    # and nabla, forces f to be operator monotone
    "(b) Ando-Hiai converse": _rows(_NOT_OM, _DISPLAYED, "refuted", "sampled"),
    # (c) the paper's result: the same with # in place of ! and nabla
    "(c) geometric form": (_rows(_OM, _GEOMETRIC_FORM, "consistent", "sampled")
                           + _rows(_NOT_OM, _GEOMETRIC_FORM, "refuted", "sampled")),
}
_WGEO = MeanDescriptor.weighted_geometric(0.3)
_BY_PAIR_SOLVER = "constructed by a (sigma, tau) pair solver (ROADMAP item 3)"
_FROM_LOEWNER = "constructed from a Loewner witness (ROADMAP item 2)"
_PENDING_CLAIMS = {
    # pairs with A ! B = X and A sigma B = Y need the (sigma, tau) pair solver
    "(b) Ando-Hiai converse": _rows(_NOT_OM, _DISPLAYED[:1], "refuted", _BY_PAIR_SOLVER),
    # f(X) not <= f(Y) for some X <= Y, realized as X = A # B, Y = A sigma B
    "(c) geometric form": (_rows(_NOT_OM, _GEOMETRIC_FORM[:1], "refuted", _FROM_LOEWNER)
                           + _rows(_OM, _GEOMETRIC_FORM[:1], "consistent", _FROM_LOEWNER)),
    # a self-adjoint sigma (tau unknown), and general means (sigma, tau)
    # under the Kubo-Ando constraint, which ka_condition_check samples
    "(d) self-adjoint and Kubo-Ando": (
        _rows(_OM[:1], [(_WGEO, None), (GEO, _WGEO)], "consistent", _NO_QUOTE)
        + _rows(_NOT_OM[:1], [(_WGEO, None), (GEO, _WGEO)], "refuted", _NO_QUOTE)),
}


def _reached(f, sigma, tau, how):
    """The verdict of one row, by the route that its how names."""
    if how == "sampled":
        return falsify_transfer(f, sigma, tau, trials=1000, seed=0).status
    if how.startswith("constructed"):
        witness = getattr(opmeans, "construct_transfer_witness")(f, sigma, tau)
        return "consistent" if witness is None else "refuted"
    raise NotImplementedError(how)


def test_acceptance_09_paper_claims():
    failures = []
    start = time.perf_counter()
    for claim, rows in _PAPER_CLAIMS.items():
        for name, f, sigma, tau, expected, how in rows:
            got = _reached(f, sigma, tau, how)
            if got != expected:
                failures.append(f"{claim}: {name} on ({sigma.describe()}, {tau.describe()}) "
                                f"{how} {got}, expected {expected}")
    elapsed = time.perf_counter() - start
    if elapsed > 2.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 2s")
    _finish(9, "paper claims", failures)


@pytest.mark.parametrize("claim, name, f, sigma, tau, expected, how", [
    pytest.param(claim, *row, marks=pytest.mark.xfail(
                     strict=True, reason=row[5],
                     raises=NotImplementedError if row[5] == _NO_QUOTE else AttributeError),
                 id=f"{claim[:3]}-{row[0]}-{row[2].kind}-{getattr(row[3], 'kind', '?')}")
    for claim, rows in _PENDING_CLAIMS.items() for row in rows])
def test_acceptance_09_paper_claims_pending(claim, name, f, sigma, tau, expected, how):
    assert _reached(f, sigma, tau, how) == expected


# ----------------------------------------- refutations re-verified at 50 digits

def _mp_functions(mpmath):
    """The functions acceptance 05 and 09 refute, by name, on mpf values."""
    return {"square": lambda t: t * t, "cube": lambda t: t ** 3,
            "scaled-exp": lambda t: mpmath.expm1(t) / mpmath.expm1(1),
            "t^2": lambda t: t * t, "t^1.01": lambda t: t ** 1.01,
            "t^1.001": lambda t: t ** 1.001, "exp t": mpmath.exp}


def test_refutations_of_acceptance_05_and_09_hold_at_50_digits():
    # recomputing a refutation in the same float arithmetic re-verifies
    # nothing: each witness's min eigenvalue is recomputed at 50 digits, and
    # must lie below the threshold that refuted it, tol times ||L||_F for a
    # Loewner witness and tol times max(1, ||D||_F) for a pair
    mpmath = pytest.importorskip("mpmath")
    mp_f, tol, failures = _mp_functions(mpmath), 1e-8, []
    # acceptance 05's functions, 09's other two, and one closer to t
    for name, f in (*_CALIBRATION_REFUTED, *_NOT_OM[1:], ("t^1.001", lambda t: t ** 1.001)):
        witness = is_operator_monotone_sampled(f).witness
        low, norm = loewner_min_eigenvalue(mpmath, witness, mp_f[name])
        if not low < -tol * norm:
            failures.append(f"Loewner witness of {name}: {float(low / norm):.3e}")
    rows = [(name, f, GEO, ARITH, 11) for name, f in _CALIBRATION_REFUTED] + [
        (name, f, sigma, tau, 0) for rows in _PAPER_CLAIMS.values()
        for name, f, sigma, tau, expected, _ in rows if expected == "refuted"]
    assert len(rows) == 3 + 24
    for name, f, sigma, tau, seed in rows:
        witness = falsify_transfer(f, sigma, tau, trials=1000, seed=seed).witness
        low, norm = transfer_min_eigenvalue(mpmath, witness, mp_f[name], sigma, tau)
        if not low < -tol * max(1, norm):
            failures.append(f"pair witness of {name} on ({sigma.describe()}, {tau.describe()}): "
                            f"{float(low / max(1, norm)):.3e}")
    assert failures == []
