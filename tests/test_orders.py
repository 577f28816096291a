"""Phi profiles, order comparisons, the adjoint map, and the mixing check."""
import math
from typing import Callable

import numpy as np
import pytest

from opmeans import (SELF_ADJOINT, SYMMETRIC, HDensity, MeanDescriptor,
                     StructuralError, dagger, dagger_density, h_order,
                     ka_condition_check, order_leq_sa, order_leq_sym,
                     phi_profile, representing_function)
from opmeans.means import RepresentingFunction, eval_mean_from_function
from opmeans.spd import _random_spd_stack, min_eig_and_norm
from opmeans.monocheck import MonoConfig

# The 41-point estimate of a limit at infinity that phi_profile, dagger and
# the pair solvers ran for every function without a closed-form limit, kept
# verbatim as the reference the exact limits are compared against.
_GAMMA_CUTOFF = 1e12
_GAMMA_STEPS = 40
_GAMMA_SNAP = 1e-9


def _limit_at_infinity(fn: Callable) -> float:
    """Estimate lim fn(2^k) for k -> inf; inf above 1e12, snap tiny to 0.

    fn takes arrays and is called once, on k = 0..40. A sequence still
    rising unconverged at k = 40 is declared infinite; one still falling is
    declared 0 (every catalog profile is eventually monotone, so the horizon
    only truncates slow tails). Its first value, fn(1) = f(1), must be 1.
    """
    values = np.asarray(fn(2.0 ** np.arange(_GAMMA_STEPS + 1)), dtype=float)
    if abs(values[0] - 1.0) > 1e-9:
        raise StructuralError(f"f(1) must be 1; got {float(values[0])!r}")
    if not np.all(np.isfinite(values)) or np.any(values > _GAMMA_CUTOFF):
        return math.inf
    prev, value = float(values[-2]), float(values[-1])
    if abs(value - prev) > 1e-9 * max(1.0, abs(value)):
        return math.inf if value > prev else 0.0
    return 0.0 if abs(value) < _GAMMA_SNAP else value


ARITH = representing_function(MeanDescriptor.arithmetic())
HARM = representing_function(MeanDescriptor.harmonic())
GEO = representing_function(MeanDescriptor.geometric())


def test_phi_profile_arithmetic():
    p = phi_profile(ARITH)
    # phi(t) = f(t^2)/t = (1 + t^2) / (2 t); phi(2) = 5/4
    assert p.phi(2.0) == pytest.approx(1.25, rel=1e-12)
    assert math.isinf(p.gamma)
    assert math.isinf(p.realize_gamma)
    assert p.direction_above_1 == "non-decreasing"


def test_phi_profile_evaluates_f_a_fixed_number_of_times():
    calls = []

    def value(t):
        calls.append(np.ndim(t))
        return GEO.value(t)

    p = phi_profile(RepresentingFunction("counted", GEO.symmetry_class, value, GEO.derivative,
                                         realize_gamma=GEO.realize_gamma))
    assert len(calls) <= 5
    assert p.gamma == pytest.approx(1.0, rel=1e-12)


def test_phi_profile_geometric_is_constant_one():
    p = phi_profile(GEO)
    for t in (0.1, 1.0, 7.0, 500.0):
        assert p.phi(t) == pytest.approx(1.0, abs=1e-12)
    assert p.gamma == pytest.approx(1.0, abs=1e-9)
    assert p.realize_gamma == pytest.approx(1.0, abs=1e-9)


def test_phi_profile_harmonic_decreases_to_zero():
    p = phi_profile(HARM)
    assert p.gamma == 0.0
    assert p.realize_gamma == 0.0
    assert p.direction_above_1 == "non-increasing"


def test_phi_profile_weighted_geometric_asymmetry():
    # f = t^w is self-adjoint: the two phi variants point opposite ways
    p = phi_profile(representing_function(MeanDescriptor.weighted_geometric(0.3)))
    assert p.gamma == 0.0
    assert math.isinf(p.realize_gamma)
    q = phi_profile(representing_function(MeanDescriptor.weighted_geometric(0.7)))
    assert math.isinf(q.gamma)
    assert q.realize_gamma == 0.0


_GAMMA_MEANS = ([MeanDescriptor.arithmetic(), MeanDescriptor.harmonic(),
                 MeanDescriptor.geometric()]
                + [MeanDescriptor.weighted_geometric(w)
                   for w in (0.05, 0.3, 0.499, 0.5, 0.501, 0.7)]
                + [MeanDescriptor.heinz(s) for s in (0.0, 0.1, 0.499, 0.5, 0.6, 1.0)]
                + [MeanDescriptor.heron(s) for s in (0.0, 1e-6, 0.2, 1.0)])


@pytest.mark.parametrize("desc", _GAMMA_MEANS, ids=lambda d: d.describe())
def test_catalog_realize_gamma_equals_the_estimate(desc):
    # the closed-form limits of each catalog realize map and phi, against
    # the 41-point estimate
    fn = representing_function(desc)
    assert fn.realize_gamma is not None
    assert fn.realize_gamma == _limit_at_infinity(fn.realize)
    p = phi_profile(fn)
    assert p.realize_gamma == fn.realize_gamma
    assert p.gamma == _limit_at_infinity(p.phi)


def test_catalog_gamma_is_exact_where_the_estimate_is_not():
    # phi = t^(2w - 1) of the weighted geometric 0.13 falls to 0, but its
    # estimate snaps too late and reads 1.2e-9; phi of Heinz near s = 1/2
    # rises to inf too slowly for the estimate, which reads about 1
    wgeo = phi_profile(representing_function(MeanDescriptor.weighted_geometric(0.13)))
    assert 0.0 < _limit_at_infinity(wgeo.phi) < 1e-8
    assert wgeo.gamma == 0.0 and math.isinf(wgeo.realize_gamma)
    heinz = phi_profile(representing_function(MeanDescriptor.heinz(0.4999999)))
    assert 1.0 < _limit_at_infinity(heinz.phi) < 1.0 + 1e-9
    assert math.isinf(heinz.gamma) and math.isinf(heinz.realize_gamma)


@pytest.mark.parametrize("desc", _GAMMA_MEANS, ids=lambda d: d.describe())
def test_adjoint_gammas_are_the_reciprocal_limits(desc):
    # the adjoint's realize map is 1 / f's, so its exact limit is the
    # reciprocal of f's, 0 and inf swapped; the estimate agrees here
    fn = representing_function(desc)
    adjoint = dagger(fn)
    want = 1.0 / fn.realize_gamma if fn.realize_gamma else math.inf
    assert adjoint.realize_gamma == want == _limit_at_infinity(adjoint.realize)
    p = phi_profile(adjoint)
    assert p.realize_gamma == want
    assert p.gamma == _limit_at_infinity(p.phi)


def test_adjoint_gammas_are_exact_where_the_estimate_is_not():
    heinz = phi_profile(dagger(representing_function(MeanDescriptor.heinz(0.4999999))))
    assert heinz.gamma == 0.0 and heinz.realize_gamma == 0.0
    wgeo = phi_profile(dagger(representing_function(MeanDescriptor.weighted_geometric(0.13))))
    assert 0.0 < _limit_at_infinity(wgeo.realize_phi) < 1e-8
    assert wgeo.realize_gamma == 0.0 and math.isinf(wgeo.gamma)


def test_realize_gamma_is_exact_where_the_estimate_is_not():
    # close to s = 1/2 the Heinz realize map rises too slowly for the
    # estimate, which reads about 1; the exact limit is inf
    fn = representing_function(MeanDescriptor.heinz(0.4999999))
    assert fn.realize_gamma == math.inf
    assert 1.0 < _limit_at_infinity(fn.realize) < 1.0 + 1e-9
    # a density mean and its adjoint carry exact limits too: the edge value
    # 0.15 < 1/2 next to u = 0 sends the map to inf, the adjoint's 0.85 to 0
    density = representing_function(MeanDescriptor.from_h_density(
        HDensity(SELF_ADJOINT, (-1.0, -0.4, 0.0), (0.8, 0.15))))
    assert density.realize_gamma == math.inf == _limit_at_infinity(density.realize)
    assert dagger(density).realize_gamma == 0.0 == _limit_at_infinity(dagger(density).realize)


def _random_density(rng, cls: str, half_edge: bool) -> HDensity:
    """1-5 segments with uniform breaks and values; half_edge sets the value
    next to u = 0 (the first segment of sym, the last of sa) to 1/2."""
    lo, hi = (0.0, 1.0) if cls == SYMMETRIC else (-1.0, 0.0)
    segments = int(rng.integers(1, 6))
    values = rng.uniform(0.0, 1.0, segments)
    if half_edge:
        values[0 if cls == SYMMETRIC else -1] = 0.5
    return HDensity(cls, (lo, *np.sort(rng.uniform(lo, hi, segments - 1)), hi), tuple(values))


def _snapped(values: Callable, exact: float) -> bool:
    """Whether the estimate of the limit of values failed to converge.

    It converges where it reads 0 or inf, or where values at 2^80 still
    equals its reading at 2^40, and then exact must equal it. Where it does
    not, it snapped a map still falling toward 0 too late (1e-9 < reading),
    and exact must be 0.
    """
    estimate = _limit_at_infinity(values)
    if estimate in (0.0, math.inf) or values(2.0 ** 80) == pytest.approx(estimate, rel=1e-12):
        assert exact == pytest.approx(estimate, rel=1e-14, abs=0.0)
        return False
    assert exact == 0.0 and 1e-9 <= estimate < 1.5e-9
    assert values(2.0 ** 80) < 1e-3 * estimate
    return True


@pytest.mark.parametrize("cls", [SYMMETRIC, SELF_ADJOINT])
def test_density_gammas_are_the_estimate_wherever_it_converges(cls):
    # random densities and their adjoints, a third with the edge value 1/2
    # and so a finite limit; the estimate snaps too late only for maps
    # falling like t^(1 - 2h) with an edge value h near 0.88
    rng = np.random.default_rng(26)
    snapped = 0
    for k in range(500):
        fn = representing_function(MeanDescriptor.from_h_density(
            _random_density(rng, cls, half_edge=k % 3 == 0)))
        adjoint = dagger(fn)
        assert adjoint.realize_gamma == (1.0 / fn.realize_gamma if fn.realize_gamma
                                         else math.inf)
        for f in (fn, adjoint):
            profile = phi_profile(f)
            assert profile.realize_gamma == f.realize_gamma
            snapped += _snapped(f.realize, f.realize_gamma)
            snapped += _snapped(profile.phi, profile.gamma)
    assert 0 < snapped < 20


def test_density_gamma_is_exact_where_the_estimate_snaps_too_late():
    # the map t^(1 - 2h) falls to 0 but reads 1.1e-9 at 2^40, above the snap
    fn = representing_function(MeanDescriptor.from_h_density(HDensity.constant(0.87695491)))
    assert fn.realize_gamma == 0.0
    assert 1e-9 < _limit_at_infinity(fn.realize) < 1.5e-9
    assert phi_profile(fn).gamma == 0.0 and dagger(fn).realize_gamma == math.inf


@pytest.mark.parametrize("cls", [SYMMETRIC, SELF_ADJOINT])
def test_density_gamma_is_exact_next_to_one_half(cls):
    # an edge value 1e-10 off 1/2 bends the map too slowly for the estimate,
    # which reads the finite limit C of the edge value 1/2 itself; the
    # limits are inf below 1/2 and 0 above it
    lo, hi = (0.0, 1.0) if cls == SYMMETRIC else (-1.0, 0.0)

    def mean(edge):
        values = (edge, 0.2) if cls == SYMMETRIC else (0.2, edge)
        return representing_function(MeanDescriptor.from_h_density(
            HDensity(cls, (lo, 0.5 * (lo + hi), hi), values)))

    limit = mean(0.5).realize_gamma
    assert 1.0 < limit < math.inf
    assert _limit_at_infinity(mean(0.5).realize) == pytest.approx(limit, rel=1e-14)
    for edge, want in ((0.5 - 1e-10, math.inf), (0.5 + 1e-10, 0.0)):
        assert mean(edge).realize_gamma == want
        assert _limit_at_infinity(mean(edge).realize) == pytest.approx(limit, rel=1e-6)


def test_every_representing_function_states_its_limit():
    # realize_gamma is required and keyword-only: no function is left to guess
    with pytest.raises(TypeError, match="realize_gamma"):
        RepresentingFunction("no limit", GEO.symmetry_class, GEO.value, GEO.derivative)
    with pytest.raises(TypeError):
        RepresentingFunction("positional", GEO.symmetry_class, GEO.value, GEO.derivative,
                             None, None, 1.0)
    fn = RepresentingFunction("stated", GEO.symmetry_class, GEO.value, GEO.derivative,
                              realize_gamma=1.0)
    assert phi_profile(fn).gamma == phi_profile(fn).realize_gamma == 1.0


def test_phi_profile_realize_map_values():
    # realize map is the mean of the pair (t, 1/t)
    p = phi_profile(ARITH)
    assert p.realize_phi(3.0) == pytest.approx(0.5 * (3.0 + 1.0 / 3.0), rel=1e-12)
    ph = phi_profile(HARM)
    assert ph.realize_phi(3.0) == pytest.approx(2.0 / (3.0 + 1.0 / 3.0), rel=1e-12)


def test_order_classic_chain():
    cfg = MonoConfig(trials=40, seed=0)
    assert order_leq_sym(HARM, GEO, cfg).status == "consistent"
    assert order_leq_sym(GEO, ARITH, cfg).status == "consistent"
    assert order_leq_sym(HARM, ARITH, cfg).status == "consistent"
    assert order_leq_sym(ARITH, GEO, cfg).status == "refuted"
    assert order_leq_sym(GEO, HARM, cfg).status == "refuted"


def test_order_sym_density_pair_sound_at_near_collision():
    # g = 1 has the larger density, so 'f_g below f_h' holds; at the
    # near-collision pair (0.0031622777, 0.0031622871) the float divided
    # difference of psi is off by ~4.5e-8, more than tol * ||L||_F
    cut = 0.8275204226482884
    g = HDensity(SYMMETRIC, (0.0, cut, 1.0), (1.0, 1.0))
    h = HDensity(SYMMETRIC, (0.0, cut, 1.0), (0.9937963090206281, 0.8349731185984121))
    assert h_order(g, h) == "leq"
    fg = representing_function(MeanDescriptor.from_h_density(g))
    fh = representing_function(MeanDescriptor.from_h_density(h))
    quick = MonoConfig(trials=20, seed=0)
    assert order_leq_sym(fg, fh, quick).status == "consistent"
    assert order_leq_sym(fh, fg, quick).status == "refuted"


def test_order_heinz_between_geometric_and_arithmetic():
    cfg = MonoConfig(trials=40, seed=1)
    hz = representing_function(MeanDescriptor.heinz(0.25))
    assert order_leq_sym(GEO, hz, cfg).status == "consistent"
    assert order_leq_sym(hz, ARITH, cfg).status == "consistent"


def test_order_sa_powers():
    cfg = MonoConfig(trials=40, seed=2)
    w3 = representing_function(MeanDescriptor.weighted_geometric(0.3))
    w7 = representing_function(MeanDescriptor.weighted_geometric(0.7))
    # quotient t^0.7 / t^0.3 = t^0.4 is operator monotone; reversed it is not
    assert order_leq_sa(w7, w3, cfg).status == "consistent"
    assert order_leq_sa(w3, w7, cfg).status == "refuted"


def test_order_rejects_wrong_class():
    w = representing_function(MeanDescriptor.weighted_geometric(0.3))
    with pytest.raises(StructuralError):
        order_leq_sym(w, GEO)
    with pytest.raises(StructuralError):
        order_leq_sa(ARITH, GEO)


def test_dagger_closed_forms_and_involution():
    d = dagger(ARITH)
    # adjoint of (1+t)/2 is the harmonic function 2t/(1+t)
    for t in (0.3, 1.0, 4.2):
        assert d.value(t) == pytest.approx(HARM.value(t), rel=1e-12)
        assert dagger(GEO).value(t) == pytest.approx(GEO.value(t), rel=1e-12)
    dd = dagger(d)
    for t in (0.3, 1.0, 4.2):
        assert dd.value(t) == pytest.approx(ARITH.value(t), rel=1e-12)
    # derivative of the adjoint matches central differences
    for t in (0.5, 2.0):
        h = 1e-6 * t
        num = (d.value(t + h) - d.value(t - h)) / (2.0 * h)
        assert d.derivative(t) == pytest.approx(num, rel=1e-6)


def test_dagger_at_density_level_matches_function_level():
    h = HDensity(SELF_ADJOINT, (-1.0, -0.55, -0.2, 0.0), (0.85, 0.35, 0.6))
    f = representing_function(MeanDescriptor.from_h_density(h))
    g = representing_function(
        MeanDescriptor.from_h_density(dagger_density(h)))
    fd = dagger(f)
    for t in np.logspace(-2, 2, 17):
        assert g.value(t) == pytest.approx(fd.value(t), rel=1e-10)


def test_dagger_reverses_density_order():
    rng = np.random.default_rng(3)
    for _ in range(20):
        cuts = np.sort(rng.uniform(-1.0, 0.0, size=2))
        ha = HDensity(SELF_ADJOINT, (-1.0, float(cuts[0]), float(cuts[1]), 0.0),
                      tuple(rng.uniform(0.0, 1.0, size=3)))
        hb = HDensity(SELF_ADJOINT, ha.breaks,
                      tuple(min(1.0, v + 0.1) for v in ha.values))
        direct = h_order(ha, hb)
        flipped = h_order(dagger_density(ha), dagger_density(hb))
        reverse = {"leq": "geq", "geq": "leq", "equal": "equal",
                   "incomparable": "incomparable"}
        assert flipped == reverse[direct]


def test_ka_scalar_product_identity():
    # the mean and its adjoint multiply back to the product: a tau b times
    # a tau' b equals a b
    for w in np.linspace(0.1, 0.9, 9):
        tau = representing_function(MeanDescriptor.weighted_geometric(float(w)))
        perp = dagger(tau)
        for a, b in [(1.0, 1.0), (2.0, 5.0), (0.3, 7.1), (10.0, 0.02)]:
            lhs = (a * tau.value(b / a)) * (a * perp.value(b / a))
            assert lhs == pytest.approx(a * b, rel=1e-12)


def test_ka_condition_geometric_vs_weighted_geometric():
    report = ka_condition_check(MeanDescriptor.geometric(),
                                MeanDescriptor.weighted_geometric(0.25),
                                trials=60, seed=0)
    assert report.ok
    assert report.min_margin >= -1e-8
    payload = report.to_json_dict()
    assert payload["config"]["trials"] == 60
    assert payload["violations"] == []


@pytest.mark.parametrize("sigma, tau", [
    (MeanDescriptor.geometric(), MeanDescriptor.weighted_geometric(0.3)),
    (MeanDescriptor.harmonic(), MeanDescriptor.arithmetic()),
    (MeanDescriptor.heron(0.6), MeanDescriptor.heinz(0.2))],
    ids=["geo-wgeo", "harm-arith", "heron-heinz"])
def test_ka_mixed_mean_matches_the_mean_of_the_two_mixed_matrices(sigma, tau):
    # the check congruates sigma(A tau B, A tau_perp B) from the relative
    # spectrum of (A, B); here both mixed means are built as matrices and
    # the mixed pair is evaluated again from its own relative spectrum
    trials, seed = 12, 4
    report = ka_condition_check(sigma, tau, trials=trials, seed=seed)
    mats = _random_spd_stack(np.random.default_rng(seed), 2 * trials, 3, 50.0)
    f_sigma, g_tau = representing_function(sigma), representing_function(tau)
    margins, violated = [], 0
    for a, b in zip(mats[0::2], mats[1::2]):
        lo = eval_mean_from_function(a, b, g_tau)
        hi = eval_mean_from_function(a, b, dagger(g_tau))
        diff = eval_mean_from_function(a, b, f_sigma) - eval_mean_from_function(lo, hi, f_sigma)
        low, norm = min_eig_and_norm(diff)
        margins.append(low / max(1.0, norm))
        violated += low < -1e-8 * max(1.0, norm)
    assert report.min_margin == pytest.approx(min(margins), abs=1e-12)
    assert len(report.violations) == violated


def test_ka_violation_json_shape():
    report = ka_condition_check(MeanDescriptor.harmonic(), MeanDescriptor.arithmetic(),
                                trials=5, seed=0)
    assert not report.ok
    d = report.violations[0].to_json_dict()
    assert set(d) == {"A", "B", "min_eigenvalue", "diff_norm"}
    assert d["A"]["n"] == 3 and d["B"]["n"] == 3
    assert d["min_eigenvalue"] < 0.0 < d["diff_norm"]


def test_ka_condition_zero_trials_reports_cleanly():
    report = ka_condition_check(MeanDescriptor.geometric(),
                                MeanDescriptor.weighted_geometric(0.5),
                                trials=0, seed=0)
    assert report.ok
    assert report.min_margin == 0.0


@pytest.mark.parametrize("trials", [0, 2])
@pytest.mark.parametrize("n", [0, -5, 2.5])
def test_ka_condition_checks_n_however_many_trials(trials, n):
    with pytest.raises(StructuralError, match="matrix size must be a positive integer"):
        ka_condition_check(MeanDescriptor.geometric(), MeanDescriptor.arithmetic(),
                           trials=trials, n=n)


@pytest.mark.parametrize("trials", [0, 2])
def test_ka_condition_rejects_a_boolean_matrix_size(trials):
    # True is an int to Python, but no matrix size
    with pytest.raises(StructuralError, match="matrix size must be a positive integer"):
        ka_condition_check(MeanDescriptor.geometric(), MeanDescriptor.arithmetic(),
                           trials=trials, n=True)
