"""Inverse solvers: hand-derived oracles, roundtrips, and failure modes.

The scalar oracles below are worked by hand from the defining equations.
For the arithmetic mean, realizing geometric mean x and arithmetic mean y
means solving t + 1/t = 2 y / x, a quadratic with explicit roots; the
harmonic case mirrors it. Matrix cases are checked against independent
re-evaluation of both target means.
"""
import collections
import dataclasses
import math
import warnings

import numpy as np
import pytest

from opmeans import hdensity
from opmeans import orders as orders_module
from opmeans import solvers as solvers_module
from opmeans import spd as spd_module
from opmeans import (ConditioningError, ConvergenceError, DomainError,
                     MeanDescriptor, OrderError, OutOfRangeError, PairWitness,
                     RelativeSpectrum, SpdMatrix, StructuralError, UnsupportedMeanError,
                     as_spd, build_monotone_chain, eval_mean, f_alpha,
                     falsify_transfer, geom_heinz_ratio, ka_condition_check,
                     invert_f_alpha, invert_geom_heinz_ratio, invert_phi,
                     loewner_leq, phi_profile, random_spd,
                     representing_function, solve_geom_heinz_matrix,
                     solve_heinz_heron_matrix, solve_matrix_pair,
                     solve_scalar_geometric_pair, solve_scalar_heinz_heron)
from opmeans.hdensity import SELF_ADJOINT, SYMMETRIC, HDensity
from opmeans.means import RepresentingFunction

from mp_oracle import DIGITS, mp_mean, mp_representing

ARITH = MeanDescriptor.arithmetic()
GEO = MeanDescriptor.geometric()
HARM = MeanDescriptor.harmonic()


# ---------------------------------------------------------------- invert_phi

def test_invert_phi_arithmetic_hand_value():
    # realize map (t + 1/t) / 2 = 1.25  ->  t = 2
    fn = representing_function(ARITH)
    assert invert_phi(fn, 1.25) == pytest.approx(2.0, rel=1e-12)


def test_invert_phi_at_one_is_exact():
    fn = representing_function(ARITH)
    assert invert_phi(fn, 1.0) == 1.0


def test_invert_phi_harmonic_decreasing_regime():
    # realize map 2t / (1 + t^2) = 0.8  ->  roots 0.5 and 2; branch in [1, inf)
    fn = representing_function(HARM)
    assert invert_phi(fn, 0.8) == pytest.approx(2.0, rel=1e-12)


def test_invert_phi_out_of_range_messages_name_gamma():
    with pytest.raises(OutOfRangeError, match="gamma"):
        invert_phi(representing_function(GEO), 1.1)
    with pytest.raises(OutOfRangeError, match="gamma"):
        invert_phi(representing_function(HARM), 1.5)
    with pytest.raises(OutOfRangeError, match="gamma"):
        invert_phi(representing_function(ARITH), 0.5)


@pytest.mark.parametrize("y0, root", [(5e-10, 4.35e12), (1e-12, 1.65e16)])
def test_invert_phi_reaches_targets_toward_an_exact_zero_limit(y0, root):
    # the map t^(1 - 2h) of h = 0.87695491 falls to 0, which the 41-point
    # estimate misread as 1.1e-9 and so refused these targets; their roots
    # lie far inside the scan horizon 1e40
    fn = representing_function(MeanDescriptor.from_h_density(HDensity.constant(0.87695491)))
    assert fn.realize_gamma == 0.0
    t = invert_phi(fn, y0)
    assert t == pytest.approx(root, rel=1e-2)
    assert abs(fn.realize(t) - y0) <= 1e-11 * y0


def test_invert_phi_rejects_nonpositive_target():
    fn = representing_function(ARITH)
    with pytest.raises(StructuralError):
        invert_phi(fn, -1.0)
    with pytest.raises(StructuralError):
        invert_phi(fn, float("nan"))


def test_invert_phi_deterministic():
    fn = representing_function(MeanDescriptor.heron(0.5))
    vals = {invert_phi(fn, 1.25) for _ in range(3)}
    assert len(vals) == 1


def test_invert_phi_roundtrip_many_targets():
    for desc in (ARITH, MeanDescriptor.heinz(0.25), MeanDescriptor.heron(0.3)):
        fn = representing_function(desc)
        profile = phi_profile(fn)
        for y0 in np.linspace(1.0, 4.0, 17):
            t = invert_phi(fn, float(y0))
            assert profile.realize_phi(t) == pytest.approx(y0, rel=1e-11)


def _scan_bracket_one_point_at_a_time(profile, y0):
    """Reference bracket [lo, hi] of the smallest preimage of one in-range
    target, clamped: the scan over 10^(k/64) with one realize-map call per
    point, as the one-target bisection ran it before the batched pass."""
    phi = profile.realize_phi
    if y0 == 1.0:
        return 1.0, 1.0

    def gap(t):
        return float(phi(t)) - y0

    lo, g_lo = 1.0, gap(1.0)
    for k in range(1, 64 * 40 + 1):
        hi = 10.0 ** (k / 64)
        g = gap(hi)
        if g == 0.0:
            return hi, hi
        if (g > 0.0) != (g_lo > 0.0):
            return lo, hi
        lo, g_lo = hi, g
    raise AssertionError(f"target {y0!r} not bracketed")


_SA_STEP = MeanDescriptor.from_h_density(
    HDensity(SELF_ADJOINT, (-1.0, -0.4, 0.0), (0.8, 0.15)))
_SYM_STEP = MeanDescriptor.from_h_density(
    HDensity(SYMMETRIC, (0.0, 0.3, 0.7, 1.0), (0.2, 0.1, 0.3)))


def _newton_only(desc) -> RepresentingFunction:
    """desc's representing function without its closed-form realize inverse,
    so that it is inverted by scan and Newton."""
    return dataclasses.replace(representing_function(desc), realize_inverse=None)


# the catalog cases invert in closed form; the density case and the
# rebuilt harmonic (a map falling to gamma = 0) run the scan and Newton
@pytest.mark.parametrize("desc", [ARITH, HARM, MeanDescriptor.weighted_geometric(0.25),
                                  MeanDescriptor.heinz(0.2), MeanDescriptor.heron(0.3),
                                  _SA_STEP, _newton_only(HARM)],
                         ids=["arithmetic", "harmonic", "wgeo", "heinz", "heron", "sa-density",
                              "harmonic-newton"])
def test_batched_inversion_is_bitwise_the_per_target_one(desc):
    fn = desc if isinstance(desc, RepresentingFunction) else representing_function(desc)
    profile = phi_profile(fn)
    rising = profile.realize_gamma > 1.0
    # exactly 1, one target clamped to 1 from within _EIG_CLAMP, and two
    # realizable ones within _EIG_CLAMP of 1
    inward = 1.0 if rising else -1.0
    band = [1.0, 1.0 - 5e-10 * inward, 1.0 + 5e-10 * inward, 1.0 + 1e-12 * inward]
    if rising:
        # multi-decade scans up to targets far out toward gamma = inf
        spread = [1.01, 1.25, 2.0, 3.7, 42.0, 1e3, 1e6, 1e9]
    else:
        # the decreasing regime, down to targets near gamma = 0
        spread = [0.99, 0.8, 0.5, 0.1, 1e-3, 1e-6, 1e-9]
    targets = band + spread + spread[::-1]
    batched = solvers_module._invert_realize(fn, targets).tolist()
    one_by_one = [invert_phi(fn, y0) for y0 in targets]
    assert batched == one_by_one
    assert batched[:2] == [1.0, 1.0] and batched[2] != 1.0
    # closed-form and Newton roots are not bitwise the bisection's; each must
    # still be the smallest preimage (inside the reference scan's bracket)
    # and hit its target to a few ulps
    eps = np.finfo(float).eps
    for y0, t in zip(targets, batched):
        y0 = max(y0, 1.0) if rising else min(y0, 1.0)
        lo, hi = _scan_bracket_one_point_at_a_time(profile, y0)
        assert lo <= t <= hi
        assert abs(profile.realize_phi(t) - y0) <= 4.0 * eps * max(1.0, y0)


_CLOSED_FORMS = [ARITH, HARM, MeanDescriptor.weighted_geometric(0.1),
                 MeanDescriptor.weighted_geometric(0.25), MeanDescriptor.weighted_geometric(0.8),
                 MeanDescriptor.heinz(0.1), MeanDescriptor.heinz(0.2), MeanDescriptor.heinz(0.75),
                 MeanDescriptor.heinz(0.95), MeanDescriptor.heron(0.05),
                 MeanDescriptor.heron(0.3), MeanDescriptor.heron(1.0)]
_CLOSED_FORM_IDS = ["arithmetic", "harmonic", "wgeo-0.1", "wgeo-0.25", "wgeo-0.8",
                    "heinz-0.1", "heinz-0.2", "heinz-0.75", "heinz-0.95", "heron-0.05",
                    "heron-0.3", "heron-1"]


@pytest.mark.parametrize("desc", _CLOSED_FORMS, ids=_CLOSED_FORM_IDS)
def test_closed_form_inverse_is_the_smallest_preimage(desc):
    fn = representing_function(desc)
    assert fn.realize_inverse is not None
    profile = phi_profile(fn)
    if profile.realize_gamma > 1.0:
        targets = [1.0 + 1e-12, 1.0 + 1e-9, 1.01, 1.25, 2.0, 42.0, 1e3, 1e6, 1e9]
    else:
        targets = [1.0 - 1e-12, 1.0 - 1e-9, 0.99, 0.8, 0.5, 0.1, 1e-3, 1e-6, 1e-9]
    roots = solvers_module._invert_realize(fn, targets)
    newton = solvers_module._invert_realize(_newton_only(desc), targets)
    eps = np.finfo(float).eps
    for y0, t, t_newton in zip(targets, roots, newton):
        lo, hi = _scan_bracket_one_point_at_a_time(profile, y0)
        # a root within an ulp of a grid point may round past it: for wgeo
        # 0.1 at y = 1e3 the exact root lies 0.45 ulp above the bracket end,
        # the grid point 10^(240/64), and the closed form rounds it up
        assert np.nextafter(lo, 0.0) <= t <= np.nextafter(hi, np.inf)
        assert abs(profile.realize_phi(t) - y0) <= 4.0 * eps * max(1.0, y0)
        # near y = 1 the root is ill-conditioned, and the two may part there
        if abs(math.log(y0)) >= math.log(1.01):
            assert t == pytest.approx(t_newton, rel=1e-9)


@pytest.mark.parametrize("desc, y0", [(ARITH, 1e41), (ARITH, 1e300), (HARM, 1e-300),
                                      (MeanDescriptor.heinz(0.49), 1e9),
                                      (MeanDescriptor.weighted_geometric(0.45), 1e6),
                                      (MeanDescriptor.weighted_geometric(0.55), 1e-300)])
def test_closed_form_keeps_the_scan_horizon(desc, y0):
    # roots past 1e40, or past the float range, are refused as the scan
    # refuses them
    for fn in (representing_function(desc), _newton_only(desc)):
        with pytest.raises(OutOfRangeError, match="within the scan horizon"):
            solvers_module._invert_realize(fn, [2.0 if y0 > 1.0 else 0.5, y0])


@pytest.mark.parametrize("desc", [GEO, MeanDescriptor.heinz(0.5), MeanDescriptor.heron(0.0),
                                  MeanDescriptor.weighted_geometric(0.5)],
                         ids=["geometric", "heinz-0.5", "heron-0", "wgeo-0.5"])
def test_constant_realize_maps_have_no_inverse_to_divide_by_zero(desc):
    fn = representing_function(desc)
    assert fn.realize_inverse is None
    targets = [1.0, 1.0 + 1e-10, 1.0 - 1e-10]
    assert solvers_module._invert_realize(fn, targets).tolist() == [1.0, 1.0, 1.0]
    with pytest.raises(OutOfRangeError, match="constant"):
        invert_phi(fn, 1.1)


def test_batched_inversion_raises_the_first_bad_target_in_order():
    fn = representing_function(ARITH)
    with pytest.raises(OutOfRangeError, match="0.5"):
        solvers_module._invert_realize(fn, [2.0, 0.5, -1.0])
    with pytest.raises(StructuralError, match="-1.0"):
        solvers_module._invert_realize(fn, [2.0, -1.0, 0.5])
    # the scan horizon is 10^40, where the arithmetic realize map is 5e39
    with pytest.raises(OutOfRangeError, match="horizon"):
        solvers_module._invert_realize(fn, [2.0, 1e41, 3.0])


@pytest.mark.parametrize("desc, targets, message", [
    (ARITH, [2.0, 0.5, -1.0], "target 0.5 outside the realizable range [1, gamma) with gamma = inf"),
    (HARM, [0.5, 2.0, 0.0], "target 2.0 outside the realizable range (gamma, 1] with gamma = 0.0"),
    (GEO, [1.0, 1.5, math.nan],
     "target 1.5 unrealizable: the mean of (t, 1/t) is constant (gamma = 1.0)")],
    ids=["increasing", "decreasing", "constant"])
def test_batched_clamping_raises_the_first_bad_targets_own_error(desc, targets, message):
    # the targets are range-checked as one array; the second is out of range
    # and the third not a positive real, and the second's error is raised
    with pytest.raises(OutOfRangeError) as info:
        solvers_module._invert_realize(representing_function(desc), targets)
    assert str(info.value) == message
    with pytest.raises(StructuralError, match="positive real"):
        solvers_module._invert_realize(representing_function(desc), targets[::2])


def test_batched_inversion_raises_the_first_failure_of_mixed_kinds(monkeypatch):
    # range, convergence and forward-check failures in one batch: the first
    # failing target in order raises, whatever the kind of the others
    fn = representing_function(ARITH)
    wrong = dataclasses.replace(
        fn, label="wrong inverse",
        realize_inverse=lambda y: np.where(y == 3.0, 1.5, fn.realize_inverse(y)))
    # the arithmetic root of 1e41 lies past the scan horizon
    with pytest.raises(ConvergenceError, match="inaccurate at target 3.0"):
        solvers_module._invert_realize(wrong, [2.0, 3.0, 1e41])
    with pytest.raises(OutOfRangeError, match="1e.41.*horizon"):
        solvers_module._invert_realize(wrong, [2.0, 1e41, 3.0])

    # the self-adjoint density's realize map reaches only 5.5e27 at 1e40
    density = representing_function(_SA_STEP)
    # Newton on a jet 1e-6 off the realize map lands off its target
    shifted = dataclasses.replace(
        density, jet=lambda t: tuple((1.0 + 1e-6) * v for v in density.jet(t)))
    with pytest.raises(ConvergenceError, match="inaccurate at target 2.0"):
        solvers_module._invert_realize(shifted, [1.0, 2.0, 1e30])
    with pytest.raises(OutOfRangeError, match="1e.30.*horizon"):
        solvers_module._invert_realize(shifted, [1.0, 1e30, 2.0])
    monkeypatch.setattr(solvers_module, "_BISECT_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="did not converge at target 2.0 in 1 steps"):
        solvers_module._invert_realize(density, [2.0, 1e30])
    with pytest.raises(OutOfRangeError, match="1e.30.*horizon"):
        solvers_module._invert_realize(density, [1e30, 2.0])


def test_scan_inverts_each_distinct_target_once(monkeypatch):
    # a chain link repeats its ratio: equal targets share one scan and one
    # Newton iteration, and each gets bitwise the root of its target alone.
    # Each Newton step evaluates f and f' in one jet call; the kernel
    # _symmetric_rep under it also serves the scan blocks and forward check
    fn = representing_function(_SYM_STEP)
    sizes = []

    def counting(h, t, real=hdensity._symmetric_jet):
        sizes.append(np.size(t))
        return real(h, t)

    monkeypatch.setattr(hdensity, "_symmetric_jet", counting)
    targets = [2.0, 1.25, 2.0, 2.0, 1.25, 3.0]
    roots = solvers_module._invert_realize(fn, targets).tolist()
    assert sizes and max(sizes) == 3
    assert roots == [invert_phi(fn, y0) for y0 in targets]


def test_newton_evaluates_a_density_once_per_step():
    # value and derivative come from one jet call: the separate derivative,
    # which would compute f again, is never called
    fn = representing_function(_SA_STEP)

    def forbidden(t):
        raise AssertionError("derivative called apart from the value")

    jet_only = dataclasses.replace(fn, derivative=forbidden)
    targets = [1.25, 2.0, 42.0, 1e6]
    got = solvers_module._invert_realize(jet_only, targets).tolist()
    assert got == solvers_module._invert_realize(fn, targets).tolist()


def test_inversion_bisects_through_a_nan_derivative():
    # a NaN Newton step is never inside its bracket: every step takes the
    # bracket's midpoint, which converges as a plain bisection does
    fn = representing_function(MeanDescriptor.heinz(0.2))
    calls = {"newton": 0, "nan": 0}

    def counted(key, derivative):
        def wrapped(t):
            calls[key] += 1
            return derivative(t)
        return wrapped

    good = RepresentingFunction("heinz", fn.symmetry_class, fn.value,
                                counted("newton", fn.derivative),
                                realize_gamma=fn.realize_gamma)
    nan = RepresentingFunction("nan slope", fn.symmetry_class, fn.value,
                               counted("nan", lambda t: np.full(np.shape(t), np.nan)),
                               realize_gamma=fn.realize_gamma)
    targets = [1.0 + 1e-9, 1.25, 42.0, 1e6]
    want = solvers_module._invert_realize(good, targets)
    got = solvers_module._invert_realize(nan, targets)
    assert got == pytest.approx(want, rel=1e-9)
    assert calls["nan"] > calls["newton"]


def test_solvers_build_no_phi_profile(monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return phi_profile(f)

    monkeypatch.setattr(orders_module, "phi_profile", counting)
    # a by-name import into solvers would bypass the orders binding
    monkeypatch.setattr(solvers_module, "phi_profile", counting, raising=False)
    x = random_spd(3, cond_cap=10.0, seed=4).entries
    root = spd_module.sqrt_pair(x)[0]
    y = root @ np.diag([1.2, 3.0, 7.5]) @ root
    fn = representing_function(_SYM_STEP)
    invert_phi(fn, 1.25)
    solve_scalar_geometric_pair(_SYM_STEP, 1.0, 1.25)
    solve_matrix_pair(_SYM_STEP, x, y)
    build_monotone_chain(ARITH, x, y)
    assert calls == []


@pytest.mark.parametrize("desc", [_SA_STEP, _SYM_STEP], ids=["sa-density", "sym-density"])
def test_density_solve_evaluates_at_most_n_points_past_the_scan(monkeypatch, desc):
    # beyond the 65-point scan blocks, every evaluation of the density's
    # function (with or without its derivative) holds at most one point per
    # eigenvalue: the Newton steps, the forward check and the witness. Its
    # limit is exact, so no 41-point estimate runs. Each evaluation runs one
    # representation kernel
    sizes = []
    for name in ("_symmetric_rep", "_selfadjoint_rep"):
        def counting(ts, *args, real=getattr(hdensity, name)):
            sizes.append(np.size(ts))
            return real(ts, *args)
        monkeypatch.setattr(hdensity, name, counting)
    for n in (2, 5, 8):
        x = random_spd(n, cond_cap=20.0, seed=60 + n).entries
        root = spd_module.sqrt_pair(x)[0]
        ratios = np.geomspace(1.05, 4.0, n)
        sizes.clear()
        w = solve_matrix_pair(desc, x, root @ np.diag(ratios) @ root)
        assert w.residual_x <= 1e-7 and w.residual_y <= 1e-7
        assert 41 not in sizes and 65 in sizes
        assert all(size <= n for size in sizes if size != 65)


def _counting_realize_map(monkeypatch) -> list:
    """Record the size of every call of the realize map the solvers make."""
    sizes = []
    real = RepresentingFunction.realize

    def counting(f, t):
        sizes.append(np.size(t))
        return real(f, t)

    monkeypatch.setattr(RepresentingFunction, "realize", counting)
    return sizes


@pytest.mark.parametrize("desc, low, high", [
    (ARITH, 1.2, 30.0), (HARM, 0.05, 0.9), (MeanDescriptor.weighted_geometric(0.25), 1.2, 30.0),
    (MeanDescriptor.heinz(0.2), 1.2, 30.0), (MeanDescriptor.heron(0.3), 1.2, 30.0)],
    ids=["arithmetic", "harmonic", "wgeo", "heinz", "heron"])
def test_catalog_pair_solve_calls_the_realize_map_on_no_scan_block(monkeypatch, desc, low, high):
    # the forward check of the 5 roots; a catalog gamma is exact, not estimated
    sizes = _counting_realize_map(monkeypatch)
    x = random_spd(5, cond_cap=20.0, seed=90).entries
    root = spd_module.sqrt_pair(x)[0]
    w = solve_matrix_pair(desc, x, root @ np.diag(np.geomspace(low, high, 5)) @ root)
    assert w.residual_x <= 1e-7 and w.residual_y <= 1e-7
    assert sizes == [5]


@pytest.mark.parametrize("desc", [ARITH, MeanDescriptor.heron(0.5)], ids=["arithmetic", "heron"])
def test_catalog_chain_calls_the_realize_map_on_no_scan_block(monkeypatch, desc):
    # one forward check of every ratio other than 1; a catalog gamma is exact
    sizes = _counting_realize_map(monkeypatch)
    x = random_spd(4, cond_cap=20.0, seed=91).entries
    root = spd_module.sqrt_pair(x)[0]
    chain = build_monotone_chain(desc, x, root @ np.diag([1.5, 7.0, 40.0, 300.0]) @ root)
    assert len(chain.pair_witnesses) > 3
    assert len(sizes) == 1
    assert 1 < sizes[0] <= 4 * len(chain.pair_witnesses)


def test_pair_solve_realize_map_calls_do_not_grow_with_n(monkeypatch):
    # every evaluation of a self-adjoint density mean (realize map or Newton
    # jet) is one _selfadjoint_rep kernel call, however many eigenvalues it serves
    calls = []
    real = hdensity._selfadjoint_rep

    def counting(ts, *args):
        calls.append(np.size(ts))
        return real(ts, *args)

    monkeypatch.setattr(hdensity, "_selfadjoint_rep", counting)
    counts = {}
    for n in (2, 12):
        x = random_spd(n, cond_cap=20.0, seed=80 + n).entries
        root = spd_module.sqrt_pair(x)[0]
        ratios = np.geomspace(1.1, 8.0, n)
        calls.clear()
        w = solve_matrix_pair(_SA_STEP, x, root @ np.diag(ratios) @ root)
        assert w.residual_x <= 1e-7 and w.residual_y <= 1e-7
        counts[n] = len(calls)
    assert counts[12] <= counts[2]


def test_stacked_chain_with_one_ill_conditioned_link_is_returned():
    # two links: ratios (1, 9e5), then (1, 3.3); the first link's witness
    # pair has a relative spectrum of condition about (1.8e6)^2 > 1e12, the
    # gate for a caller's pair, yet its residuals meet the contract, and
    # they alone judge a witness
    x = random_spd(2, cond_cap=5.0, seed=3).entries
    root = spd_module.sqrt_pair(x)[0]
    y = root @ np.diag([1.0, 3e6]) @ root
    chain = build_monotone_chain(ARITH, x, y, gamma0=9e5)
    assert len(chain.pair_witnesses) == 2
    first = chain.pair_witnesses[0]
    assert RelativeSpectrum(first.matrix_a, first.matrix_b).condition > 1e12
    for w in chain.pair_witnesses:
        assert w.residual_x <= 1e-7 and w.residual_y <= 1e-7
    chain = build_monotone_chain(ARITH, x, y, gamma0=1e3)
    assert len(chain.pair_witnesses) >= 3


# ---------------------------------------------------------- scalar pair solve

def test_scalar_pair_arithmetic_hand_roots():
    # sqrt(ab) = 1, (a + b)/2 = 10  ->  {10 + sqrt(99), 10 - sqrt(99)}
    sol = solve_scalar_geometric_pair(ARITH, 1.0, 10.0)
    a, b = sol
    assert a == pytest.approx(10.0 + math.sqrt(99.0), rel=1e-12)
    assert b == pytest.approx(10.0 - math.sqrt(99.0), rel=1e-12)
    assert sol.c == pytest.approx(math.log(10.0 + math.sqrt(99.0)), rel=1e-12)


def test_scalar_pair_harmonic_hand_roots():
    # harmonic mean 0.8 with geometric mean 1  ->  {2, 1/2}
    a, b = solve_scalar_geometric_pair(HARM, 1.0, 0.8)
    assert a == pytest.approx(2.0, rel=1e-12)
    assert b == pytest.approx(0.5, rel=1e-12)


def test_scalar_pair_solutions_serialize_their_fields():
    sol = solve_scalar_geometric_pair(ARITH, 1.0, 10.0)
    assert sol.to_json_dict() == {"x": sol.x, "y": sol.y, "c": sol.c}
    sol = solve_scalar_heinz_heron(0.3, 2.0, 3.0)
    assert sol.to_json_dict() == {"x": sol.x, "y": sol.y, "c": sol.c}
    assert tuple(sol) == (sol.x, sol.y)


def test_scalar_pair_scales_with_x():
    big = solve_scalar_geometric_pair(ARITH, 3.0, 30.0)
    ref = solve_scalar_geometric_pair(ARITH, 1.0, 10.0)
    assert big.x == pytest.approx(3.0 * ref.x, rel=1e-12)
    assert big.y == pytest.approx(3.0 * ref.y, rel=1e-12)


def test_scalar_pair_rejects_bad_targets():
    with pytest.raises(StructuralError):
        solve_scalar_geometric_pair(ARITH, -1.0, 2.0)
    with pytest.raises(OutOfRangeError):
        solve_scalar_geometric_pair(GEO, 1.0, 2.0)


@pytest.mark.parametrize("mean, x, y", [(ARITH, 1e-300, 1e300), (HARM, 1e300, 1e-300)],
                         ids=["overflow", "underflow"])
def test_scalar_pair_target_ratio_past_the_float_range(mean, x, y):
    # both targets are finite and positive; y / x is not, and the error says
    # so instead of naming a target the caller never passed
    with pytest.raises(OutOfRangeError, match=r"y = .* to x = .* leaves the float range"):
        solve_scalar_geometric_pair(mean, x, y)


# ---------------------------------------------------------- matrix pair solve

def test_matrix_pair_arithmetic_identity_oracle():
    x = np.eye(3)
    y = 1.25 * np.eye(3)
    w = solve_matrix_pair(ARITH, x, y)
    assert np.max(np.abs(w.matrix_a - 2.0 * np.eye(3))) <= 1e-12
    assert np.max(np.abs(w.matrix_b - 0.5 * np.eye(3))) <= 1e-12
    assert w.residual_x <= 1e-12 and w.residual_y <= 1e-12


def test_matrix_pair_harmonic_mirrored_regime():
    w = solve_matrix_pair(HARM, np.eye(2), 0.8 * np.eye(2))
    assert np.max(np.abs(w.matrix_a - 2.0 * np.eye(2))) <= 1e-12
    assert np.max(np.abs(w.matrix_b - 0.5 * np.eye(2))) <= 1e-12


def test_matrix_pair_heron_reproduces_targets():
    x = np.eye(2)
    y = np.diag([1.2, 1.05])
    w = solve_matrix_pair(MeanDescriptor.heron(0.5), x, y)
    geo = eval_mean(w.matrix_a, w.matrix_b, GEO)
    her = eval_mean(w.matrix_a, w.matrix_b, MeanDescriptor.heron(0.5))
    assert np.max(np.abs(geo - x)) <= 1e-10
    assert np.max(np.abs(her - y)) <= 1e-10


def test_matrix_pair_one_by_one_matches_scalar():
    for desc in (ARITH, MeanDescriptor.heinz(0.25), HARM):
        y0 = 0.8 if desc is HARM else 1.7
        scal = solve_scalar_geometric_pair(desc, 2.0, 2.0 * y0)
        mat = solve_matrix_pair(desc, [[2.0]], [[2.0 * y0]])
        assert mat.matrix_a[0, 0] == pytest.approx(scal.x, rel=1e-12)
        assert mat.matrix_b[0, 0] == pytest.approx(scal.y, rel=1e-12)


def test_matrix_pair_congruence_equivariance():
    rng = np.random.default_rng(7)
    x = random_spd(3, cond_cap=20.0, seed=1).entries
    bump = rng.standard_normal((3, 3)) * 0.3
    y = x + 0.5 * (bump @ bump.T)
    t = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    w = solve_matrix_pair(ARITH, x, y)
    wt = solve_matrix_pair(ARITH, t @ x @ t.T, t @ y @ t.T)
    scale = np.linalg.norm(wt.matrix_a)
    assert np.linalg.norm(wt.matrix_a - t @ w.matrix_a @ t.T) <= 1e-8 * scale
    assert np.linalg.norm(wt.matrix_b - t @ w.matrix_b @ t.T) <= 1e-8 * scale


def test_matrix_pair_random_instances_reproduce_targets():
    rng = np.random.default_rng(42)
    descs = [ARITH, MeanDescriptor.heron(0.5), MeanDescriptor.heinz(0.25)]
    for k in range(12):
        n = int(rng.integers(1, 5))
        desc = descs[k % len(descs)]
        x = random_spd(n, cond_cap=30.0, seed=100 + k).entries
        bump = rng.standard_normal((n, n))
        y = x + 0.2 * (bump @ bump.T) / n
        w = solve_matrix_pair(desc, x, y)
        assert w.residual_x <= 1e-7 and w.residual_y <= 1e-7


def test_matrix_pair_rejects_unordered_targets():
    with pytest.raises(OutOfRangeError):
        solve_matrix_pair(ARITH, np.eye(2), 0.5 * np.eye(2))
    with pytest.raises(OutOfRangeError):
        solve_matrix_pair(HARM, np.eye(2), 2.0 * np.eye(2))


def test_matrix_pair_clamps_relative_eigenvalues_within_band():
    # relative eigenvalues 5e-10 on the wrong side of 1 clamp to 1; 1e-8 does not
    x = random_spd(3, cond_cap=20.0, seed=8).entries
    w = solve_matrix_pair(ARITH, x, (1.0 - 5e-10) * x)
    assert w.residual_x <= 1e-7 and w.residual_y <= 1e-7
    with pytest.raises(OutOfRangeError, match="gamma"):
        solve_matrix_pair(ARITH, x, (1.0 - 1e-8) * x)
    w = solve_matrix_pair(HARM, x, (1.0 + 5e-10) * x)
    assert w.residual_x <= 1e-7 and w.residual_y <= 1e-7


def test_matrix_pair_rejects_shape_mismatch_and_non_spd():
    with pytest.raises(StructuralError):
        solve_matrix_pair(ARITH, np.eye(2), np.eye(3))
    with pytest.raises(StructuralError):
        solve_matrix_pair(ARITH, np.array([[0.0, 0.0], [0.0, 1.0]]), np.eye(2))


def test_pair_witness_json_shape():
    w = solve_matrix_pair(ARITH, np.eye(2), 1.25 * np.eye(2))
    d = w.to_json_dict()
    assert set(d) == {"A", "B", "residual_x", "residual_y"}
    assert d["A"]["n"] == 2


# ------------------------------------------------------------- chain builder

def _ratio_eigs(za, zb):
    from opmeans import sqrt_pair, sym_eigendecompose
    root, inv_root = sqrt_pair(za)
    inner = inv_root @ zb @ inv_root
    return sym_eigendecompose(0.5 * (inner + inner.T)).eigenvalues


def test_chain_equal_endpoints_single_node():
    x = random_spd(3, seed=5).entries
    chain = build_monotone_chain(ARITH, x, x.copy())
    assert len(chain.links) == 1
    assert chain.pair_witnesses == ()
    assert np.array_equal(chain.links[0], x)


def test_chain_scalar_ladder_node_count():
    g0 = 1.5
    x = np.eye(2)
    y = (g0 ** 2.5) * np.eye(2)
    chain = build_monotone_chain(ARITH, x, y, gamma0=g0)
    # ladder passes g0, g0^2, then lands on g0^2.5: four nodes, three links
    assert len(chain.links) == 4
    assert len(chain.pair_witnesses) == 3
    assert np.array_equal(chain.links[0], x)
    assert np.array_equal(chain.links[-1], y)
    assert chain.links[1][0, 0] == pytest.approx(g0, rel=1e-12)
    assert chain.links[2][0, 0] == pytest.approx(g0 ** 2, rel=1e-12)


def test_chain_random_monotone_and_ratio_capped():
    for k in range(6):
        n = 3 if k % 2 == 0 else 4
        x = random_spd(n, cond_cap=40.0, seed=20 + k).entries
        rng = np.random.default_rng(500 + k)
        bump = rng.standard_normal((n, n))
        y = x + (bump @ bump.T) / n
        chain = build_monotone_chain(ARITH, x, y, gamma0=1.4)
        assert np.array_equal(chain.links[0], x)
        assert np.array_equal(chain.links[-1], y)
        _assert_sound_chain(chain, 1.4)


def _assert_sound_chain(chain, gamma0):
    """Each link is ordered, its ratio is at most gamma0 and its witness meets 1e-7."""
    assert len(chain.pair_witnesses) == len(chain.links) - 1
    for a, b in zip(chain.links, chain.links[1:]):
        assert loewner_leq(a, b, tol=1e-10)
        assert np.max(_ratio_eigs(a, b)) <= gamma0 * (1.0 + 1e-10)
    for w in chain.pair_witnesses:
        assert w.residual_x <= 1e-7 and w.residual_y <= 1e-7


@pytest.mark.parametrize("gamma0", [1.1, 1.5, 2.0])
def test_chain_nodes_are_the_powers_of_gamma0_capped_by_y(gamma0):
    # node k has relative eigenvalues min(lam, gamma0^k) against X, and the
    # chain has K links, K >= 1 the smallest power with gamma0^K >= max(lam)
    for k in range(6):
        n = 2 + k % 3
        x = random_spd(n, cond_cap=20.0, seed=40 + k).entries
        bump = np.random.default_rng(400 + k).standard_normal((n, n))
        y = x + (1.0 + k) * (bump @ bump.T) / n
        lams = np.maximum(np.sort(_ratio_eigs(x, y)), 1.0)
        count = 1
        while gamma0 ** count < lams[-1]:
            count += 1
        chain = build_monotone_chain(ARITH, x, y, gamma0=gamma0)
        assert len(chain.pair_witnesses) == count
        for j, link in enumerate(chain.links):
            want = np.minimum(lams, gamma0 ** j)
            assert np.sort(_ratio_eigs(x, link)) == pytest.approx(want, rel=1e-12)
        _assert_sound_chain(chain, gamma0)


def _ladder_link_count(lams, gamma0):
    """Links of a grouped power ladder from 1 to lams: every unfinished
    eigenvalue climbs through the powers of gamma0, and each group of
    eigenvalues within 1e-10 of each other is set to its value in one extra
    link once the ladder passes the power below it; eigenvalues within 1e-12
    of 1 never move."""
    groups = []
    for lam in np.sort(lams[lams > 1.0 + 1e-12]):
        if not groups or lam > groups[-1] * (1.0 + 1e-10):
            groups.append(lam)
    power = 0
    for lam in groups:
        power = max(power, solvers_module._power_index(float(lam), gamma0))
    return max(1, power + len(groups))


def test_chain_is_never_longer_than_the_grouped_ladder():
    # the inputs of acceptance 03, against the link count of the ladder
    # that substitutes each eigenvalue group in a link of its own
    rng = np.random.default_rng(33)
    for k in range(100):
        sigma = (ARITH, MeanDescriptor.heron(0.5))[k % 2]
        n = (k % 5) + 1
        x = random_spd(n, cond_cap=100.0, seed=900 + k).entries
        scale = float(rng.uniform(0.1, 4.0))
        g = rng.standard_normal((n, n))
        y = x + scale * (g @ g.T) / n
        chain = build_monotone_chain(sigma, x, y)
        lams = solvers_module._ordered_eigenvalues(RelativeSpectrum(as_spd(x), as_spd(y)))
        assert len(chain.pair_witnesses) <= _ladder_link_count(lams, chain.gamma0)
        _assert_sound_chain(chain, chain.gamma0)


def test_chain_with_too_many_links_is_refused_before_it_is_built(monkeypatch):
    # log(5) / log(1 + 1e-9) is about 1.6e9 links; nothing is inverted
    def forbidden(*args):
        raise AssertionError("a refused chain inverted its ratios")

    monkeypatch.setattr(solvers_module, "_invert_realize", forbidden)
    x, y = np.eye(3), np.diag([2.0, 3.0, 5.0])
    message = r"needs 1609437781 links at gamma0 = 1\.000000001, more than 100000"
    with pytest.raises(OutOfRangeError, match=message):
        build_monotone_chain(ARITH, x, y, gamma0=1.0 + 1e-9)
    monkeypatch.undo()
    chain = build_monotone_chain(ARITH, x, y, gamma0=1.005)
    assert len(chain.pair_witnesses) == 323 < solvers_module._MAX_LINKS
    assert np.array_equal(chain.links[-1], y)
    for w in chain.pair_witnesses:
        assert w.residual_x <= 1e-7 and w.residual_y <= 1e-7


def test_chain_heron_mean_works_too():
    x = random_spd(3, cond_cap=10.0, seed=77).entries
    y = 2.5 * x
    chain = build_monotone_chain(MeanDescriptor.heron(0.5), x, y, gamma0=1.3)
    assert len(chain.links) >= 3
    for w in chain.pair_witnesses:
        assert w.residual_x <= 1e-7 and w.residual_y <= 1e-7


def test_chain_gamma0_validation():
    x = np.eye(2)
    y = 2.0 * np.eye(2)
    with pytest.raises(OutOfRangeError):
        build_monotone_chain(ARITH, x, y, gamma0=1.0)
    with pytest.raises(OutOfRangeError):
        build_monotone_chain(ARITH, x, y, gamma0=0.5)


def test_chain_unsupported_means():
    x = np.eye(2)
    y = 2.0 * np.eye(2)
    with pytest.raises(UnsupportedMeanError):
        build_monotone_chain(GEO, x, y)
    with pytest.raises(UnsupportedMeanError):
        build_monotone_chain(HARM, x, y)


def test_chain_requires_loewner_order():
    x = np.diag([1.0, 2.0])
    y = np.diag([2.0, 1.0])        # incomparable with x
    with pytest.raises(OrderError):
        build_monotone_chain(ARITH, x, y)


def test_chain_json_shape():
    chain = build_monotone_chain(ARITH, np.eye(2), 1.5 * np.eye(2), gamma0=1.3)
    d = chain.to_json_dict()
    assert set(d) == {"links", "gamma0", "pair_witnesses"}
    assert len(d["links"]) == len(chain.links)


def test_chain_near_equal_endpoints_two_nodes():
    # every relative eigenvalue lies within 1e-12 of 1, so nothing is raised
    # and the one link must still end at Y itself
    x = random_spd(3, cond_cap=20.0, seed=31).entries
    for y in (x * (1.0 + 1e-13), x + 1e-13 * np.eye(3)):
        assert not np.array_equal(x, y)
        chain = build_monotone_chain(ARITH, x, y)
        assert len(chain.links) == 2 and len(chain.pair_witnesses) == 1
        assert np.array_equal(chain.links[0], x)
        assert np.array_equal(chain.links[-1], y)
        w = chain.pair_witnesses[0]
        assert w.residual_x <= 1e-7 and w.residual_y <= 1e-7


@pytest.mark.parametrize("sigma", [MeanDescriptor.weighted_geometric(0.25), _SA_STEP],
                         ids=["wgeo:0.25", "sa-density"])
def test_chain_witnesses_reverify_through_eval_mean(sigma):
    # independent path: each witness pair is re-evaluated from scratch by
    # eval_mean against its own link, not through the solver's residuals
    for k in range(3):
        n = 2 + k
        x = random_spd(n, cond_cap=30.0, seed=60 + k).entries
        bump = np.random.default_rng(600 + k).standard_normal((n, n))
        y = x + 3.0 * (bump @ bump.T) / n
        chain = build_monotone_chain(sigma, x, y, gamma0=1.1)
        assert len(chain.pair_witnesses) == len(chain.links) - 1 >= 2
        for lo, hi, w in zip(chain.links, chain.links[1:], chain.pair_witnesses):
            got_x = eval_mean(w.matrix_a, w.matrix_b, GEO)
            got_y = eval_mean(w.matrix_a, w.matrix_b, sigma)
            assert np.linalg.norm(got_x - lo) <= 1e-7 * np.linalg.norm(lo)
            assert np.linalg.norm(got_y - hi) <= 1e-7 * np.linalg.norm(hi)


def _count_eigensolved_matrices(monkeypatch) -> list:
    """Patch spd._eigh to record, per call, how many matrices it decomposed."""
    matrices = []
    real = spd_module._eigh

    def counting(a, *args, **kwargs):
        matrices.append(a.shape[0] if a.ndim == 3 else 1)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(spd_module, "_eigh", counting)
    return matrices


def test_pair_witnesses_raise_on_the_first_pair_that_misses():
    # pairs (4I, I) and (9I, I): geometric means 2I and 3I, arithmetic
    # means 2.5I and 5I; the second pair's arithmetic target 6I misses by 1/6
    spectrum = RelativeSpectrum(np.eye(2), np.eye(2))
    values_a, values_b = np.array([[4.0, 4.0], [9.0, 9.0]]), np.ones((2, 2))
    xs = np.array([2.0, 3.0])[:, None, None] * np.eye(2)
    ys = np.array([2.5, 5.0])[:, None, None] * np.eye(2)
    geo, arith = representing_function(GEO), representing_function(ARITH)
    single = solvers_module._pair_witnesses(spectrum, values_a[1], values_b[1], geo, arith,
                                            xs[1], ys[1])
    stacked = solvers_module._pair_witnesses(spectrum, values_a, values_b, geo, arith, xs, ys)
    assert isinstance(single, PairWitness) and len(stacked) == 2
    for w, want in zip((single, *stacked), (5.0, 2.5, 5.0)):
        assert type(w.residual_x) is float and type(w.residual_y) is float
        assert w.residual_x <= 1e-15 and w.residual_y <= 1e-15
        assert np.allclose(w.matrix_a + w.matrix_b, 2.0 * want * np.eye(2))
    ys[1] *= 1.2
    with pytest.raises(ConvergenceError, match=r"residuals too large: .* 1\.667e-01$"):
        solvers_module._pair_witnesses(spectrum, values_a, values_b, geo, arith, xs, ys)
    with pytest.raises(ConvergenceError, match=r"residuals too large: .* 1\.667e-01$"):
        solvers_module._pair_witnesses(spectrum, values_a[1], values_b[1], geo, arith,
                                       xs[1], ys[1])


_NEAR_EDGE = {
    "arithmetic": lambda x, y: solve_matrix_pair(ARITH, x, y),
    "heron-0.5": lambda x, y: solve_matrix_pair(MeanDescriptor.heron(0.5), x, y),
    "heinz-0.2": lambda x, y: solve_matrix_pair(MeanDescriptor.heinz(0.2), x, y),
    "geom-heinz-0.1": lambda x, y: solve_geom_heinz_matrix(0.1, x, y),
    "heinz-heron-0.1": lambda x, y: solve_heinz_heron_matrix(0.1, x, y)}


@pytest.mark.parametrize("top", [5e7, 5e9])
@pytest.mark.parametrize("solver", _NEAR_EDGE)
def test_witnesses_past_the_callers_condition_gate_are_judged_by_their_residuals(solver, top):
    # each witness pair's relative spectrum has condition above 1e12, the
    # gate of a pair a caller passes to eval_mean, which refused all of them
    w = _NEAR_EDGE[solver](np.eye(2), np.diag([top, 3.0]))
    assert RelativeSpectrum(w.matrix_a, w.matrix_b).condition > 1e12
    assert w.residual_x <= 1e-7 and w.residual_y <= 1e-7


def test_every_failure_of_the_witness_re_evaluation_is_a_convergence_error(monkeypatch):
    spectrum, xs = RelativeSpectrum(np.eye(2), np.eye(2)), 2.0 * np.eye(2)
    geo, arith = representing_function(GEO), representing_function(ARITH)
    density = representing_function(MeanDescriptor.from_h_density(
        HDensity.constant(0.3, SYMMETRIC)))
    # a non-positive relative eigenvalue, found before any mean is evaluated
    # there: no RuntimeWarning (an error here) from sqrt, no DomainError from
    # the density
    for mean_y in (arith, density):
        with pytest.raises(ConvergenceError,
                           match=r"^pair solve witness has relative eigenvalue -2\.500e-01 <= 0$"):
            solvers_module._pair_witnesses(spectrum, np.array([4.0, 4.0]), np.array([-1.0, 1.0]),
                                           geo, mean_y, xs, xs)
    # the witness's A has no square root
    with pytest.raises(ConvergenceError, match=r"^pair solve witness cannot be re-evaluated: "
                       r"square root of A needs a positive spectrum, got -1\.0$"):
        solvers_module._pair_witnesses(spectrum, np.array([-1.0, 4.0]), np.ones(2), geo, arith,
                                       xs, xs)
    # the eigensolver fails on the witness's A (call 3 of a pair solve) or
    # on its relative spectrum (call 4)
    real_eigh = spd_module._eigh
    for failing in (3, 4):
        calls = []

        def eigh(a, *args, calls=calls, failing=failing, **kwargs):
            calls.append(a)
            if len(calls) == failing:
                raise ConditioningError("symmetric eigensolver failed: did not converge")
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(spd_module, "_eigh", eigh)
        with pytest.raises(ConvergenceError, match="^pair solve witness cannot be re-evaluated: "
                                                   "symmetric eigensolver failed"):
            solve_matrix_pair(ARITH, np.eye(2), np.diag([2.0, 3.0]))
        assert len(calls) == failing
    monkeypatch.setattr(spd_module, "_eigh", real_eigh)
    # a NaN residual fails, where a test of got > tol would let it pass
    nan_arith = dataclasses.replace(arith, value=lambda t: np.full_like(t, np.nan))
    with pytest.raises(ConvergenceError, match=r"^pair solve witness residuals too large: "
                                               r"geometric mean 0\.000e\+00, arithmetic mean nan$"):
        solvers_module._pair_witnesses(spectrum, np.array([4.0, 4.0]), np.ones(2), geo, nan_arith,
                                       xs, 2.5 * np.eye(2))


def _residuals_at_50_digits(mpmath, witness, targets):
    """||mean - target||_F / ||target||_F of each (f, target) of targets, both
    means of the witness recomputed at 50 digits: no arithmetic of the package
    is reused."""
    with mpmath.workdps(DIGITS):
        out = []
        for f, target in targets:
            want = mpmath.matrix(target.tolist())
            got = mp_mean(mpmath, witness.matrix_a, witness.matrix_b, f)
            out.append(float(mpmath.mnorm(got - want, "f") / mpmath.mnorm(want, "f")))
        return out


@pytest.mark.parametrize("seed, top", [(None, 5e7), (11, 5e7), (1, 5e9)],
                         ids=["identity", "rotated-5e7", "rotated-5e9"])
def test_witnesses_near_the_edge_re_verify_at_50_digits(seed, top):
    # Y = X^{1/2} diag(top, 3) X^{1/2}: the witnesses of the five solvers
    # below have relative condition above 1e12, and the gate refused them
    # all. Every witness returned is within 1e-7 at 50 digits; at X = I all
    # are returned, and with X rotated some are refused by their residuals
    mpmath = pytest.importorskip("mpmath")

    def heinz(s):
        return mp_representing(mpmath, MeanDescriptor.heinz(s))

    def heron(s):
        return mp_representing(mpmath, MeanDescriptor.heron(s))

    x = np.eye(2) if seed is None else _rotated([1.0, 4.0], seed)
    root = spd_module.sqrt_pair(x)[0]
    y = spd_module._symmetrize(root @ np.diag([top, 3.0]) @ root)
    cases = [(lambda: solve_matrix_pair(ARITH, x, y), mpmath.sqrt, heron(1.0)),
             (lambda: solve_matrix_pair(MeanDescriptor.heron(0.5), x, y), mpmath.sqrt, heron(0.5)),
             (lambda: solve_matrix_pair(MeanDescriptor.heinz(0.2), x, y), mpmath.sqrt, heinz(0.2)),
             (lambda: solve_geom_heinz_matrix(0.1, x, y), mpmath.sqrt, heinz(0.1)),
             (lambda: solve_heinz_heron_matrix(0.1, x, y), heinz(0.1), heron((2 * 0.1 - 1) ** 2))]
    returned = 0
    for solve, f_x, f_y in cases:
        try:
            witness = solve()
        except ConvergenceError:
            continue
        returned += 1
        assert RelativeSpectrum(witness.matrix_a, witness.matrix_b).condition > 1e12
        assert max(_residuals_at_50_digits(mpmath, witness, [(f_x, x), (f_y, y)])) <= 1e-7
    assert returned == 5 if seed is None else returned >= 2


_SWEEP_MEANS = (ARITH, MeanDescriptor.heron(0.5), MeanDescriptor.heinz(0.2),
                MeanDescriptor.weighted_geometric(0.3),
                MeanDescriptor.from_h_density(HDensity.constant(0.3, SELF_ADJOINT)),
                MeanDescriptor.from_h_density(HDensity.constant(0.2, SYMMETRIC)))


def test_a_sweep_of_ill_conditioned_pair_solves_meets_no_gate_and_no_domain_error():
    # X of condition up to 1e6, relative eigenvalues up to 1e11, six means:
    # each solve returns a witness within 1e-7, raises ConvergenceError, or
    # refuses a Y below the floor. A RuntimeWarning is an error in this suite
    rng = np.random.default_rng(7)
    seen = collections.Counter()
    for k in range(300):
        n, sigma = 2 + k % 3, _SWEEP_MEANS[k % len(_SWEEP_MEANS)]
        x = random_spd(n, cond_cap=10.0 ** float(rng.uniform(0.0, 6.0)), seed=k).entries
        root = spd_module.sqrt_pair(x)[0]
        y = root @ _rotated(10.0 ** rng.uniform(0.0, 11.0, n), 9000 + k) @ root
        try:
            w = solve_matrix_pair(sigma, x, y)
        except ConvergenceError as exc:
            seen["non-positive" if "relative eigenvalue" in str(exc) else "convergence"] += 1
            continue
        except StructuralError as exc:
            assert str(exc).startswith("Y: matrix is not positive definite")
            seen["Y below the floor"] += 1
            continue
        assert w.residual_x <= 1e-7 and w.residual_y <= 1e-7
        seen["past the gate" if RelativeSpectrum(w.matrix_a, w.matrix_b).condition > 1e12
             else "returned"] += 1
    assert seen["past the gate"] >= 10 and seen["non-positive"] >= 10, seen


def test_chain_rejects_mismatched_shapes():
    with pytest.raises(StructuralError, match=r"shape mismatch: \(2, 2\) vs \(3, 3\)"):
        build_monotone_chain(ARITH, np.eye(2), np.eye(3))


def test_chain_decomposes_only_for_the_endpoints_and_the_witnesses(monkeypatch):
    # X's validation costs one eigensolve, and the relative spectrum of
    # (X, Y) one more: it reuses the decomposition X's validation kept, and
    # proves Y positive definite without decomposing it. Each link adds only
    # its witness re-evaluation, and the witnesses of all links are
    # decomposed as one stack in two calls
    matrices = _count_eigensolved_matrices(monkeypatch)
    for k, sigma in enumerate((ARITH, MeanDescriptor.heron(0.5))):
        x = random_spd(3, cond_cap=30.0, seed=70 + k).entries
        bump = np.random.default_rng(700 + k).standard_normal((3, 3))
        matrices.clear()
        chain = build_monotone_chain(sigma, x, x + 2.0 * bump @ bump.T, gamma0=1.4)
        links = len(chain.pair_witnesses)
        assert links >= 3
        assert sum(matrices) == 2 + 2 * links
        assert len(matrices) == 4


@pytest.mark.parametrize("solve", [
    lambda x, y: solve_matrix_pair(ARITH, x, y),
    lambda x, y: solve_heinz_heron_matrix(0.3, x, y),
    lambda x, y: solve_geom_heinz_matrix(0.3, x, y)], ids=["pair", "heinz-heron", "geom-heinz"])
def test_pair_solve_decomposes_four_matrices(monkeypatch, solve):
    # the validation of X, the relative spectrum of (X, Y) on X's kept
    # decomposition, which proves Y positive definite, and the witness pair's
    # relative spectrum (two eigensolves)
    matrices = _count_eigensolved_matrices(monkeypatch)
    for n in (1, 3, 6):
        x = random_spd(n, cond_cap=30.0, seed=80 + n).entries
        bump = np.random.default_rng(800 + n).standard_normal((n, n))
        matrices.clear()
        solve(x, x + 0.5 * bump @ bump.T)
        assert matrices == [1, 1, 1, 1]


@pytest.mark.parametrize("check, per_pair", [
    (lambda trials: falsify_transfer(np.sqrt, GEO, ARITH, trials=trials, seed=5).trials_run, 5),
    (lambda trials: ka_condition_check(GEO, ARITH, trials=trials, seed=5).trials, 3)],
    ids=["transfer", "ka"])
def test_sampled_pair_checks_decompose_a_fixed_count_per_pair(monkeypatch, check, per_pair):
    # both: the SpdMatrix stack of the A's (its validation keeps the
    # decomposition that the relative spectrum reuses), Z and the difference
    # compared; no B is decomposed, the rounding bound taking the draw's cap
    # for the condition number. The transfer search also decomposes the two
    # means it applies f to, while the mixing check congruates every mean
    # from Z's eigenvalues
    matrices = _count_eigensolved_matrices(monkeypatch)
    for trials in (8, 10):
        matrices.clear()
        assert check(trials) == trials
        assert sum(matrices) == per_pair * trials


@pytest.mark.parametrize("solve", [
    lambda x, y: (as_spd(x, "X"), as_spd(y, "Y")),
    lambda x, y: solve_matrix_pair(ARITH, x, y),
    lambda x, y: build_monotone_chain(ARITH, x, y),
    lambda x, y: solve_heinz_heron_matrix(0.3, x, y),
    lambda x, y: solve_geom_heinz_matrix(0.3, x, y)],
    ids=["as_spd", "pair", "chain", "heinz-heron", "geom-heinz"])
def test_single_matrix_entry_points_reject_stacks(solve):
    # SpdMatrix takes (k, n, n) stacks; the solvers take one matrix each
    x = np.stack((np.eye(2), 2.0 * np.eye(2)))
    for wrap in (np.asarray, SpdMatrix):
        with pytest.raises(StructuralError, match="X: .* square 2-d array, got shape"):
            solve(wrap(x), 3.0 * x[1])
        with pytest.raises(StructuralError, match="Y: .* square 2-d array, got shape"):
            solve(x[0], wrap(3.0 * x))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_chain_order_check_is_scale_invariant(scale):
    # X <= Y is judged on the relative spectrum of (X, Y) alone, so the
    # answer cannot depend on the scale of the pair
    y = scale * np.diag([1.0, 3.0])
    chain = build_monotone_chain(ARITH, y * (1.0 + 5e-10), y)
    assert len(chain.pair_witnesses) == 1
    w = chain.pair_witnesses[0]
    assert w.residual_x <= 1e-7 and w.residual_y <= 1e-7
    with pytest.raises(OrderError):
        build_monotone_chain(ARITH, y * (1.0 + 1e-8), y)


# ------------------------------------------------------- f_alpha and inverses

def test_f_alpha_at_zero_is_exactly_one():
    for alpha in (-0.9, -0.3, 0.1, 0.5, 0.9):
        assert f_alpha(alpha, 0.0) == 1.0


def test_f_alpha_strictly_decreasing():
    cs = np.linspace(0.0, 30.0, 121)
    for alpha in (0.1, 0.5, 0.9):
        vals = [f_alpha(alpha, float(c)) for c in cs]
        assert all(u > v for u, v in zip(vals, vals[1:]))


def test_f_alpha_matches_naive_formula_midrange():
    for alpha in (0.2, 0.7):
        for c in (0.1, 1.0, 5.0):
            naive = math.cosh(alpha * c) / (
                alpha ** 2 * math.cosh(c) + 1.0 - alpha ** 2)
            assert f_alpha(alpha, c) == pytest.approx(naive, rel=1e-13)


def test_f_alpha_roundtrips():
    for alpha in (-0.8, -0.2, 0.3, 0.6, 0.9):
        for r in np.linspace(0.01, 0.99, 25):
            c = invert_f_alpha(alpha, float(r))
            assert f_alpha(alpha, c) == pytest.approx(r, rel=1e-12)
        for c0 in (0.5, 3.0, 12.0):
            r = f_alpha(alpha, c0)
            assert invert_f_alpha(alpha, r) == pytest.approx(c0, rel=1e-12)


def test_f_alpha_large_c_no_overflow():
    v = f_alpha(0.5, 1000.0)
    assert 0.0 < v < 1.0
    assert invert_f_alpha(0.5, v) == pytest.approx(1000.0, rel=1e-10)


# the targets of acceptance criterion 8, and Heinz/Heron ratios 1 / lambda
# with lambda - 1 down to 1e-15, where G = -log f_alpha is ~ c^4
_F_ALPHAS = [float(a) for a in np.linspace(-0.9, 0.9, 19) if abs(a) > 1e-12]
_F_RATIOS = ([float(r) for r in np.linspace(0.01, 0.99, 99)]
             + [1.0 / (1.0 + 10.0 ** e) for e in range(-15, -2)])


def _mp_f_alpha_root(mpmath, alpha, r, c):
    """The root of f_alpha(t) = r to 50 digits, by Newton on the log-space
    gap from the float root c, at 80 digits: where c is small, the gap
    cancels about 10 of them."""
    with mpmath.workdps(80):
        a, target, t = mpmath.mpf(alpha), -mpmath.log(mpmath.mpf(r)), mpmath.mpf(c)
        for _ in range(4):
            den = a * a * mpmath.cosh(t) + 1 - a * a
            gap = mpmath.log(den) - mpmath.log(mpmath.cosh(a * t)) - target
            step = gap / (a * a * mpmath.sinh(t) / den - a * mpmath.tanh(a * t))
            t -= step
        assert abs(step) <= mpmath.mpf(10) ** -50 * t
        return t


def test_invert_f_alpha_matches_a_50_digit_root():
    # the bisection of the log-space gap was off by 1.6e-2 at lambda - 1 = 1e-15
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for alpha in _F_ALPHAS:
        for r in _F_RATIOS:
            c = invert_f_alpha(alpha, r)
            exact = _mp_f_alpha_root(mpmath, alpha, r, c)
            worst = max(worst, float(abs(c - exact) / exact))
    assert worst <= 1e-13


@pytest.mark.parametrize("alpha", [1e-8, -1e-8, 1e-3, -1e-3, 0.999999, -0.999999])
def test_invert_f_alpha_round_trips_at_extreme_alphas(alpha):
    for c0 in (1e-6, 1e-3, 0.1, 1.0, 2.0, 2.001, 10.0, 100.0, 349.0, 351.0, 700.0, 1000.0):
        r = f_alpha(alpha, c0)
        if r == 0.0:    # f_alpha(1000) underflows for small alpha
            continue
        c = invert_f_alpha(alpha, r)
        assert abs(f_alpha(alpha, c) - r) <= 1e-12 * r


@pytest.mark.parametrize("alpha", [1e-200, -1e-200, 1e-160])
def test_f_alpha_and_its_inverse_at_tiny_alphas(alpha):
    # alpha^2 underflows: log(alpha^2) raised a bare ValueError past c = 350
    # for 1e-200, and 1e-160 read f_alpha(400) as 0
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        for c in (1.0, 349.0, 350.0, 400.0, 700.0, 921.0, 1000.0):
            want = mpmath.cosh(a * c) / (a * a * mpmath.cosh(c) + 1 - a * a)
            assert f_alpha(alpha, c) == pytest.approx(float(want), rel=1e-12)
    for r in (0.999, 0.5, 1e-3, 1e-100):
        c = invert_f_alpha(alpha, r)
        assert float(abs(c - _mp_f_alpha_root(mpmath, alpha, r, c))) <= 1e-13 * c
        assert f_alpha(alpha, c) == pytest.approx(r, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, -0.5, 0.99, -0.99, 0.999999, -0.999999])
def test_neg_log_f_alpha_past_c_2_matches_50_digits(alpha):
    # G = -log f_alpha formed as log D - log cosh(alpha c) lost about log D / G
    # past c = 2: 8.2e-14 at alpha = 0.99 and 8.2e-10 at 0.999999 on (2, 30]
    mpmath = pytest.importorskip("mpmath")
    a = abs(alpha)      # f_alpha is even in alpha
    with mpmath.workdps(50):
        m = mpmath.mpf(a)
        for c in [float(c) for c in np.linspace(2.0, 30.0, 57)[1:]] + [100.0, 700.0, 1e3, 1e4]:
            g = solvers_module._neg_log_f_alpha(a, c)[0]
            t = mpmath.mpf(c)
            exact = mpmath.log(m * m * mpmath.cosh(t) + 1 - m * m) - mpmath.log(mpmath.cosh(m * t))
            assert math.isfinite(g) and abs(g - exact) <= 1e-13 * exact, c


def test_invert_f_alpha_evaluates_g_a_few_times_per_target(monkeypatch):
    # Newton from the asymptotic start point: at most 8 evaluations of G per
    # target (6 measured), where bisecting to 1e-14 took about 50
    real, counts = solvers_module._neg_log_f_alpha, []

    def counting(a, c):
        counts[-1] += 1
        return real(a, c)

    monkeypatch.setattr(solvers_module, "_neg_log_f_alpha", counting)
    for alpha in _F_ALPHAS:
        for r in _F_RATIOS:
            counts.append(0)
            invert_f_alpha(alpha, r)
    assert 1 <= min(counts) and max(counts) <= 8


def test_f_alpha_validation():
    with pytest.raises(StructuralError):
        f_alpha(0.0, 1.0)
    with pytest.raises(StructuralError):
        f_alpha(1.0, 1.0)
    with pytest.raises(DomainError):
        f_alpha(0.5, -1.0)
    with pytest.raises(DomainError):
        invert_f_alpha(0.5, 0.0)
    with pytest.raises(DomainError):
        invert_f_alpha(0.5, 1.5)
    assert invert_f_alpha(0.5, 1.0) == 0.0


# ------------------------------------------------- scalar Heinz/Heron solving

def _heinz(s, x, y):
    return 0.5 * (x ** s * y ** (1.0 - s) + x ** (1.0 - s) * y ** s)


def _heron(w, x, y):
    return w * 0.5 * (x + y) + (1.0 - w) * math.sqrt(x * y)


def test_scalar_heinz_heron_roundtrip():
    for s in (0.1, 0.3, 0.7, 0.95):
        alpha2 = (2.0 * s - 1.0) ** 2
        for x0, y0 in ((0.5, 4.0), (2.0, 2.5), (1e-3, 10.0)):
            a = _heinz(s, x0, y0)
            b = _heron(alpha2, x0, y0)
            sol = solve_scalar_heinz_heron(s, a, b)
            assert sorted(sol) == pytest.approx(sorted((x0, y0)), rel=1e-10)


def test_scalar_heinz_heron_equal_targets_collapse():
    sol = solve_scalar_heinz_heron(0.3, 3.0, 3.0)
    assert sol.x == pytest.approx(3.0, rel=1e-14)
    assert sol.y == pytest.approx(3.0, rel=1e-14)
    assert sol.c == 0.0


def test_scalar_heinz_heron_ratio_past_the_float_range():
    # at c > 355 the solved ratio y / x = e^{2c} overflows, though x and y
    # are normal floats; the residual check must not form it
    a, b = f_alpha(0.8, 356.0) * 1e100, 1e100
    sol = solve_scalar_heinz_heron(0.9, a, b)
    assert sol.c > 355.0 and math.isinf(sol.y / sol.x)
    assert _heinz(0.9, sol.x, sol.y) == pytest.approx(a, rel=1e-10)
    assert _heron(0.64, sol.x, sol.y) == pytest.approx(b, rel=1e-10)


def test_scalar_heinz_heron_target_ratio_below_the_float_range():
    # a / b underflows to 0, which is no ratio in (0, 1]: the solution, as
    # at 1e-150 and 1e150, leaves the representable range
    with pytest.raises(ConvergenceError, match=r"1e-300 / 1e\+300 underflows"):
        solve_scalar_heinz_heron(0.25, 1e-300, 1e300)


def test_scalar_heinz_heron_tiny_x_below_the_exponential_range():
    # c = 399.9: e^{-c} underflows to 0, though x = 8.6e-248 is a normal float
    s, a, b = 0.995, 1.87e98, 1e100
    sol = solve_scalar_heinz_heron(s, a, b)
    assert sol.c > 399.0 and 1e-250 < sol.x < 1e-245
    assert _heinz(s, sol.x, sol.y) == pytest.approx(a, rel=1e-10)
    assert _heron((2.0 * s - 1.0) ** 2, sol.x, sol.y) == pytest.approx(b, rel=1e-10)


def test_scalar_heinz_heron_x_keeps_its_digits_past_a_subnormal_exponential():
    # c = 365: e^{-c} / d = 2.9e-317 is subnormal, and x = b e^{-c} / d built
    # from it missed the 1e-10 residual check
    a, b = f_alpha(0.8, 365.0) * 1e100, 1e100
    sol = solve_scalar_heinz_heron(0.9, a, b)
    assert sol.c == pytest.approx(365.0, rel=1e-12)
    assert _heinz(0.9, sol.x, sol.y) == pytest.approx(a, rel=1e-10)
    assert _heron(0.64, sol.x, sol.y) == pytest.approx(b, rel=1e-10)


def test_scalar_heinz_heron_validation():
    with pytest.raises(StructuralError):
        solve_scalar_heinz_heron(0.5, 1.0, 2.0)
    with pytest.raises(StructuralError):
        solve_scalar_heinz_heron(1.2, 1.0, 2.0)
    with pytest.raises(OrderError):
        solve_scalar_heinz_heron(0.3, 2.0, 1.0)
    with pytest.raises(StructuralError):
        solve_scalar_heinz_heron(0.3, -1.0, 1.0)


# -------------------------------------------------- geometric/Heinz ratio map

def test_geom_heinz_ratio_hand_value():
    # s = 3/4: ratio sech(log(x)/4); at x = 1/16 that is sech(log 2) = 4/5
    assert geom_heinz_ratio(0.75, 1.0 / 16.0) == pytest.approx(0.8, rel=1e-14)
    assert invert_geom_heinz_ratio(0.75, 0.8) == pytest.approx(1.0 / 16.0,
                                                               rel=1e-14)


def test_geom_heinz_ratio_roundtrips():
    for s in (0.05, 0.3, 0.6, 0.95):
        for r in np.linspace(0.01, 0.99, 25):
            x = invert_geom_heinz_ratio(s, float(r))
            assert 0.0 < x <= 1.0
            assert geom_heinz_ratio(s, x) == pytest.approx(r, rel=1e-12)


def test_geom_heinz_ratio_at_one():
    assert geom_heinz_ratio(0.3, 1.0) == 1.0
    assert invert_geom_heinz_ratio(0.3, 1.0) == 1.0


def test_geom_heinz_ratio_validation():
    with pytest.raises(StructuralError):
        geom_heinz_ratio(0.5, 0.3)
    with pytest.raises(DomainError):
        geom_heinz_ratio(0.3, -2.0)
    with pytest.raises(DomainError):
        invert_geom_heinz_ratio(0.3, 0.0)


# ------------------------------------------------------ matrix target solvers

def _random_ordered_targets(kind, s, seed, n):
    rng = np.random.default_rng(seed)
    a = random_spd(n, cond_cap=20.0, seed=seed).entries
    bump = rng.standard_normal((n, n))
    b = a + (bump @ bump.T) / n
    if kind == "heinz-heron":
        x = eval_mean(a, b, MeanDescriptor.heinz(s))
        y = eval_mean(a, b, MeanDescriptor.heron((2.0 * s - 1.0) ** 2))
    else:
        x = eval_mean(a, b, GEO)
        y = eval_mean(a, b, MeanDescriptor.heinz(s))
    return x, y


def test_heinz_heron_matrix_reproduces_targets():
    for k, s in enumerate((0.1, 0.3, 0.7)):
        x, y = _random_ordered_targets("heinz-heron", s, 300 + k, 3)
        w = solve_heinz_heron_matrix(s, x, y)
        heinz = eval_mean(w.matrix_a, w.matrix_b, MeanDescriptor.heinz(s))
        heron = eval_mean(w.matrix_a, w.matrix_b,
                          MeanDescriptor.heron((2.0 * s - 1.0) ** 2))
        assert np.linalg.norm(heinz - x) <= 1e-7 * np.linalg.norm(x)
        assert np.linalg.norm(heron - y) <= 1e-7 * np.linalg.norm(y)


@pytest.mark.parametrize("gap", [1e-15, 1e-12, 1e-10])
def test_heinz_heron_matrix_with_relative_eigenvalues_near_one(gap):
    # lambda - 1 < 1e-9 in every direction, where G = -log f_alpha ~ c^4 is tiny
    q = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))[0]
    x = (q * [1.0, 2.0, 5.0]) @ q.T
    y = (q * (np.array([1.0, 2.0, 5.0]) * (1.0 + gap * np.array([1.0, 3.0, 7.0])))) @ q.T
    for s in (0.1, 0.3, 0.7):
        w = solve_heinz_heron_matrix(s, x, y)
        assert w.residual_x <= 1e-7 and w.residual_y <= 1e-7


def test_geom_heinz_matrix_reproduces_targets():
    for k, s in enumerate((0.2, 0.7, 0.9)):
        x, y = _random_ordered_targets("geom-heinz", s, 400 + k, 3)
        w = solve_geom_heinz_matrix(s, x, y)
        geo = eval_mean(w.matrix_a, w.matrix_b, GEO)
        heinz = eval_mean(w.matrix_a, w.matrix_b, MeanDescriptor.heinz(s))
        assert np.linalg.norm(geo - x) <= 1e-7 * np.linalg.norm(x)
        assert np.linalg.norm(heinz - y) <= 1e-7 * np.linalg.norm(y)


@pytest.mark.parametrize("s", [0.1, 0.25, 0.7, 0.9])
def test_geom_heinz_closed_form_matches_the_newton_pair_solve(s):
    # one problem, two paths to the hyperbolic-secant inverse, both on the
    # branch A >= B: solve_geom_heinz_matrix's own, and solve_matrix_pair's
    # closed-form realize_inverse of Heinz_s (no Newton iteration runs). The
    # tolerance stays: bitwise equality would assume numpy's ** rounds alike
    # for every array length on every host
    x, y = _random_ordered_targets("geom-heinz", s, 500, 3)
    closed = solve_geom_heinz_matrix(s, x, y)
    newton = solve_matrix_pair(MeanDescriptor.heinz(s), x, y)
    for got, want in ((closed.matrix_a, newton.matrix_a), (closed.matrix_b, newton.matrix_b)):
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_geom_heinz_matrix_keeps_the_scan_horizon():
    # near s = 1/2 the Heinz realize map cosh((1 - 2s) log t) grows so slowly
    # that the roots of 1.2, 3 and 1000 lie past 1e40 (or past the float
    # range): out of range, as for solve_matrix_pair, not a non-finite witness
    x = random_spd(3, cond_cap=10.0, seed=4).entries
    root = spd_module.sqrt_pair(x)[0]
    y = root @ np.diag([1.2, 3.0, 1000.0]) @ root
    for solve in (lambda: solve_geom_heinz_matrix(0.499, x, y),
                  lambda: solve_matrix_pair(MeanDescriptor.heinz(0.499), x, y)):
        with pytest.raises(OutOfRangeError, match="horizon"):
            solve()


def test_matrix_target_solvers_identity_oracle():
    # X = I, Y = 1.25 I with s = 3/4: per-eigenvalue ratio 0.8 inverts to
    # x = 1/16 scaled by Y, so the solved pair is simultaneously diagonal
    y = 1.25 * np.eye(2)
    x = np.eye(2) * 1.25 * 0.8
    w = solve_geom_heinz_matrix(0.75, x, y)
    ratio = 1.0 / 16.0
    d = 0.5 * (ratio ** 0.75 + ratio ** 0.25)
    assert np.max(np.abs(w.matrix_a - 1.25 / d * np.eye(2))) <= 1e-10
    assert np.max(np.abs(w.matrix_b - 1.25 * ratio / d * np.eye(2))) <= 1e-10


def test_matrix_target_solvers_require_order():
    with pytest.raises(OrderError):
        solve_heinz_heron_matrix(0.3, 2.0 * np.eye(2), np.eye(2))
    with pytest.raises(OrderError):
        solve_geom_heinz_matrix(0.3, 2.0 * np.eye(2), np.eye(2))


@pytest.mark.parametrize("solver", [solve_heinz_heron_matrix, solve_geom_heinz_matrix])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_matrix_target_order_check_is_scale_invariant(solver, scale):
    # X <= Y is judged on the relative spectrum of (X, Y) alone
    # (solvers._ordered_spectrum), so the answer cannot depend on the scale
    # of the pair
    y = scale * np.eye(2)
    w = solver(0.25, y * (1.0 + 5e-10), y)
    assert w.residual_x <= 1e-9 and w.residual_y <= 1e-9
    with pytest.raises(OrderError):
        solver(0.25, y * (1.0 + 1e-8), y)


def test_matrix_target_solvers_equal_targets():
    # the ratio map is quartically flat at equal targets, so the solved pair
    # is only determined to ~eps^(1/4); the targets themselves still
    # reproduce to machine precision
    x = random_spd(3, seed=9).entries
    w = solve_heinz_heron_matrix(0.3, x, x.copy())
    assert w.residual_x <= 1e-12 and w.residual_y <= 1e-12
    heinz = eval_mean(w.matrix_a, w.matrix_b, MeanDescriptor.heinz(0.3))
    assert np.linalg.norm(heinz - x) <= 1e-12 * np.linalg.norm(x)
    assert np.linalg.norm(w.matrix_a - x) <= 1e-2 * np.linalg.norm(x)


@pytest.mark.parametrize("s, y", [(0.01, np.diag([2.0, 1e8])), (5e-17, np.diag([2.0, 3.0]))])
def test_heinz_heron_pair_past_the_float_range_raises_what_the_scalar_solver_does(s, y):
    # u = e^{-2c} of the largest eigenvalue underflows to 0; no warning, and the
    # scalar solver of that eigenvalue names the same c
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="left the representable range") as matrix:
            solve_heinz_heron_matrix(s, np.eye(2), y)
    with pytest.raises(ConvergenceError) as scalar:
        solve_scalar_heinz_heron(s, 1.0, float(y.max()))
    assert str(matrix.value) == str(scalar.value)


def test_heinz_heron_solvers_reject_an_s_whose_alpha_rounds_to_minus_one():
    x, y = np.eye(2), np.diag([2.0, 3.0])
    for solve in (lambda: solve_heinz_heron_matrix(1e-300, x, y),
                  lambda: solve_scalar_heinz_heron(1e-300, 1.0, 2.0)):
        with pytest.raises(StructuralError, match=r"s = 1e-300 is too close to 0"):
            solve()
    # the geometric/Heinz maps never form alpha = 2s - 1 and keep answering
    assert geom_heinz_ratio(1e-300, 0.25) == pytest.approx(0.8)
    assert invert_geom_heinz_ratio(1e-300, 0.8) == pytest.approx(0.25)
    assert solve_geom_heinz_matrix(1e-300, x, y).residual_y <= 1e-12


# ------------------------------------------ Y validated without its eigensolve

_TARGET_SOLVERS = {
    "pair": lambda x, y: solve_matrix_pair(ARITH, x, y),
    "chain": lambda x, y: build_monotone_chain(ARITH, x, y),
    "heinz-heron": lambda x, y: solve_heinz_heron_matrix(0.3, x, y),
    "geom-heinz": lambda x, y: solve_geom_heinz_matrix(0.3, x, y)}


def _outcome(call):
    """A call's error as a (type, message) tuple, or its result's arrays and numbers as a list."""
    try:
        out = call()
    except Exception as exc:
        return type(exc), str(exc)
    chain = not isinstance(out, PairWitness)
    return ([*out.links, out.gamma0] if chain else []) + [
        x for w in (out.pair_witnesses if chain else [out])
        for x in (w.matrix_a, w.matrix_b, w.residual_x, w.residual_y)]


def _same(got, want) -> bool:
    if isinstance(got, tuple) or isinstance(want, tuple):
        return got == want
    return len(got) == len(want) and all(map(np.array_equal, got, want))


def _judged_by_as_spd(solve, x, y):
    """The reference: Y validated, and decomposed, by as_spd before the solve."""
    try:
        ys = as_spd(y, "Y")
    except StructuralError as exc:
        return StructuralError, str(exc)
    return _outcome(lambda: solve(x, ys))


def _rotated(values, seed):
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(values),) * 2))[0]
    return (q * np.asarray(values)) @ q.T


_TINY = 1e-300 * np.eye(2)      # SPD, but Y / 1e-300 overflows in the relative spectrum


@pytest.mark.parametrize("solver", _TARGET_SOLVERS)
@pytest.mark.parametrize("x, y", [
    (np.eye(2), np.ones((2, 3))), (np.eye(2), np.ones((2, 2, 2))), (np.eye(2), 3.0),
    (np.eye(2), np.zeros((0, 0))), (np.eye(2), [[1.0, np.nan], [np.nan, 1.0]]),
    (np.eye(2), [[2.0, 1.0], [0.0, 2.0]]), (np.eye(2), np.diag([1.0, -1.0])),
    (np.eye(2), np.diag([1.0, 1e-13])), (np.eye(2), np.diag([1.0, 0.0, 2.0])),
    (_TINY, np.diag([1e10, -1e10])), (_TINY, np.diag([1e10, 0.0]))],
    ids=["non-square", "stack", "scalar", "empty", "nan", "asymmetric", "indefinite",
         "below-floor", "mismatch-not-pd", "overflow-indefinite", "overflow-singular"])
def test_invalid_y_raises_as_spds_error(solver, x, y):
    with pytest.raises(StructuralError) as want:
        as_spd(y, "Y")
    with pytest.raises(StructuralError) as got:
        _TARGET_SOLVERS[solver](x, y)
    assert str(got.value) == str(want.value)
    # X's own error comes first
    with pytest.raises(StructuralError, match="^X: SpdMatrix is not symmetric"):
        _TARGET_SOLVERS[solver]([[2.0, 1.0], [0.0, 2.0]], y)


def test_chain_raises_gamma0s_error_before_ys_and_ys_before_the_spectrums():
    with pytest.raises(OutOfRangeError, match="^gamma0 = 0.5 must lie"):
        build_monotone_chain(ARITH, np.eye(2), np.diag([1.0, -1.0]), gamma0=0.5)
    with pytest.raises(OutOfRangeError, match="^gamma0 = 0.5 must lie"):
        build_monotone_chain(ARITH, np.eye(2), 2.0 * np.eye(3), gamma0=0.5)
    with pytest.raises(OutOfRangeError, match="^gamma0 = 0.5 must lie"):
        build_monotone_chain(ARITH, _TINY, 1e10 * np.eye(2), gamma0=0.5)
    with pytest.raises(StructuralError, match="^Y: matrix is not positive definite"):
        build_monotone_chain(ARITH, np.eye(2), np.diag([1.0, -1.0, 2.0]))
    with pytest.raises(StructuralError, match=r"^shape mismatch: \(2, 2\) vs \(3, 3\)"):
        build_monotone_chain(ARITH, np.eye(2), 2.0 * np.eye(3))


_BAD_PARAMETER = {
    "pair": (lambda x, y: solve_matrix_pair("arithmetic", x, y), StructuralError,
             "^mean must be a MeanDescriptor, got str$"),
    "chain": (lambda x, y: build_monotone_chain(HARM, x, y), UnsupportedMeanError,
              "^chain construction needs gamma > 1"),
    "heinz-heron": (lambda x, y: solve_heinz_heron_matrix(0.5, x, y), StructuralError,
                    "^s = 1/2 is degenerate"),
    "geom-heinz": (lambda x, y: solve_geom_heinz_matrix(0.5, x, y), StructuralError,
                   "^s = 1/2 is degenerate")}


@pytest.mark.parametrize("solver", _TARGET_SOLVERS)
def test_solvers_check_parameters_then_x_then_y_then_the_spectrum(solver, monkeypatch):
    bad_x, bad_y = np.diag([1.0, -1.0]), np.diag([1.0, -1.0, 2.0])
    call, error, message = _BAD_PARAMETER[solver]
    matrices = _count_eigensolved_matrices(monkeypatch)
    with pytest.raises(error, match=message):
        call(bad_x, bad_y)
    assert matrices == []       # X is not even decomposed
    solve = _TARGET_SOLVERS[solver]
    with pytest.raises(StructuralError, match="^X: matrix is not positive definite"):
        solve(bad_x, bad_y)
    # Y's floor error comes before a shape mismatch and before an overflow
    for x, y in ((np.eye(2), bad_y), (_TINY, np.diag([1e10, -1e10]))):
        with pytest.raises(StructuralError, match="^Y: matrix is not positive definite"):
            solve(x, y)


@pytest.mark.parametrize("solver", _TARGET_SOLVERS)
def test_y_whose_relative_spectrum_overflows_raises_the_spectrums_error(solver):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ConditioningError, match="non-finite entries"):
            _TARGET_SOLVERS[solver](_TINY, 1e10 * np.eye(2))


@pytest.mark.parametrize("solver", _TARGET_SOLVERS)
@pytest.mark.parametrize("x, y", [
    (np.eye(2), _rotated([1.0, 1e-15], 1)),               # kappa(Z) 1e15, below the floor
    (_rotated([1e-11, 1.0], 2), _rotated([1.0, 1e-4], 3)),    # kappa(Z) ~ 1e15, SPD
    (np.diag([1.0, 1e-3]), _rotated([1.5e-12, 1.0], 4)),  # just above the floor
    (np.diag([1.0, 1e-3]), _rotated([0.9e-12, 1.0], 5)),  # just below it
    (np.eye(3), _rotated([2.0, 3.0, 5.0], 6))],
    ids=["not-pd-1e15", "pd-1e15", "above-floor", "below-floor", "well-conditioned"])
def test_ill_conditioned_y_is_judged_as_by_as_spd(solver, x, y):
    solve = _TARGET_SOLVERS[solver]
    assert _same(_outcome(lambda: solve(x, y)), _judged_by_as_spd(solve, x, y))


def test_y_is_proven_positive_definite_only_when_as_spd_accepts_it(monkeypatch):
    # Y near the floor, against X of condition up to 1e6: every Y the
    # spectral bound proves SPD must pass as_spd, and the rest get its
    # verdict from SpdMatrix's floor test, the fallback counted here
    fallbacks = []
    real = spd_module._above_floor
    monkeypatch.setattr(spd_module, "_above_floor", lambda a: fallbacks.append(1) or real(a))
    rng = np.random.default_rng(3636)
    proven = accepted = 0
    for k in range(400):
        n = 2 + k % 5
        x = random_spd(n, cond_cap=10.0 ** float(rng.uniform(0.0, 6.0)), seed=k).entries
        low = 10.0 ** float(rng.uniform(-13.0, -10.0))
        y = _rotated(np.concatenate(([low], rng.uniform(0.2, 1.0, n - 1))), 5000 + k)
        xs = as_spd(x, "X")
        try:
            want = as_spd(y, "Y").entries
        except StructuralError as exc:
            with pytest.raises(StructuralError) as info:
                spd_module._spd_relative_spectrum(xs, y)
            assert str(info.value) == str(exc)
            continue
        fallbacks.clear()
        ya, spectrum = spd_module._spd_relative_spectrum(xs, y)[1:]
        assert np.array_equal(ya, want) and spectrum is not None
        proven += not fallbacks
        accepted += 1
    assert 40 <= proven <= accepted - 40 and accepted <= 360


def test_solver_parameters_must_be_real_numbers():
    # float() alone solved for s = "0.25" and built a chain at gamma0 = "2"
    x = np.eye(2)
    y = np.diag([2.0, 3.0])
    for solver in (solve_heinz_heron_matrix, solve_geom_heinz_matrix):
        for s in ("0.25", True, None):
            with pytest.raises(StructuralError) as info:
                solver(s, x, y)
            assert str(info.value) == f"s must be a real number, got {s!r}"
    for call in (geom_heinz_ratio, invert_geom_heinz_ratio):
        with pytest.raises(StructuralError, match="s must be a real number, got '0.25'"):
            call("0.25", 0.5)
    for gamma0 in ("2", True):
        with pytest.raises(StructuralError) as info:
            build_monotone_chain(MeanDescriptor.arithmetic(), x, y, gamma0=gamma0)
        assert str(info.value) == f"gamma0 must be a real number, got {gamma0!r}"
    chain = build_monotone_chain(MeanDescriptor.arithmetic(), x, y, gamma0=np.float64(2.0))
    assert chain.gamma0 == 2.0
    assert solve_heinz_heron_matrix(np.float64(0.25), x, y).matrix_a.shape == (2, 2)


@pytest.mark.parametrize("solver", _TARGET_SOLVERS)
def test_witness_past_the_float_range_raises_a_convergence_error(solver):
    # the relative spectrum and its roots are finite, but the witness A =
    # X^{1/2} diag(t) X^{1/2} overflows: no warning, and no error naming a
    # matrix the caller never passed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="^solution left the representable range"):
            _TARGET_SOLVERS[solver](1e300 * np.eye(2), np.diag([1.7e308, 3e300]))


@pytest.mark.parametrize("solver", _TARGET_SOLVERS)
def test_y_whose_norm_overflows_is_refused_with_that_reason(solver):
    with pytest.raises(StructuralError, match=r"^Y: matrix norm \|\|M\|\|_F exceeds the float range$"):
        _TARGET_SOLVERS[solver](np.eye(2), 1.7e308 * np.eye(2))


@pytest.mark.parametrize("solver", _TARGET_SOLVERS)
def test_matrix_solvers_check_x_and_y_once_and_never_their_witnesses(monkeypatch, solver):
    # X by as_spd, Y by _symmetric_entries; the relative spectra of (X, Y) and
    # of the witness pairs, congruated exactly symmetric and tested finite,
    # take them unchecked
    x, y = (_rotated(values, 7) for values in ([1.0, 2.0, 3.0], [2.0, 3.0, 5.0]))
    x, y = 0.5 * (x + x.T), 0.5 * (y + y.T)     # exactly symmetric
    seen = {}
    for check in ("_as_array", "_check_symmetric"):
        log, real = seen.setdefault(check, []), getattr(spd_module, check)

        def recording(m, *args, log=log, real=real, **kwargs):
            a = np.asarray(m.entries if isinstance(m, SpdMatrix) else m, dtype=float)
            log.append("X" if np.array_equal(a, x) else "Y" if np.array_equal(a, y) else "other")
            return real(m, *args, **kwargs)

        monkeypatch.setattr(spd_module, check, recording)
    _TARGET_SOLVERS[solver](x, y)
    assert seen == {"_as_array": ["X", "Y"], "_check_symmetric": ["X", "Y"]}
