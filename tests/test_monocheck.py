"""Loewner-matrix monotonicity testing and inequality-chain verification."""
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opmeans import (ConditioningError, DomainError, HDensity, MeanDescriptor, MonoConfig,
                     StructuralError, UsageError, apply_spectral_function, falsify_transfer,
                     ka_condition_check, is_operator_monotone_sampled, loewner_leq, loewner_matrix,
                     order_leq_sa, order_leq_sym, parse_function, random_spd,
                     verify_inequality_chain)
from opmeans.means import (arithmetic_pair, eval_mean_from_function, geometric_pair,
                           heinz_pair, heron_pair, representing_function)
from opmeans import monocheck
from opmeans.errors import DOMAIN_ERRORS
from opmeans.monocheck import _ULPS, _difference_rounding_bound, _scalar_chain_margin

import om_grammar

EPS = float(np.finfo(float).eps)


def test_loewner_hand_computed_sqrt():
    got = loewner_matrix([1.0, 4.0], np.sqrt, fprime=lambda t: 0.5 / np.sqrt(t))
    expect = np.array([[0.5, 1.0 / 3.0], [1.0 / 3.0, 0.25]])
    assert np.max(np.abs(got - expect)) <= 1e-14
    assert np.linalg.det(got) > 0.0       # 1/8 - 1/9 > 0, PSD


def test_loewner_hand_computed_square():
    got = loewner_matrix([0.0, 1.0], lambda t: t * t, fprime=lambda t: 2.0 * t)
    expect = np.array([[0.0, 1.0], [1.0, 2.0]])
    assert np.max(np.abs(got - expect)) <= 1e-14
    assert np.linalg.det(got) == pytest.approx(-1.0, abs=1e-14)


def test_loewner_central_difference_diagonal_close():
    got = loewner_matrix([1.0, 4.0], np.sqrt)
    assert got[0, 0] == pytest.approx(0.5, rel=1e-9)
    assert got[1, 1] == pytest.approx(0.25, rel=1e-9)


def test_loewner_identity_is_all_ones():
    got = loewner_matrix([0.5, 1.0, 7.0], lambda t: t)
    assert np.allclose(got, np.ones((3, 3)), atol=1e-12)


def test_loewner_uses_analytic_derivative_when_given():
    got = loewner_matrix([2.0], np.sqrt, fprime=lambda t: 0.5 / np.sqrt(t))
    assert got[0, 0] == pytest.approx(0.5 / math.sqrt(2.0), rel=1e-15)


def test_loewner_rejects_duplicates_and_handles_empty():
    with pytest.raises(StructuralError):
        loewner_matrix([1.0, 1.0], np.sqrt)
    assert loewner_matrix([], np.sqrt).shape == (0, 0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: rounding error in a parsed expression reads as a "
                          "refutation until refutations are checked at high precision")
def test_no_expression_of_the_monotone_grammar_is_refuted():
    # a seeded batch, never re-seeded, and the expressions earlier runs found
    rng = np.random.default_rng(0)
    batch = [om_grammar.monotone(rng)[0] for _ in range(150)]
    assert om_grammar.refuted(batch + om_grammar.PINNED) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_loewner_rejects_non_finite_points_before_calling_f(bad):
    # NaN passed the distinct-points test, and f made a NaN matrix with warnings
    calls = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructuralError, match="^Loewner matrix needs finite points$"):
            loewner_matrix([1.0, bad], lambda t: calls.append(t) or np.sqrt(t))
    assert calls == []


def test_vectorized_function_is_called_on_whole_point_sets():
    calls = []

    def f(t):
        calls.append(np.ndim(t))
        return np.sqrt(t)

    def fprime(t):
        calls.append(np.ndim(t))
        return 0.5 / np.sqrt(t)

    for deriv in (None, fprime):
        calls.clear()
        loewner_matrix([0.5, 1.0, 7.0], f, deriv, with_error=True)
        assert 1 <= len(calls) <= 2 and set(calls) == {1}
        calls.clear()
        verdict = is_operator_monotone_sampled(f, deriv, MonoConfig(trials=20))
        assert len(calls) <= 2 * verdict.trials_run


def test_scalar_only_functions_match_their_array_form_bitwise():
    pts = np.logspace(-3.0, 3.0, 9)
    for deriv, scalar_deriv in ((None, None),
                                (lambda t: 0.5 / np.sqrt(t), lambda t: 0.5 / math.sqrt(t))):
        want = loewner_matrix(pts, np.sqrt, deriv)
        for f in (math.sqrt, parse_function("sqrt(t)")):
            assert np.array_equal(loewner_matrix(pts, f, scalar_deriv), want)


MONOTONE = [np.sqrt, lambda t: t, lambda t: 2.0 * t / (1.0 + t),
            lambda t: t ** 0.3, lambda t: 0.5 * (t ** 0.25 + t ** 0.75)]
NOT_MONOTONE = [lambda t: t * t, lambda t: t ** 3,
                lambda t: (math.exp(t) - 1.0) / (math.e - 1.0)]


def test_sampled_monotonicity_calibration():
    cfg = MonoConfig(trials=60, seed=0)
    for f in MONOTONE:
        verdict = is_operator_monotone_sampled(f, config=cfg)
        assert verdict.status == "consistent", f
    for f in NOT_MONOTONE:
        verdict = is_operator_monotone_sampled(f, config=cfg)
        assert verdict.status == "refuted", f
        assert verdict.witness is not None


@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e-170, 1e-300])
def test_sampled_verdicts_do_not_depend_on_the_scale_of_f(scale):
    # Loewner matrices of scale * f have norms whose squares underflow below
    # about 1e-162: the norm must not read 0, or rounding noise refutes
    cfg = MonoConfig(seed=0)
    for f in (np.sqrt, lambda t: t / (1.0 + t)):
        verdict = is_operator_monotone_sampled(lambda t: scale * f(t), None, cfg)
        assert verdict.status == "consistent"
        assert verdict.trials_run == is_operator_monotone_sampled(f, None, cfg).trials_run
    verdict = is_operator_monotone_sampled(lambda t: scale * t * t, None, cfg)
    assert verdict.status == "refuted" and verdict.trials_run == 1


def test_the_sampler_does_not_import_numpy_ma():
    # numpy 2.4's np.unique imports numpy.ma on its first call, a cost of
    # every cold start; the sampler plans and deduplicates its sets without it
    src = str(Path(monocheck.__file__).resolve().parents[1])
    code = ("import sys, numpy; before = 'numpy.ma' in sys.modules; "
            "from opmeans import MonoConfig, is_operator_monotone_sampled; "
            "is_operator_monotone_sampled(numpy.sqrt, None, MonoConfig(trials=20, seed=0)); "
            "print(before, 'numpy.ma' in sys.modules)")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    before, after = proc.stdout.split()
    if before == "True":
        pytest.skip("import numpy alone loads numpy.ma here")
    assert after == "False"


def _ulp_noise(base, ulps):
    """base(t) with a deterministic relative perturbation of up to `ulps` ulps."""
    def noisy(t):
        u = (hash(float(t)) % 2001 - 1000) / 1000.0     # float hashes are unsalted
        return base(t) * (1.0 + ulps * EPS * u)
    return noisy


def test_ulp_noise_does_not_refute_monotone_functions():
    # 100 + log1p(t) is operator monotone with |f| >> |t f'(t)|, so a few ulps
    # of f divided by a near-collision gap dwarf tol * ||L||, even for the
    # unperturbed function; only the rounding bound keeps that from refuting
    ulps = 4.0
    assert ulps < _ULPS
    cfg = MonoConfig(trials=60, seed=0)
    flat = lambda t: 100.0 + math.log1p(t)
    flat_prime = lambda t: 1.0 / (1.0 + t)
    cases = [(flat, None), (flat, flat_prime),
             (_ulp_noise(flat, ulps), None), (_ulp_noise(flat, ulps), flat_prime),
             (_ulp_noise(lambda t: 2.0 * t / (1.0 + t), ulps), None),
             (_ulp_noise(lambda t: 1e3 + t, ulps), lambda t: 1.0)]
    for k, (f, fprime) in enumerate(cases):
        assert is_operator_monotone_sampled(f, fprime, cfg).status == "consistent", k


def test_barely_superlinear_powers_still_refuted():
    # the rounding bound must not swallow real witnesses
    for p in (1.01, 1.05):
        f = lambda t, p=p: t ** p
        fprime = lambda t, p=p: p * t ** (p - 1.0)
        for cfg in (MonoConfig(), MonoConfig(trials=20, seed=0)):
            for deriv in (None, fprime):
                verdict = is_operator_monotone_sampled(f, deriv, cfg)
                assert verdict.status == "refuted", (p, cfg, deriv)


def test_loewner_error_bound_covers_near_collision_rounding():
    mpmath = pytest.importorskip("mpmath")
    x = 10.0 ** -2.5
    pts = [x / 10.0, x, x * (1.0 + 3e-6), x * 10.0]
    f = lambda t: 100.0 + math.log1p(t)
    fprime = lambda t: 1.0 / (1.0 + t)
    mat, err = loewner_matrix(pts, f, fprime, with_error=True)
    with mpmath.workdps(50):
        for i, xi in enumerate(map(mpmath.mpf, pts)):
            for j, xj in enumerate(map(mpmath.mpf, pts)):
                exact = (1 / (1 + xi) if i == j else
                         (mpmath.log1p(xi) - mpmath.log1p(xj)) / (xi - xj))
                assert abs(mat[i, j] - float(exact)) <= err[i, j], (i, j)
    # the near-collision entry is where the float matrix is inexact
    assert err[1, 2] > 1e-8 * np.linalg.norm(mat)


def test_refutation_witness_reverifies():
    verdict = is_operator_monotone_sampled(lambda t: t * t,
                                           config=MonoConfig(trials=40, seed=5))
    w = verdict.witness
    fresh = loewner_matrix(w.points, lambda t: t * t)
    eigs = np.linalg.eigvalsh(fresh)
    assert eigs.min() < -1e-8 * np.linalg.norm(fresh)


@pytest.mark.parametrize("sizes", [(2, 3, 4, 6), (2, 3, 4)])
def test_random_point_sets_keep_the_choice_and_unique_stream(sizes):
    # the reference draw the sampler's random stage must reproduce bitwise
    log_lo, log_hi = np.log(1e-3), np.log(1e3)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        want = []
        for _ in range(40):
            pts = np.unique(np.exp(rng.uniform(log_lo, log_hi, int(rng.choice(sizes)))))
            if pts.size >= 2:
                want.append(pts)
        config = MonoConfig(sizes=sizes, trials=40, seed=seed)
        got = monocheck._random_sets(config)
        assert [p.tobytes() for p in got] == [p.tobytes() for p in want]


def test_random_point_sets_drop_coinciding_points(monkeypatch):
    class Coinciding:
        def __init__(self, seed):
            self.draws = iter(([0.5, 0.5, 0.1], [0.2, 0.2, 0.2]))

        def integers(self, high):
            return 0

        def uniform(self, low, high, size):
            return np.array(next(self.draws))

    monkeypatch.setattr(np.random, "default_rng", Coinciding)
    config = MonoConfig(sizes=(3,), trials=2)
    got = monocheck._random_sets(config)
    assert [p.tolist() for p in got] == [np.exp([0.1, 0.5]).tolist()]


def test_f_writing_into_its_points_leaves_later_checks_alone():
    config = MonoConfig(trials=40, seed=5)
    before = [is_operator_monotone_sampled(g, config=config) for g in (np.sqrt, lambda t: t ** 3)]

    calls = []

    def scribble(t):
        calls.append(np.ndim(t))
        t *= 3.0
        return t

    # f writes into a copy of the points, so it still runs once per stage:
    # the grids, then the structured and random sets together
    assert is_operator_monotone_sampled(scribble, config=config).status == "consistent"
    assert calls == [1, 1]
    after = [is_operator_monotone_sampled(g, config=config) for g in (np.sqrt, lambda t: t ** 3)]
    assert after == before and after[1].refuted


def test_cached_plans_are_read_only():
    for plan in (monocheck._grid_plan(MonoConfig().grids, False),
                 monocheck._grid_plan(MonoConfig().grids, True)):
        arrays = [plan.trial, plan.x, plan.lengths, plan.starts, *plan.sets,
                  *(a for _, geometry in plan.groups for a in geometry)]
        assert not any(a.flags.writeable for a in arrays)
    assert not any(pts.flags.writeable for pts in monocheck._STRUCTURED)


def test_fixed_point_sets_are_planned_once(monkeypatch):
    shapes = []

    def counted(pts, derivative):
        shapes.append(pts.shape)
        return geometry(pts, derivative)

    geometry = monocheck._loewner_geometry
    monkeypatch.setattr(monocheck, "_loewner_geometry", counted)
    first = is_operator_monotone_sampled(np.sqrt, config=MonoConfig(
        grids=((3e-2, 3e1, 7),), trials=30, seed=5))
    assert (1, 7) in shapes
    shapes.clear()
    # the same grids, given as a list: only the structured and random sets
    # get a geometry
    second = is_operator_monotone_sampled(np.sqrt, config=MonoConfig(
        grids=[[3e-2, 30, 7]], trials=30, seed=6))
    assert first.trials_run == second.trials_run == 1 + 29 + 30
    assert sum(shape[0] for shape in shapes) == 29 + 30
    assert {shape[-1] for shape in shapes} <= {2, 3, 4, 6}


def test_monotone_in_point_count_submatrix_property():
    # a refuting point set keeps refuting when points are added
    base = [0.5, 1.0]
    f = lambda t: t * t
    small = loewner_matrix(base, f)
    assert np.linalg.eigvalsh(small).min() < 0.0
    for extra in ([2.0], [2.0, 9.0], [0.1, 3.3, 50.0]):
        big = loewner_matrix(base + extra, f)
        assert np.linalg.eigvalsh(big).min() <= np.linalg.eigvalsh(small).min() * 0 + 0.0
        assert np.linalg.eigvalsh(big).min() < 0.0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2,
                max_size=6, unique=True))
# two floats 1.4e-14 apart, where the difference quotient of sqrt loses
# every digit
@example([3.0, 100.0, 99.99999999999999])
def test_property_sqrt_loewner_always_psd(points):
    got = loewner_matrix(points, np.sqrt,
                         fprime=lambda t: 0.5 / np.sqrt(t))
    eigs = np.linalg.eigvalsh(got)
    assert eigs.min() >= -1e-10 * max(1.0, np.linalg.norm(got))


def test_falsify_transfer_finds_square_witness():
    verdict = falsify_transfer(lambda t: t * t, MeanDescriptor.geometric(),
                               MeanDescriptor.arithmetic(), trials=1000, seed=3)
    assert verdict.status == "refuted"
    w = verdict.witness
    assert w.matrix_a.shape == (2, 2)
    # independent re-verification of the witness pair
    lo = apply_spectral_function(np.asarray(
        __import__("opmeans").eval_mean(w.matrix_a, w.matrix_b,
                                        MeanDescriptor.geometric())),
        lambda t: t * t)
    hi = apply_spectral_function(np.asarray(
        __import__("opmeans").eval_mean(w.matrix_a, w.matrix_b,
                                        MeanDescriptor.arithmetic())),
        lambda t: t * t)
    assert not loewner_leq(lo, hi, tol=1e-8)


def test_transfer_witness_json_shape():
    verdict = falsify_transfer(lambda t: t * t, MeanDescriptor.geometric(),
                               MeanDescriptor.arithmetic(), trials=1000, seed=3)
    d = verdict.witness.to_json_dict()
    assert set(d) == {"kind", "A", "B", "min_eigenvalue", "diff_norm"}
    assert d["kind"] == "matrix-pair"
    assert d["A"]["n"] == 2 and d["B"]["n"] == 2
    assert d["min_eigenvalue"] < 0.0 < d["diff_norm"]


def test_falsify_transfer_consistent_for_sqrt_and_identity():
    ok = falsify_transfer(np.sqrt, MeanDescriptor.geometric(),
                          MeanDescriptor.arithmetic(), trials=150, seed=1)
    assert ok.status == "consistent"
    assert ok.trials_run == 150
    ident = falsify_transfer(lambda t: t, MeanDescriptor.geometric(),
                             MeanDescriptor.arithmetic(), trials=50, seed=1)
    assert ident.status == "consistent"


def test_skips_stay_per_point_set_inside_a_stage():
    # the 1e-3..1e3 grid overflows math.expm1 and is skipped alone; the
    # 1e-2..1e2 grid evaluated in the same call still refutes
    verdict = is_operator_monotone_sampled(
        lambda t: math.expm1(t) / math.expm1(1.0), config=MonoConfig(trials=60, seed=0))
    assert verdict.status == "refuted" and verdict.trials_run == 2
    assert verdict.witness.points == tuple(np.logspace(-2.0, 2.0, 13))
    assert verdict.witness.min_eigenvalue == -2.424812263620341e+40
    assert verdict.witness.matrix_norm == 1.5668483460335152e+43


def test_fault_after_the_refuting_point_set_is_never_reached():
    # both grids go to f in one call, but the second one's NameError comes
    # after the first one's refutation in trial order, so it never surfaces
    def f(t):
        return t * t if t <= 1.0 else undefined_name  # noqa: F821

    verdict = is_operator_monotone_sampled(
        f, config=MonoConfig(grids=((1e-2, 0.5, 5), (1e-2, 1e2, 5))))
    assert verdict.status == "refuted" and verdict.trials_run == 1


def _one_set_at_a_time(f, fprime, config):
    """The sampler's verdict by checking its point sets one by one, in trial
    order: (status, trials_run, witness points, min eigenvalue, norm)."""
    derivative = fprime is not None
    grids = monocheck._grid_plan(config.grids, derivative).sets if config.grids else ()
    sets = [*grids, *monocheck._STRUCTURED, *monocheck._random_sets(config)]
    for trial, pts in enumerate(sets):
        try:
            with np.errstate(all="ignore"):
                mat, err = loewner_matrix(pts, f, fprime, with_error=True)
        except DOMAIN_ERRORS:
            continue
        if not np.all(np.isfinite(mat)):
            continue
        lo, norm = np.linalg.eigvalsh(mat)[0], np.linalg.norm(mat)
        if lo < -(config.tol * norm + np.linalg.norm(err)):
            return "refuted", trial + 1, tuple(pts.tolist()), lo, norm
    return "consistent", len(sets), None, None, None


def _by_point_kind(on_grids, on_structured, elsewhere, derivative=False):
    """A scalar-only f that is on_grids at the points the default grids
    evaluate, on_structured at the structured sets' other points and
    elsewhere (in practice: the random sets) at the rest."""
    grids = set(monocheck._grid_plan(MonoConfig().grids, derivative).x.tolist())
    structured = set(monocheck._plan(monocheck._STRUCTURED, derivative).x.tolist())

    def f(t):
        t = float(t)
        return (on_grids if t in grids else on_structured if t in structured else elsewhere)(t)
    return f


def _outside_the_domain(t):
    raise ValueError("outside the domain")


def _power(p):
    return lambda t: t ** p


def _skip_above(limit, g):
    return lambda t: g(t) if t <= limit else _outside_the_domain(t)


def _half_rsqrt(t):
    return 0.5 / np.sqrt(t)


def _fault(t):
    return t * undefined_name  # noqa: F821


# name: (f, fprime, refuted after the grid stage)
_SAMPLED = {
    "sqrt": (np.sqrt, None, False),
    "sqrt with derivative": (np.sqrt, _half_rsqrt, False),
    "parsed t/(1+t)": (parse_function("t/(1+t)"), None, False),
    "scalar-only t/(1+t)": (lambda t: float(t) / (1.0 + float(t)), None, False),
    "t^1.001 past the grids": (_by_point_kind(np.sqrt, np.sqrt, _power(1.001)), None, True),
    "t^1.001 in the structured sets": (_by_point_kind(np.sqrt, _power(1.001), np.sqrt), None,
                                       True),
    "t^1.001 with derivative": (_by_point_kind(np.sqrt, np.sqrt, _power(1.001), True),
                                _by_point_kind(_half_rsqrt, _half_rsqrt,
                                               lambda t: 1.001 * t ** 0.001, True), True),
    "skips on some random sets": (_by_point_kind(np.sqrt, np.sqrt,
                                                 _skip_above(10.0, _power(1.001))), None, True),
    "fault after a structured refutation": (_by_point_kind(np.sqrt, _power(1.001), _fault),
                                            None, True),
}


@pytest.mark.parametrize("name", _SAMPLED)
def test_two_stage_sampler_equals_checking_one_set_at_a_time(name):
    f, fprime, refuted = _SAMPLED[name]
    config = MonoConfig(trials=60, seed=3)
    verdict = is_operator_monotone_sampled(f, fprime, config)
    w = verdict.witness
    got = (verdict.status, verdict.trials_run, *((w.points, w.min_eigenvalue, w.matrix_norm)
                                                  if w else (None,) * 3))
    assert got == _one_set_at_a_time(f, fprime, config)
    assert verdict.refuted == refuted
    assert verdict.trials_run > len(config.grids)


@pytest.mark.parametrize("cls", ["sym", "sa"])
def test_order_tests_equal_checking_one_set_at_a_time(cls):
    # psi and psi' (quot and quot') share one evaluation of each density per
    # stage; the reference forms them from the densities' value and
    # derivative, as separate calls on each set alone
    rng = np.random.default_rng(18)
    lo, hi = (0.0, 1.0) if cls == "sym" else (-1.0, 0.0)
    config = MonoConfig(trials=40, seed=2)
    check = order_leq_sym if cls == "sym" else order_leq_sa
    statuses = set()
    for _ in range(4):
        breaks = (lo, *np.sort(rng.uniform(lo, hi, 2)), hi)
        low = rng.uniform(0.0, 0.7, 3)
        f, g = (representing_function(MeanDescriptor.from_h_density(HDensity(cls, breaks, v)))
                for v in (tuple(low + 0.3), tuple(low)))
        for a, b in ((f, g), (g, f)):
            if cls == "sym":
                psi = lambda t, a=a, b=b: arithmetic_pair(1.0, t) * a.value(t) / b.value(t)
                psi_prime = lambda t, a=a, b=b: (
                    0.5 * a.value(t) / b.value(t) + arithmetic_pair(1.0, t)
                    * (a.derivative(t) * b.value(t) - a.value(t) * b.derivative(t))
                    / (b.value(t) * b.value(t)))
            else:
                psi = lambda t, a=a, b=b: a.value(t) / b.value(t)
                psi_prime = lambda t, a=a, b=b: (
                    (a.derivative(t) * b.value(t) - a.value(t) * b.derivative(t))
                    / (b.value(t) * b.value(t)))
            verdict = check(a, b, config)
            w = verdict.witness
            got = (verdict.status, verdict.trials_run,
                   *((w.points, w.min_eigenvalue, w.matrix_norm) if w else (None,) * 3))
            assert got == _one_set_at_a_time(psi, psi_prime, config)
            statuses.add(verdict.status)
    assert statuses == {"consistent", "refuted"}


def test_two_stage_sampler_raises_the_first_fault_like_one_set_at_a_time():
    f = _by_point_kind(np.sqrt, np.sqrt, _fault)
    config = MonoConfig(trials=10, seed=3)
    for check in (is_operator_monotone_sampled, _one_set_at_a_time):
        with pytest.raises(NameError):
            check(f, None, config)


@pytest.mark.parametrize("seed, trials_run, min_eig, diff_norm", [
    (0, 5, -0.06418436289233931, 209.3226096202764),
    (2, 52, -0.4276573908608121, 119.58454710517503)])
def test_transfer_skips_only_the_pairs_where_f_fails(seed, trials_run, min_eig, diff_norm):
    # f fails on the eigenvalues of some pairs of a stack: those pairs are
    # skipped, and trials_run and the witness are those of one pair at a time
    def square_below_20(t):
        if t > 20.0:
            raise ValueError("outside the domain")
        return t * t

    verdict = falsify_transfer(square_below_20, MeanDescriptor.geometric(),
                               MeanDescriptor.arithmetic(), trials=200, seed=seed)
    assert verdict.status == "refuted" and verdict.trials_run == trials_run
    assert verdict.witness.min_eigenvalue == min_eig
    assert verdict.witness.diff_norm == diff_norm


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_sampler_and_transfer_skip_the_same_errors(seed):
    # below t = 0.5 the scalar-only power is complex and float() of it raises
    # TypeError, where the parsed function raises DomainError: both are
    # outside the domain for the sampler and the transfer search alike
    def scalar_only(t):
        return float(t - 0.5) ** 0.5

    parsed = parse_function("(t-0.5)^0.5")
    config = MonoConfig(trials=40, seed=seed)
    got, want = (is_operator_monotone_sampled(f, None, config) for f in (scalar_only, parsed))
    assert got.to_json_dict() == want.to_json_dict()
    assert got.status == "consistent" and got.trials_run == 71
    geo, arith = MeanDescriptor.geometric(), MeanDescriptor.arithmetic()
    got, want = (falsify_transfer(f, geo, arith, trials=24, seed=seed).to_json_dict()
                 for f in (scalar_only, parsed))
    assert got == want
    with pytest.raises(TypeError):
        float(scalar_only(0.25))


def test_a_function_undefined_everywhere_has_no_verdict():
    # every set and pair is skipped: "consistent" would rest on none of them
    geo, arith = MeanDescriptor.geometric(), MeanDescriptor.arithmetic()
    with pytest.raises(DomainError, match="^f is undefined on every sampled set$"):
        is_operator_monotone_sampled(_outside_the_domain)
    with pytest.raises(DomainError, match="^f is undefined on every sampled pair$"):
        falsify_transfer(_outside_the_domain, geo, arith, trials=20)
    # a search that examined nothing is still consistent
    verdict = falsify_transfer(_outside_the_domain, geo, arith, trials=0)
    assert (verdict.status, verdict.trials_run) == ("consistent", 0)


def test_values_near_the_largest_float_skip_their_sets_and_pairs():
    # f(M) = M + 1e308 I overflows when assembled, and the sampler's rounding
    # bound overflows: such pairs are skipped and such sets cannot refute,
    # without a warning or a failed eigensolve
    def f(t):
        return t + 1e308

    verdict = falsify_transfer(f, MeanDescriptor.geometric(), MeanDescriptor.arithmetic(),
                               trials=24, seed=0)
    assert verdict.status == "consistent" and verdict.trials_run == 24
    verdict = is_operator_monotone_sampled(f, None, MonoConfig(trials=40, seed=0))
    assert verdict.status == "consistent" and verdict.trials_run == 71


def _with_scalar_twin(f):
    """f, and a twin that takes scalars only, as math.* lambdas do."""
    return f, lambda t: float(f(np.float64(float(t))))


@pytest.mark.parametrize("which", [0, 1], ids=["array", "scalar"])
def test_finite_matrices_whose_eigenvalues_overflow_cannot_refute(which):
    # Loewner matrices and mean differences with finite entries but an
    # infinite Frobenius norm are skipped, not decomposed: their eigenvalues
    # may overflow, and their threshold -(tol * norm + E) is -inf anyway
    cos = _with_scalar_twin(lambda t: 1.7e308 * np.cos(t))[which]
    verdict = is_operator_monotone_sampled(cos, None, MonoConfig(seed=0))
    # cos decreases on the 6-point cluster at 0.01, the first set after the grids
    assert verdict.status == "refuted" and verdict.trials_run == 3
    assert verdict.witness.points[0] == 1e-2
    assert verdict.witness.min_eigenvalue == pytest.approx(-1.0225336e307, rel=1e-6)
    sin = _with_scalar_twin(lambda t: 1.7e308 * np.sin(3.0 * t))[which]
    verdict = falsify_transfer(sin, MeanDescriptor.geometric(), MeanDescriptor.arithmetic(),
                               trials=40, seed=1)
    assert verdict.status == "refuted" and verdict.trials_run == 17
    assert verdict.witness.min_eigenvalue == pytest.approx(-6.4026359e307, rel=1e-6)


@pytest.mark.parametrize("which", [0, 1], ids=["array", "scalar"])
def test_transfer_skips_pairs_whose_difference_overflows(which):
    # f of the two means is finite, their difference is not: those pairs
    # are skipped, and a later pair refutes
    cos = _with_scalar_twin(lambda t: 1.7e308 * np.cos(t))[which]
    verdict = falsify_transfer(cos, MeanDescriptor.geometric(), MeanDescriptor.arithmetic(),
                               trials=40, seed=1)
    assert verdict.status == "refuted" and verdict.trials_run == 6
    assert verdict.witness.min_eigenvalue == pytest.approx(-8.958093e307, rel=1e-6)


def test_rounding_bound_near_the_largest_float_stays_finite():
    # |f(x_i)| + |f(x_j)| overflows; the halves sum to a finite bound
    mat, err = loewner_matrix([1.0, 1.5], lambda t: t + 1.7e308, with_error=True)
    assert np.all(mat == 0.0)
    assert np.all(np.isfinite(err))
    # f is 1.7e308 at every point: the bound of each entry is
    # _ULPS * eps * 2 * 1.7e308 over the central-difference step or |x_i - x_j|
    scale = 2.0 * _ULPS * EPS * 1.7e308
    steps = np.cbrt(EPS) * np.array([1.0, 1.5])
    assert np.diag(err) == pytest.approx(scale / steps, rel=1e-14)      # 2.0e299, 1.3e299
    assert err[0, 1] == err[1, 0] == pytest.approx(scale / 0.5, rel=1e-14)    # 2.4e294
    # with a derivative, points this close take the mean of their derivatives
    mat, err = loewner_matrix([1.0, 1.0 + 1e-9], lambda t: t + 1.7e308,
                              lambda t: 1.7e308 + 0.0 * t, with_error=True)
    assert np.all(mat == 1.7e308)
    assert np.all(err == pytest.approx(scale / 2.0, rel=1e-14))


def test_falsify_transfer_propagates_faults_of_f():
    # a fault of f is not a point outside its domain: no trial may skip it
    with pytest.raises(NameError):
        falsify_transfer(lambda t: t * undefined_name,  # noqa: F821
                         MeanDescriptor.geometric(), MeanDescriptor.arithmetic(),
                         trials=20)


def test_falsify_transfer_precheck_rejects_unordered_means():
    with pytest.raises(UsageError):
        falsify_transfer(np.sqrt, MeanDescriptor.arithmetic(),
                         MeanDescriptor.geometric(), trials=10, seed=0)


def test_falsify_transfer_runs_at_most_its_trials():
    # the 2x2 and 3x3 shares round up; the 3x3 one must stay within the budget.
    # The pairs of each size run in stacks of 8, 16, 32, ..., which end after
    # 24, 56 and 120 pairs: beyond 0-20, these counts give the 2x2 (39, 41, 92,
    # 94, 199, 201), 3x3 (93, 97, 221, 225, 477, 481) or 4x4 share (160, 168,
    # 375, 380, 800, 808) one of those sizes or one pair more
    for trials in (*range(21), 39, 41, 92, 93, 94, 97, 160, 168, 199, 201, 221, 225,
                   375, 380, 477, 481, 800, 808, 1000):
        verdict = falsify_transfer(np.sqrt, MeanDescriptor.geometric(),
                                   MeanDescriptor.arithmetic(), trials=trials, seed=2)
        assert verdict.status == "consistent"
        assert verdict.trials_run == trials


def _one_pair_at_a_time(f, sigma, tau, trials, seed, tol=1e-8):
    """falsify_transfer's verdict by drawing and judging its pairs one by one,
    in trial order: (status, trials_run, A and B bytes, min eigenvalue, norm)."""
    rep_s, rep_t = representing_function(sigma), representing_function(tau)
    rng = np.random.default_rng(seed)
    two = math.ceil(0.6 * trials)
    three = min(math.ceil(0.25 * trials), trials - two)
    for trial, n in enumerate([2] * two + [3] * three + [4] * (trials - two - three), 1):
        pair = monocheck._random_pairs(rng, 1, n)
        w = monocheck._first_transfer_witness(*pair, f, rep_s, rep_t, tol)[0]
        if w is not None:
            return ("refuted", trial, w.matrix_a.tobytes(), w.matrix_b.tobytes(),
                    w.min_eigenvalue, w.diff_norm)
    return "consistent", trials, None, None, None, None


@pytest.mark.parametrize("f, seed, status, trials_run, n", [
    (np.sqrt, 0, "consistent", 1000, None),
    (lambda t: t * t, 0, "refuted", 5, 2),
    (lambda t: t ** 1.01, 11, "refuted", 95, 2),
    (lambda t: t ** 1.01, 0, "refuted", 372, 2),
    (lambda t: t ** 1.001, 5, "refuted", 734, 3)],
    ids=["sqrt", "square", "t^1.01 at 95", "t^1.01 at 372", "t^1.001 at 734"])
def test_falsify_transfer_equals_drawing_one_pair_at_a_time(f, seed, status, trials_run, n):
    geo, arith = MeanDescriptor.geometric(), MeanDescriptor.arithmetic()
    verdict = falsify_transfer(f, geo, arith, trials=1000, seed=seed)
    w = verdict.witness
    got = (verdict.status, verdict.trials_run,
           *((w.matrix_a.tobytes(), w.matrix_b.tobytes(), w.min_eigenvalue, w.diff_norm)
             if w else (None,) * 4))
    assert got == _one_pair_at_a_time(f, geo, arith, 1000, seed)
    assert (verdict.status, verdict.trials_run) == (status, trials_run)
    assert (w.matrix_a.shape[0] if w else None) == n


def test_first_witness_searches_build_no_later_block(monkeypatch):
    # a refutation on the grids draws no random set, and one in the first
    # stack of 2x2 pairs draws no further stack
    drawn = []
    for name in ("_random_sets", "_random_pairs"):
        monkeypatch.setattr(monocheck, name, lambda *args, name=name, draw=getattr(monocheck, name):
                            drawn.append(name) or draw(*args))
    square = lambda t: t * t
    assert is_operator_monotone_sampled(square).trials_run == 1
    assert falsify_transfer(square, MeanDescriptor.geometric(), MeanDescriptor.arithmetic(),
                            trials=1000).trials_run == 5
    assert drawn == ["_random_pairs"]
    assert is_operator_monotone_sampled(np.sqrt, config=MonoConfig(trials=5)).status == "consistent"
    assert drawn == ["_random_pairs", "_random_sets"]


@pytest.mark.parametrize("config", [{"trials": 3}, (), "trials=3", 150])
def test_sampler_and_order_tests_refuse_a_config_that_is_not_a_monoconfig(config):
    geo, arith = (representing_function(MeanDescriptor.geometric()),
                  representing_function(MeanDescriptor.arithmetic()))
    with pytest.raises(StructuralError, match="config must be a MonoConfig"):
        is_operator_monotone_sampled(np.sqrt, None, config)
    with pytest.raises(StructuralError, match="config must be a MonoConfig"):
        order_leq_sym(geo, arith, config)


@pytest.mark.parametrize("plan", [{"trials": True}, {"trials": False}, {"seed": True}])
def test_sampling_plans_reject_booleans(plan):
    geo, arith = MeanDescriptor.geometric(), MeanDescriptor.arithmetic()
    with pytest.raises(StructuralError, match="non-negative integer"):
        MonoConfig(**plan)
    with pytest.raises(StructuralError, match="non-negative integer"):
        falsify_transfer(np.sqrt, geo, arith, **plan)
    with pytest.raises(StructuralError, match="non-negative integer"):
        ka_condition_check(geo, arith, **plan)


def test_pair_records_share_one_json_layout():
    # "A", "B", then each further field in declaration order; the transfer
    # witness puts its kind first
    from opmeans import KaViolation, PairWitness, TransferWitness
    a, b = np.array([[2.0, 0.5], [0.5, 1.0]]), np.eye(2)
    pair = ('"A": {"n": 2, "rows": [[2.0, 0.5], [0.5, 1.0]]}, '
            '"B": {"n": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]}')
    assert (json.dumps(PairWitness(a, b, 1e-16, 2.5e-17).to_json_dict())
            == '{' + pair + ', "residual_x": 1e-16, "residual_y": 2.5e-17}')
    assert (json.dumps(TransferWitness(a, b, -0.25, 3.0).to_json_dict())
            == '{"kind": "matrix-pair", ' + pair + ', "min_eigenvalue": -0.25, "diff_norm": 3.0}')
    assert (json.dumps(KaViolation(a, b, -0.5, 1.5).to_json_dict())
            == '{' + pair + ', "min_eigenvalue": -0.5, "diff_norm": 1.5}')


def test_transfer_rounding_bound_covers_computed_difference():
    mpmath = pytest.importorskip("mpmath")

    def spectral(m, g):
        w, q = mpmath.eigsy(m)
        return q * mpmath.diag([g(w[i]) for i in range(m.rows)]) * q.T

    def mean(a, b, g):
        root = spectral(a, mpmath.sqrt)
        inv_root = spectral(a, lambda x: 1 / mpmath.sqrt(x))
        inner = inv_root * b * inv_root
        return root * spectral((inner + inner.T) / 2, g) * root

    geo = representing_function(MeanDescriptor.geometric())
    arith = representing_function(MeanDescriptor.arithmetic())
    cube = lambda t: t ** 3
    with mpmath.workdps(40):
        for k in range(6):
            n = 2 + k % 3
            a = random_spd(n, cond_cap=50.0, seed=40 + k).entries
            b = random_spd(n, cond_cap=50.0, seed=80 + k).entries
            lhs = apply_spectral_function(eval_mean_from_function(a, b, geo), cube)
            rhs = apply_spectral_function(eval_mean_from_function(a, b, arith), cube)
            am, bm = mpmath.matrix(a.tolist()), mpmath.matrix(b.tolist())
            exact = (spectral(mean(am, bm, lambda x: (1 + x) / 2), cube)
                     - spectral(mean(am, bm, mpmath.sqrt), cube))
            error = np.linalg.norm((rhs - lhs) - np.array(exact.tolist(), dtype=float))
            spectra = np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)
            assert error <= _difference_rounding_bound(*spectra, lhs, rhs), k


def test_inequality_chain_tight_when_equal():
    a = random_spd(3, seed=11).entries
    report = verify_inequality_chain(a, a.copy(), s=0.3)
    assert report.all_hold(1e-8)
    for link in report.links:
        assert abs(link.min_eigenvalue) <= 1e-9 * max(1.0, np.linalg.norm(a))


def test_inequality_chain_commuting_reduces_to_scalars():
    a = np.diag([1.0, 4.0, 0.2])
    b = np.diag([9.0, 0.25, 5.0])
    report = verify_inequality_chain(a, b, s=0.3)
    assert report.commuting
    assert report.scalar_checked
    assert report.scalar_min_margin >= -1e-12
    assert report.all_hold(1e-8)


def test_scalar_chain_margin_evaluates_the_catalog_means():
    # each mean of a pair (a, b) is the catalog's scalar-pair definition; one
    # pair at a time, so every link is the worst one for some (pair, s), and
    # the last pair's ratio b / a overflows
    for a, b in ((0.37, 11.3), (3.3, 7.9), (2.9, 0.45), (0.013, 170.3), (4.0, 4.0),
                 (1e-200, 1e200)):
        a, b = np.array([a]), np.array([b])
        for s in (0.05, 0.2, 0.35, 0.49, 0.65, 0.8, 0.95):
            alpha = abs(2.0 * s - 1.0)
            chain = [geometric_pair(a, b), heinz_pair(s, a, b), heron_pair(alpha * alpha, a, b),
                     heron_pair(alpha, a, b), arithmetic_pair(a, b)]
            want = min(float(np.min((hi - lo) / np.maximum(1.0, np.abs(hi))))
                       for lo, hi in zip(chain, chain[1:]))
            assert _scalar_chain_margin(a, b, s) == want
            assert math.isfinite(want)


@pytest.mark.parametrize("scale", [1e-300, 1e-100, 1.0, 1e100, 1e160, 1e300])
def test_inequality_chain_commuting_flag_is_scale_invariant(scale):
    # the commutator and the norms are taken after exact power-of-two
    # scalings: nothing underflows to a false "commuting" or overflows into
    # warnings (errors under pyproject) and a false "not commuting"
    a, b = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([[1.0, -0.3], [-0.3, 3.0]])
    report = verify_inequality_chain(scale * a, scale * b, s=0.3)
    assert not report.commuting and not report.scalar_checked
    report = verify_inequality_chain(scale * np.diag([1.0, 2.0]), scale * np.diag([3.0, 5.0]), 0.3)
    assert report.commuting and report.scalar_checked and report.all_hold()


def test_inequality_chain_noncommuting_random():
    for k in range(50):
        a = random_spd(3, cond_cap=50.0, seed=k).entries
        b = random_spd(3, cond_cap=50.0, seed=900 + k).entries
        report = verify_inequality_chain(a, b, s=0.49)
        assert report.all_hold(1e-8), k
        assert not report.scalar_checked


def test_inequality_chain_rejects_bad_s():
    a = random_spd(2, seed=0).entries
    with pytest.raises(StructuralError):
        verify_inequality_chain(a, a, s=1.2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("b", [-np.eye(2), np.diag([1.0, 0.0]), np.diag([2.0, -1e-3])])
def test_inequality_chain_refuses_a_pair_that_is_not_positive_definite(b):
    # a relative eigenvalue <= 0 is refused before any scalar mean is formed,
    # as eval_mean refuses it, with no numpy warning on the way
    with pytest.raises(ConditioningError, match="the pair is not positive definite$"):
        verify_inequality_chain(np.eye(2), b, s=0.3)


def test_inequality_chain_json():
    a = random_spd(2, seed=20).entries
    b = random_spd(2, seed=21).entries
    payload = verify_inequality_chain(a, b, s=0.25).to_json_dict()
    assert {"s", "links", "commuting"} <= set(payload)
    names = {entry["name"] for entry in payload["links"]}
    assert "geometric<=heinz" in names and "heron<=arithmetic" in names


def test_mono_config_validation():
    with pytest.raises(StructuralError):
        MonoConfig(trials=-1)
    with pytest.raises(StructuralError):
        MonoConfig(sizes=(1,))
    with pytest.raises(StructuralError):
        MonoConfig(tol=0.0)
    for bad in ({"grids": ((1e-2, math.inf, 5),)}, {"grids": ((1e-2, 1e2, 5.7),)},
                {"grids": ((1e-2, math.nan, 5),)}, {"sizes": (2.5,)}, {"trials": 2.5},
                {"grids": ((1e-2, 1e2),)}, {"grids": ((1e-2, 1e2, 5, 7),)}, {"grids": (5,)},
                {"grids": 5}, {"grids": None}, {"sizes": 5}):
        with pytest.raises(StructuralError):
            MonoConfig(**bad)
    config = MonoConfig(grids=[[1, 100, np.int64(5)]], sizes=(2, np.int64(3)), seed=np.int64(4))
    assert config.grids == ((1.0, 100.0, 5),) and hash(config.grids)
    assert [type(v) for v in config.grids[0]] == [float, float, int]


@pytest.mark.parametrize("plan", [{"trials": -1}, {"seed": -1}, {"tol": 0.0},
                                  {"tol": -1e-8}, {"tol": math.nan}, {"tol": math.inf},
                                  {"trials": 2.5}, {"seed": 1.5}])
def test_sampling_plans_are_validated_alike(plan):
    geo, arith = MeanDescriptor.geometric(), MeanDescriptor.arithmetic()
    with pytest.raises(StructuralError):
        MonoConfig(**plan)
    with pytest.raises(StructuralError):
        falsify_transfer(np.sqrt, geo, arith, **plan)
    with pytest.raises(StructuralError):
        ka_condition_check(geo, arith, **plan)


def test_loewner_matrix_rejects_a_three_dimensional_point_array():
    with pytest.raises(StructuralError, match=r"one-dimensional sequence or a \(k, n\) array"):
        loewner_matrix(np.ones((2, 2, 2)), np.sqrt)


def test_sampler_without_grids_runs_only_the_structured_and_random_sets():
    # 29 structured sets (three clusters, 13 near-collision pairs framed and not) and 5 random
    verdict = is_operator_monotone_sampled(np.sqrt, config=MonoConfig(grids=(), trials=5))
    assert verdict.status == "consistent" and verdict.trials_run == 34


@pytest.mark.parametrize("call, message", [
    (lambda: is_operator_monotone_sampled(lambda t: t ** 2, MonoConfig(trials=5)),
     "fprime must be callable, got MonoConfig"),
    (lambda: is_operator_monotone_sampled("t^2"), "f must be callable, got str"),
    (lambda: falsify_transfer("t^2", MeanDescriptor.geometric(), MeanDescriptor.arithmetic(),
                              trials=20), "f must be callable, got str"),
    (lambda: loewner_matrix([1.0, 2.0], "t^2"), "f must be callable, got str"),
    (lambda: loewner_matrix([1.0, 2.0], np.sqrt, 0.5), "fprime must be callable, got float"),
    (lambda: apply_spectral_function(np.eye(2), "sqrt"), "g must be callable, got str")],
    ids=["config-as-fprime", "sampler-text", "transfer-text", "loewner-text",
         "loewner-fprime", "spectral-text"])
def test_a_function_that_is_not_callable_is_a_structural_error(call, message):
    # before sampling: a skipped set would otherwise read as "consistent"
    with pytest.raises(StructuralError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("s, message", [
    (True, "s must be a real number, got True"),
    ("abc", "s must be a real number, got 'abc'"),
    ("0.25", "s must be a real number, got '0.25'"),
    (None, "s must be a real number, got None"),
])
def test_chain_parameter_must_be_a_real_number(s, message):
    # float() alone took True for 1.0 and raised a bare ValueError for "abc"
    a, b = random_spd(3, seed=1), random_spd(3, seed=2)
    with pytest.raises(StructuralError) as info:
        verify_inequality_chain(a, b, s)
    assert str(info.value) == message
    for real in (np.float64(0.25), 0, 1):      # numpy floats and ints are reals
        assert verify_inequality_chain(a, b, real).all_hold()
