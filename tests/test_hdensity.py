"""Integral representations over step densities, with an independent
quadrature oracle and the closed forms at the lattice extremes."""
import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from opmeans import (SELF_ADJOINT, SYMMETRIC, HDensity, MeanDescriptor, StructuralError,
                     dagger_density, eval_selfadjoint_rep, eval_symmetric_rep,
                     h_order, lattice_meet_join, selfadjoint_rep_derivative,
                     representing_function, symmetric_rep_derivative)
from opmeans import hdensity
from opmeans.jsonio import dumps, loads

STEP_SYM = HDensity(SYMMETRIC, (0.0, 0.3, 0.7, 1.0), (0.9, 0.2, 0.55))
STEP_SA = HDensity(SELF_ADJOINT, (-1.0, -0.4, 0.0), (0.8, 0.15))


def _oracle_symmetric(h: HDensity, t: float) -> float:
    """Independent evaluation of the symmetric-class representation."""
    def integrand(lam):
        return ((lam * lam - 1.0) * (1.0 - t) ** 2 * h.value_at(lam)
                / ((t + lam) * (1.0 + t * lam) * (1.0 + lam) ** 2))

    total = 0.0
    for lo, hi in zip(h.breaks[:-1], h.breaks[1:]):
        val, err = scipy.integrate.quad(integrand, lo, hi, epsabs=1e-13,
                                        epsrel=1e-13, limit=200)
        total += val
    return 0.5 * (1.0 + t) * math.exp(total)


def _oracle_selfadjoint(h: HDensity, t: float) -> float:
    def integrand(lam):
        return (1.0 / (lam - t) + t / (1.0 - lam * t)) * h.value_at(lam)

    total = 0.0
    for lo, hi in zip(h.breaks[:-1], h.breaks[1:]):
        val, err = scipy.integrate.quad(integrand, lo, hi, epsabs=1e-13,
                                        epsrel=1e-13, limit=200)
        total += val
    return math.exp(total)


@pytest.mark.parametrize("t", [1e-3, 0.04, 0.5, 1.0, 2.5, 40.0, 1e3])
def test_symmetric_rep_matches_quadrature_oracle(t):
    mine = eval_symmetric_rep(STEP_SYM, t)
    ref = _oracle_symmetric(STEP_SYM, t)
    assert mine == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("t", [1e-3, 0.04, 0.5, 1.0, 2.5, 40.0, 1e3])
def test_selfadjoint_rep_matches_quadrature_oracle(t):
    mine = eval_selfadjoint_rep(STEP_SA, t)
    ref = _oracle_selfadjoint(STEP_SA, t)
    assert mine == pytest.approx(ref, rel=1e-9)


def test_symmetric_closed_forms_at_lattice_points():
    t = np.logspace(-3, 3, 200)
    half = eval_symmetric_rep(HDensity.constant(0.5, SYMMETRIC), t)
    zero = eval_symmetric_rep(HDensity.constant(0.0, SYMMETRIC), t)
    one = eval_symmetric_rep(HDensity.constant(1.0, SYMMETRIC), t)
    assert np.max(np.abs(half - np.sqrt(t)) / np.sqrt(t)) <= 1e-8
    assert np.max(np.abs(zero - 0.5 * (1.0 + t)) / (0.5 * (1.0 + t))) <= 1e-8
    harm = 2.0 * t / (1.0 + t)
    assert np.max(np.abs(one - harm) / harm) <= 1e-8


def test_selfadjoint_closed_forms_at_lattice_points():
    t = np.logspace(-3, 3, 200)
    half = eval_selfadjoint_rep(HDensity.constant(0.5, SELF_ADJOINT), t)
    zero = eval_selfadjoint_rep(HDensity.constant(0.0, SELF_ADJOINT), t)
    one = eval_selfadjoint_rep(HDensity.constant(1.0, SELF_ADJOINT), t)
    assert np.max(np.abs(half - np.sqrt(t)) / np.sqrt(t)) <= 1e-8
    assert np.max(np.abs(zero - 1.0)) <= 1e-8
    assert np.max(np.abs(one - t) / t) <= 1e-8


def test_constant_density_interpolates_powers_selfadjoint():
    # h == c gives t^c in the self-adjoint class
    t = np.logspace(-2, 2, 50)
    for c in (0.25, 0.3, 0.75):
        f = eval_selfadjoint_rep(HDensity.constant(c, SELF_ADJOINT), t)
        assert np.max(np.abs(f - t ** c) / t ** c) <= 1e-9


def test_symmetric_class_identity_holds_to_machine_precision():
    # t * f(1/t) == f(t), exact by kernel folding
    t = np.logspace(-6, 6, 121)
    f = eval_symmetric_rep(STEP_SYM, t)
    fr = eval_symmetric_rep(STEP_SYM, 1.0 / t)
    assert np.max(np.abs(t * fr - f) / np.abs(f)) <= 1e-14


def test_selfadjoint_class_identity_holds_to_machine_precision():
    t = np.logspace(-6, 6, 121)
    f = eval_selfadjoint_rep(STEP_SA, t)
    fr = eval_selfadjoint_rep(STEP_SA, 1.0 / t)
    assert np.max(np.abs(f * fr - 1.0)) <= 1e-13


@pytest.mark.parametrize("t", [0.02, 0.4, 0.999, 1.0, 1.001, 3.7, 250.0])
def test_symmetric_derivative_matches_central_difference(t):
    h = 1e-6 * max(1.0, t)
    numeric = (eval_symmetric_rep(STEP_SYM, t + h)
               - eval_symmetric_rep(STEP_SYM, t - h)) / (2.0 * h)
    assert symmetric_rep_derivative(STEP_SYM, t) == pytest.approx(
        numeric, rel=1e-6)


@pytest.mark.parametrize("t", [0.02, 0.4, 0.999, 1.0, 1.001, 3.7, 250.0])
def test_selfadjoint_derivative_matches_central_difference(t):
    h = 1e-6 * max(1.0, t)
    numeric = (eval_selfadjoint_rep(STEP_SA, t + h)
               - eval_selfadjoint_rep(STEP_SA, t - h)) / (2.0 * h)
    assert selfadjoint_rep_derivative(STEP_SA, t) == pytest.approx(
        numeric, rel=1e-6)


EXTREME_T = (1e-35, 1e-60, 1e-200, 1e35, 1e60, 1e200)


@pytest.mark.parametrize("t", EXTREME_T)
def test_lattice_closed_forms_hold_at_extreme_t(t):
    # the lattice identities hold for every finite t > 0, not only near t = 1
    cases = [
        (eval_symmetric_rep(HDensity.constant(0.0, SYMMETRIC), t), 0.5 * (1.0 + t)),
        (eval_symmetric_rep(HDensity.constant(0.5, SYMMETRIC), t), math.sqrt(t)),
        (eval_symmetric_rep(HDensity.constant(1.0, SYMMETRIC), t), 2.0 * t / (1.0 + t)),
    ]
    for c in (0.3, 0.5, 0.75):
        cases.append((eval_selfadjoint_rep(HDensity.constant(c, SELF_ADJOINT), t), t ** c))
    for got, want in cases:
        assert abs(got - want) <= 1e-12 * want


TINY_T = (1e-300, 1e-310)   # 1e-310 is subnormal


@pytest.mark.parametrize("t", TINY_T)
def test_lattice_derivatives_hold_at_tiny_t(t):
    # f'(t) is finite here although the slope h/t of log f overflows
    cases = [
        (symmetric_rep_derivative(HDensity.constant(0.0, SYMMETRIC), t), 0.5),
        (symmetric_rep_derivative(HDensity.constant(0.5, SYMMETRIC), t), 0.5 / math.sqrt(t)),
        (symmetric_rep_derivative(HDensity.constant(1.0, SYMMETRIC), t), 2.0 / (1.0 + t) ** 2),
        (selfadjoint_rep_derivative(HDensity.constant(0.3, SELF_ADJOINT), t), 0.3 * t ** -0.7),
    ]
    for got, want in cases:
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("t", (1e-310, 1.7e308))
def test_representations_do_not_warn_at_range_ends(t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (STEP_SYM, HDensity.constant(0.0, SYMMETRIC), HDensity.constant(1.0, SYMMETRIC)):
            eval_symmetric_rep(h, t)
            symmetric_rep_derivative(h, t)
        for h in (STEP_SA, HDensity.constant(0.3, SELF_ADJOINT)):
            eval_selfadjoint_rep(h, t)
            selfadjoint_rep_derivative(h, t)


def test_selfadjoint_derivative_at_top_float():
    # x = 1/t is subnormal at the largest float; f'(t) = h t^(h-1) stays finite
    t = float(np.nextafter(np.inf, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (0.0, 0.3, 1.0):
            got = selfadjoint_rep_derivative(HDensity.constant(c, SELF_ADJOINT), t)
            want = c * t ** (c - 1.0)
            assert abs(got - want) <= 1e-12 * want, (c, got, want)


def test_vector_calls_equal_scalar_calls_bitwise():
    # a value must not depend on which other points share the call
    rng = np.random.default_rng(6)
    t = np.exp(rng.uniform(np.log(1e-8), np.log(1e8), 300))
    for cls, fns in ((SYMMETRIC, (eval_symmetric_rep, symmetric_rep_derivative)),
                     (SELF_ADJOINT, (eval_selfadjoint_rep, selfadjoint_rep_derivative))):
        for _ in range(8):
            h = _random_density(rng, cls)
            for fn in fns:
                vector = fn(h, t)
                scalar = np.array([fn(h, float(x)) for x in t])
                assert np.array_equal(vector, scalar), (fn.__name__, h)


def _mp_oracle(mpmath, h: HDensity, t: float):
    """f(t) and f'(t) by 30-digit quadrature of the kernels and their t-derivatives."""
    t = mpmath.mpf(t)
    sym = h.domain_class == SYMMETRIC
    if sym:
        def kernel(u):
            return (u * u - 1) * (1 - t) ** 2 / ((t + u) * (1 + t * u) * (1 + u) ** 2)

        def kernel_dt(u):
            return (1 - u * u) * (1 - t * t) / ((t + u) ** 2 * (1 + t * u) ** 2)
        logf, dlogf = mpmath.log((1 + t) / 2), 1 / (1 + t)
    else:
        def kernel(u):
            return 1 / (u - t) + t / (1 - u * t)

        def kernel_dt(u):
            return 1 / (u - t) ** 2 + 1 / (1 - u * t) ** 2
        logf = dlogf = mpmath.mpf(0)
    # a pole sits at distance min(t, 1/t) from u = 0: cut the panels there
    sign = 1 if sym else -1
    near = [sign * min(t, 1 / t) * 10 ** j for j in range(8)]
    for a, b, v in zip(h.breaks, h.breaks[1:], h.values):
        points = sorted({mpmath.mpf(a), mpmath.mpf(b)} | {p for p in near if a < p < b})
        logf += v * mpmath.quad(kernel, points)
        dlogf += v * mpmath.quad(kernel_dt, points)
    f = mpmath.exp(logf)
    return f, f * dlogf


def _random_density(rng, cls: str) -> HDensity:
    lo, hi = (0.0, 1.0) if cls == SYMMETRIC else (-1.0, 0.0)
    k = int(rng.integers(1, 6))
    cuts = np.sort(rng.uniform(lo, hi, k - 1))
    return HDensity(cls, (lo, *cuts, hi), tuple(rng.uniform(0.0, 1.0, k)))


def test_value_and_derivative_kernels_equal_the_public_functions_bitwise():
    # one evaluation gives both f and f', each bit for bit what value and
    # derivative give on their own, for arrays and for scalars
    rng = np.random.default_rng(18)
    t = np.exp(rng.uniform(np.log(1e-8), np.log(1e8), 200))
    kernels = ((SYMMETRIC, hdensity._symmetric_jet, eval_symmetric_rep, symmetric_rep_derivative),
               (SELF_ADJOINT, hdensity._selfadjoint_jet, eval_selfadjoint_rep,
                selfadjoint_rep_derivative))
    for cls, jet, value, derivative in kernels:
        for _ in range(8):
            h = _random_density(rng, cls)
            rep = representing_function(MeanDescriptor.from_h_density(h))
            for got in (jet(h, t), rep.jet(t)):
                assert np.array_equal(got[0], value(h, t))
                assert np.array_equal(got[1], derivative(h, t))
            for x in (float(t[0]), 1.0, 1e-310, 1.7e308):
                got = jet(h, x)
                assert type(got[0]) is type(got[1]) is float
                assert got == (value(h, x), derivative(h, x))


def test_representations_match_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20180)
    densities = [_random_density(rng, cls) for cls in (SYMMETRIC, SELF_ADJOINT)
                 for _ in range(10)]
    # densities whose derivative cancels at large t: h = 1 at u = 0 for sym,
    # h = 0 at u = 0 for sa
    densities += [HDensity.constant(1.0, SYMMETRIC),
                  HDensity(SYMMETRIC, (0.0, 0.3, 1.0), (1.0, 0.2)),
                  HDensity(SELF_ADJOINT, (-1.0, -0.3, 0.0), (0.7, 0.0))]
    points = (1e-6, 1e-3, 0.2, 1.0 - 1e-8, 1.0, 1.0 + 1e-8, 3.0, 1e3, 1e6)
    with mpmath.workdps(30):
        for h in densities:
            if h.domain_class == SYMMETRIC:
                rep, slope = eval_symmetric_rep, symmetric_rep_derivative
            else:
                rep, slope = eval_selfadjoint_rep, selfadjoint_rep_derivative
            for t in points:
                f, df = _mp_oracle(mpmath, h, t)
                assert abs(rep(h, t) - f) <= 1e-13 * abs(f), (h, t)
                assert abs(slope(h, t) - df) <= 1e-13 * abs(df), (h, t)


def test_normalization_at_one_is_exact():
    assert eval_symmetric_rep(STEP_SYM, 1.0) == 1.0
    assert eval_selfadjoint_rep(STEP_SA, 1.0) == 1.0


def test_density_validation():
    with pytest.raises(StructuralError):
        HDensity(SYMMETRIC, (0.0, 1.0), (1.5,))          # value out of [0,1]
    with pytest.raises(StructuralError):
        HDensity(SYMMETRIC, (0.0, 0.5), (0.5,))          # endpoint not 1
    with pytest.raises(StructuralError):
        HDensity(SYMMETRIC, (0.0, 0.5, 0.4, 1.0), (0.1, 0.2, 0.3))
    with pytest.raises(StructuralError):
        HDensity(SELF_ADJOINT, (0.0, 1.0), (0.5,))       # wrong domain
    with pytest.raises(StructuralError):
        HDensity("weird", (0.0, 1.0), (0.5,))
    with pytest.raises(StructuralError):
        eval_symmetric_rep(STEP_SA, 2.0)                 # class mismatch
    with pytest.raises(StructuralError):
        eval_selfadjoint_rep(STEP_SYM, 2.0)


@pytest.mark.parametrize("breaks", [(0.0, math.nan, 1.0), (0.0, 0.5, math.nan, 1.0)])
def test_density_rejects_a_nan_breakpoint(breaks):
    # every comparison with nan is false, so "b >= c" would let it through
    with pytest.raises(StructuralError, match="strictly increasing"):
        HDensity(SYMMETRIC, breaks, (0.2,) * (len(breaks) - 1))


def test_density_json_roundtrip():
    again = HDensity.from_json_dict(loads(dumps(STEP_SYM.to_json_dict())))
    assert again == STEP_SYM


def test_value_at_step_lookup():
    assert STEP_SYM.value_at(0.0) == 0.9
    assert STEP_SYM.value_at(0.29) == 0.9
    assert STEP_SYM.value_at(0.3) == 0.2
    assert STEP_SYM.value_at(1.0) == 0.55


def test_h_order_on_nested_and_crossing_densities():
    lo = HDensity.constant(0.2, SYMMETRIC)
    hi = HDensity.constant(0.8, SYMMETRIC)
    # symmetric class: larger density => smaller mean
    assert h_order(hi, lo) == "leq"
    assert h_order(lo, hi) == "geq"
    assert h_order(lo, lo) == "equal"
    crossing = HDensity(SYMMETRIC, (0.0, 0.5, 1.0), (0.0, 1.0))
    assert h_order(crossing, HDensity.constant(0.5, SYMMETRIC)) == "incomparable"
    # self-adjoint class: larger density => larger mean
    slo = HDensity.constant(0.2, SELF_ADJOINT)
    shi = HDensity.constant(0.8, SELF_ADJOINT)
    assert h_order(shi, slo) == "geq"
    assert h_order(slo, shi) == "leq"


def test_dagger_density_flips_and_is_involutive():
    d = dagger_density(STEP_SA)
    assert d.domain_class == STEP_SA.domain_class
    assert d.breaks == STEP_SA.breaks
    assert d.values == tuple(1.0 - v for v in STEP_SA.values)
    twice = dagger_density(d)
    assert twice.breaks == STEP_SA.breaks
    assert twice.values == pytest.approx(STEP_SA.values, abs=1e-15)


@pytest.mark.parametrize("op", [h_order, lattice_meet_join], ids=["h_order", "lattice"])
def test_pair_operations_share_one_input_check(op):
    # a non-density argument on either side, then a class mismatch
    h = HDensity.constant(0.3, SYMMETRIC)
    for args in ((h, "x"), ("x", h), (h, {"class": "sym"})):
        with pytest.raises(StructuralError, match=f"{op.__name__} expects two HDensity values"):
            op(*args)
    with pytest.raises(StructuralError, match="density class mismatch: 'sym' vs 'sa'"):
        op(h, HDensity.constant(0.3, SELF_ADJOINT))


def test_lattice_meet_join_orientation():
    lo = HDensity.constant(0.2, SYMMETRIC)
    hi = HDensity.constant(0.8, SYMMETRIC)
    meet, join = lattice_meet_join(lo, hi)
    # meet is below both: in the symmetric class that is the larger density
    assert h_order(meet, lo) in ("leq", "equal")
    assert h_order(meet, hi) in ("leq", "equal")
    assert h_order(lo, join) in ("leq", "equal")
    assert h_order(hi, join) in ("leq", "equal")
    slo = HDensity.constant(0.2, SELF_ADJOINT)
    shi = HDensity.constant(0.8, SELF_ADJOINT)
    smeet, sjoin = lattice_meet_join(slo, shi)
    assert h_order(smeet, slo) in ("leq", "equal")
    assert h_order(sjoin, shi) in ("geq", "equal")
