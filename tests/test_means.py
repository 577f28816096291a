"""Mean catalog: descriptors, closed forms, spectral evaluation, axioms."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmeans import (SELF_ADJOINT, SYMMETRIC, ConditioningError, HDensity,
                     MeanDescriptor, StructuralError, UsageError, build_monotone_chain,
                     eval_mean, falsify_transfer, ka_condition_check, parse_mean_descriptor,
                     random_spd, representing_function, solve_matrix_pair,
                     solve_scalar_geometric_pair, verify_mean_axioms)
from opmeans import spd as spd_module
from opmeans.spd import random_spd_from

CATALOG = [MeanDescriptor.arithmetic(), MeanDescriptor.harmonic(),
           MeanDescriptor.geometric(), MeanDescriptor.weighted_geometric(0.3),
           MeanDescriptor.heinz(0.25), MeanDescriptor.heron(0.7)]


def test_labels_print_each_parameter_exactly():
    # :g would print s = 0.4999999 as 0.5, the label of another mean; labels
    # that :g already prints exactly keep its form
    labels = {MeanDescriptor.heinz(0.4999999): "Heinz mean (s = 0.4999999)",
              MeanDescriptor.heinz(0.5): "Heinz mean (s = 0.5)",
              MeanDescriptor.heinz(0): "Heinz mean (s = 0)",
              MeanDescriptor.heron(1e-6): "Heron mean (s = 1e-06)",
              MeanDescriptor.heron(0.1 + 0.2): "Heron mean (s = 0.30000000000000004)",
              MeanDescriptor.weighted_geometric(1 / 3):
                  "weighted geometric mean (exponent 0.3333333333333333)",
              MeanDescriptor.weighted_geometric(0.13): "weighted geometric mean (exponent 0.13)"}
    for desc, label in labels.items():
        assert desc.describe() == label
        assert representing_function(desc).label == label


def test_representing_function_closed_forms():
    t = np.linspace(0.1, 5.0, 23)
    table = {
        "arithmetic": 0.5 * (1.0 + t),
        "harmonic": 2.0 * t / (1.0 + t),
        "geometric": np.sqrt(t),
    }
    for d in CATALOG[:3]:
        fn = representing_function(d)
        got = np.array([fn.value(x) for x in t])
        assert np.allclose(got, table[d.kind], rtol=1e-14)
    w = representing_function(MeanDescriptor.weighted_geometric(0.3))
    assert np.allclose([w.value(x) for x in t], t ** 0.3, rtol=1e-14)
    hz = representing_function(MeanDescriptor.heinz(0.25))
    assert np.allclose([hz.value(x) for x in t],
                       0.5 * (t ** 0.25 + t ** 0.75), rtol=1e-14)
    hr = representing_function(MeanDescriptor.heron(0.7))
    assert np.allclose([hr.value(x) for x in t],
                       0.7 * 0.5 * (1.0 + t) + 0.3 * np.sqrt(t), rtol=1e-14)


def test_derivatives_match_central_differences():
    for d in CATALOG:
        fn = representing_function(d)
        for t in (0.2, 1.0, 3.7):
            h = 1e-6 * t
            num = (fn.value(t + h) - fn.value(t - h)) / (2.0 * h)
            assert fn.derivative(t) == pytest.approx(num, rel=1e-7)


def test_normalization_f_of_one_is_one():
    for d in CATALOG:
        assert representing_function(d).value(1.0) == pytest.approx(1.0, abs=1e-12)


def test_calling_a_representing_function_is_its_value():
    density = MeanDescriptor.from_h_density(HDensity(SYMMETRIC, (0.0, 0.4, 1.0), (0.2, 0.7)))
    t = np.array([0.25, 1.0, 4.0])
    for d in CATALOG + [density]:
        fn = representing_function(d)
        assert np.asarray(fn(t)).tobytes() == np.asarray(fn.value(t)).tobytes()
        assert fn(2.0) == fn.value(2.0)


def test_eval_mean_commuting_diagonal_oracle():
    a = np.diag([1.0, 4.0, 9.0])
    b = np.diag([4.0, 4.0, 1.0])
    geo = eval_mean(a, b, MeanDescriptor.geometric())
    assert np.allclose(geo, np.diag([2.0, 4.0, 3.0]), atol=1e-12)
    ar = eval_mean(a, b, MeanDescriptor.arithmetic())
    assert np.allclose(ar, 0.5 * (a + b), atol=1e-12)
    ha = eval_mean(a, b, MeanDescriptor.harmonic())
    assert np.allclose(ha, np.diag([2 * 4 / 5.0, 4.0, 2 * 9 / 10.0]), atol=1e-12)


def test_eval_mean_known_2x2_geometric():
    # A = I makes the geometric mean the square root of B
    b = np.array([[2.0, 1.0], [1.0, 2.0]])
    geo = eval_mean(np.eye(2), b, MeanDescriptor.geometric())
    assert np.allclose(geo @ geo, b, atol=1e-12)


def test_eval_mean_symmetry_of_symmetric_means():
    a = random_spd(3, seed=1).entries
    b = random_spd(3, seed=2).entries
    for d in [MeanDescriptor.arithmetic(), MeanDescriptor.harmonic(),
              MeanDescriptor.geometric(), MeanDescriptor.heinz(0.25),
              MeanDescriptor.heron(0.7)]:
        m1 = eval_mean(a, b, d)
        m2 = eval_mean(b, a, d)
        assert np.allclose(m1, m2, atol=1e-10 * np.linalg.norm(m1))


def test_weighted_geometric_weight_swap():
    a = random_spd(3, seed=4).entries
    b = random_spd(3, seed=5).entries
    m1 = eval_mean(a, b, MeanDescriptor.weighted_geometric(0.3))
    m2 = eval_mean(b, a, MeanDescriptor.weighted_geometric(0.7))
    assert np.allclose(m1, m2, atol=1e-10 * np.linalg.norm(m1))


def test_density_mean_matches_catalog_counterpart():
    a = random_spd(3, seed=6).entries
    b = random_spd(3, seed=7).entries
    by_density = eval_mean(a, b, MeanDescriptor.from_h_density(
        HDensity.constant(0.5, SYMMETRIC)))
    geo = eval_mean(a, b, MeanDescriptor.geometric())
    assert np.allclose(by_density, geo, atol=1e-9 * np.linalg.norm(geo))
    sa = eval_mean(a, b, MeanDescriptor.from_h_density(
        HDensity.constant(0.3, SELF_ADJOINT)))
    wg = eval_mean(a, b, MeanDescriptor.weighted_geometric(0.3))
    assert np.allclose(sa, wg, atol=1e-9 * np.linalg.norm(wg))


def test_descriptor_validation():
    with pytest.raises(StructuralError):
        MeanDescriptor.weighted_geometric(0.0)    # open interval
    with pytest.raises(StructuralError):
        MeanDescriptor.weighted_geometric(1.0)
    with pytest.raises(StructuralError):
        MeanDescriptor.heinz(-0.1)
    with pytest.raises(StructuralError):
        MeanDescriptor.heron(1.5)
    MeanDescriptor.heinz(0.0)                     # closed interval is fine
    MeanDescriptor.heron(1.0)
    with pytest.raises(StructuralError):
        MeanDescriptor("arithmetic", param=0.5)
    with pytest.raises(UsageError):
        MeanDescriptor("nonsense")
    for kind in (["x"], None, 3):       # not a string, hashable or not
        with pytest.raises(UsageError, match=re.escape(f"unknown mean kind {kind!r}")):
            MeanDescriptor(kind)


def test_parse_mean_descriptor_forms(tmp_path):
    assert parse_mean_descriptor("arithmetic").kind == "arithmetic"
    assert parse_mean_descriptor("wgeo:0.25").param == 0.25
    assert parse_mean_descriptor("heinz:0.1").kind == "heinz"
    hfile = tmp_path / "h.json"
    hfile.write_text('{"class": "sym", "breaks": [0.0, 1.0], "values": [0.5]}')
    d = parse_mean_descriptor(f"hdensity:{hfile}")
    assert d.density.domain_class == SYMMETRIC
    for bad in ("", "wgeo", "wgeo:x", "wgeo:1.5", "arithmetic:1", "foo:1"):
        with pytest.raises(UsageError):
            parse_mean_descriptor(bad)


def test_eval_mean_rejects_mismatched_and_singular():
    with pytest.raises(StructuralError):
        eval_mean(np.eye(2), np.eye(3), MeanDescriptor.arithmetic())
    asymmetric = np.array([[2.0, 0.9], [0.0, 2.0]])
    for a, b in ((np.eye(2), asymmetric), (asymmetric, np.eye(2))):
        with pytest.raises(StructuralError):
            eval_mean(a, b, MeanDescriptor.arithmetic())
    with pytest.raises((StructuralError, ConditioningError)):
        eval_mean(np.eye(2), np.diag([1.0, 0.0]), MeanDescriptor.geometric())


def test_eval_mean_is_accurate_when_a_is_ill_conditioned():
    # A with kappa(A) = 1e8 against a 50-digit reference, in Frobenius norm.
    # Congruating through P^{1/2} and P^{-1/2} as matrices gave a median
    # relative error of 3.4e-9 here; the factor C = A^{1/2} U gives 6.0e-12
    mpmath = pytest.importorskip("mpmath")
    scalar = [(MeanDescriptor.geometric(), mpmath.sqrt),
              (MeanDescriptor.heinz(0.3), lambda t: (t ** 0.3 + t ** 0.7) / 2),
              (MeanDescriptor.harmonic(), lambda t: 2 * t / (1 + t))]
    rng = np.random.default_rng(0)
    errors = []
    for _ in range(12):
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        a = (q * np.geomspace(1.0, 1e8, 4)) @ q.T
        a = 0.5 * (a + a.T)
        b = random_spd_from(rng, 4, 100.0).entries
        with mpmath.workdps(50):
            w, v = mpmath.eigsy(mpmath.matrix(a.tolist()))
            root = v * mpmath.diag([mpmath.sqrt(x) for x in w]) * v.T
            inv_root = v * mpmath.diag([1 / mpmath.sqrt(x) for x in w]) * v.T
            lam, u = mpmath.eigsy(inv_root * mpmath.matrix(b.tolist()) * inv_root)
            c = root * u
            for descriptor, f in scalar:
                exact = c * mpmath.diag([f(x) for x in lam]) * c.T
                diff = mpmath.matrix(eval_mean(a, b, descriptor).tolist()) - exact
                errors.append(float(mpmath.mnorm(diff, "f") / mpmath.mnorm(exact, "f")))
    assert np.median(errors) <= 1e-10 and max(errors) <= 1e-7


def test_eval_mean_refuses_ill_conditioned_definite_pair():
    # both matrices are positive definite; the relative spectrum spans 1e13
    with pytest.raises(ConditioningError):
        eval_mean(np.eye(2), np.diag([1.0, 1e-13]), MeanDescriptor.geometric())


def test_axiom_report_all_catalog_means():
    for d in CATALOG:
        report = verify_mean_axioms(d, trials=8)
        assert report.normalization_ok
        assert report.class_identity_ok
        assert report.monotone_status == "consistent"
        assert report.transformer_ok, d.describe()
        assert report.all_ok


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": -3}, "trials must be a non-negative integer"),
    ({"trials": 2.5}, "trials must be a non-negative integer"),
    ({"seed": -1}, "seed must be a non-negative integer"),
    ({"tol": 0.0}, "tolerance must be a finite positive real"),
    ({"tol": float("nan")}, "tolerance must be a finite positive real"),
    ({"trials": 0, "n": -5}, "matrix size must be a positive integer"),
    ({"trials": 1, "n": -5}, "matrix size must be a positive integer"),
    ({"trials": 0, "n": 2.5}, "matrix size must be a positive integer")])
def test_axiom_check_validates_its_arguments_before_sampling(kwargs, message):
    # as ka_condition_check does: no bad argument reads as all_ok
    with pytest.raises(StructuralError, match=message):
        verify_mean_axioms(MeanDescriptor.geometric(), **kwargs)


def _congruence_residual_one_trial_at_a_time(d, seed, trials, n):
    """The worst congruence residual of verify_mean_axioms, from validated
    draws of A, B and T evaluated trial by trial."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        a, b, t = (random_spd_from(rng, n, cond_cap=cap).entries for cap in (50.0, 50.0, 10.0))
        lhs = t @ eval_mean(a, b, d) @ t
        rhs = eval_mean(t @ a @ t, t @ b @ t, d)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / max(1.0, float(np.linalg.norm(rhs))))
    return worst


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_axiom_check_decomposes_only_the_means_of_its_trials(monkeypatch, n):
    # A, B and T are drawn without validation: a trial costs just the four
    # eigensolves of its two means, and the stacked trials give the
    # residual of the trials run one at a time, bit for bit
    matrices = []
    real = spd_module._eigh

    def counting(a, *args, **kwargs):
        matrices.append(a.shape[0] if a.ndim == 3 else 1)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(spd_module, "_eigh", counting)
    for d in CATALOG:
        for seed in (0, 3):
            counts = {}
            for trials in (0, 10):      # both sample 10 monotonicity trials
                matrices.clear()
                report = verify_mean_axioms(d, trials=trials, seed=seed, n=n)
                counts[trials] = sum(matrices)
            assert counts[10] - counts[0] == 4 * 10
            assert report.max_transformer_residual == \
                _congruence_residual_one_trial_at_a_time(d, seed, 10, n)
            assert report.all_ok


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_property_geometric_mean_congruence_invariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    a = random_spd(n, cond_cap=30.0, seed=seed).entries
    b = random_spd(n, cond_cap=30.0, seed=seed + 1).entries
    t = random_spd(n, cond_cap=5.0, seed=seed + 2).entries
    lhs = t @ eval_mean(a, b, MeanDescriptor.geometric()) @ t
    rhs = eval_mean(t @ a @ t, t @ b @ t, MeanDescriptor.geometric())
    assert np.allclose(lhs, rhs, atol=1e-8 * max(1.0, np.linalg.norm(rhs)))


def test_malformed_descriptors_raise_typed_errors():
    with pytest.raises(StructuralError, match="heinz mean needs a numeric parameter"):
        MeanDescriptor("heinz")
    with pytest.raises(StructuralError, match="heinz parameter must be finite"):
        MeanDescriptor("heinz", param=math.nan)
    with pytest.raises(StructuralError, match="hdensity mean needs an HDensity"):
        MeanDescriptor("hdensity")
    with pytest.raises(StructuralError, match="density must be an HDensity"):
        MeanDescriptor("hdensity", density="x")
    with pytest.raises(UsageError, match="hdensity needs a JSON file path"):
        parse_mean_descriptor("hdensity:")


@pytest.mark.parametrize("kind", ["wgeo", "heinz", "heron"])
@pytest.mark.parametrize("param", [True, False, "0.25", b"0.25", 0.25j])
def test_mean_parameter_must_be_a_real_number(kind, param):
    # float() alone turned True into 1.0 and accepted the text "0.25"
    with pytest.raises(StructuralError) as info:
        MeanDescriptor(kind, param=param)
    assert str(info.value) == f"{kind} parameter must be a real number, got {param!r}"
    assert MeanDescriptor(kind, param=np.float64(0.25)).param == 0.25


_ARITH, _HARM, _I = MeanDescriptor.arithmetic(), MeanDescriptor.harmonic(), np.eye(2)
_TAKES_A_MEAN = {
    "representing_function": representing_function,
    "eval_mean": lambda m: eval_mean(_I, 2.0 * _I, m),
    "solve_matrix_pair": lambda m: solve_matrix_pair(m, _I, 2.0 * _I),
    "solve_scalar_geometric_pair": lambda m: solve_scalar_geometric_pair(m, 1.0, 2.0),
    "build_monotone_chain": lambda m: build_monotone_chain(m, _I, 2.0 * _I),
    "falsify_transfer-sigma": lambda m: falsify_transfer(np.sqrt, m, _ARITH),
    "falsify_transfer-tau": lambda m: falsify_transfer(np.sqrt, _HARM, m),
    "ka_condition_check-sigma": lambda m: ka_condition_check(m, _ARITH),
    "ka_condition_check-tau": lambda m: ka_condition_check(_ARITH, m),
    "verify_mean_axioms": verify_mean_axioms}


@pytest.mark.parametrize("mean", ["arithmetic", None, ["a"], 3])
@pytest.mark.parametrize("entry", _TAKES_A_MEAN)
def test_a_mean_that_is_not_a_mean_descriptor_raises_structural_error(entry, mean):
    # was an AttributeError on .kind, or a TypeError from the cache's hash
    with pytest.raises(StructuralError,
                       match=f"^mean must be a MeanDescriptor, got {type(mean).__name__}$"):
        _TAKES_A_MEAN[entry](mean)
