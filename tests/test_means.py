"""Mean catalog: descriptors, closed forms, spectral evaluation, axioms."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmeans import (SELF_ADJOINT, SYMMETRIC, ConditioningError, HDensity,
                     MeanDescriptor, StructuralError, UsageError, eval_mean,
                     parse_mean_descriptor, random_spd, representing_function,
                     verify_mean_axioms)

CATALOG = [MeanDescriptor.arithmetic(), MeanDescriptor.harmonic(),
           MeanDescriptor.geometric(), MeanDescriptor.weighted_geometric(0.3),
           MeanDescriptor.heinz(0.25), MeanDescriptor.heron(0.7)]


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
    with pytest.raises((StructuralError, ConditioningError)):
        eval_mean(np.eye(2), np.diag([1.0, 0.0]), MeanDescriptor.geometric())


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
