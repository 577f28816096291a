"""Core SPD machinery: eigensolver, validation, order test, square roots."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmeans import (ConditioningError, RelativeSpectrum, SpdMatrix,
                     StructuralError, apply_spectral_function, as_spd, loewner_leq,
                     matrix_from_json_dict, matrix_to_json_dict,
                     min_eig_and_norm, random_spd, sqrt_pair,
                     sym_eigendecompose)
from opmeans.jsonio import dumps, loads
from opmeans.spd import random_spd_from

EPS = np.finfo(float).eps


def test_eigendecompose_matches_numpy_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8):
        for _ in range(20):
            g = rng.standard_normal((n, n))
            a = 0.5 * (g + g.T)
            dec = sym_eigendecompose(a)
            expect = np.sort(np.linalg.eigvalsh(a))[::-1]
            assert np.allclose(dec.eigenvalues, expect, rtol=1e-11, atol=1e-11)
            # orthonormal basis, exact reconstruction
            v = dec.basis
            assert np.allclose(v.T @ v, np.eye(n), atol=1e-12)
            assert np.allclose(dec.reconstruct(), a, atol=1e-11 * max(1.0, np.linalg.norm(a)))


def test_eigendecompose_orders_nonascending_and_is_deterministic():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    d1 = sym_eigendecompose(a)
    d2 = sym_eigendecompose(a.copy())
    assert d1.eigenvalues[0] >= d1.eigenvalues[1]
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.basis, d2.basis)


def test_eigendecompose_converges_on_hard_random_matrices():
    # reconstruction holds to working accuracy at condition numbers up to 1e3
    for seed in range(30):
        m = random_spd(6, cond_cap=1000.0, seed=seed)
        dec = sym_eigendecompose(m.entries)
        assert np.allclose(dec.reconstruct(), m.entries,
                           atol=1e-10 * np.linalg.norm(m.entries))


def _mp_eigenvalues(a):
    """Non-ascending eigenvalues of the float matrix a, from 50-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        w = mpmath.eigsy(mpmath.matrix(a.tolist()), eigvals_only=True)
        return np.array(sorted((float(x) for x in w), reverse=True))


def test_eigenvalues_meet_normwise_accuracy_contract():
    # |lambda_i - lambda_i*| <= 4 n eps ||A||_2, the guarantee of a backward
    # stable solver, on graded D M D (wide-range D, well-conditioned M) in
    # decreasing, increasing and permuted grading, and on both paths:
    # eigenvectors requested (sym_eigendecompose) or not (min_eig_and_norm)
    rng = np.random.default_rng(2024)
    for n in (2, 3, 6, 10, 16):
        grade = np.logspace(0.0, -8.0, n)
        for d in (grade, grade[::-1], rng.permutation(grade)):
            m = random_spd_from(rng, n, cond_cap=10.0).entries
            a = m * np.outer(d, d)
            a = 0.5 * (a + a.T)
            exact = _mp_eigenvalues(a)
            bound = 4.0 * n * EPS * float(np.max(np.abs(exact)))
            got = sym_eigendecompose(a).eigenvalues
            assert np.max(np.abs(got - exact)) <= bound, (n, d)
            assert abs(min_eig_and_norm(a)[0] - exact[-1]) <= bound, (n, d)


def test_eigenvalues_relative_accuracy_within_condition_number():
    # |lambda_i - lambda_i*| / lambda_i* <= 4 n eps kappa on random SPD input
    for n in (2, 3, 6, 10, 16):
        for seed in range(3):
            a = random_spd(n, cond_cap=1e3, seed=seed).entries
            exact = _mp_eigenvalues(a)
            kappa = exact[0] / exact[-1]
            got = sym_eigendecompose(a).eigenvalues
            assert np.max(np.abs(got - exact) / exact) <= 4.0 * n * EPS * kappa, (n, seed)


def test_overflowed_input_raises_conditioning_error():
    # B - A and (M + M^T)/2 overflow to inf; the eigensolver must refuse
    # rather than hand back NaN eigenvalues (or a False order verdict)
    with np.errstate(over="ignore"):
        with pytest.raises(ConditioningError):
            loewner_leq(np.diag([-1e308, 1.0]), np.diag([1e308, 1.0]))
        huge = np.full((3, 3), 1e308)
        with pytest.raises(ConditioningError):
            min_eig_and_norm(huge)
        with pytest.raises(ConditioningError):
            sym_eigendecompose(huge)


def test_spd_validation_rejects_bad_inputs():
    with pytest.raises(StructuralError):
        SpdMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))     # asymmetric
    with pytest.raises(StructuralError):
        SpdMatrix(np.array([[1.0, 0.0], [0.0, -2.0]]))    # indefinite
    with pytest.raises(StructuralError):
        SpdMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))     # singular
    with pytest.raises(StructuralError):
        SpdMatrix(np.array([1.0, 2.0]))                   # not 2-d
    with pytest.raises(StructuralError):
        SpdMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))  # non-finite


def test_spd_matrix_is_immutable_value_object():
    m = SpdMatrix(np.eye(2))
    assert m.n == 2
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0
    assert as_spd(m) is m
    assert np.array_equal(SpdMatrix.identity(3).entries, np.eye(3))


def test_matrix_json_roundtrip():
    m = random_spd(3, seed=1).entries
    again = matrix_from_json_dict(loads(dumps(matrix_to_json_dict(m))))
    assert np.array_equal(m, again)


def test_matrix_json_rejects_malformed():
    with pytest.raises(StructuralError):
        matrix_from_json_dict({"rows": [[1.0]]})
    with pytest.raises(StructuralError):
        matrix_from_json_dict({"n": 2, "rows": [[1.0, 0.0]]})


def test_loewner_leq_basic():
    a = np.eye(2)
    assert loewner_leq(a, 2.0 * a)
    assert not loewner_leq(2.0 * a, a)
    assert loewner_leq(a, a)
    # non-comparable pair: neither direction
    b = np.diag([3.0, 0.5])
    assert not loewner_leq(a, b) and not loewner_leq(b, a)


def test_min_eig_and_norm():
    me, nrm = min_eig_and_norm(np.diag([3.0, -1.0]))
    assert me == pytest.approx(-1.0, abs=1e-12)
    assert nrm == pytest.approx(np.sqrt(10.0), rel=1e-12)


def test_loewner_leq_rejects_empty_matrices():
    empty = np.zeros((0, 0))
    with pytest.raises(StructuralError, match="A must have at least one row"):
        loewner_leq(empty, empty)


def test_min_eig_and_norm_rejects_empty_matrix():
    with pytest.raises(StructuralError, match="must have at least one row"):
        min_eig_and_norm(np.zeros((0, 0)))


def test_sqrt_pair_inverts():
    m = random_spd(4, seed=3).entries
    root, inv_root = sqrt_pair(m)
    assert np.allclose(root @ root, m, atol=1e-11 * np.linalg.norm(m))
    assert np.allclose(root @ inv_root, np.eye(4), atol=1e-10)


def test_relative_spectrum_reproduces_its_pair():
    # kappa is the joint condition number of the pair
    for n in (1, 2, 3, 8):
        for seed in range(10):
            p = random_spd(n, seed=seed).entries
            q = random_spd(n, seed=seed + 100).entries
            wp, wq = np.linalg.eigvalsh(p), np.linalg.eigvalsh(q)
            bound = 4.0 * n * EPS * max(wp[-1], wq[-1]) / min(wp[0], wq[0])
            spectrum = RelativeSpectrum(p, q)
            ev = spectrum.eigenvalues
            for got, want in ((spectrum.congruate(np.ones(n)), p),
                              (spectrum.congruate(ev), q)):
                assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)
            assert np.all(ev[:-1] >= ev[1:])
            exact = np.sort(np.linalg.eigvals(np.linalg.solve(p, q)).real)[::-1]
            assert np.max(np.abs(ev - exact) / exact) <= bound
            assert spectrum.condition == pytest.approx(exact[0] / exact[-1], rel=2.0 * bound)


def test_relative_spectrum_rejects_malformed_pairs():
    good = np.eye(2)
    for p, q in ((good, np.eye(3)), (np.ones((2, 3)), np.ones((2, 3))),
                 (np.zeros((0, 0)), np.zeros((0, 0))),
                 (good, np.array([[np.nan, 0.0], [0.0, 1.0]]))):
        with pytest.raises(StructuralError):
            RelativeSpectrum(p, q)


def test_apply_spectral_function_log_exp_inverse():
    m = random_spd(4, seed=9).entries
    back = apply_spectral_function(apply_spectral_function(m, np.log), np.exp)
    assert np.allclose(back, m, atol=1e-10 * np.linalg.norm(m))


def test_random_spd_deterministic_and_conditioned():
    a = random_spd(5, cond_cap=100.0, seed=42).entries
    b = random_spd(5, cond_cap=100.0, seed=42).entries
    assert np.array_equal(a, b)
    w = np.linalg.eigvalsh(a)
    assert w.max() / w.min() <= 100.0 * (1.0 + 1e-9)
    assert w.min() > 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=5))
def test_property_congruence_of_spectral_apply(seed, n):
    # U f(M) U^T == f(U M U^T) for orthogonal U
    rng = np.random.default_rng(seed)
    m = random_spd(n, cond_cap=50.0, seed=seed).entries
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lhs = q @ apply_spectral_function(m, np.sqrt) @ q.T
    rhs = apply_spectral_function(q @ m @ q.T, np.sqrt)
    assert np.allclose(lhs, rhs, atol=1e-9 * max(1.0, np.linalg.norm(rhs)))
