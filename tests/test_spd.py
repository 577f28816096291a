"""Core SPD machinery: eigensolver, validation, order test, square roots."""
import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opmeans
from opmeans import (ConditioningError, DomainError, MeanDescriptor, MonoConfig,
                     RelativeSpectrum, SpdMatrix, StructuralError, apply_spectral_function,
                     as_spd, eval_mean, eval_mean_from_function, falsify_transfer,
                     ka_condition_check, loewner_leq,
                     matrix_from_json_dict, matrix_to_json_dict,
                     min_eig_and_norm, parse_function, random_spd, representing_function,
                     sqrt_pair, sym_eigendecompose, verify_inequality_chain,
                     verify_mean_axioms)
from opmeans.jsonio import dumps, loads
from opmeans.monocheck import loewner_matrix
from opmeans import spd as spd_module
from opmeans.spd import _eigh, _frobenius, _random_spd_stack, random_spd_from

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


def test_symmetrization_of_finite_values_near_the_float_limit_stays_finite():
    # f(M) has entries near 1e308: (a + a^T) / 2 would overflow on the sum
    got = apply_spectral_function([[2.0, 0.5], [0.5, 1.0]], lambda t: t + 1e308)
    assert np.isfinite(got).all()
    assert got[0, 0] == pytest.approx(1e308) and got[1, 1] == pytest.approx(1e308)


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


@pytest.mark.parametrize("n", [1, 2, 4])
def test_spd_matrix_of_a_stack_is_each_matrix_alone(n):
    # the sampled checks validate their random matrices as one SpdMatrix stack
    # and reuse its kept spectrum: both must be those of each matrix alone
    stack = _random_spd_stack(np.random.default_rng(n), 9, n, 50.0)
    many = SpdMatrix(stack)
    singles = [SpdMatrix(m) for m in stack]
    assert many.n == n and many.entries.shape == (9, n, n)
    assert all(np.array_equal(many.entries[k], s.entries) for k, s in enumerate(singles))
    for part in (0, 1):
        assert all(np.array_equal(many._spectrum[part][k], s._spectrum[part])
                   for k, s in enumerate(singles))
    for x in (many.entries, *many._spectrum):
        with pytest.raises(ValueError):
            x[0] = 0.0
    # one bad matrix refuses the stack, as it would alone
    for bad, message in ((np.diag(np.r_[-1.0, np.ones(n - 1)]), "not positive definite"),
                         (np.triu(np.ones((n, n))) + n * np.eye(n), "not symmetric")):
        if n == 1 and message == "not symmetric":
            continue
        with pytest.raises(StructuralError, match=message):
            SpdMatrix(np.concatenate((stack, bad[None])))


def test_spd_matrix_is_immutable_value_object():
    m = SpdMatrix(np.eye(2))
    assert m.n == 2
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0
    assert as_spd(m) is m
    assert np.array_equal(SpdMatrix.identity(3).entries, np.eye(3))


_SQUARE = "X: SpdMatrix must be a square 2-d array, got shape "


@pytest.mark.parametrize("m, message", [
    (np.ones(3), _SQUARE + "(3,)"),
    (np.ones((2, 2, 2)), _SQUARE + "(2, 2, 2)"),
    (np.ones((1, 2, 2, 2)), _SQUARE + "(1, 2, 2, 2)"),
    ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], _SQUARE + "(2, 3)"),
    (np.zeros((0, 0)), "X: SpdMatrix must have at least one row"),
    ([], _SQUARE + "(0,)"),
    ([[1.0, np.nan], [np.nan, 1.0]], "X: SpdMatrix contains non-finite entries"),
    ([[np.inf, 0.0], [0.0, 1.0]], "X: SpdMatrix contains non-finite entries"),
    (3.0, _SQUARE + "()"),
    (SpdMatrix(np.stack((np.eye(2), 2.0 * np.eye(2)))), _SQUARE + "(2, 2, 2)")],
    ids=["1-d", "3-d", "4-d", "non-square", "empty", "empty-1-d", "nan", "inf", "scalar",
         "spd-stack"])
def test_as_spd_structural_errors(m, message):
    with pytest.raises(StructuralError) as info:
        as_spd(m, "X")
    assert str(info.value) == message


@pytest.mark.parametrize("m", [[[1.0, 2.0], [3.0]], "ab"], ids=["ragged", "string"])
def test_as_spd_passes_on_numpy_conversion_errors(m):
    # input numpy cannot read as floats raises numpy's own ValueError
    with pytest.raises(ValueError) as want:
        np.asarray(m, dtype=float)
    with pytest.raises(ValueError) as got:
        as_spd(m, "X")
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_matrix_json_roundtrip():
    m = random_spd(3, seed=1).entries
    again = matrix_from_json_dict(loads(dumps(matrix_to_json_dict(m))))
    assert np.array_equal(m, again)


def test_spd_matrix_json_roundtrip_is_bitwise():
    m = random_spd(4, cond_cap=1e3, seed=2)
    again = SpdMatrix.from_json_dict(loads(dumps(m.to_json_dict())))
    assert again.entries.tobytes() == m.entries.tobytes()
    assert m.to_json_dict()["n"] == 4


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


def test_shape_mismatch_in_the_loewner_order_is_a_structural_error():
    with pytest.raises(StructuralError, match=r"shape mismatch: \(2, 2\) vs \(3, 3\)"):
        loewner_leq(np.eye(2), np.eye(3))


def test_asymmetric_input_is_rejected_with_the_argument_named():
    # the symmetric part of [[1, 5], [-5, 1]] is I: measuring it instead
    # would report min eigenvalue 1 and norm sqrt(2) for a matrix of norm 7.2
    skew = np.array([[1.0, 5.0], [-5.0, 1.0]])
    zeros = np.zeros((2, 2))
    with pytest.raises(StructuralError, match="matrix is not symmetric"):
        min_eig_and_norm(skew)
    with pytest.raises(StructuralError, match="matrix is not symmetric"):
        min_eig_and_norm(np.stack((np.eye(2), skew)))
    with pytest.raises(StructuralError, match="B is not symmetric"):
        loewner_leq(zeros, skew)
    with pytest.raises(StructuralError, match="A is not symmetric"):
        loewner_leq(skew, zeros)
    # asymmetry within SYMMETRY_RTOL is rounding: the symmetric part is measured
    near = np.array([[2.0, 1.0 + 4e-16], [1.0, 3.0]])
    part = 0.5 * (near + near.T)
    assert min_eig_and_norm(near) == min_eig_and_norm(part)
    assert loewner_leq(zeros, near) and loewner_leq(near, 4.0 * np.eye(2))


def test_norms_of_huge_matrices_do_not_overflow():
    # x @ x overflows past about 1e154; such matrices are measured after an
    # exact power-of-two scaling, without warnings (pyproject makes them errors)
    big = 1e200 * np.eye(2)
    zeros = np.zeros((2, 2))
    assert not loewner_leq(big, zeros)
    assert loewner_leq(zeros, big)
    assert SpdMatrix(big).n == 2
    assert min_eig_and_norm(-big) == (-1e200, math.sqrt(2.0) * 1e200)
    # every finite plain norm is kept bitwise, in a stack as alone
    stack = np.stack((big, np.diag([3.0, 1e-200]), np.full((2, 2), 1e308)))
    norms = _frobenius(stack)
    assert norms[0] == math.sqrt(2.0) * 1e200
    assert norms[1] == np.linalg.norm(stack[1]) == _frobenius(stack[1])
    assert norms[2] == math.inf                  # the norm itself overflows
    plain = _random_spd_stack(np.random.default_rng(5), 7, 4, 50.0)
    assert all(_frobenius(plain)[k] == _frobenius(m) for k, m in enumerate(plain))


def test_norms_of_tiny_matrices_do_not_underflow():
    # x @ x underflows to 0 below about 1e-162; such matrices are measured
    # after an exact power-of-two scaling, and a zero matrix still reads 0
    m = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.25], [0.0, -0.25, 3.0]])
    lo, norm = np.linalg.eigvalsh(m)[0], np.linalg.norm(m)
    assert min_eig_and_norm(1e-170 * m) == pytest.approx((1e-170 * lo, 1e-170 * norm),
                                                         rel=1e-14, abs=0.0)
    stack = np.stack((m, 1e-170 * m, np.zeros((3, 3)), 1e-300 * m))
    los, norms = min_eig_and_norm(stack)
    assert los[:2].tolist() == [lo, min_eig_and_norm(1e-170 * m)[0]]
    assert norms.tolist() == [norm, _frobenius(1e-170 * m), 0.0, _frobenius(1e-300 * m)]
    assert norms[3] == pytest.approx(1e-300 * norm, rel=1e-14, abs=0.0)


def test_norms_of_an_empty_stack_are_empty():
    assert _frobenius(np.empty((0, 3, 3))).shape == (0,)


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
                 (good, np.array([[np.nan, 0.0], [0.0, 1.0]])),
                 (good, np.array([[2.0, 0.9], [0.0, 2.0]])),
                 (np.array([[2.0, 0.9], [0.0, 2.0]]), good)):
        with pytest.raises(StructuralError):
            RelativeSpectrum(p, q)


def test_relative_spectrum_reuses_the_spd_decomposition_bitwise():
    # an SpdMatrix P hands its kept eigendecomposition to RelativeSpectrum;
    # the result must be bitwise that of P's entries decomposed afresh
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 8):
        for _ in range(5):
            p, q = random_spd_from(rng, n), random_spd_from(rng, n)
            kept, fresh = RelativeSpectrum(p, q), RelativeSpectrum(p.entries, q.entries)
            values = rng.uniform(0.5, 2.0, (4, n))
            for name in ("factor", "eigenvalues"):
                got = getattr(kept, name)
                assert np.array_equal(got, getattr(fresh, name))
                assert got.flags.c_contiguous and not got.flags.writeable
            assert np.array_equal(kept.congruate(values), fresh.congruate(values))
    a, b = _random_spd_stack(rng, 6, 4, 50.0), _random_spd_stack(rng, 6, 4, 50.0)
    stack = RelativeSpectrum(a, b)
    for name in ("factor", "eigenvalues"):
        got = getattr(stack, name)
        assert got.flags.c_contiguous and not got.flags.writeable
    for k in range(len(a)):
        one = RelativeSpectrum(SpdMatrix(a[k]), SpdMatrix(b[k]))
        assert np.array_equal(stack.factor[k], one.factor)
        assert np.array_equal(stack.eigenvalues[k], one.eigenvalues)
        assert np.array_equal(stack.congruate(stack.eigenvalues)[k],
                              one.congruate(one.eigenvalues))


def test_spd_matrix_kept_decomposition_cannot_be_written():
    m = random_spd(4, seed=5)
    public = [getattr(m, name) for name in dir(m) if not name.startswith("_")]
    arrays = [x for x in public if isinstance(x, np.ndarray)] + list(m._spectrum)
    assert len(arrays) == 3
    for x in arrays:
        assert x.flags.c_contiguous and not x.flags.writeable
        with pytest.raises(ValueError):
            x[..., 0] = 0.0
    with pytest.raises(AttributeError):
        m._spectrum = (np.ones(4), np.eye(4))
    w, v = m._spectrum
    assert np.allclose((v * w) @ v.T, m.entries, atol=1e-12 * np.linalg.norm(m.entries))


def test_non_positive_pairs_raise_conditioning_errors_that_name_them():
    eye = np.eye(2)
    with pytest.raises(ConditioningError, match=r"square root of A .* got -1\.0$") as info:
        RelativeSpectrum(-eye, eye)
    assert "np.float64" not in str(info.value)
    with pytest.raises(ConditioningError, match="the pair is not positive definite") as info:
        eval_mean(eye, -eye, MeanDescriptor.arithmetic())
    assert "np.float64" not in str(info.value) and "ill-conditioned" not in str(info.value)
    with pytest.raises(ConditioningError, match="too ill-conditioned"):
        eval_mean(eye, np.diag([1.0, 1e-13]), MeanDescriptor.arithmetic())


_GEO, _ARITH = MeanDescriptor.geometric(), MeanDescriptor.arithmetic()
_TAKES_TOL_AND_SEED = {
    "MonoConfig": MonoConfig,
    "falsify_transfer": lambda **kw: falsify_transfer(lambda t: t * t, _GEO, _ARITH,
                                                      trials=20, **kw),
    "ka_condition_check": lambda **kw: ka_condition_check(_ARITH, _GEO, trials=5, **kw),
    "verify_mean_axioms": lambda **kw: verify_mean_axioms(_GEO, trials=5, **kw),
    "loewner_leq": lambda **kw: loewner_leq(np.eye(2), np.eye(2), **kw),
    "random_spd": lambda **kw: random_spd(2, **kw),
}
_BAD_TOL = (True, False, -1.0, 0.0, math.nan, math.inf, "1e-8")
_BAD_SEED = (True, -1, 1.5, "0")


@pytest.mark.parametrize("name, kwargs, message", [
    *(pytest.param(name, {"tol": tol}, "tolerance must be a finite positive real",
                   id=f"{name}-tol={tol!r}")
      for name in _TAKES_TOL_AND_SEED if name != "random_spd" for tol in _BAD_TOL),
    *(pytest.param(name, {"seed": seed}, "seed must be a non-negative integer",
                   id=f"{name}-seed={seed!r}")
      for name in _TAKES_TOL_AND_SEED if name != "loewner_leq" for seed in _BAD_SEED)])
def test_every_tol_and_seed_follows_one_rule(name, kwargs, message):
    # a bool tol once read as 1.0 ("consistent" where the default refutes), a
    # negative one made loewner_leq(I, I) False, and numpy took seed=True as 1
    with pytest.raises(StructuralError, match=message):
        _TAKES_TOL_AND_SEED[name](**kwargs)


def test_numpy_scalar_tol_and_seed_are_accepted():
    assert loewner_leq(np.eye(2), np.eye(2), tol=np.float64(1e-8))
    assert np.array_equal(random_spd(3, seed=np.int64(4)).entries, random_spd(3, seed=4).entries)


@pytest.mark.parametrize("a, b, error, message", [
    (np.ones((2, 3)), np.eye(2), StructuralError, r"^A must be a square 2-d array"),
    (np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]), StructuralError, r"^B is not symmetric"),
    (np.diag([1.0, -1.0]), np.eye(2), ConditioningError,
     r"^square root of A needs a positive spectrum")])
@pytest.mark.parametrize("call", [
    lambda a, b: eval_mean(a, b, _ARITH),
    lambda a, b: eval_mean_from_function(a, b, representing_function(_GEO)),
    lambda a, b: verify_inequality_chain(a, b, 0.3)],
    ids=["eval_mean", "eval_mean_from_function", "verify_inequality_chain"])
def test_pair_errors_name_the_arguments_a_and_b(call, a, b, error, message):
    with pytest.raises(error, match=message):
        call(a, b)


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


def test_apply_spectral_function_with_scalar_only_functions():
    assert np.array_equal(apply_spectral_function(np.array([[4.0]]), parse_function("sqrt(t)")),
                          [[2.0]])
    m = random_spd(3, seed=4).entries
    assert np.array_equal(apply_spectral_function(m, parse_function("sqrt(t)")),
                          apply_spectral_function(m, np.sqrt))
    with pytest.raises(DomainError):
        apply_spectral_function(-m, parse_function("sqrt(t)"))


def test_apply_spectral_function_separates_domain_errors_from_faults():
    m = random_spd(3, seed=4).entries
    with pytest.raises(DomainError, match=r"at eigenvalue -\d") as info:
        apply_spectral_function(-m, np.log)
    assert "np.float64" not in str(info.value)
    with pytest.raises(DomainError):
        apply_spectral_function(-m, math.sqrt)                  # ValueError
    with pytest.raises(DomainError):
        apply_spectral_function(m, lambda t: complex(t, 1.0))   # TypeError in float()
    with pytest.raises(NameError):
        apply_spectral_function(m, lambda t: t * undefined_name)  # noqa: F821


def test_eigensolver_is_called_only_inside_eigh():
    # per-layer decomposition counts rest on spd._eigh being the package's
    # one eigensolver: no other code may reach numpy's (or any) linalg.eig*,
    # nor the LAPACK gufuncs of numpy.linalg._umath_linalg
    package = Path(opmeans.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "spd.py":
            eigh = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "_eigh")
            allowed = set(range(eigh.lineno, eigh.end_lineno + 1))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("eig")
                    and (isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                         or getattr(node.value, "id", getattr(node.value, "attr", None))
                         == "_umath_linalg")):
                hit = node.lineno
            elif (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
                  and any(alias.name.startswith("eig") for alias in node.names)):
                hit = node.lineno
            else:
                continue
            if hit not in allowed:
                found.append(f"{path.name}:{hit}")
    assert found == [], f"eigensolver calls outside spd._eigh: {found}"


def test_only_spd_calls_the_public_validating_primitives():
    # package code hands its own (finite, exactly symmetric) arrays to the
    # private kernels; the public, validating entry points are for callers
    validating = {"min_eig_and_norm", "loewner_leq", "_pd_spectrum"}
    package = Path(opmeans.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "spd.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in validating:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == [], f"validating primitives called outside spd: {found}"


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("k", [1, 7, 64])
def test_stacked_primitives_match_each_matrix_alone_bitwise(k, n):
    # the sampled checks run their trials as stacks; every verdict, witness
    # and margin rests on each stacked result being that of its matrix alone
    def same(stacked, singles):
        return all(np.array_equal(x, y) for x, y in zip(stacked, singles, strict=True))

    rng = np.random.default_rng(1000 * k + n)
    a = _random_spd_stack(rng, k, n, 50.0)
    b = _random_spd_stack(rng, k, n, 50.0)
    loop = np.random.default_rng(1000 * k + n)
    assert same(a, [random_spd_from(loop, n, 50.0).entries for _ in range(k)])
    assert same(b, [random_spd_from(loop, n, 50.0).entries for _ in range(k)])
    assert same(SpdMatrix(a)._spectrum[0], [SpdMatrix(m)._spectrum[0] for m in a])

    d = b - a                                   # symmetric, indefinite
    w, v = _eigh(d)
    assert same(w, [_eigh(m)[0] for m in d]) and same(v, [_eigh(m)[1] for m in d])
    dec = sym_eigendecompose(d)
    assert same(dec.eigenvalues, [sym_eigendecompose(m).eigenvalues for m in d])
    assert same(dec.basis, [sym_eigendecompose(m).basis for m in d])
    lo, norm = min_eig_and_norm(d)
    assert same(lo, [min_eig_and_norm(m)[0] for m in d])
    assert same(norm, [min_eig_and_norm(m)[1] for m in d])
    assert same(_frobenius(d), [np.linalg.norm(m) for m in d])

    spectrum = RelativeSpectrum(a, b)
    values = np.sqrt(spectrum.eigenvalues)
    assert same(spectrum.congruate(values),
                [RelativeSpectrum(x, y).congruate(g) for x, y, g in zip(a, b, values)])
    one = RelativeSpectrum(a[0], b[0])           # k value sets on one pair
    assert same(one.congruate(values), [one.congruate(g) for g in values])

    points = np.sort(np.exp(rng.uniform(-3.0, 3.0, (k, n))), axis=-1)
    for fprime in (None, lambda t: 0.5 / np.sqrt(t)):
        mats, errs = loewner_matrix(points, np.sqrt, fprime, with_error=True)
        singles = [loewner_matrix(p, np.sqrt, fprime, with_error=True) for p in points]
        assert same(mats, [m for m, _ in singles]) and same(errs, [e for _, e in singles])


def test_bool_and_non_finite_sizes_and_caps_are_structural_errors():
    with pytest.raises(StructuralError, match='"n" must be a positive integer, got True'):
        matrix_from_json_dict({"n": True, "rows": [[2.0]]})
    for cap in (True, math.inf, "5"):
        with pytest.raises(StructuralError, match="condition cap must be a finite real"):
            random_spd(2, cond_cap=cap)
    for cap in (math.nan, 0.5, -math.inf):
        with pytest.raises(StructuralError, match="condition cap must be >= 1"):
            random_spd(2, cond_cap=cap)


@pytest.mark.parametrize("k", [None, 1, 5])
def test_eigh_is_bitwise_numpys_eigh_and_eigvalsh(k):
    # _eigh calls the LAPACK gufuncs numpy.linalg.eigh and eigvalsh call,
    # without their wrapper: the results must be theirs bit for bit
    rng = np.random.default_rng(36 if k is None else 36 + k)
    for n in range(1, 25):
        g = rng.standard_normal((n, n) if k is None else (k, n, n))
        a = g + np.swapaxes(g, -1, -2)
        w, v = _eigh(a)
        want_w, want_v = np.linalg.eigh(a)
        assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
        assert np.array_equal(_eigh(a, vectors=False), np.linalg.eigvalsh(a))


def test_eigh_turns_a_lapack_failure_into_a_conditioning_error(monkeypatch):
    # a gufunc reports LAPACK's failure by raising the invalid flag, as 0 * inf does
    class Failing:
        @staticmethod
        def eigh_lo(a, signature):
            return np.zeros(a.shape[-1]) * np.inf, np.zeros(a.shape)

        @staticmethod
        def eigvalsh_lo(a, signature):
            return np.zeros(a.shape[-1]) * np.inf

    monkeypatch.setattr(spd_module, "_umath_linalg", Failing)
    for vectors in (True, False):
        with pytest.raises(ConditioningError) as info:
            _eigh(np.eye(2), vectors=vectors)
        assert str(info.value) == "symmetric eigensolver failed: Eigenvalues did not converge"


def _reference_draws(rng, count, n, cond_cap):
    """The per-matrix draws _random_spd_stack must reproduce: each matrix's
    standard_normal((n, n)) and then, for a cap above 1, its eigenvalues'
    uniform(0, log cap, n)."""
    g, log_lam = np.empty((count, n, n)), np.zeros((count, n))
    for k in range(count):
        g[k] = rng.standard_normal((n, n))
        if cond_cap > 1.0:
            log_lam[k] = rng.uniform(0.0, math.log(cond_cap), size=n)
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diagonal(r, axis1=-2, axis2=-1) >= 0.0, 1.0, -1.0)[:, None, :]
    lam = np.exp(log_lam)
    half = 0.5 * ((q * lam[:, None, :]) @ np.swapaxes(q, -1, -2))
    return half + np.swapaxes(half, -1, -2)


@pytest.mark.parametrize("count", [0, 1, 9])
@pytest.mark.parametrize("cond_cap", [1.0, 50.0])
def test_random_spd_stack_draws_in_place_as_the_per_matrix_reference(count, cond_cap):
    for n in range(1, 6):
        rng, ref = np.random.default_rng(3600 + n), np.random.default_rng(3600 + n)
        got = _random_spd_stack(rng, count, n, cond_cap)
        want = _reference_draws(ref, count, n, cond_cap)
        assert got.shape == (count, n, n) and np.array_equal(got, want)
        assert rng.random() == ref.random()     # the same stream consumed


@pytest.mark.parametrize("cycles", [0, 1, 25])
def test_random_spd_stack_with_per_matrix_caps_equals_one_matrix_draws(cycles):
    # verify_mean_axioms draws the A, B and T of each trial, capped at 50,
    # 50 and 10, in one stack: each matrix must be bitwise that of drawing
    # it alone with its own cap, from the same stream
    caps = (50.0, 50.0, 10.0, 1.0) * cycles
    for n in range(1, 6):
        rng, ref = np.random.default_rng(3900 + n), np.random.default_rng(3900 + n)
        got = _random_spd_stack(rng, len(caps), n, caps)
        want = [_random_spd_stack(ref, 1, n, cap)[0] for cap in caps]
        assert got.shape == (len(caps), n, n) and np.array_equal(got, np.reshape(want, got.shape))
        assert rng.random() == ref.random()     # the same stream consumed
    with pytest.raises(StructuralError, match="expected 3 condition caps, got 2"):
        _random_spd_stack(np.random.default_rng(0), 3, 2, [50.0, 10.0])
    with pytest.raises(StructuralError, match="condition cap must be >= 1, got 0.5"):
        _random_spd_stack(np.random.default_rng(0), 2, 2, (50.0, 0.5))
    with pytest.raises(StructuralError, match="condition cap must be a finite real, got inf"):
        _random_spd_stack(np.random.default_rng(0), 2, 2, (math.inf, 50.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_array_rejects_each_non_finite_entry_in_a_matrix_and_in_a_stack(bad):
    m = np.eye(3)
    m[1, 2] = bad
    stack = np.stack([np.eye(3), m])
    for array, stacked in ((m, False), (stack, True)):
        with pytest.raises(StructuralError) as info:
            spd_module._as_array(array, "A", stack=stacked)
        assert str(info.value) == "A contains non-finite entries"
    big = np.full((3, 3), 1e200)
    big[0, 0] = bad         # an overflowing sum of squares hides no non-finite entry
    with pytest.raises(StructuralError, match="A contains non-finite entries"):
        spd_module._as_array(big, "A")


def test_as_array_accepts_finite_entries_whose_sum_of_squares_overflows():
    big = np.full((3, 3), 1e200)
    assert np.array_equal(spd_module._as_array(big, "A"), big)
    stack = np.stack([np.eye(3), -big])
    assert np.array_equal(spd_module._as_array(stack, "A", stack=True), stack)
    assert float(min_eig_and_norm(big)[1]) == pytest.approx(3e200, rel=1e-15)


@pytest.mark.parametrize("k", [None, 1, 6])
def test_relative_spectrum_of_a_validated_a_is_bitwise_that_of_the_raw_a(k):
    # an SpdMatrix A lends its kept spectrum, whose roots need no check
    rng = np.random.default_rng(370 if k is None else 370 + k)
    for n in range(1, 7):
        a, b = _random_spd_stack(rng, 2 * (k or 1), n, 50.0).reshape(2, k or 1, n, n)
        if k is None:
            a, b = a[0], b[0]
        kept, raw = RelativeSpectrum(SpdMatrix(a), b), RelativeSpectrum(a, b)
        assert np.array_equal(kept.factor, raw.factor)
        assert np.array_equal(kept.eigenvalues, raw.eigenvalues)



def _odd_subnormal_stack(rng, count, n):
    """count exactly symmetric, diagonally dominant matrices whose entries are
    odd multiples of the smallest subnormal, which (M + M^T) / 2 rounds."""
    m = 2 * rng.integers(0, 5, (count, n, n)) + 1
    m = np.triu(m) + np.triu(m, 1).swapaxes(-1, -2)
    m[:, range(n), range(n)] += 20 * n      # stays odd, above the row's other entries
    return m * 2.0 ** -1074


@pytest.mark.parametrize("k", [None, 1, 6])
def test_unchecked_relative_spectrum_is_bitwise_the_checked_one(k):
    # RelativeSpectrum._of skips only the input checks: an SpdMatrix A lends
    # its kept spectrum, a raw A is still symmetrized (not the identity on odd
    # subnormals) and decomposed, and B is used as given
    rng = np.random.default_rng(400 if k is None else 400 + k)
    for n in range(1, 7):
        for draw in (lambda c: _random_spd_stack(rng, c, n, 50.0),
                     lambda c: _odd_subnormal_stack(rng, c, n)):
            a, b = draw(2 * (k or 1)).reshape(2, k or 1, n, n)
            if k is None:
                a, b = a[0], b[0]
            for first in (SpdMatrix(a), a):
                checked, unchecked = RelativeSpectrum(first, b), RelativeSpectrum._of(first, b)
                for name in ("factor", "eigenvalues"):
                    got = getattr(unchecked, name)
                    assert np.array_equal(got, getattr(checked, name))
                    assert got.flags.c_contiguous and not got.flags.writeable
        assert not np.array_equal(spd_module._symmetrize(a), a)    # the odd subnormals round


def test_matrix_whose_norm_overflows_is_refused_with_that_reason():
    # its floor PD_FLOOR_RTOL * ||M||_F would be inf; accepted, it would make a
    # solver's residual ||mean - target|| / ||target|| read 0
    why = r"matrix norm \|\|M\|\|_F exceeds the float range$"
    for m in (1.7e308 * np.eye(2), np.stack([np.eye(2), 1.7e308 * np.eye(2)])):
        with pytest.raises(StructuralError, match="^" + why):
            SpdMatrix(m)
    with pytest.raises(StructuralError, match="^Y: " + why):
        as_spd(1.7e308 * np.eye(2), "Y")
    # a stack reports its first failing matrix, and a finite norm of huge entries passes
    with pytest.raises(StructuralError, match=r"smallest eigenvalue -1\.000000e\+00 is below"):
        SpdMatrix(np.stack([np.diag([1.0, -1.0]), 1.7e308 * np.eye(2)]))
    assert SpdMatrix(1.2e308 * np.eye(2)).n == 2


def test_relative_spectrum_checks_both_matrices_before_decomposing_a():
    # A's eigenvalues overflow the float range, B is not symmetric: the
    # structural fault of the pair is reported first, by RelativeSpectrum and
    # by the inequality chain, which shares its checks
    big = np.array([[1.7e308, 1e308], [1e308, 1.7e308]])
    for check in (RelativeSpectrum, lambda a, b: verify_inequality_chain(a, b, 0.3)):
        with pytest.raises(ConditioningError, match="^eigenvalues overflow the float range$"):
            check(big, np.eye(2))
        with pytest.raises(StructuralError, match="^B is not symmetric"):
            check(big, np.array([[1.0, 0.5], [0.0, 1.0]]))


def _record_checks(monkeypatch, named):
    """Log, for spd._as_array and spd._check_symmetric, the name in named
    (name -> array) of each matrix they are called on, or "other"."""
    seen = {}
    for check in ("_as_array", "_check_symmetric"):
        log, real = seen.setdefault(check, []), getattr(spd_module, check)

        def recording(m, *args, log=log, real=real, **kwargs):
            a = np.asarray(m.entries if isinstance(m, SpdMatrix) else m, dtype=float)
            log.append(next((k for k, v in named.items() if np.array_equal(a, v)), "other"))
            return real(m, *args, **kwargs)

        monkeypatch.setattr(spd_module, check, recording)
    return seen


_ARITH = MeanDescriptor.arithmetic()
# path: (call on X, or on X and Y, inputs)
_MATRIX_PATHS = {
    "eval_mean": (lambda x, y: eval_mean(x, y, MeanDescriptor.geometric()), 2),
    "RelativeSpectrum": (RelativeSpectrum, 2),
    "solve_matrix_pair": (lambda x, y: opmeans.solve_matrix_pair(_ARITH, x, y), 2),
    "solve_heinz_heron_matrix": (lambda x, y: opmeans.solve_heinz_heron_matrix(0.3, x, y), 2),
    "solve_geom_heinz_matrix": (lambda x, y: opmeans.solve_geom_heinz_matrix(0.3, x, y), 2),
    "build_monotone_chain": (lambda x, y: opmeans.build_monotone_chain(_ARITH, x, y), 2),
    "verify_inequality_chain": (lambda x, y: verify_inequality_chain(x, y, 0.3), 2),
    "loewner_leq": (loewner_leq, 2),
    "as_spd": (as_spd, 1),
    "SpdMatrix": (SpdMatrix, 1),
    "min_eig_and_norm": (min_eig_and_norm, 1),
    "sym_eigendecompose": (sym_eigendecompose, 1),
}


@pytest.mark.parametrize("path", _MATRIX_PATHS)
def test_every_public_matrix_path_checks_each_input_once(monkeypatch, path):
    # each input matrix passes _as_array and _check_symmetric once, and
    # nothing built from the inputs passes either: X and Y commute, so the
    # inequality chain also runs its scalar check
    q = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))[0]
    x, y = ((q * v) @ q.T for v in ([1.0, 2.0, 3.0], [2.0, 3.0, 5.0]))
    x, y = 0.5 * (x + x.T), 0.5 * (y + y.T)     # exactly symmetric
    call, inputs = _MATRIX_PATHS[path]
    seen = _record_checks(monkeypatch, {"X": x, "Y": y})
    report = call(x, y) if inputs == 2 else call(x)
    if path == "verify_inequality_chain":
        assert report.commuting and report.scalar_checked
    names = ["X", "Y"][:inputs]
    assert seen == {"_as_array": names, "_check_symmetric": names}


@pytest.mark.parametrize("path", [p for p in _MATRIX_PATHS if p.startswith(("solve", "build"))])
def test_y_too_near_the_floor_for_the_proof_is_checked_once(monkeypatch, path):
    # Y is SPD, but its smallest eigenvalue 1.5e-12 is under twice the floor:
    # the relative spectrum cannot prove it, and SpdMatrix's floor test
    # decides it on the entries already checked. The solves then fail (Y is
    # below X, or its witness is too ill-conditioned), after the checks.
    x, y = np.eye(2), np.diag([1.0, 1.5e-12])
    as_spd(y, "Y")
    seen = _record_checks(monkeypatch, {"X": x, "Y": y})
    with pytest.raises(opmeans.OpmeansError):
        _MATRIX_PATHS[path][0](x, y)
    assert seen == {"_as_array": ["X", "Y"], "_check_symmetric": ["X", "Y"]}
