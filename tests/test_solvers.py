"""Inverse solvers: hand-derived oracles, roundtrips, and failure modes.

The scalar oracles below are worked by hand from the defining equations.
For the arithmetic mean, realizing geometric mean x and arithmetic mean y
means solving t + 1/t = 2 y / x, a quadratic with explicit roots; the
harmonic case mirrors it. Matrix cases are checked against independent
re-evaluation of both target means.
"""
import math

import numpy as np
import pytest

from opmeans import (ConvergenceError, DomainError, MeanDescriptor, OrderError,
                     OutOfRangeError, StructuralError, UnsupportedMeanError,
                     build_monotone_chain, eval_mean, f_alpha, geom_heinz_ratio,
                     invert_f_alpha, invert_geom_heinz_ratio, invert_phi,
                     loewner_leq, phi_profile, random_spd,
                     representing_function, solve_geom_heinz_matrix,
                     solve_heinz_heron_matrix, solve_matrix_pair,
                     solve_scalar_geometric_pair, solve_scalar_heinz_heron)

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
            t = invert_phi(fn, float(y0), profile)
            assert profile.realize_phi(t) == pytest.approx(y0, rel=1e-11)


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
        assert len(chain.pair_witnesses) == len(chain.links) - 1
        for a, b in zip(chain.links, chain.links[1:]):
            assert loewner_leq(a, b, tol=1e-10)
            assert np.max(_ratio_eigs(a, b)) <= 1.4 * (1.0 + 1e-10)
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


def test_geom_heinz_matrix_reproduces_targets():
    for k, s in enumerate((0.2, 0.7, 0.9)):
        x, y = _random_ordered_targets("geom-heinz", s, 400 + k, 3)
        w = solve_geom_heinz_matrix(s, x, y)
        geo = eval_mean(w.matrix_a, w.matrix_b, GEO)
        heinz = eval_mean(w.matrix_a, w.matrix_b, MeanDescriptor.heinz(s))
        assert np.linalg.norm(geo - x) <= 1e-7 * np.linalg.norm(x)
        assert np.linalg.norm(heinz - y) <= 1e-7 * np.linalg.norm(y)


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
