"""Inverse problems: realize prescribed mean values as matrix or scalar pairs.

Every solver here answers a question of the form "which inputs produce these
mean values?" and hands back a witness that re-evaluates to the targets:

  * pair solvers find (A, B) with geometric mean X and a second prescribed
    mean value Y, by spectrally inverting the map t -> mean of (t, 1/t);
  * the chain builder connects X <= Y through finitely many steps whose
    consecutive ratios stay below a chosen bound, so each step is itself
    realizable as a pair;
  * the Heinz/Heron solvers invert the hyperbolic-cosine ratio shared by
    those two families, in scalar and matrix form.

Residuals are part of every witness: each solver re-evaluates its target
equations and refuses to return silently inaccurate answers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ConvergenceError, DomainError, OrderError,
                     OutOfRangeError, StructuralError, UnsupportedMeanError)
from .means import (MeanDescriptor, RepresentingFunction, mean_from_spectrum,
                    representing_function)
from .orders import PhiProfile, phi_profile
from .spd import RelativeSpectrum, SpdMatrix, loewner_leq, matrix_to_json_dict

_BISECT_MAX_ITER = 200
_BISECT_REL = 1e-14
_SCAN_PER_DECADE = 64
_SCAN_MAX_DECADES = 40
_EIG_CLAMP = 1e-9
_PAIR_RESIDUAL_TOL = 1e-7
_SCALAR_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class PairWitness:
    """A realized pair with the relative errors of its two target equations."""

    matrix_a: np.ndarray
    matrix_b: np.ndarray
    residual_x: float
    residual_y: float

    def to_json_dict(self) -> dict:
        return {"A": matrix_to_json_dict(self.matrix_a),
                "B": matrix_to_json_dict(self.matrix_b),
                "residual_x": self.residual_x,
                "residual_y": self.residual_y}


@dataclass(frozen=True)
class ChainWitness:
    """A finite monotone chain of matrices with per-link pair witnesses."""

    links: tuple
    gamma0: float
    pair_witnesses: tuple

    def to_json_dict(self) -> dict:
        return {"links": [matrix_to_json_dict(z) for z in self.links],
                "gamma0": self.gamma0,
                "pair_witnesses": [w.to_json_dict() for w in self.pair_witnesses]}


@dataclass(frozen=True)
class ScalarPairSolution:
    """A solved scalar pair; c is the hyperbolic coordinate with e^{2c} = x/y."""

    x: float
    y: float
    c: Optional[float] = None

    def __iter__(self):
        return iter((self.x, self.y))

    def to_json_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "c": self.c}


def _coerce_spd(m, name: str) -> np.ndarray:
    if isinstance(m, SpdMatrix):
        return m.entries
    try:
        return SpdMatrix(np.asarray(m, dtype=float)).entries
    except StructuralError as exc:
        raise StructuralError(f"{name}: {exc}") from None


def _bisect(fn, lo: float, hi: float, f_lo: float) -> float:
    """Sign-based bisection of fn on [lo, hi]; fn(lo) and fn(hi) differ in sign."""
    for _ in range(_BISECT_MAX_ITER):
        if hi - lo <= _BISECT_REL * max(1.0, abs(lo)):
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    raise ConvergenceError(
        f"bisection did not converge: interval [{lo}, {hi}] after "
        f"{_BISECT_MAX_ITER} iterations")


def invert_phi(f: RepresentingFunction, y0: float,
               profile: Optional[PhiProfile] = None) -> float:
    """Smallest t in [1, inf) whose pair (t, 1/t) has mean value y0.

    Inverts the realize map t -> t f(1/t^2), i.e. the value of the mean at
    the pair (t, 1/t). Targets live in [1, gamma) when the map increases
    (gamma > 1) and in (gamma, 1] when it decreases (gamma < 1), where gamma
    is the map's limit at infinity. When the map is merely surjective the
    returned preimage is the smallest one, found by a log-spaced scan for
    the first crossing followed by bisection.
    """
    profile = profile if profile is not None else phi_profile(f)
    phi = profile.realize_phi
    gamma = profile.realize_gamma
    y0 = float(y0)
    if not math.isfinite(y0) or y0 <= 0.0:
        raise StructuralError(f"target must be a positive real, got {y0!r}")

    if gamma > 1.0:
        if y0 < 1.0 - _EIG_CLAMP:
            raise OutOfRangeError(
                f"target {y0!r} below the realizable range [1, gamma) with "
                f"gamma = {gamma!r}")
        if y0 >= gamma:
            raise OutOfRangeError(
                f"target {y0!r} outside the realizable range [1, gamma) with "
                f"gamma = {gamma!r}")
        y0 = max(y0, 1.0)
    elif gamma < 1.0:
        if y0 > 1.0 + _EIG_CLAMP:
            raise OutOfRangeError(
                f"target {y0!r} above the realizable range (gamma, 1] with "
                f"gamma = {gamma!r}")
        if y0 <= gamma:
            raise OutOfRangeError(
                f"target {y0!r} outside the realizable range (gamma, 1] with "
                f"gamma = {gamma!r}")
        y0 = min(y0, 1.0)
    else:
        if abs(y0 - 1.0) > _EIG_CLAMP:
            raise OutOfRangeError(
                f"target {y0!r} unrealizable: the mean of (t, 1/t) is "
                f"constant (gamma = {gamma!r})")
        y0 = 1.0

    if y0 == 1.0:
        return 1.0

    def gap(t):
        return float(phi(t)) - y0

    g_lo = gap(1.0)
    if g_lo == 0.0:
        return 1.0
    lo = 1.0
    for k in range(1, _SCAN_PER_DECADE * _SCAN_MAX_DECADES + 1):
        t = 10.0 ** (k / _SCAN_PER_DECADE)
        g = gap(t)
        if g == 0.0:
            return t
        if (g > 0.0) != (g_lo > 0.0):
            root = _bisect(gap, lo, t, g_lo)
            break
        lo, g_lo = t, g
    else:
        raise OutOfRangeError(
            f"target {y0!r} not reached by the realize map within the scan "
            f"horizon (gamma = {gamma!r})")

    if abs(float(phi(root)) - y0) > 1e-11 * max(1.0, abs(y0)):
        raise ConvergenceError(
            f"realize-map inversion inaccurate at target {y0!r}")
    return root


def _relative_residual(computed: np.ndarray, target: np.ndarray) -> float:
    return float(np.linalg.norm(computed - target) / np.linalg.norm(target))


def _pair_witness(mat_a, mat_b, fn_x: RepresentingFunction,
                  fn_y: RepresentingFunction, xa, ya) -> PairWitness:
    """Re-evaluate both target means on (A, B) from one relative spectrum."""
    spectrum = RelativeSpectrum(mat_a, mat_b)
    residual_x = _relative_residual(mean_from_spectrum(spectrum, fn_x), xa)
    residual_y = _relative_residual(mean_from_spectrum(spectrum, fn_y), ya)
    if residual_x > _PAIR_RESIDUAL_TOL or residual_y > _PAIR_RESIDUAL_TOL:
        raise ConvergenceError(
            f"pair solve residuals too large: {fn_x.label} {residual_x:.3e}, "
            f"{fn_y.label} {residual_y:.3e}")
    return PairWitness(mat_a, mat_b, residual_x, residual_y)


def solve_matrix_pair(sigma: MeanDescriptor, x, y) -> PairWitness:
    """Find (A, B) whose geometric mean is X and whose sigma-mean is Y.

    Requires X <= Y < gamma X in the Loewner order when the realize map of
    sigma increases (gamma > 1), mirrored (gamma X < Y <= X) when it
    decreases. Spectrally inverts the realize map on X^{-1/2} Y X^{-1/2} and
    congruates back: A = X^{1/2} A0 X^{1/2}, B = X^{1/2} A0^{-1} X^{1/2}.
    invert_phi checks each relative eigenvalue against that range.
    """
    xa = _coerce_spd(x, "X")
    ya = _coerce_spd(y, "Y")
    spectrum = RelativeSpectrum(xa, ya)
    fn = representing_function(sigma)
    profile = phi_profile(fn)
    eigs = spectrum.eigenvalues.tolist()
    inverse = {lam: invert_phi(fn, lam, profile) for lam in dict.fromkeys(eigs)}
    deltas = np.array([inverse[lam] for lam in eigs])
    return _pair_witness(spectrum.congruate(deltas), spectrum.congruate(1.0 / deltas),
                         representing_function(MeanDescriptor.geometric()), fn, xa, ya)


def _power_index(value: float, gamma0: float) -> int:
    """Integer m with gamma0^m < value <= gamma0^{m+1}, for value > 1."""
    m = math.ceil(math.log(value) / math.log(gamma0)) - 1
    while gamma0 ** (m + 1) < value:
        m += 1
    while m >= 0 and gamma0 ** m >= value:
        m -= 1
    return m


def build_monotone_chain(sigma: MeanDescriptor, x, y,
                         gamma0: Optional[float] = None) -> ChainWitness:
    """Connect X <= Y by a finite chain with per-link pair realizations.

    Works in the coordinates of Y0 = X^{-1/2} Y X^{-1/2}: raises the
    not-yet-finished eigenvalue blocks through successive powers of gamma0
    and substitutes each group of (near-)equal eigenvalues once the power
    ladder reaches it. Every consecutive ratio stays within [1, gamma0], so
    each link is solvable by solve_matrix_pair; endpoints are the given X
    and Y themselves. gamma0 defaults to sqrt(gamma) when gamma is finite
    and 2 otherwise, and must lie strictly between 1 and gamma.
    """
    xa = _coerce_spd(x, "X")
    ya = _coerce_spd(y, "Y")
    if xa.shape != ya.shape:
        raise StructuralError(f"shape mismatch: {xa.shape} vs {ya.shape}")
    fn = representing_function(sigma)
    profile = phi_profile(fn)
    gamma = profile.realize_gamma
    if not gamma > 1.0:
        raise UnsupportedMeanError(
            f"chain construction needs gamma > 1; {fn.label} has gamma = "
            f"{gamma!r}")
    if gamma0 is None:
        gamma0 = math.sqrt(gamma) if math.isfinite(gamma) else 2.0
    gamma0 = float(gamma0)
    if not 1.0 < gamma0 < gamma:
        raise OutOfRangeError(
            f"gamma0 = {gamma0!r} must lie strictly between 1 and gamma = "
            f"{gamma!r}")

    if np.array_equal(xa, ya):
        return ChainWitness((xa.copy(),), gamma0, ())
    if not loewner_leq(xa, ya, tol=1e-10):
        raise OrderError("X <= Y fails in the Loewner order")

    spectrum = RelativeSpectrum(xa, ya)
    lams = np.maximum(spectrum.eigenvalues, 1.0)

    # Group near-equal eigenvalues so they substitute in one step.
    order = np.argsort(lams, kind="stable")
    groups: list[list[int]] = []
    for idx in order:
        lam = lams[idx]
        if lam <= 1.0 + 1e-12:
            continue   # already at target; never raised
        if groups and lam <= lams[groups[-1][0]] * (1.0 + 1e-10):
            groups[-1].append(idx)
        else:
            groups.append([int(idx)])

    values = np.where(lams <= 1.0 + 1e-12, lams, 1.0)
    pending = [i for g in groups for i in g]
    node_values = []
    power = 0
    for group in groups:
        rep = float(lams[group[0]])
        m = _power_index(rep, gamma0)
        while power < m:
            power += 1
            values[pending] = gamma0 ** power
            node_values.append(values.copy())
        for i in group:
            values[i] = lams[i]
            pending.remove(i)
        node_values.append(values.copy())

    links = [xa.copy()]
    links.extend(spectrum.congruate(v) for v in node_values[:-1])
    links.append(ya.copy())

    witnesses = tuple(solve_matrix_pair(sigma, links[k], links[k + 1])
                      for k in range(len(links) - 1))
    return ChainWitness(tuple(links), gamma0, witnesses)


def solve_scalar_geometric_pair(sigma: MeanDescriptor, x: float,
                                y: float) -> ScalarPairSolution:
    """Find positive (a, b) with sqrt(a b) = x and sigma-mean(a, b) = y.

    Scalar case of solve_matrix_pair: a = x t and b = x / t where t inverts
    the realize map at y / x. The returned pair has a >= b exactly when the
    realize map increases.
    """
    x = float(x)
    y = float(y)
    if not (math.isfinite(x) and x > 0.0 and math.isfinite(y) and y > 0.0):
        raise StructuralError("targets must be finite positive reals")
    fn = representing_function(sigma)
    profile = phi_profile(fn)
    t = invert_phi(fn, y / x, profile)
    a = x * t
    b = x / t
    mean_value = a * float(fn.value(b / a))
    if abs(mean_value - y) > _SCALAR_RESIDUAL_TOL * max(1.0, abs(y)):
        raise ConvergenceError(
            f"scalar pair inaccurate: mean recomputes to {mean_value!r} for "
            f"target {y!r}")
    return ScalarPairSolution(a, b, math.log(t))


def _logcosh(x: float) -> float:
    ax = abs(x)
    return ax - math.log(2.0) + math.log1p(math.exp(-2.0 * ax))


def _validate_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (math.isfinite(alpha) and -1.0 < alpha < 1.0 and alpha != 0.0):
        raise StructuralError(
            f"alpha must lie in (-1, 0) or (0, 1), got {alpha!r}")
    return alpha


def _log_f_alpha_den(alpha: float, c: float) -> float:
    # log(alpha^2 cosh(c) + 1 - alpha^2), overflow-safe for large c.
    # Written as log1p(alpha^2 (cosh c - 1)) below the overflow knee so
    # c = 0 maps to exactly 0 and near-1 denominators keep their digits.
    a2 = alpha * alpha
    if c < 350.0:
        half = math.sinh(0.5 * c)
        return math.log1p(2.0 * a2 * half * half)
    lc = _logcosh(c)
    return math.log(a2) + lc + math.log1p((1.0 - a2) / a2 * math.exp(-lc))


def f_alpha(alpha: float, c: float) -> float:
    """cosh(alpha c) / (alpha^2 cosh(c) + 1 - alpha^2), for c >= 0.

    Strictly decreasing from f_alpha(0) = 1 toward 0; computed in log space
    so large c neither overflows nor loses the leading digits.
    """
    alpha = _validate_alpha(alpha)
    c = float(c)
    if not math.isfinite(c) or c < 0.0:
        raise DomainError(f"c must be a finite value >= 0, got {c!r}")
    return math.exp(_logcosh(alpha * c) - _log_f_alpha_den(alpha, c))


def invert_f_alpha(alpha: float, r: float) -> float:
    """The unique c >= 0 with f_alpha(c) = r, for r in (0, 1]."""
    alpha = _validate_alpha(alpha)
    r = float(r)
    if not (math.isfinite(r) and 0.0 < r <= 1.0):
        raise DomainError(f"ratio must lie in (0, 1], got {r!r}")
    if r == 1.0:
        return 0.0
    log_r = math.log(r)

    def gap(c):
        return (_logcosh(alpha * c) - _log_f_alpha_den(alpha, c)) - log_r

    lo, hi = 0.0, 1.0
    g_lo = gap(lo)
    for _ in range(80):
        if gap(hi) <= 0.0:
            break
        lo, hi = hi, hi * 2.0
        g_lo = gap(lo)
    else:
        raise ConvergenceError(f"no bracket found inverting f_alpha at r = {r!r}")
    c = _bisect(gap, lo, hi, g_lo)
    if abs(f_alpha(alpha, c) - r) > 1e-10 * max(1.0, r):
        raise ConvergenceError(f"f_alpha inversion inaccurate at r = {r!r}")
    return c


def solve_scalar_heinz_heron(s: float, a: float, b: float) -> ScalarPairSolution:
    """Positive (x, y) whose Heinz_s value is a and Heron_{(2s-1)^2} value is b.

    Needs 0 < a <= b (the Heinz value never exceeds the Heron value) and
    s away from 1/2, where the two families collapse onto each other.
    Solves c from the ratio a / b = f_alpha(c) with alpha = 2s - 1, then
    x = b e^{-c} / d and y = b e^{c} / d with d = alpha^2 cosh(c) + 1 -
    alpha^2, which satisfies both target equations identically.
    """
    s = _validate_heinz_heron_parameter(s)
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and a > 0.0 and math.isfinite(b) and b > 0.0):
        raise StructuralError("targets must be finite positive reals")
    if a > b:
        raise OrderError(
            f"Heinz target {a!r} exceeds Heron target {b!r}; the Heinz value "
            "never exceeds the Heron value")
    alpha = 2.0 * s - 1.0
    c = invert_f_alpha(alpha, a / b)
    log_den = _log_f_alpha_den(alpha, c)
    x = b * math.exp(-c - log_den)
    y = b * math.exp(c - log_den)
    if x <= 0.0 or not math.isfinite(y):
        raise ConvergenceError(
            f"solution left the representable range (c = {c!r})")

    heinz = 0.5 * (x ** s * y ** (1.0 - s) + x ** (1.0 - s) * y ** s)
    alpha2 = alpha * alpha
    heron = alpha2 * 0.5 * (x + y) + (1.0 - alpha2) * math.sqrt(x * y)
    if (abs(heinz - a) > _SCALAR_RESIDUAL_TOL * max(1.0, a)
            or abs(heron - b) > _SCALAR_RESIDUAL_TOL * max(1.0, b)):
        raise ConvergenceError(
            f"recomputed targets ({heinz!r}, {heron!r}) miss ({a!r}, {b!r})")
    return ScalarPairSolution(x, y, c)


def _validate_heinz_heron_parameter(s) -> float:
    s = float(s)
    if s == 0.5:
        raise StructuralError(
            "s = 1/2 is degenerate: the Heinz and Heron targets coincide "
            "and the ratio map is constant")
    if not (math.isfinite(s) and 0.0 < s < 1.0):
        raise StructuralError(
            f"s must lie in (0, 1/2) or (1/2, 1), got {s!r}")
    return s


def _normalized_smaller_target(x, y):
    """Shared head of the congruence solvers: X0 = Y^{-1/2} X Y^{-1/2} <= I."""
    xa = _coerce_spd(x, "X")
    ya = _coerce_spd(y, "Y")
    if not loewner_leq(xa, ya, tol=1e-8):
        raise OrderError("X <= Y fails in the Loewner order")
    spectrum = RelativeSpectrum(ya, xa)
    top = float(spectrum.eigenvalues[0])
    if top > 1.0 + _EIG_CLAMP:
        raise OrderError(f"relative eigenvalue {top!r} exceeds 1: X <= Y fails")
    return xa, ya, spectrum, np.minimum(spectrum.eigenvalues, 1.0)


def _pair_from_ratio_inverse(xa, ya, spectrum, ratios, denom_fn,
                             x_mean: MeanDescriptor, y_mean: MeanDescriptor):
    d = denom_fn(ratios)
    return _pair_witness(spectrum.congruate(1.0 / d), spectrum.congruate(ratios / d),
                         representing_function(x_mean), representing_function(y_mean),
                         xa, ya)


def solve_heinz_heron_matrix(s: float, x, y) -> PairWitness:
    """Find (A, B) with Heinz_s(A, B) = X and Heron_{(2s-1)^2}(A, B) = Y.

    Requires 0 < X <= Y and s away from 1/2. Normalizes by Y, inverts the
    scalar ratio map per eigenvalue of Y^{-1/2} X Y^{-1/2} through f_alpha
    (taking the branch with C0 <= I), and congruates back by Y^{1/2}.
    """
    s = _validate_heinz_heron_parameter(s)
    alpha = 2.0 * s - 1.0
    xa, ya, spectrum, xi = _normalized_smaller_target(x, y)
    cs = np.array([invert_f_alpha(alpha, v) for v in xi])
    ratios = np.exp(-2.0 * cs)
    alpha2 = alpha * alpha

    def denom(t):
        return alpha2 * 0.5 * (1.0 + t) + (1.0 - alpha2) * np.sqrt(t)

    return _pair_from_ratio_inverse(
        xa, ya, spectrum, ratios, denom,
        MeanDescriptor.heinz(s), MeanDescriptor.heron(alpha2))


def geom_heinz_ratio(s: float, x: float) -> float:
    """2 sqrt(x) / (x^s + x^{1-s}), the geometric-to-Heinz ratio map.

    Equals sech((s - 1/2) log x); restricted to x in (0, 1] it is a
    bijection onto (0, 1].
    """
    s = _validate_heinz_heron_parameter(s)
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be a finite positive real, got {x!r}")
    return math.exp(-_logcosh((s - 0.5) * math.log(x)))


def invert_geom_heinz_ratio(s: float, r: float) -> float:
    """The unique x in (0, 1] with geom_heinz_ratio(s, x) = r, in closed form."""
    s = _validate_heinz_heron_parameter(s)
    r = float(r)
    if not (math.isfinite(r) and 0.0 < r <= 1.0):
        raise DomainError(f"ratio must lie in (0, 1], got {r!r}")
    if r == 1.0:
        return 1.0
    # inverse hyperbolic secant: arcsech(r) = log((1 + sqrt(1 - r^2)) / r)
    arg = math.log((1.0 + math.sqrt(1.0 - r * r)) / r)
    return math.exp(-arg / abs(s - 0.5))


def solve_geom_heinz_matrix(s: float, x, y) -> PairWitness:
    """Find (A, B) whose geometric mean is X and whose Heinz_s mean is Y.

    Requires 0 < X <= Y and s away from 1/2. Inverts the closed-form
    hyperbolic-secant ratio map per eigenvalue of Y^{-1/2} X Y^{-1/2} on the
    branch C0 <= I and congruates back by Y^{1/2}.
    """
    s = _validate_heinz_heron_parameter(s)
    xa, ya, spectrum, xi = _normalized_smaller_target(x, y)
    ratios = np.array([invert_geom_heinz_ratio(s, v) for v in xi])

    def denom(t):
        return 0.5 * (t ** s + t ** (1.0 - s))

    return _pair_from_ratio_inverse(
        xa, ya, spectrum, ratios, denom,
        MeanDescriptor.geometric(), MeanDescriptor.heinz(s))
