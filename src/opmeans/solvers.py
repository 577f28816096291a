"""Inverse problems: realize prescribed mean values as matrix or scalar pairs.

Every solver here answers a question of the form "which inputs produce these
mean values?" and hands back a witness that re-evaluates to the targets:

  * pair solvers find (A, B) with geometric mean X and a second prescribed
    mean value Y, by spectrally inverting the map t -> mean of (t, 1/t);
  * the chain builder connects X <= Y through the nodes
    X^{1/2} min(Y0, gamma0^k) X^{1/2}, Y0 = X^{-1/2} Y X^{-1/2}, whose
    consecutive ratios stay within the bound gamma0, so each step is itself
    realizable as a pair;
  * the Heinz/Heron solvers invert the hyperbolic-cosine ratio shared by
    those two families, in scalar and matrix form.

Means are covariant under congruence, C (D1 sigma D2) C^T = (C D1 C^T)
sigma (C D2 C^T). So with C = X^{1/2} U, the factor RelativeSpectrum(X, Y)
stores, a link C diag(v) C^T -> C diag(w) C^T is realized by the pair
C diag(v d) C^T, C diag(v / d) C^T with d = invert_phi(w / v) per eigenvalue:
a whole chain is solved in one basis, its eigenvalue ratios inverted together
and its link witnesses re-evaluated as one (links, n, n) stack. A pair is its
one-link case v = 1 (solve_matrix_pair, solve_geom_heinz_matrix). A pair
decomposes 4 matrices (X, Z, and the witness's A and relative spectrum), a
chain 2 + 2 * links in 4 calls: Y is proven positive definite from X's and
Z's spectra and decomposed only when that bound falls short. Every matrix
solver checks its scalar parameters first (the mean, s, gamma0), then X and
Y, then their relative spectrum, so a bad parameter costs no decomposition;
each mean is resolved to its RepresentingFunction once per call and passed
down. Each input is checked once, by spd._spd_relative_spectrum: X's shape,
entries, symmetry and floor as by as_spd, Y's first three likewise. The
relative spectra of (X, Y) and of the witnesses take their pairs unchecked
(RelativeSpectrum._of); the witnesses are congruated exactly symmetric and
tested finite. A relative spectrum takes 3 matrix products, and each
congruation 1. The relative eigenvalues are inverted in one pass: a catalog
mean's in closed form (RepresentingFunction.realize_inverse), a density
mean's by one batched scan and safeguarded Newton iteration whose every call
of the representing function serves all of them. Either way a root must lie
below the scan horizon 1e40 and is checked forward.

Residuals are part of every witness: each solver re-evaluates its target
equations and refuses to return silently inaccurate answers. A witness is
judged by its two residuals alone (at most 1e-7; NaN fails), not by the 1e12
condition gate that mean_from_spectrum applies to a caller's pair, and every
failure of its re-evaluation raises ConvergenceError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (ConditioningError, ConvergenceError, DomainError, OrderError,
                     OutOfRangeError, StructuralError, UnsupportedMeanError)
from .means import (MeanDescriptor, RepresentingFunction, heinz_pair, heron_pair,
                    representing_function)
from .spd import (RelativeSpectrum, _all_finite, _check_real, _frobenius,
                  _MatrixPair, _spd_relative_spectrum, matrix_to_json_dict)

_BISECT_MAX_ITER = 200
_BISECT_REL = 1e-14
_SCAN_PER_DECADE = 64
_SCAN_MAX_DECADES = 40
# scan points 10^(k/64), k = 0..2560, by Python's float power: numpy's
# 10.0 ** arange(...) is an ulp off at some k
_SCAN_GRID = np.array([10.0 ** (k / _SCAN_PER_DECADE)
                       for k in range(_SCAN_PER_DECADE * _SCAN_MAX_DECADES + 1)])
_EIG_CLAMP = 1e-9
_PAIR_RESIDUAL_TOL = 1e-7
_SCALAR_RESIDUAL_TOL = 1e-10
_MAX_LINKS = 100_000
_GEOMETRIC = representing_function(MeanDescriptor.geometric())


@dataclass(frozen=True)
class PairWitness(_MatrixPair):
    """A realized pair with the relative errors of its two target equations."""

    residual_x: float
    residual_y: float


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


def _clamped_targets(ys: np.ndarray, gamma: float) -> np.ndarray:
    """ys checked against the realizable range of a realize map with limit
    gamma and clamped into it: [1, gamma) when gamma > 1, (gamma, 1] when
    gamma < 1, and 1 when the map is constant. The first target, in order,
    outside it raises (each range excludes nan, inf and y <= 0)."""
    if gamma > 1.0:
        ok, clamped = (1.0 - _EIG_CLAMP <= ys) & (ys < gamma), np.maximum(ys, 1.0)
        why = "outside the realizable range [1, gamma) with gamma = {!r}"
    elif gamma < 1.0:
        ok, clamped = (gamma < ys) & (ys <= 1.0 + _EIG_CLAMP), np.minimum(ys, 1.0)
        why = "outside the realizable range (gamma, 1] with gamma = {!r}"
    else:
        ok, clamped = abs(ys - 1.0) <= _EIG_CLAMP, np.ones_like(ys)
        why = "unrealizable: the mean of (t, 1/t) is constant (gamma = {!r})"
    if not ok.all():
        y0 = float(ys[ok.argmin()])
        if not math.isfinite(y0) or y0 <= 0.0:
            raise StructuralError(f"target must be a positive real, got {y0!r}")
        raise OutOfRangeError(f"target {y0!r} " + why.format(gamma))
    return clamped


def _scan_and_newton(f: RepresentingFunction, ys: np.ndarray) -> tuple:
    """(roots, converged) of the array ys of clamped targets, none of them 1,
    by scan and Newton, once per distinct value. A root is NaN where the scan
    brackets nothing within its horizon; converged is false where
    _BISECT_MAX_ITER Newton steps did not finish (the root is the last iterate).

    The scan calls f.realize once per decade block of _SCAN_GRID for all
    targets not yet bracketed. In the brackets, each Newton step on
    g(t) = t f(u) - y, u = 1/t^2, g'(t) = f(u) - 2 u f'(u), evaluates f and
    f' in one call for all of them, moves lo or hi to t by the sign of g,
    and takes the midpoint for a step not strictly inside. All is
    elementwise, so each root is bitwise that of its target alone.
    """
    # the eigenvalues a chain link raises to the next power of gamma0 share one ratio
    ys, inverse = np.unique(ys, return_inverse=True)
    roots, lo, hi, g_lo = np.full((4, len(ys)), np.nan)
    # scan: the first grid point where the gap f.realize(t) - y0 is zero or
    # has changed sign since the previous point brackets [lo, hi], the gap at lo
    todo = np.arange(len(ys))
    for start in range(0, len(_SCAN_GRID) - 1, _SCAN_PER_DECADE):
        if not todo.size:
            break
        grid = _SCAN_GRID[start:start + _SCAN_PER_DECADE + 1]
        gaps = f.realize(grid) - ys[todo, None]
        hit = gaps == 0.0
        hit[:, 1:] |= (gaps[:, 1:] > 0.0) != (gaps[:, :-1] > 0.0)
        bracketed = hit.any(axis=1)
        rows = np.flatnonzero(bracketed)
        k, i = hit[rows].argmax(axis=1), todo[rows]
        lo[i], hi[i], g_lo[i] = grid[k - 1], grid[k], gaps[rows, k - 1]
        roots[i] = np.where(gaps[rows, k] == 0.0, grid[k], np.nan)
        todo = todo[~bracketed]

    converged = np.ones(len(ys), dtype=bool)
    live = np.flatnonzero(np.isnan(roots) & ~np.isnan(hi))
    lo, hi, rising, y = lo[live], hi[live], g_lo[live] > 0.0, ys[live]
    t = 0.5 * (lo + hi)
    for _ in range(_BISECT_MAX_ITER):
        if not live.size:
            break
        u = 1.0 / (t * t)
        fu, dfu = (np.asarray(v, dtype=float) for v in f.value_and_derivative(u))
        gap = t * fu - y
        below = (gap > 0.0) == rising
        lo, hi = np.where(below, t, lo), np.where(below, hi, t)
        # g'(1) = 0 for every symmetric mean: a step may divide by zero
        with np.errstate(all="ignore"):
            newton = t - gap / (fu - 2.0 * u * dfu)
        t_next = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
        done = ((gap == 0.0) | (np.abs(t_next - t) <= _BISECT_REL * t)
                | (hi - lo <= _BISECT_REL * lo))
        roots[live[done]] = np.where(gap == 0.0, t, t_next)[done]
        live, lo, hi, rising, y, t = (a[~done] for a in (live, lo, hi, rising, y, t_next))
    roots[live], converged[live] = t, False
    return roots[inverse], converged[inverse]


def _invert_realize(f: RepresentingFunction, targets) -> np.ndarray:
    """invert_phi of every target of a list, as an array, in one batched pass.

    Every target is range-checked against f.realize_gamma and clamped
    first, in order. A function with a realize_inverse inverts all targets
    other than 1 in one call of it; any other runs _scan_and_newton. Either
    way a root above the scan horizon _SCAN_GRID[-1] = 1e40 (or not finite)
    is out of range, a converged root within it is checked forward through
    f.realize to 1e-11, and the first target, in order, that failed raises.
    """
    ys = _clamped_targets(np.asarray(targets, dtype=float), f.realize_gamma)
    pending = ys != 1.0
    y = ys[pending]
    if f.realize_inverse is None:
        roots, converged = _scan_and_newton(f, y)
        checked = (roots <= _SCAN_GRID[-1]) & converged
    else:
        # a root past the float range comes out inf or nan, out of range
        # like any root past 1e40
        with np.errstate(all="ignore"):
            roots = f.realize_inverse(y)
        checked = roots <= _SCAN_GRID[-1]
    # the first failure: the first root not checked, or an inaccurate one before it
    first = len(y) if checked.all() else int(checked.argmin())
    if first:
        ahead = y[:first]
        inaccurate = abs(f.realize(roots[:first]) - ahead) > 1e-11 * np.maximum(1.0, ahead)
        if inaccurate.any():
            raise ConvergenceError(f"realize-map inversion inaccurate at target "
                                   f"{float(ahead[inaccurate.argmax()])!r}")
    if first < len(y):
        y0 = float(y[first])
        if not roots[first] <= _SCAN_GRID[-1]:
            raise OutOfRangeError(
                f"target {y0!r} not reached by the realize map within the scan "
                f"horizon (gamma = {f.realize_gamma!r})")
        raise ConvergenceError(f"realize-map inversion did not converge at target "
                               f"{y0!r} in {_BISECT_MAX_ITER} steps")
    ys[pending] = roots     # a target of 1 is its own root
    return ys


def invert_phi(f: RepresentingFunction, y0: float) -> float:
    """Smallest t in [1, inf) whose pair (t, 1/t) has mean value y0.

    Inverts the realize map f.realize, t -> t f(1/t^2). Targets live in
    [1, gamma) when it increases (gamma > 1) and in (gamma, 1] when it
    decreases (gamma < 1), gamma = f.realize_gamma being its exact limit at
    infinity. A catalog mean's map is constant or strictly monotone, and
    inverted in closed form (f.realize_inverse). For any other f, when the
    map is merely surjective, the returned preimage is the smallest one,
    found by a log-spaced scan for the first crossing and a safeguarded
    Newton iteration inside it. Either way a root above the scan horizon
    1e40 raises OutOfRangeError, and every root is checked forward to 1e-11.
    This is the one-target case of the batched inversion the pair and chain
    solvers run.
    """
    return float(_invert_realize(f, [float(y0)])[0])


def _pair_witnesses(spectrum: RelativeSpectrum, values_a, values_b,
                    fn_x: RepresentingFunction, fn_y: RepresentingFunction, xs, ys):
    """Witnesses (A, B) = (congruate(values_a), congruate(values_b)) of spectrum
    against the targets xs, ys of the means fn_x, fn_y: one PairWitness for
    (n,) values and (n, n) targets, or a tuple of k for (k, n) values and
    (k, n, n) targets. A and B come from one congruation. Both target means
    are re-evaluated on the pairs (as one stack) from their own relative
    spectrum, by one congruation, and the residuals ||mean - target||_F /
    ||target||_F of each side by one stacked norm. A witness stands or falls
    by its residuals alone: no condition gate applies to a pair the solver
    built. Every way the re-evaluation fails raises ConvergenceError: a pair
    past the float range, an eigensolver or square-root error on A, a
    relative eigenvalue <= 0 (before either mean is evaluated), and the first
    pair with a residual above the tolerance or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        mats = spectrum.congruate(np.array((values_a, values_b)))
    if not _all_finite(mats):
        raise ConvergenceError("solution left the representable range: the witness overflows")
    mats_a, mats_b = mats
    try:
        pairs = RelativeSpectrum._of(mats_a, mats_b)    # congruated exactly symmetric
    except ConditioningError as exc:
        raise ConvergenceError(f"pair solve witness cannot be re-evaluated: {exc}") from None
    ev = pairs.eigenvalues
    if not ev.min() > 0.0:
        raise ConvergenceError(f"pair solve witness has relative eigenvalue {ev.min():.3e} <= 0")
    means = pairs.congruate(np.array([np.reshape(fn.value(ev.ravel()), ev.shape)
                                      for fn in (fn_x, fn_y)]))
    res_x, res_y = (np.ravel(_frobenius(mean - want) / _frobenius(want)).tolist()
                    for mean, want in zip(means, (xs, ys)))
    for got_x, got_y in zip(res_x, res_y):
        if not (got_x <= _PAIR_RESIDUAL_TOL and got_y <= _PAIR_RESIDUAL_TOL):
            raise ConvergenceError(f"pair solve witness residuals too large: {fn_x.label} "
                                   f"{got_x:.3e}, {fn_y.label} {got_y:.3e}")
    if mats_a.ndim == 2:
        return PairWitness(mats_a, mats_b, res_x[0], res_y[0])
    return tuple(map(PairWitness, mats_a, mats_b, res_x, res_y))


def _ordered_eigenvalues(spectrum: RelativeSpectrum) -> np.ndarray:
    """The eigenvalues of RelativeSpectrum(X, Y), clamped to at least 1.

    X <= Y exactly when the smallest eigenvalue of X^{-1/2} Y X^{-1/2} is at
    least 1; the test allows 1 - _EIG_CLAMP, relative to X and so the same
    at any scale.
    """
    low = float(spectrum.eigenvalues[-1])
    if low < 1.0 - _EIG_CLAMP:
        raise OrderError(f"relative eigenvalue {low!r} is below 1: X <= Y fails")
    return np.maximum(spectrum.eigenvalues, 1.0)


def solve_matrix_pair(sigma: MeanDescriptor, x, y) -> PairWitness:
    """Find (A, B) whose geometric mean is X and whose sigma-mean is Y.

    Requires X <= Y < gamma X in the Loewner order when the realize map of
    sigma increases (gamma > 1), mirrored (gamma X < Y <= X) when it
    decreases. Spectrally inverts the realize map on X^{-1/2} Y X^{-1/2} and
    congruates back: A = X^{1/2} A0 X^{1/2}, B = X^{1/2} A0^{-1} X^{1/2}.
    Every relative eigenvalue is checked against that range, as invert_phi
    checks its target, before any is inverted.
    """
    return _geometric_pair(representing_function(sigma), *_spd_relative_spectrum(x, y))


def _geometric_pair(fn: RepresentingFunction, xa: np.ndarray, ya: np.ndarray,
                    spectrum: RelativeSpectrum) -> PairWitness:
    """The witness (A, B) of A # B = X, A sigma B = Y, sigma the mean of fn,
    from spectrum, the relative spectrum of (X, Y): its eigenvalues are
    inverted in one pass into the roots t, and (A, B) congruate (t, 1/t)."""
    roots = _invert_realize(fn, spectrum.eigenvalues)
    return _pair_witnesses(spectrum, roots, 1.0 / roots, _GEOMETRIC, fn, xa, ya)


def _power_index(value: float, gamma0: float) -> int:
    """Integer m with gamma0^m < value <= gamma0^{m+1}, for value >= 1."""
    m = math.ceil(math.log(value) / math.log(gamma0)) - 1
    while gamma0 ** (m + 1) < value:
        m += 1
    while m >= 0 and gamma0 ** m >= value:
        m -= 1
    return m


def build_monotone_chain(sigma: MeanDescriptor, x, y,
                         gamma0: Optional[float] = None) -> ChainWitness:
    """Connect X <= Y by a finite chain with per-link pair realizations.

    With Y0 = X^{-1/2} Y X^{-1/2} = U diag(lam) U^T (lam clamped to at least
    1) and C = X^{1/2} U, node k is C diag(min(lam, gamma0^k)) C^T, that is
    X^{1/2} min(Y0, gamma0^k) X^{1/2}, for k = 0 .. K, where K >= 1 is the
    smallest power with gamma0^K >= max(lam). Each eigenvalue ratio of
    consecutive nodes lies in [1, gamma0], so the chain is monotone and
    every link is realizable as a pair, solved in the same basis. Endpoints
    are the given X and Y themselves. A chain of more than _MAX_LINKS links
    is refused (OutOfRangeError) before it is built.
    gamma0 defaults to sqrt(gamma) (2 when gamma is infinite) and must lie
    strictly between 1 and gamma.
    """
    fn = representing_function(sigma)
    gamma = fn.realize_gamma
    if not gamma > 1.0:
        raise UnsupportedMeanError(
            f"chain construction needs gamma > 1; {fn.label} has gamma = {gamma!r}")
    if gamma0 is None:
        gamma0 = math.sqrt(gamma) if math.isfinite(gamma) else 2.0
    _check_real("gamma0", gamma0)
    gamma0 = float(gamma0)
    if not 1.0 < gamma0 < gamma:
        raise OutOfRangeError(
            f"gamma0 = {gamma0!r} must lie strictly between 1 and gamma = {gamma!r}")

    xa, ya, spectrum = _spd_relative_spectrum(x, y)
    if np.array_equal(xa, ya):
        return ChainWitness((xa.copy(),), gamma0, ())
    lams = _ordered_eigenvalues(spectrum)
    count = max(1, _power_index(float(lams.max()), gamma0) + 1)
    if count > _MAX_LINKS:
        raise OutOfRangeError(
            f"the chain needs {count} links at gamma0 = {gamma0!r}, more than {_MAX_LINKS}")
    nodes = np.minimum(lams, gamma0 ** np.arange(count + 1.0)[:, None])
    nodes[-1] = lams        # exactly, however gamma0^K rounds
    links = np.concatenate([xa[None], spectrum.congruate(nodes[1:-1]), ya[None]])
    ratios = nodes[1:] / nodes[:-1]
    deltas = _invert_realize(fn, ratios.ravel()).reshape(ratios.shape)
    witnesses = _pair_witnesses(spectrum, nodes[:-1] * deltas, nodes[:-1] / deltas,
                                _GEOMETRIC, fn, links[:-1], links[1:])
    return ChainWitness(tuple(links), gamma0, witnesses)


def solve_scalar_geometric_pair(sigma: MeanDescriptor, x: float,
                                y: float) -> ScalarPairSolution:
    """Find positive (a, b) with sqrt(a b) = x and sigma-mean(a, b) = y.

    Scalar case of solve_matrix_pair: a = x t and b = x / t where t inverts
    the realize map at y / x. The returned pair has a >= b exactly when the
    realize map increases.
    """
    x, y = float(x), float(y)
    if not (math.isfinite(x) and x > 0.0 and math.isfinite(y) and y > 0.0):
        raise StructuralError("targets must be finite positive reals")
    fn = representing_function(sigma)
    if not 0.0 < y / x < math.inf:
        raise OutOfRangeError(f"target ratio of y = {y!r} to x = {x!r} leaves the float range")
    t = invert_phi(fn, y / x)
    a, b = x * t, x / t
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


def f_alpha(alpha: float, c: float) -> float:
    """cosh(alpha c) / (alpha^2 cosh(c) + 1 - alpha^2), for c >= 0.

    Strictly decreasing from f_alpha(0) = 1 toward 0; computed as exp(-G)
    from the cancellation-free G of _neg_log_f_alpha, so large c neither
    overflows nor loses the leading digits.
    """
    alpha = _validate_alpha(alpha)
    c = float(c)
    if not math.isfinite(c) or c < 0.0:
        raise DomainError(f"c must be a finite value >= 0, got {c!r}")
    return math.exp(-_neg_log_f_alpha(abs(alpha), c)[0])


@lru_cache(maxsize=64)
def _ratio_series(a: float) -> tuple:
    """The coefficients a^2 (1 - a^{2k-2}) / (2k)!, k = 15 down to 2, in c^{2k}
    of N(c) = a^2 (cosh c - 1) - (cosh(a c) - 1), the numerator of 1 - f_alpha(c)
    at a = |alpha|: all >= 0, each 1 - a^{2k-2} by expm1."""
    return tuple(a * a * -math.expm1((2 * k - 2) * math.log(a)) / math.factorial(2 * k)
                 for k in range(15, 1, -1))


def _neg_log_f_alpha(a: float, c: float) -> tuple:
    """(G, G') for G = -log f_alpha(c) at a = |alpha|, c >= 0. Up to c = 2,
    G = -log1p(-N / D), D = 1 + 2 a^2 sinh^2(c / 2), with N by Horner in c^2,
    so G keeps its digits where it is ~ c^4. Beyond, G = log1p(M / cosh(a c)),
    M = D - cosh(a c) = 2 a^2 sinh((1 + a) c / 2) sinh((1 - a) c / 2) - 2 (1 - a)
    (1 + a) sinh^2(a c / 2), whose terms cancel little there, all times e^{-a c}."""
    if c > 2.0:
        # sinh x = e^x (1 - e^{-2x}) / 2, and the two x of the first term sum to
        # c: times e^{-a c} it is (a e^h)^2 rest, h = (1 - a) c / 2
        h = 0.5 * (1.0 - a) * c
        rest = 0.5 * math.expm1(-(1.0 + a) * c) * math.expm1(-(1.0 - a) * c)
        cosh = 0.5 + 0.5 * math.exp(-2.0 * a * c)
        log_root = math.log(a) + h
        if log_root >= 350.0:   # past e^700 the first term leaves no digit of the rest
            g = 2.0 * log_root + math.log(rest / cosh)
        else:
            root = a * math.exp(h) if h < 700.0 else math.exp(log_root)
            second = 0.5 * (1.0 - a) * (1.0 + a) * math.expm1(-a * c) ** 2
            g = math.log1p((root * root * rest - second) / cosh)
        # D' / D = tanh(c) (1 - (1 - a^2) / D), log D = G + log cosh(a c)
        slope = math.tanh(c) * (1.0 - (1.0 - a) * (1.0 + a) * math.exp(-g - _logcosh(a * c)))
        return g, slope - a * math.tanh(a * c)
    x, n, dn = c * c, 0.0, 0.0
    for k2, t in zip(range(30, 3, -2), _ratio_series(a)):
        n, dn = n * x + t, dn * x + k2 * t
    n, dn, half = n * x * x, dn * x * c, math.sinh(0.5 * c)
    d = 1.0 + 2.0 * a * a * half * half
    return -math.log1p(-n / d), (dn * d - n * a * a * math.sinh(c)) / (d * (d - n))


def invert_f_alpha(alpha: float, r: float) -> float:
    """The unique c >= 0 with f_alpha(c) = r, for r in (0, 1].

    Safeguarded Newton iteration on G(c)^{1/4} = (-log r)^{1/4}, G = -log
    f_alpha, from the larger of the estimates G ~ alpha^2 (1 - alpha^2) c^4 / 24
    near 0 and G ~ (1 - |alpha|) c + log alpha^2 far out; a step that leaves
    the bracket takes its midpoint. It stops after a step of at most 1e-8 c
    (convergence is quadratic) or once the bracket is 1e-14 relative, mostly
    after 2 to 6 evaluations of G. G has no cancellation at any c, so c is
    accurate to a few ulps even for r within ulps of 1. The root is checked forward.
    """
    alpha = _validate_alpha(alpha)
    r = float(r)
    if not (math.isfinite(r) and 0.0 < r <= 1.0):
        raise DomainError(f"ratio must lie in (0, 1], got {r!r}")
    if r == 1.0:
        return 0.0
    a, target = abs(alpha), -math.log(r)
    # G(c) >= (1 - a) c + log(a^2 / 2), by D >= a^2 cosh c and log cosh(a c) <= a c
    lo, hi = 0.0, (target + math.log(2.0) - 2.0 * math.log(a)) / (1.0 - a)
    c = min(hi, max((24.0 * target / ((1.0 - a) * (1.0 + a))) ** 0.25 / math.sqrt(a),
                    (target + 2.0 * math.log(a)) / (1.0 - a)))
    for _ in range(_BISECT_MAX_ITER):
        g, slope = _neg_log_f_alpha(a, c)
        lo, hi = (c, hi) if g < target else (lo, c)
        # Newton on G^{1/4}: the step (G^{1/4} - L^{1/4}) / (G^{1/4})'
        step = 4.0 * g * (1.0 - (target / g) ** 0.25) / slope if g > 0.0 < slope else math.nan
        inside = lo <= c - step <= hi
        c = c - step if inside else 0.5 * (lo + hi)
        if inside and abs(step) <= 1e-8 * c or hi - lo <= _BISECT_REL * hi:
            break
    if abs(f_alpha(alpha, c) - r) > 1e-10 * max(1.0, r):
        raise ConvergenceError(f"f_alpha inversion inaccurate at r = {r!r}")
    return c


def solve_scalar_heinz_heron(s: float, a: float, b: float) -> ScalarPairSolution:
    """Positive (x, y) whose Heinz_s value is a and Heron_{(2s-1)^2} value is b.

    Needs 0 < a <= b (the Heinz value never exceeds the Heron value) and
    s away from 1/2, where the two families collapse onto each other.
    Solves c from the ratio a / b = f_alpha(c) with alpha = 2s - 1, then
    x = b e^{-c} / d and y = b e^{c} / d with d = alpha^2 cosh(c) + 1 -
    alpha^2, which satisfies both target equations identically; each is
    formed as the exp of its log, so x underflows only where its value does.
    """
    s, alpha = _heinz_heron_alpha(s)
    a, b = float(a), float(b)
    if not (math.isfinite(a) and a > 0.0 and math.isfinite(b) and b > 0.0):
        raise StructuralError("targets must be finite positive reals")
    if a > b:
        raise OrderError(
            f"Heinz target {a!r} exceeds Heron target {b!r}; the Heinz value "
            "never exceeds the Heron value")
    if a / b == 0.0:
        raise ConvergenceError(f"solution left the representable range: {a!r} / {b!r} underflows")
    c = invert_f_alpha(alpha, a / b)
    # exp of the whole log: b e^{-c} / d underflows through e^{-c} first
    log_b = math.log(b) - _neg_log_f_alpha(abs(alpha), c)[0] - _logcosh(alpha * c)
    x, y = math.exp(log_b - c), math.exp(log_b + c)
    if x <= 0.0 or not math.isfinite(y):
        raise ConvergenceError(
            f"solution left the representable range (c = {c!r})")

    heinz, heron = heinz_pair(s, x, y), heron_pair(alpha * alpha, x, y)
    if (abs(heinz - a) > _SCALAR_RESIDUAL_TOL * max(1.0, a)
            or abs(heron - b) > _SCALAR_RESIDUAL_TOL * max(1.0, b)):
        raise ConvergenceError(
            f"recomputed targets ({heinz!r}, {heron!r}) miss ({a!r}, {b!r})")
    return ScalarPairSolution(x, y, c)


def _validate_heinz_heron_parameter(s) -> float:
    _check_real("s", s)
    s = float(s)
    if s == 0.5:
        raise StructuralError(
            "s = 1/2 is degenerate: the Heinz and Heron targets coincide "
            "and the ratio map is constant")
    if not (math.isfinite(s) and 0.0 < s < 1.0):
        raise StructuralError(
            f"s must lie in (0, 1/2) or (1/2, 1), got {s!r}")
    return s


def _heinz_heron_alpha(s) -> tuple:
    """(s, alpha = 2s - 1) for the Heinz/Heron solvers, refusing an s whose alpha rounds to -1."""
    s = _validate_heinz_heron_parameter(s)
    if 2.0 * s - 1.0 == -1.0:
        raise StructuralError(f"s = {s!r} is too close to 0: 2s - 1 rounds to -1")
    return s, 2.0 * s - 1.0


def solve_heinz_heron_matrix(s: float, x, y) -> PairWitness:
    """Find (A, B) with Heinz_s(A, B) = X and Heron_{(2s-1)^2}(A, B) = Y.

    Requires 0 < X <= Y and s away from 1/2. For each eigenvalue lambda >= 1
    of X^{-1/2} Y X^{-1/2}, c = invert_f_alpha(2s - 1, 1 / lambda), a few
    Newton steps accurate to a few ulps even for lambda within ulps of 1,
    gives u = e^{-2c}: the pair (1, u) / Heinz_s(u) has Heinz mean 1 and Heron
    mean lambda, and A, B are its congruates by X^{1/2} U (U the eigenbasis).
    Where u underflows it raises the ConvergenceError solve_scalar_heinz_heron does.
    """
    s, alpha = _heinz_heron_alpha(s)
    xa, ya, spectrum = _spd_relative_spectrum(x, y)
    lams = _ordered_eigenvalues(spectrum)
    cs = np.array([invert_f_alpha(alpha, 1.0 / v) for v in lams])
    ratios = np.exp(-2.0 * cs)
    if not ratios.all():    # u = 0 makes Heinz_s(1, u) = 0 and the pair infinite
        raise ConvergenceError(f"solution left the representable range (c = {float(cs.max())!r})")
    d = heinz_pair(s, 1.0, ratios)
    return _pair_witnesses(spectrum, 1.0 / d, ratios / d,
                           representing_function(MeanDescriptor.heinz(s)),
                           representing_function(MeanDescriptor.heron(alpha * alpha)), xa, ya)


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

    solve_matrix_pair for sigma = Heinz_s, s away from 1/2, that also requires
    0 < X <= Y (OrderError otherwise). Each eigenvalue lambda of X^{-1/2} Y
    X^{-1/2} inverts to the root t >= 1 of cosh((1 - 2s) log t) = lambda,
    range-, horizon- and forward-checked like every realize-map root; (t, 1/t)
    has geometric mean 1 and Heinz mean lambda, and A, B congruate it.
    """
    s = _validate_heinz_heron_parameter(s)
    xa, ya, spectrum = _spd_relative_spectrum(x, y)
    _ordered_eigenvalues(spectrum)     # X <= Y
    return _geometric_pair(representing_function(MeanDescriptor.heinz(s)), xa, ya, spectrum)
