"""Sampled operator-monotonicity testing and mean inequality verification.

A real function is operator monotone exactly when every Loewner matrix of
divided differences built from points in its domain is positive
semidefinite. That criterion cannot be exhausted numerically, so this module
samples it: structured point sets (log grids, tight clusters, near-collision
pairs) plus randomized ones. A "consistent" verdict is evidence, not proof.
A "refuted" verdict must be sound under floating point, so a computed
matrix refutes only when its smallest eigenvalue lies below
-(tol * ||M||_F + E), where E bounds the rounding error of the computed
matrix in Frobenius norm; by Weyl's inequality no eigenvalue moves by more
than E. The bound assumes every value of f (and of the means it is composed
with) is accurate to _ULPS units in the last place.

The module also searches for matrix-pair counterexamples to the order
transfer f(mean_sigma(A, B)) <= f(mean_tau(A, B)) for pointwise-ordered
means, and verifies the harmonic/geometric/Heinz/Heron/arithmetic inequality
chain on concrete matrix pairs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, StructuralError, UsageError
from .means import MeanDescriptor, mean_from_spectrum, representing_function
from .spd import (RelativeSpectrum, _as_array, _eigh, apply_spectral_function,
                  matrix_to_json_dict, min_eig_and_norm, random_spd_from,
                  sym_eigendecompose)

STATUS_CONSISTENT = "consistent"
STATUS_REFUTED = "refuted"

_EPS = float(np.finfo(float).eps)
_DIFF_STEP = float(np.cbrt(_EPS))
# Relative accuracy, in units in the last place, that every refutation
# assumes for each computed value of f: a value within _ULPS * eps * |f(x)|
# of the exact one.  Rounding noise below that can no longer refute.
_ULPS = 16.0
_NEAR_COLLISION = 3e-6
_TRANSFER_GRID = np.logspace(-6.0, 6.0, 97)


def loewner_matrix(points, f: Callable, fprime: Optional[Callable] = None, *,
                   with_error: bool = False):
    """Divided-difference matrix of f over the given distinct points.

    Entry (i, j) is (f(x_i) - f(x_j)) / (x_i - x_j) off the diagonal and
    f'(x_i) on it (central difference when no derivative is supplied).
    Positive semidefiniteness of these matrices over all point sets is the
    operator-monotonicity criterion.

    with_error=True returns (matrix, bound), bound an entrywise bound on the
    rounding error of the matrix when each value of f is within _ULPS ulps:
    _ULPS * eps * (|f(x_i)| + |f(x_j)|) / |x_i - x_j| off the diagonal and
    _ULPS * eps * |f'(x_i)| on it. A central difference at step h carries
    the rounding term _ULPS * eps * (|f(x+h)| + |f(x-h)|) / (2h); its step
    h = cbrt(eps) * max(1, |x|) is the one that balances truncation against
    rounding, so the truncation term is taken as no larger and the bound
    is twice the rounding term. The bound reuses the values of f that build
    the matrix, so it costs no further evaluation.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.ndim != 1:
        raise StructuralError("points must form a one-dimensional sequence")
    if np.unique(pts).size != pts.size:
        raise StructuralError("Loewner matrix needs distinct points")
    fx = np.array([float(f(x)) for x in pts])
    diff_x = pts[:, None] - pts[None, :]
    np.fill_diagonal(diff_x, 1.0)
    out = (fx[:, None] - fx[None, :]) / diff_x
    if fprime is not None:
        diag = np.array([float(fprime(x)) for x in pts])
        diag_err = _ULPS * _EPS * np.abs(diag)
    else:
        step = _DIFF_STEP * np.maximum(1.0, np.abs(pts))
        up = np.array([float(f(x)) for x in pts + step])
        down = np.array([float(f(x)) for x in pts - step])
        diag = (up - down) / (2.0 * step)
        diag_err = _ULPS * _EPS * (np.abs(up) + np.abs(down)) / step
    np.fill_diagonal(out, diag)
    out = 0.5 * (out + out.T)
    if not with_error:
        return out
    abs_fx = np.abs(fx)
    err = _ULPS * _EPS * (abs_fx[:, None] + abs_fx[None, :]) / np.abs(diff_x)
    np.fill_diagonal(err, diag_err)
    return out, err


def _difference_rounding_bound(a: np.ndarray, b: np.ndarray,
                               lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Bound on the eigenvalue error of the computed difference rhs - lhs.

    lhs and rhs are built from means of the SPD pair (a, b), whose spectra
    all lie in the joint spectral range of a and b; the congruences by
    square roots that evaluate them lose at most about n * eps * kappa
    relative, kappa being the joint condition number. With _ULPS ulps per
    value the computed difference is off by at most
    _ULPS * n * eps * kappa * (||lhs||_F + ||rhs||_F), and by Weyl's
    inequality so is each of its eigenvalues.
    """
    spec_a = _eigh(a, vectors=False)
    spec_b = _eigh(b, vectors=False)
    kappa = max(spec_a[-1], spec_b[-1]) / min(spec_a[0], spec_b[0])
    scale = float(np.linalg.norm(lhs)) + float(np.linalg.norm(rhs))
    return _ULPS * a.shape[0] * _EPS * float(kappa) * scale


@dataclass(frozen=True)
class LoewnerWitness:
    """A point set whose Loewner matrix has a negative eigenvalue beyond rounding."""

    points: tuple[float, ...]
    min_eigenvalue: float
    matrix_norm: float

    def to_json_dict(self) -> dict:
        return {"kind": "loewner-points", "points": list(self.points),
                "min_eigenvalue": self.min_eigenvalue,
                "matrix_norm": self.matrix_norm}


@dataclass(frozen=True)
class TransferWitness:
    """A matrix pair on which f breaks the order between two ordered means."""

    matrix_a: np.ndarray
    matrix_b: np.ndarray
    min_eigenvalue: float
    diff_norm: float

    def to_json_dict(self) -> dict:
        return {"kind": "matrix-pair",
                "A": matrix_to_json_dict(self.matrix_a),
                "B": matrix_to_json_dict(self.matrix_b),
                "min_eigenvalue": self.min_eigenvalue,
                "diff_norm": self.diff_norm}


@dataclass(frozen=True)
class MonotonicityVerdict:
    status: str
    witness: Optional[Union[LoewnerWitness, TransferWitness]]
    trials_run: int

    @property
    def refuted(self) -> bool:
        return self.status == STATUS_REFUTED

    def to_json_dict(self) -> dict:
        return {"status": self.status, "trials_run": self.trials_run,
                "witness": None if self.witness is None else self.witness.to_json_dict()}


@dataclass(frozen=True)
class MonoConfig:
    """Sampling plan for the operator-monotonicity test.

    grids: (lo, hi, count) log-spaced point sets tested whole.
    sizes: candidate sizes for random point sets.
    trials: number of random point sets.
    tol: refute when min eig < -(tol * ||L||_F + E), with ||L||_F the
        Frobenius norm of the Loewner matrix and E the Frobenius norm of the
        entrywise bound on its rounding error.
    """

    grids: tuple = ((1e-3, 1e3, 9), (1e-2, 1e2, 13))
    sizes: tuple = (2, 3, 4, 6)
    trials: int = 150
    seed: int = 0
    tol: float = 1e-8

    def __post_init__(self):
        if self.trials < 0:
            raise StructuralError("trials must be non-negative")
        if self.tol <= 0.0:
            raise StructuralError("tolerance must be positive")
        if not self.sizes or any(int(s) < 2 for s in self.sizes):
            raise StructuralError("point-set sizes must be at least 2")
        for grid in self.grids:
            lo, hi, count = grid
            if not (0.0 < lo < hi) or int(count) < 2:
                raise StructuralError(f"bad grid {grid!r}: need 0 < lo < hi and count >= 2")


def _structured_point_sets(config: MonoConfig):
    for lo, hi, count in config.grids:
        yield np.logspace(np.log10(lo), np.log10(hi), int(count))
    for anchor in (1e-2, 1.0, 1e2):
        yield anchor * (1.0 + 1e-3 * np.arange(6))
    for x in np.logspace(-3, 3, 13):
        yield np.array([x, x * (1.0 + _NEAR_COLLISION)])
        yield np.array([x / 10.0, x, x * (1.0 + _NEAR_COLLISION), x * 10.0])


def _loewner_witness(pts, f, fprime, tol) -> Optional[LoewnerWitness]:
    mat, err = loewner_matrix(pts, f, fprime, with_error=True)
    if not np.all(np.isfinite(mat)):
        raise DomainError("function not finitely evaluable on point set")
    min_eig, norm = min_eig_and_norm(mat)
    if min_eig < -(tol * norm + float(np.linalg.norm(err))):
        return LoewnerWitness(tuple(float(x) for x in pts), min_eig, norm)
    return None


def is_operator_monotone_sampled(f: Callable, fprime: Optional[Callable] = None,
                                 config: MonoConfig = MonoConfig()) -> MonotonicityVerdict:
    """Probe operator monotonicity of f on (0, inf) by sampled Loewner matrices.

    Structured sets run first, then config.trials random log-uniform sets.
    A point set refutes when the smallest eigenvalue of its Loewner matrix
    lies below -(config.tol * ||L||_F + rounding bound), the bound assuming
    f accurate to _ULPS ulps; a consistent verdict means no refutation was
    found, not a proof of monotonicity.
    """
    trials_run = 0

    def check(pts):
        # fast-growing or partial functions may not evaluate on a far-out
        # point set; skip that set, a violation shows up on smaller points
        try:
            return _loewner_witness(pts, f, fprime, config.tol)
        except (DomainError, OverflowError, ValueError, ZeroDivisionError):
            return None

    for pts in _structured_point_sets(config):
        trials_run += 1
        witness = check(pts)
        if witness is not None:
            return MonotonicityVerdict(STATUS_REFUTED, witness, trials_run)

    rng = np.random.default_rng(config.seed)
    log_lo, log_hi = np.log(1e-3), np.log(1e3)
    for _ in range(config.trials):
        size = int(rng.choice(config.sizes))
        pts = np.unique(np.exp(rng.uniform(log_lo, log_hi, size)))
        if pts.size < 2:
            continue
        trials_run += 1
        witness = check(pts)
        if witness is not None:
            return MonotonicityVerdict(STATUS_REFUTED, witness, trials_run)
    return MonotonicityVerdict(STATUS_CONSISTENT, None, trials_run)


def _apply_scalar(matrix: np.ndarray, f: Callable) -> np.ndarray:
    return apply_spectral_function(matrix, lambda v: np.array(
        [float(f(x)) for x in np.atleast_1d(v)]) if np.ndim(v) else float(f(v)))


def falsify_transfer(f: Callable, sigma: MeanDescriptor, tau: MeanDescriptor,
                     trials: int = 1000, seed: int = 0,
                     tol: float = 1e-8) -> MonotonicityVerdict:
    """Search for SPD pairs where f breaks the order between two ordered means.

    Requires the representing functions to satisfy f_sigma <= f_tau on a log
    grid (so mean_sigma(A, B) <= mean_tau(A, B) always holds); then samples
    random pairs and tests f(mean_sigma) <= f(mean_tau) in the Loewner order,
    starting at 2x2 and escalating to 3x3 and 4x4. A pair refutes when the
    difference has min eigenvalue below -(tol * max(1, norm) + E), E the
    rounding bound of _difference_rounding_bound. For operator monotone f no
    witness exists; for many non-monotone f a 2x2 witness appears quickly.
    """
    rep_s = representing_function(sigma)
    rep_t = representing_function(tau)
    fs = np.asarray(rep_s.value(_TRANSFER_GRID), dtype=float)
    ft = np.asarray(rep_t.value(_TRANSFER_GRID), dtype=float)
    slack = 1e-10 * np.maximum(1.0, np.abs(ft))
    if np.any(fs > ft + slack):
        bad = _TRANSFER_GRID[np.argmax(fs - ft)]
        raise UsageError(
            f"means are not pointwise ordered: f_sigma({bad:.6g}) > f_tau({bad:.6g})")

    if trials < 0:
        raise StructuralError("trials must be non-negative")
    rng = np.random.default_rng(seed)
    schedule = [(2, int(np.ceil(trials * 0.6))),
                (3, int(np.ceil(trials * 0.25)))]
    schedule.append((4, max(0, trials - schedule[0][1] - schedule[1][1])))

    def gap(a, b):
        spectrum = RelativeSpectrum(a, b)
        lhs = _apply_scalar(mean_from_spectrum(spectrum, rep_s), f)
        rhs = _apply_scalar(mean_from_spectrum(spectrum, rep_t), f)
        return (*min_eig_and_norm(rhs - lhs),
                _difference_rounding_bound(a, b, lhs, rhs))

    trials_run = 0
    for n, count in schedule:
        for _ in range(count):
            trials_run += 1
            a = random_spd_from(rng, n, cond_cap=50.0).entries
            b = random_spd_from(rng, n, cond_cap=50.0).entries
            try:
                min_eig, norm, bound = gap(a, b)
            except (DomainError, OverflowError, ValueError, ZeroDivisionError):
                continue
            if min_eig < -(tol * max(1.0, norm) + bound):
                witness = TransferWitness(a, b, min_eig, norm)
                return MonotonicityVerdict(STATUS_REFUTED, witness, trials_run)
    return MonotonicityVerdict(STATUS_CONSISTENT, None, trials_run)


@dataclass(frozen=True)
class LinkMargin:
    """One inequality of the chain: min eigenvalue of (larger - smaller)."""

    name: str
    min_eigenvalue: float
    diff_norm: float

    def holds(self, tol: float = 1e-8) -> bool:
        # max(1, norm) keeps the bound meaningful when the difference is
        # itself roundoff (tight links), where a purely relative bound
        # collapses below eigenvalue noise
        return self.min_eigenvalue >= -tol * max(1.0, self.diff_norm)


@dataclass(frozen=True)
class InequalityChainReport:
    """Margins of the harmonic-to-arithmetic inequality chain on one pair."""

    s: float
    links: tuple[LinkMargin, ...]
    commuting: bool
    scalar_checked: bool
    scalar_min_margin: Optional[float] = None
    scalar_links: tuple = field(default=())

    def all_hold(self, tol: float = 1e-8) -> bool:
        matrix_ok = all(link.holds(tol) for link in self.links)
        if not self.scalar_checked:
            return matrix_ok
        return matrix_ok and self.scalar_min_margin >= -1e-12

    def to_json_dict(self) -> dict:
        return {"s": self.s,
                "links": [{"name": m.name, "min_eigenvalue": m.min_eigenvalue,
                           "diff_norm": m.diff_norm} for m in self.links],
                "commuting": self.commuting,
                "scalar_checked": self.scalar_checked,
                "scalar_min_margin": self.scalar_min_margin}


def _scalar_chain_margin(a: np.ndarray, b: np.ndarray, s: float) -> float:
    """Normalized worst margin of the five-term scalar chain on paired values."""
    geo = np.sqrt(a * b)
    heinz = 0.5 * (a ** s * b ** (1.0 - s) + a ** (1.0 - s) * b ** s)
    alpha2 = (2.0 * s - 1.0) ** 2
    heron_sq = alpha2 * 0.5 * (a + b) + (1.0 - alpha2) * geo
    heron_abs = abs(2.0 * s - 1.0) * 0.5 * (a + b) + (1.0 - abs(2.0 * s - 1.0)) * geo
    arith = 0.5 * (a + b)
    chain = (geo, heinz, heron_sq, heron_abs, arith)
    worst = np.inf
    for lo, hi in zip(chain, chain[1:]):
        worst = min(worst, float(np.min((hi - lo) / np.maximum(1.0, np.abs(hi)))))
    return worst


def verify_inequality_chain(a, b, s: float, tol: float = 1e-8) -> InequalityChainReport:
    """Check the mean inequality chain on one SPD pair.

    Matrix links, all of which hold for every SPD pair:
      harmonic <= Heinz_s, geometric <= Heinz_s,
      Heinz_s <= Heron with weight (2s-1)^2, Heron <= arithmetic,
      Heinz_s <= arithmetic.
    When A and B commute the eigenvalue pairs additionally run through the
    scalar chain geometric <= Heinz <= Heron((2s-1)^2) <= Heron(|2s-1|) <=
    arithmetic, reported as a single normalized worst margin.
    """
    if not 0.0 <= float(s) <= 1.0:
        raise StructuralError(f"s must lie in [0, 1], got {s}")
    s = float(s)
    am = _as_array(a, "A")
    bm = _as_array(b, "B")
    spectrum = RelativeSpectrum(am, bm)
    ev = spectrum.eigenvalues
    harm_v = 2.0 * ev / (1.0 + ev)
    geo_v = np.sqrt(ev)
    heinz_v = 0.5 * (ev ** s + ev ** (1.0 - s))
    arith_v = 0.5 * (1.0 + ev)
    alpha2 = (2.0 * s - 1.0) ** 2
    heron_v = alpha2 * arith_v + (1.0 - alpha2) * geo_v

    # Each difference is one congruence of the scalar gap in the shared
    # eigenbasis.  Subtracting two separately congruated means instead would
    # swamp tight links (the Heinz-Heron gap is quartic in the spectral
    # spread) with absolute rounding noise; this way the error stays
    # relative to the difference itself, ~ n*eps*cond(a).
    links = []
    for name, lo_v, hi_v in (("harmonic<=heinz", harm_v, heinz_v),
                             ("geometric<=heinz", geo_v, heinz_v),
                             ("heinz<=heron", heinz_v, heron_v),
                             ("heron<=arithmetic", heron_v, arith_v),
                             ("heinz<=arithmetic", heinz_v, arith_v)):
        min_eig, norm = min_eig_and_norm(spectrum.congruate(hi_v - lo_v))
        links.append(LinkMargin(name, min_eig, norm))

    comm_norm = float(np.linalg.norm(am @ bm - bm @ am))
    scale = max(float(np.linalg.norm(am)) * float(np.linalg.norm(bm)), 1e-300)
    commuting = comm_norm <= 1e-10 * scale

    scalar_checked = False
    scalar_margin = None
    if commuting:
        probe = sym_eigendecompose(am + np.e * bm)
        a_t = probe.basis.T @ am @ probe.basis
        b_t = probe.basis.T @ bm @ probe.basis
        off = max(float(np.linalg.norm(a_t - np.diag(np.diag(a_t)))),
                  float(np.linalg.norm(b_t - np.diag(np.diag(b_t)))))
        if off <= 1e-8 * max(1.0, float(np.linalg.norm(am)), float(np.linalg.norm(bm))):
            scalar_checked = True
            scalar_margin = _scalar_chain_margin(np.diag(a_t), np.diag(b_t), s)

    return InequalityChainReport(s, tuple(links), commuting,
                                 scalar_checked, scalar_margin)
