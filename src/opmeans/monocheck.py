"""Sampled operator-monotonicity testing and mean inequality verification.

A real function is operator monotone exactly when every Loewner matrix of
divided differences built from points in its domain is positive
semidefinite. That criterion cannot be exhausted numerically, so this module
samples it in two stages: log grids, then the other structured point sets
(tight clusters, near-collision pairs) together with randomized ones, so an
f refuted by a structured set is still evaluated on the random sets. A
"consistent" verdict is evidence, not proof. A "refuted" verdict must be
sound under floating point, so a computed matrix refutes only when its
smallest eigenvalue lies below -(tol * ||M||_F + E), where E bounds the
rounding error of the computed matrix in Frobenius norm; by Weyl's
inequality no eigenvalue moves by more than E. The bound assumes every value
of f (and of the means it is composed with) is accurate to _ULPS units in
the last place.

The module also searches for matrix-pair counterexamples to the order
transfer f(mean_sigma(A, B)) <= f(mean_tau(A, B)) for pointwise-ordered
means, and verifies the harmonic/geometric/Heinz/Heron/arithmetic inequality
chain on concrete matrix pairs.

The checks run many point sets or matrix pairs at once, as stacks through
the spd primitives, with f called once over all their points; skips,
faults and refutations are then resolved in trial order, so every verdict,
trials_run and witness is that of checking one set or pair at a time. The
sampler plans its grids, with their Loewner geometry, once per process and
its other point sets on every call; f receives a copy of the points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from numbers import Integral
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import spd
from .errors import DOMAIN_ERRORS, ConditioningError, StructuralError, UsageError
from .means import (MeanDescriptor, arithmetic_pair, geometric_pair, harmonic_pair,
                    heinz_pair, heron_pair, mean_from_spectrum, representing_function)
from .spd import (RelativeSpectrum, SpdMatrix, _as_array, _assemble, _eigh_descending,
                  _evaluate, _evaluate_sets, _frobenius, _min_eig_and_norm, _random_spd_stack,
                  _symmetrize, matrix_to_json_dict, sym_eigendecompose)

STATUS_CONSISTENT = "consistent"
STATUS_REFUTED = "refuted"

_EPS = float(np.finfo(float).eps)
_DIFF_STEP = float(np.cbrt(_EPS))
# Relative accuracy, in units in the last place, that every refutation
# assumes for each computed value of f: a value within _ULPS * eps * |f(x)|
# of the exact one.  Rounding noise below that can no longer refute.
_ULPS = 16.0
_NEAR_COLLISION = 3e-6
_NEAR_REL = float(np.sqrt(_EPS))   # closer points: mean of their derivatives
_TRANSFER_GRID = np.logspace(-6.0, 6.0, 97)
# Trials per stack in falsify_transfer: a refutation wastes at most one
# stack's trials, and 8 and 16 measured alike.
_TRANSFER_BLOCK = 8


def loewner_matrix(points, f: Callable, fprime: Optional[Callable] = None, *,
                   with_error: bool = False):
    """Divided-difference matrix of f over the given distinct points.

    Entry (i, j) is (f(x_i) - f(x_j)) / (x_i - x_j) off the diagonal and
    f'(x_i) on it (central difference when no derivative is supplied; with
    one, (f'(x_i) + f'(x_j)) / 2 at points within sqrt(eps) relative).
    Positive semidefiniteness of these matrices over all point sets is the
    operator-monotonicity criterion. points may also be a (k, n) array of k
    point sets, which gives a (k, n, n) stack. An array-in, array-out f (a
    parsed FunctionExpr among them) is called once on all points of all
    sets; a scalar-only f, or one whose array call raises, once per point;
    so is fprime.

    with_error=True returns (matrix, bound), bound an entrywise bound on the
    rounding error of the matrix when each value of f is within _ULPS ulps:
    _ULPS * eps * (|f(x_i)| + |f(x_j)|) / |x_i - x_j| off the diagonal,
    _ULPS * eps * |f'(x_i)| on it, and |f'(x_i) - f'(x_j)| + _ULPS * eps *
    (|f'(x_i)| + |f'(x_j)|) / 2 for a mean of derivatives. A central
    difference at step h carries the rounding term _ULPS * eps * (|f(x+h)|
    + |f(x-h)|) / (2h); its step h = cbrt(eps) * max(1, |x|) balances
    truncation against rounding, so the truncation term is taken as no
    larger and the bound is twice the rounding term. Each sum |a| + |b| is
    formed as 2 (|a|/2 + |b|/2), finite for finite values. The bound reuses
    the values of f that build the matrix, so it costs no further evaluation.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.ndim > 2:
        raise StructuralError("points must form a one-dimensional sequence or a (k, n) array")
    ordered = np.sort(pts, axis=-1)
    if np.any(ordered[..., 1:] == ordered[..., :-1]):
        raise StructuralError("Loewner matrix needs distinct points")
    x, geometry = _loewner_geometry(pts, fprime is not None)
    values = _evaluate(f, x.ravel()).reshape(x.shape)
    deriv = None if fprime is None else _evaluate(fprime, x.ravel()).reshape(x.shape)
    mat, err = _loewner_stack(geometry, values, deriv)
    return (mat, err) if with_error else mat


def _loewner_geometry(pts: np.ndarray, derivative: bool):
    """(x, geometry) of the point sets pts (..., n): x the points where f
    builds their Loewner matrices (the sets, and without a derivative each
    point plus and minus its central-difference step); geometry x_i - x_j
    with 1 on the diagonal, its absolute value, and the mask of pairs too
    close for a difference quotient or, without a derivative, each step."""
    on_diag = np.arange(pts.shape[-1])
    diff_x = pts[..., :, None] - pts[..., None, :]
    diff_x[..., on_diag, on_diag] = 1.0
    abs_dx = np.abs(diff_x)
    if not derivative:
        step = _DIFF_STEP * np.maximum(1.0, np.abs(pts))
        return np.concatenate((pts, pts + step, pts - step), axis=-1), (diff_x, abs_dx, step)
    # points too close for a difference quotient (which cancellation
    # leaves no digit of) take the mean of their derivatives
    near = abs_dx <= _NEAR_REL * np.abs(pts)[..., :, None]
    return pts, (diff_x, abs_dx, near | np.swapaxes(near, -1, -2))


def _loewner_stack(geometry, values: np.ndarray, derivative):
    """Loewner matrices and entrywise rounding bounds (see loewner_matrix) of
    the point sets of the given geometry (see _loewner_geometry), from the
    values of f at their x, and of its derivative when one is given."""
    diff_x, abs_dx, step_or_near = geometry
    on_diag = np.arange(diff_x.shape[-1])
    if derivative is None:
        step = step_or_near
        fx, up, down = np.moveaxis(values.reshape(*step.shape[:-1], 3, step.shape[-1]), -2, 0)
        diag = (up - down) / (2.0 * step)
        diag_err = 2.0 * _ULPS * _EPS * (0.5 * np.abs(up) + 0.5 * np.abs(down)) / step
    else:
        fx, diag = values, derivative
        diag_err = _ULPS * _EPS * np.abs(diag)
    out = (fx[..., :, None] - fx[..., None, :]) / diff_x
    out[..., on_diag, on_diag] = diag
    # halved before the sum, as in spd._symmetrize, so that no finite value overflows it
    half = 0.5 * np.abs(fx)
    err = 2.0 * _ULPS * _EPS * (half[..., :, None] + half[..., None, :]) / abs_dx
    err[..., on_diag, on_diag] = diag_err
    if derivative is not None and step_or_near.any():
        near = step_or_near
        d_i = np.broadcast_to(diag[..., :, None], out.shape)[near]
        d_j = np.broadcast_to(diag[..., None, :], out.shape)[near]
        out[near] = 0.5 * d_i + 0.5 * d_j
        err[near] = np.abs(d_i - d_j) + _ULPS * _EPS * (0.5 * np.abs(d_i) + 0.5 * np.abs(d_j))
    return _symmetrize(out), err


def _resolve(count: int, phases):
    """Per item, whether its evaluations of f succeeded, and its fault.

    phases lists, in the order the one-item-at-a-time check evaluates them,
    pairs (errors, finite): errors from _evaluate_sets (None when none
    failed) and finite, when given, whether the values came out finite. The
    first phase with an error, or with non-finite values, ends an item: an
    error in DOMAIN_ERRORS or a non-finite value makes it skipped, any other
    error its fault, which the caller raises if no earlier item decides first.
    Returns (usable mask, faults: per item an exception or None).
    """
    usable = np.ones(count, dtype=bool)
    faults = [None] * count
    for errors, finite in phases:
        for i, err in enumerate(errors or ()):
            if err is not None and usable[i]:
                usable[i] = False
                if not isinstance(err, DOMAIN_ERRORS):
                    faults[i] = err
        if finite is not None:
            usable &= finite
    return usable, faults


def _first_hit(hits: np.ndarray, faults: list, trial: np.ndarray):
    """(item, trials examined) of the earliest refutation or fault, items
    ordered by their trial numbers; (None, 0) when there is none."""
    hits = hits | np.array([e is not None for e in faults], dtype=bool)
    if not hits.any():
        return None, 0
    candidates = np.flatnonzero(hits)
    item = int(candidates[np.argmin(trial[candidates])])
    if faults[item] is not None:
        raise faults[item]
    return item, int(trial[item]) + 1


def _difference_rounding_bound(spec_a: np.ndarray, spec_b: np.ndarray,
                               lhs: np.ndarray, rhs: np.ndarray):
    """Bound on the eigenvalue error of the computed difference rhs - lhs.

    lhs and rhs are built from means of the SPD pair (a, b) with spectra
    spec_a and spec_b, each in either order; the means' spectra all lie in
    the joint spectral range of a and b, and the congruences by C = a^{1/2} U
    that evaluate them lose at most about n * eps * kappa relative, kappa
    being the joint condition number. With _ULPS ulps per value the computed
    difference is off by at most _ULPS * n * eps * kappa * (||lhs||_F +
    ||rhs||_F), and by Weyl's inequality so is each of its eigenvalues.
    Stacks of pairs give a (k,) array of bounds.
    """
    kappa = (np.maximum(spec_a.max(axis=-1), spec_b.max(axis=-1))
             / np.minimum(spec_a.min(axis=-1), spec_b.min(axis=-1)))
    scale = _frobenius(lhs) + _frobenius(rhs)
    return _ULPS * lhs.shape[-1] * _EPS * kappa * scale


def _random_pairs(rng: np.random.Generator, count: int, n: int) -> tuple:
    """count random n x n SPD pairs of condition at most 50, A then B, as
    (SpdMatrix stack of the A's, array of the B's, their RelativeSpectrum)."""
    mats = _random_spd_stack(rng, 2 * count, n, 50.0)     # checks n, also for no pairs
    a, b = SpdMatrix(mats[0::2]), mats[1::2]
    return a, b, RelativeSpectrum(a, b)


def _pair_margins(a: SpdMatrix, b: np.ndarray, lhs: np.ndarray, rhs: np.ndarray,
                  diff: np.ndarray, tol: float) -> tuple:
    """(min_eig, norm, refuted) of each difference rhs - lhs of means of the
    pairs (a, b) of _random_pairs: refuted when min_eig < -(tol * max(1, norm)
    + E), E its _difference_rounding_bound. A difference with no finite norm
    cannot refute; its lhs, rhs and diff are zeroed in place for E and min_eig."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _frobenius(diff)
        bounded = np.isfinite(norm)
        if not bounded.all():
            lhs[~bounded] = rhs[~bounded] = diff[~bounded] = 0.0
        bound = _difference_rounding_bound(a._spectrum[0], spd._eigh(b, vectors=False), lhs, rhs)
    min_eig = spd._eigh(diff, vectors=False)[..., 0]    # none above norm in size
    return min_eig, norm, bounded & (min_eig < -(tol * np.maximum(1.0, norm) + bound))


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
class _MatrixPair:
    """A matrix pair and the numbers reported with it, shared by every pair
    witness; its JSON record is "A", "B", then each further field by name."""

    matrix_a: np.ndarray
    matrix_b: np.ndarray

    def to_json_dict(self) -> dict:
        return {"A": matrix_to_json_dict(self.matrix_a), "B": matrix_to_json_dict(self.matrix_b),
                **{f.name: getattr(self, f.name) for f in fields(self)[2:]}}


@dataclass(frozen=True)
class TransferWitness(_MatrixPair):
    """A matrix pair on which f breaks the order between two ordered means."""

    min_eigenvalue: float
    diff_norm: float

    def to_json_dict(self) -> dict:
        return {"kind": "matrix-pair", **super().to_json_dict()}


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


def _check_sampling(trials: int, seed: int, tol: float) -> None:
    """Reject a bool, non-integer or negative trials or seed; a non-finite or non-positive tol."""
    for name, value in (("trials", trials), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
            raise StructuralError(f"{name} must be a non-negative integer, got {value!r}")
    if not (np.isfinite(tol) and tol > 0.0):
        raise StructuralError(f"tolerance must be a finite positive real, got {tol!r}")


@dataclass(frozen=True)
class MonoConfig:
    """Sampling plan for the operator-monotonicity test.

    grids: (lo, hi, count) log-spaced point sets tested whole, kept as floats and an int.
    sizes: candidate sizes for random point sets, kept as a tuple.
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
        _check_sampling(self.trials, self.seed, self.tol)
        try:
            sizes, grids = tuple(self.sizes), tuple(self.grids)
        except TypeError:
            raise StructuralError("grids and sizes must be sequences") from None
        if not sizes or any(not isinstance(s, Integral) or s < 2 for s in sizes):
            raise StructuralError("point-set sizes must be integers of at least 2")
        for grid in grids:
            try:
                lo, hi, count = grid
                ok = 0.0 < lo < hi < np.inf and isinstance(count, Integral) and count >= 2
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise StructuralError(
                    f"bad grid {grid!r}: need (lo, hi, count), 0 < lo < hi < inf, count >= 2")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "grids", tuple((float(lo), float(hi), int(count))
                                                for lo, hi, count in grids))


class _Plan(NamedTuple):
    """A stage's point sets (in trial order) grouped by size: each set's
    trial number, per group the shape of its rows of x and its Loewner
    geometry, and x, where f runs, as sets of lengths beginning at starts."""

    sets: tuple
    trial: np.ndarray
    groups: tuple
    x: np.ndarray
    lengths: np.ndarray
    starts: np.ndarray


def _plan(sets: list, derivative: bool) -> Optional[_Plan]:
    """The _Plan of the point sets, for f with a derivative or without one
    (None if there are none); each size group lists its sets in trial order."""
    if not sets:
        return None
    sizes = np.array([p.size for p in sets])
    # not np.unique: in numpy 2.4 its first call imports numpy.ma, a cold-start cost
    trial = [np.flatnonzero(sizes == m) for m in sorted(set(sizes.tolist()))]
    rows, geometry = zip(*(_loewner_geometry(np.array([sets[i] for i in idx]), derivative)
                           for idx in trial))
    lengths = np.concatenate([np.full(len(r), r.shape[1]) for r in rows])
    return _Plan(tuple(sets), np.concatenate(trial), tuple(zip((r.shape for r in rows), geometry)),
                 np.concatenate([r.ravel() for r in rows]), lengths, np.cumsum(lengths) - lengths)


@lru_cache(maxsize=16)
def _grid_plan(grids: tuple, derivative: bool) -> Optional[_Plan]:
    """The plan of the log grids, read-only since every call shares it."""
    plan = _plan([np.logspace(np.log10(lo), np.log10(hi), n) for lo, hi, n in grids], derivative)
    if plan is not None:
        for arr in (plan.trial, plan.x, plan.lengths, plan.starts, *plan.sets,
                    *(a for _, geometry in plan.groups for a in geometry)):
            arr.setflags(write=False)
    return plan


# The second stage's structured point sets, shared and so read-only: tight
# clusters at three scales; at each x, a near-collision pair alone and framed by x / 10 and 10 x.
_STRUCTURED = (*(anchor * (1.0 + 1e-3 * np.arange(6)) for anchor in (1e-2, 1.0, 1e2)),
               *(pts for x in np.logspace(-3, 3, 13)
                 for pts in (np.array([x, x * (1.0 + _NEAR_COLLISION)]),
                             np.array([x / 10.0, x, x * (1.0 + _NEAR_COLLISION), x * 10.0]))))
for _pts in _STRUCTURED:
    _pts.setflags(write=False)


def _random_sets(config: MonoConfig) -> list:
    """config.trials random log-uniform point sets, sorted and distinct, less those of 1 point."""
    rng = np.random.default_rng(config.seed)
    log_lo, log_hi = np.log(1e-3), np.log(1e3)
    drawn = []
    for _ in range(config.trials):
        # the stream of rng.choice(sizes) and np.unique, drawn for less
        size = config.sizes[rng.integers(len(config.sizes))]
        pts = np.exp(rng.uniform(log_lo, log_hi, size))
        pts.sort()
        if len(set(pts.tolist())) < size:
            pts = pts[np.concatenate(([True], pts[1:] != pts[:-1]))]
        if pts.size >= 2:
            drawn.append(pts)
    return drawn


def _first_loewner_witness(plan: Optional[_Plan], f, fprime, tol: float):
    """(witness, sets examined) for the point sets of the plan in trial
    order, with f (and fprime) called once, on a copy of plan.x.

    Each size group's Loewner matrices are decomposed as one stack. A set is
    skipped when f raises one of DOMAIN_ERRORS on it or a value or the norm
    ||L||_F is not finite: fast-growing or partial functions may not evaluate
    on a far-out set, and a violation shows up on smaller points. The earliest
    refuting set wins; another error of f on an earlier set propagates.
    """
    if plan is None:
        return None, 0
    values, errors = _evaluate_sets(f, plan.x.copy(), plan.lengths)
    phases = [(errors, None)]
    finite = np.isfinite(values)
    if fprime is not None:
        derivs, d_errors = _evaluate_sets(fprime, plan.x.copy(), plan.lengths)
        phases.append((d_errors, None))
        finite &= np.isfinite(derivs)
    phases.append((None, np.logical_and.reduceat(finite, plan.starts)))
    usable, faults = _resolve(len(plan.sets), phases)

    refuted = np.zeros(len(plan.sets), dtype=bool)
    min_eig, norm = np.zeros(len(plan.sets)), np.zeros(len(plan.sets))
    row = offset = 0
    # values of f near the largest float overflow an entry or the norm of a
    # matrix (the set is skipped) or its rounding bound (the set cannot refute)
    with np.errstate(over="ignore"):
        for shape, geometry in plan.groups:
            first_row, block = row, slice(offset, offset + shape[0] * shape[1])
            row, offset = row + shape[0], block.stop
            ok = np.flatnonzero(usable[first_row:row])
            keep = ok if len(ok) < shape[0] else slice(None)   # a view, not a copy
            deriv = None if fprime is None else derivs[block].reshape(shape)[keep]
            mat, err = _loewner_stack(tuple(g[keep] for g in geometry),
                                      values[block].reshape(shape)[keep], deriv)
            fro = _frobenius(mat)
            bounded = np.isfinite(fro)
            bounded = slice(None) if bounded.all() else bounded
            ok, fro = first_row + ok[bounded], fro[bounded]
            lo = spd._eigh(mat[bounded], vectors=False)[..., 0]    # none above fro in size
            refuted[ok] = lo < -(tol * fro + _frobenius(err[bounded]))
            min_eig[ok], norm[ok] = lo, fro
    item, examined = _first_hit(refuted, faults, plan.trial)
    if item is None:
        return None, len(plan.sets)
    return LoewnerWitness(tuple(float(v) for v in plan.sets[plan.trial[item]]),
                          float(min_eig[item]), float(norm[item])), examined


def is_operator_monotone_sampled(f: Callable, fprime: Optional[Callable] = None,
                                 config: MonoConfig = MonoConfig()) -> MonotonicityVerdict:
    """Probe operator monotonicity of f on (0, inf) by sampled Loewner matrices.

    Structured sets run first, then config.trials random log-uniform sets.
    A point set refutes when the smallest eigenvalue of its Loewner matrix
    lies below -(config.tol * ||L||_F + rounding bound), the bound assuming
    f accurate to _ULPS ulps; a consistent verdict means no refutation was
    found, not a proof of monotonicity. f and fprime may take arrays or
    scalars only, as in loewner_matrix; f is called once over the points of
    all sets of a stage, on a copy of them: the grids, then the structured
    and random sets together. So an f that a structured set refutes is also
    evaluated on the random sets, but the verdict and trials_run are those
    of checking the sets one at a time. Only the grids are planned once per
    process per (grids, derivative or not), on first use.

    A set where f raises one of errors.DOMAIN_ERRORS is skipped, as a pair
    is in falsify_transfer (an f that raises TypeError on every point, as a
    complex value fails float(), reads as consistent), and so is a set whose
    Loewner matrix has no finite Frobenius norm: it could not refute.
    """
    d, tol = fprime is not None, config.tol
    witness, trials_run = _first_loewner_witness(_grid_plan(config.grids, d), f, fprime, tol)
    if witness is None:     # random sets are drawn only when the grids refute nothing
        plan = _plan([*_STRUCTURED, *_random_sets(config)], d)
        witness, examined = _first_loewner_witness(plan, f, fprime, tol)
        trials_run += examined
    status = STATUS_REFUTED if witness else STATUS_CONSISTENT
    return MonotonicityVerdict(status, witness, trials_run)


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
    f may take arrays or scalars only, as in apply_spectral_function. The
    trials of each size run as stacks of _TRANSFER_BLOCK pairs, and f is
    called once on the eigenvalues of all means of a stack; trials_run and
    the witness are those of running the trials one at a time. A pair whose
    difference has no finite Frobenius norm is skipped: it could not refute.
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

    _check_sampling(trials, seed, tol)
    rng = np.random.default_rng(seed)
    two = int(np.ceil(trials * 0.6))
    three = min(int(np.ceil(trials * 0.25)), trials - two)

    trials_run = 0
    for n, count in ((2, two), (3, three), (4, trials - two - three)):
        for start in range(0, count, _TRANSFER_BLOCK):
            witness, examined = _first_transfer_witness(
                *_random_pairs(rng, min(_TRANSFER_BLOCK, count - start), n), f, rep_s, rep_t, tol)
            trials_run += examined
            if witness is not None:
                return MonotonicityVerdict(STATUS_REFUTED, witness, trials_run)
    return MonotonicityVerdict(STATUS_CONSISTENT, None, trials_run)


def _first_transfer_witness(a, b, spectrum, f, rep_s, rep_t, tol: float):
    """(witness, trials examined) for the pairs (a, b, spectrum) of
    _random_pairs, as one stack, f called once on the eigenvalues of all means.

    A pair is skipped when f raises one of DOMAIN_ERRORS on the spectrum of
    either mean or gives a non-finite value there, as apply_spectral_function
    would report it, or when its difference has no finite norm. The earliest
    refuting pair wins; another error of f on an earlier pair propagates.
    """
    size, n = b.shape[:2]
    # the means are exactly symmetric: decompose them without re-validation
    w, v = _eigh_descending(np.concatenate((mean_from_spectrum(spectrum, rep_s),
                                            mean_from_spectrum(spectrum, rep_t))))
    values, errors = _evaluate_sets(f, w.ravel(), np.full(2 * size, n))
    values = values.reshape(2 * size, n)
    finite = np.all(np.isfinite(values), axis=-1)
    lhs_errors, rhs_errors = (None, None) if errors is None else (errors[:size], errors[size:])
    usable, faults = _resolve(size, [(lhs_errors, finite[:size]), (rhs_errors, finite[size:])])
    # skipped pairs get harmless values and their margins are ignored; with
    # values of f near the largest float, f(mean) or the difference overflows
    with np.errstate(over="ignore", invalid="ignore"):
        images = _assemble(v, np.where(np.concatenate((usable, usable))[:, None], values, 1.0))
        diff = images[size:] - images[:size]
    min_eig, norm, refuted = _pair_margins(a, b, images[:size], images[size:], diff, tol)
    item, examined = _first_hit(usable & refuted, faults, np.arange(size))
    if item is None:
        return None, size
    return TransferWitness(a.entries[item].copy(), b[item].copy(),
                           float(min_eig[item]), float(norm[item])), examined


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
    alpha = abs(2.0 * s - 1.0)
    chain = (geometric_pair(a, b), heinz_pair(s, a, b), heron_pair(alpha * alpha, a, b),
             heron_pair(alpha, a, b), arithmetic_pair(a, b))
    return min(float(np.min((hi - lo) / np.maximum(1.0, np.abs(hi))))
               for lo, hi in zip(chain, chain[1:]))


def verify_inequality_chain(a, b, s: float) -> InequalityChainReport:
    """Check the mean inequality chain on one SPD pair.

    Matrix links, all of which hold for every SPD pair:
      harmonic <= Heinz_s, geometric <= Heinz_s,
      Heinz_s <= Heron with weight (2s-1)^2, Heron <= arithmetic,
      Heinz_s <= arithmetic.
    A relative eigenvalue <= 0 (B not positive definite) raises ConditioningError.
    When A and B commute the eigenvalue pairs additionally run through the
    scalar chain geometric <= Heinz <= Heron((2s-1)^2) <= Heron(|2s-1|) <=
    arithmetic, reported as a single normalized worst margin. They commute
    when ||AB - BA||_F <= 1e-10 ||A||_F ||B||_F, judged on A and B scaled by
    exact powers of two to norms in [1/2, 1), so nothing over- or underflows.
    """
    if not 0.0 <= float(s) <= 1.0:
        raise StructuralError(f"s must lie in [0, 1], got {s}")
    s = float(s)
    am, bm = _as_array(a, "A"), _as_array(b, "B")
    spectrum = RelativeSpectrum(am, bm)
    ev = spectrum.eigenvalues
    if ev[-1] <= 0.0:
        raise ConditioningError(f"relative spectrum of the matrix pair has smallest eigenvalue "
                                f"{float(ev[-1]):.3e}; the pair is not positive definite")
    harm_v, geo_v, heinz_v, heron_v, arith_v = (
        harmonic_pair(1.0, ev), geometric_pair(1.0, ev), heinz_pair(s, 1.0, ev),
        heron_pair((2.0 * s - 1.0) ** 2, 1.0, ev), arithmetic_pair(1.0, ev))

    # Each difference is one congruence of the scalar gap in the shared
    # eigenbasis.  Subtracting two separately congruated means instead would
    # swamp tight links (the Heinz-Heron gap is quartic in the spectral
    # spread) with absolute rounding noise; this way the error stays
    # relative to the difference itself, ~ n*eps*cond(a).  The five gaps
    # congruate and decompose as one stack.
    names = ("harmonic<=heinz", "geometric<=heinz", "heinz<=heron",
             "heron<=arithmetic", "heinz<=arithmetic")
    gaps = np.stack((heinz_v - harm_v, heinz_v - geo_v, heron_v - heinz_v,
                     arith_v - heron_v, arith_v - heinz_v))
    min_eig, norm = _min_eig_and_norm(spectrum.congruate(gaps))
    links = [LinkMargin(name, float(lo), float(size))
             for name, lo, size in zip(names, min_eig, norm)]

    norm_a, norm_b = float(_frobenius(am)), float(_frobenius(bm))
    (frac_a, exp_a), (frac_b, exp_b) = math.frexp(norm_a), math.frexp(norm_b)
    an, bn = np.ldexp(am, -exp_a), np.ldexp(bm, -exp_b)     # norms frac_a and frac_b
    commuting = bool(_frobenius(an @ bn - bn @ an) <= 1e-10 * (frac_a * frac_b))

    scalar_checked, scalar_margin = False, None
    if commuting:
        probe = sym_eigendecompose(am + np.e * bm)
        a_t, b_t = probe.basis.T @ np.stack((am, bm)) @ probe.basis
        off = max(_frobenius(a_t - np.diag(np.diag(a_t))), _frobenius(b_t - np.diag(np.diag(b_t))))
        if off <= 1e-8 * max(1.0, norm_a, norm_b):
            scalar_checked = True
            scalar_margin = _scalar_chain_margin(np.diag(a_t), np.diag(b_t), s)

    return InequalityChainReport(s, tuple(links), commuting,
                                 scalar_checked, scalar_margin)
