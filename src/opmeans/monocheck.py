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

Its two sampled matrix-pair checks, with one pair draw and one refutation
rule between them, search for counterexamples to the order transfer
f(mean_sigma(A, B)) <= f(mean_tau(A, B)) and test the mixing condition
mean_sigma(A tau B, A tau_perp B) <= A sigma B. The module also verifies the
mean inequality chain on one pair and probes the axioms of a mean.

The checks run many point sets or matrix pairs at once, as stacks through
the spd primitives, with f called once over all their points; skips,
faults and refutations are then resolved in trial order, so every verdict,
trials_run and witness is that of checking one set or pair at a time; the
sampler and falsify_transfer build no stack past the first refuting one.
The sampler plans its grids, with their Loewner geometry, once per process
and its other point sets on every call; f receives a copy of the points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import spd
from .errors import DOMAIN_ERRORS, ConditioningError, DomainError, StructuralError, UsageError
from .means import (MeanDescriptor, _class_residual, arithmetic_pair, eval_mean_from_function,
                    geometric_pair, harmonic_pair, heinz_pair, heron_pair, representing_function)
from .spd import (RelativeSpectrum, SpdMatrix, _assemble, _check_matrix_size, _checked_pair,
                  _eigh_descending, _evaluate, _evaluate_sets, _frobenius, _MatrixPair,
                  _min_eig_and_norm, _random_spd_stack, _symmetrize)

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
    + |f(x-h)|) / (2h), doubled to cover the truncation error h^2 |f'''| / 6
    where that is no larger: for x >= 1 and |f'''| near |f|, not for x < 1,
    where h = cbrt(eps) * max(1, |x|) is not relative, nor where |f'''| is
    large against |f|. Each sum |a| + |b| is formed as 2 (|a|/2 + |b|/2),
    finite for finite values. The bound reuses the values of f that build
    the matrix, so it costs no further evaluation.
    """
    _check_functions(f, fprime)
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.ndim > 2:
        raise StructuralError("points must form a one-dimensional sequence or a (k, n) array")
    if not np.isfinite(pts).all():      # NaN would pass the distinct-points test
        raise StructuralError("Loewner matrix needs finite points")
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
    diff_x = pts[..., :, None] - pts[..., None, :]
    _diagonal(diff_x)[...] = 1.0
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
    n = diff_x.shape[-1]
    if derivative is None:
        step = step_or_near
        fx, up, down = values[..., :n], values[..., n:2 * n], values[..., 2 * n:]
        diag = (up - down) / (2.0 * step)
        diag_err = 2.0 * _ULPS * _EPS * (0.5 * np.abs(up) + 0.5 * np.abs(down)) / step
    else:
        fx, diag = values, derivative
        diag_err = _ULPS * _EPS * np.abs(diag)
    out = (fx[..., :, None] - fx[..., None, :]) / diff_x
    _diagonal(out)[...] = diag
    # halved before the sum, as in spd._symmetrize, so that no finite value overflows it
    half = 0.5 * np.abs(fx)
    err = 2.0 * _ULPS * _EPS * (half[..., :, None] + half[..., None, :]) / abs_dx
    _diagonal(err)[...] = diag_err
    if derivative is not None and step_or_near.any():
        near = step_or_near
        d_i = np.broadcast_to(diag[..., :, None], out.shape)[near]
        d_j = np.broadcast_to(diag[..., None, :], out.shape)[near]
        out[near] = 0.5 * d_i + 0.5 * d_j
        err[near] = np.abs(d_i - d_j) + _ULPS * _EPS * (0.5 * np.abs(d_i) + 0.5 * np.abs(d_j))
    return _symmetrize(out), err


def _diagonal(m: np.ndarray) -> np.ndarray:
    """The diagonals of a C-contiguous (..., n, n) stack m, as a writable (..., n) view."""
    n = m.shape[-1]
    return m.reshape(*m.shape[:-2], n * n)[..., ::n + 1]


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
    ordered by their trial numbers; (None, all of them) when there is none."""
    hits = hits | np.array([e is not None for e in faults], dtype=bool)
    if not hits.any():
        return None, len(trial)
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
    return a, b, RelativeSpectrum._of(a, b)


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


def _search(blocks, judge, unit: str) -> MonotonicityVerdict:
    """Verdict of a first-witness search: judge maps each block, in trial order, to
    (witness or None, candidates examined, candidates where f is defined); a
    witness ends it before the next block. A search that examined candidates
    and found f defined on none has no evidence to call "consistent": it
    raises DomainError, naming the unit (set or pair) it samples."""
    trials_run = defined = 0
    for block in blocks:
        witness, examined, usable = judge(block)
        trials_run, defined = trials_run + examined, defined + usable
        if witness is not None:
            return MonotonicityVerdict(STATUS_REFUTED, witness, trials_run)
    if trials_run and not defined:
        raise DomainError(f"f is undefined on every sampled {unit}")
    return MonotonicityVerdict(STATUS_CONSISTENT, None, trials_run)


def _check_functions(f, fprime=None) -> None:
    """Reject an f, or a given fprime, that is not callable."""
    spd._check_callable("f", f)
    if fprime is not None:
        spd._check_callable("fprime", fprime)


def _check_sampling(trials: int, seed: int, tol: float) -> None:
    """Reject trials, seed and tol by spd's rules for counts and tolerances."""
    spd._check_count("trials", trials)
    spd._check_count("seed", seed)
    spd._check_tol(tol)


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


def _plan(sets: list, derivative: bool) -> _Plan:
    """The _Plan of the point sets (at least one), for f with a derivative or
    without one; each size group lists its sets in trial order."""
    sizes = np.array([p.size for p in sets])
    # not np.unique: in numpy 2.4 its first call imports numpy.ma, a cold-start cost
    trial = [np.flatnonzero(sizes == m) for m in sorted(set(sizes.tolist()))]
    rows, geometry = zip(*(_loewner_geometry(np.array([sets[i] for i in idx]), derivative)
                           for idx in trial))
    lengths = np.concatenate([np.full(len(r), r.shape[1]) for r in rows])
    return _Plan(tuple(sets), np.concatenate(trial), tuple(zip((r.shape for r in rows), geometry)),
                 np.concatenate([r.ravel() for r in rows]), lengths, np.cumsum(lengths) - lengths)


@lru_cache(maxsize=16)
def _grid_plan(grids: tuple, derivative: bool) -> _Plan:
    """The plan of the log grids, read-only since every call shares it."""
    plan = _plan([np.logspace(np.log10(lo), np.log10(hi), n) for lo, hi, n in grids], derivative)
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


def _first_loewner_witness(plan: _Plan, f, fprime, tol: float):
    """(witness, sets examined, sets where f is defined) for the point sets
    of the plan in trial order, with f (and fprime) called once, on a copy of
    plan.x.

    Each size group's Loewner matrices are decomposed as one stack. A set is
    skipped when f raises one of DOMAIN_ERRORS on it or a value or the norm
    ||L||_F is not finite: fast-growing or partial functions may not evaluate
    on a far-out set, and a violation shows up on smaller points. The earliest
    refuting set wins; another error of f on an earlier set propagates.
    """
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
    witness = None if item is None else LoewnerWitness(
        tuple(float(v) for v in plan.sets[plan.trial[item]]), float(min_eig[item]),
        float(norm[item]))
    return witness, examined, int(usable.sum())


def is_operator_monotone_sampled(f: Callable, fprime: Optional[Callable] = None,
                                 config: MonoConfig = MonoConfig()) -> MonotonicityVerdict:
    """Probe operator monotonicity of f by sampled Loewner matrices.

    It samples [1e-3, 1e3], not all of (0, inf): the default grids and the
    config.trials random log-uniform sets lie there, the structured sets in
    [1e-4, 1e4]. A point set refutes when the smallest eigenvalue of its
    Loewner matrix lies below -(config.tol * ||L||_F + rounding bound), the
    bound assuming f accurate to _ULPS ulps; consistent means no refutation
    was found, not a proof. f and fprime may take arrays or scalars only, as
    in loewner_matrix; f is called once per stage on a copy of its points:
    the grids, then, if they refute nothing, the structured and random sets
    together. So an f that a structured set refutes is also evaluated on the
    random sets, but the verdict and trials_run are those of checking the
    sets one at a time. A config that is not a MonoConfig is refused.

    A set where f raises one of errors.DOMAIN_ERRORS, or gives a value that
    is not finite, is skipped, as a pair is in falsify_transfer, and so is a
    set whose Loewner matrix has no finite Frobenius norm: it could not
    refute. When f is undefined on every set, as an f that raises TypeError
    on every point (a complex value fails float()), the check raises
    DomainError instead of reading as consistent.
    """
    _check_functions(f, fprime)
    if not isinstance(config, MonoConfig):
        raise StructuralError(f"config must be a MonoConfig, got {type(config).__name__}")
    d = fprime is not None
    # the grids, if any, then the other sets, drawn only when the grids refute nothing
    stages = (lambda: _grid_plan(config.grids, d),
              lambda: _plan([*_STRUCTURED, *_random_sets(config)], d))
    return _search((stage() for stage in stages[not config.grids:]),
                   lambda plan: _first_loewner_witness(plan, f, fprime, config.tol), "set")


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
    trials of each size run as stacks of 8, 16, 32, ... pairs up to the first
    refuting one, f called once on the eigenvalues of all means of a stack;
    trials_run and the witness are those of running the trials one at a
    time. A pair whose difference has no finite norm is skipped. When f is
    undefined on every pair drawn, it raises DomainError; with no trials it
    is consistent.
    """
    _check_functions(f)
    rep_s, rep_t = representing_function(sigma), representing_function(tau)
    fs, ft = (np.asarray(rep.value(_TRANSFER_GRID), dtype=float) for rep in (rep_s, rep_t))
    if np.any(fs > ft + 1e-10 * np.maximum(1.0, np.abs(ft))):
        bad = _TRANSFER_GRID[np.argmax(fs - ft)]
        raise UsageError(
            f"means are not pointwise ordered: f_sigma({bad:.6g}) > f_tau({bad:.6g})")
    _check_sampling(trials, seed, tol)
    rng = np.random.default_rng(seed)
    two = int(np.ceil(trials * 0.6))
    three = min(int(np.ceil(trials * 0.25)), trials - two)

    def stacks():   # 8, 16, 32, ... pairs each: matrix k is drawn alike whatever the stack size
        for n, count in ((2, two), (3, three), (4, trials - two - three)):
            start, size = 0, 8
            while start < count:
                yield _random_pairs(rng, min(size, count - start), n)
                start, size = start + size, 2 * size
    return _search(stacks(), lambda pairs: _first_transfer_witness(*pairs, f, rep_s, rep_t, tol),
                   "pair")


def _first_transfer_witness(a, b, spectrum, f, rep_s, rep_t, tol: float):
    """(witness, trials examined, pairs where f is defined) for the pairs
    (a, b, spectrum) of _random_pairs, as one stack, f called once on the
    eigenvalues of all means.

    A pair is skipped when f raises one of DOMAIN_ERRORS on the spectrum of
    either mean or gives a non-finite value there, as apply_spectral_function
    would report it, or when its difference has no finite norm. The earliest
    refuting pair wins; another error of f on an earlier pair propagates.
    """
    size, n = b.shape[:2]
    # both means of every pair by one congruation; each matrix has condition
    # at most 50, so the relative spectrum's is at most 2,500. The means are
    # exactly symmetric: decompose them without re-validation
    ev = spectrum.eigenvalues.ravel()
    means = spectrum.congruate(np.reshape((rep_s.value(ev), rep_t.value(ev)), (2, size, n)))
    w, v = _eigh_descending(means.reshape(2 * size, n, n))
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
    witness = None if item is None else TransferWitness(
        a.entries[item].copy(), b[item].copy(), float(min_eig[item]), float(norm[item]))
    return witness, examined, int(usable.sum())


@dataclass(frozen=True)
class KaViolation(_MatrixPair):
    """A matrix pair violating the mixing inequality, with its margin."""

    min_eigenvalue: float
    diff_norm: float


@dataclass(frozen=True)
class KaReport:
    """Sampled check of mean_sigma(A tau B, A tau_perp B) <= A sigma B."""

    sigma: str
    tau: str
    trials: int
    seed: int
    tol: float
    n: int
    min_margin: float
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {"sigma": self.sigma, "tau": self.tau,
                "config": {"trials": self.trials, "seed": self.seed,
                           "tol": self.tol, "n": self.n},
                "min_margin": self.min_margin,
                "violations": [v.to_json_dict() for v in self.violations]}


def ka_condition_check(sigma: MeanDescriptor, tau: MeanDescriptor,
                       trials: int = 500, seed: int = 0, tol: float = 1e-8,
                       n: int = 3) -> KaReport:
    """Sample the mixing condition of sigma against tau and its adjoint.

    Draws random SPD pairs (A, B) and tests, in the Loewner order,

        mean_sigma(mean_tau(A, B), mean_tau_perp(A, B)) <= mean_sigma(A, B)

    where tau_perp carries the adjoint t / g_tau(t) of tau's representing
    function. Every mean of (A, B) is C diag(m(z)) C^T, z the relative
    eigenvalues and C = A^{1/2} U; the mixed one has m = lo f_sigma(hi / lo),
    lo = g_tau(z), hi = z / lo. Both sides and their difference (from the
    scalar gap) congruate from that one spectrum, so a pair costs 4
    eigensolves: A's validation, Z, the difference and B's eigenvalues for E.
    A violation is a pair, drawn and judged as in falsify_transfer, whose
    difference has min eigenvalue below -(tol * max(1, norm) + E). The
    margin is the worst normalized eigenvalue seen; all trials run as one stack.
    """
    _check_sampling(trials, seed, tol)
    f_sigma, g_tau = representing_function(sigma), representing_function(tau)
    a, b, spectrum = _random_pairs(np.random.default_rng(seed), trials, n)
    if not trials:
        return KaReport(f_sigma.label, g_tau.label, trials, seed, tol, n, 0.0, ())
    z = spectrum.eigenvalues.ravel()
    lo = g_tau.value(z)
    hi = z / lo         # the adjoint's value, as dagger(g_tau) forms it
    mixed, whole = lo * f_sigma.value(hi / lo), f_sigma.value(z)
    lhs, rhs, diff = spectrum.congruate(np.reshape((mixed, whole, whole - mixed), (3, trials, n)))
    min_eig, norm, violated = _pair_margins(a, b, lhs, rhs, diff, tol)
    violations = tuple(KaViolation(a.entries[i].copy(), b[i].copy(), float(min_eig[i]),
                                   float(norm[i])) for i in np.flatnonzero(violated))
    return KaReport(f_sigma.label, g_tau.label, trials, seed, tol, n,
                    float(np.min(min_eig / np.maximum(1.0, norm))), violations)


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
    spd._check_real("s", s)
    if not 0.0 <= float(s) <= 1.0:
        raise StructuralError(f"s must lie in [0, 1], got {s}")
    s = float(s)
    am, bm = _checked_pair(a, b, stack=False)
    spectrum = RelativeSpectrum._of(am, bm)
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
    gaps = np.array((heinz_v - harm_v, heinz_v - geo_v, heron_v - heinz_v,
                     arith_v - heron_v, arith_v - heinz_v))
    min_eig, norm = _min_eig_and_norm(spectrum.congruate(gaps))
    links = [LinkMargin(name, lo, size)
             for name, lo, size in zip(names, min_eig.tolist(), norm.tolist())]

    norm_a, norm_b = float(_frobenius(am)), float(_frobenius(bm))
    (frac_a, exp_a), (frac_b, exp_b) = math.frexp(norm_a), math.frexp(norm_b)
    an, bn = np.ldexp(am, -exp_a), np.ldexp(bm, -exp_b)     # norms frac_a and frac_b
    commuting = bool(_frobenius(an @ bn - bn @ an) <= 1e-10 * (frac_a * frac_b))

    scalar_checked, scalar_margin = False, None
    if commuting:
        # A and B were checked; a basis of their sum, signs unnormalized, is not checked again
        probe = _eigh_descending(_symmetrize(am + np.e * bm))[1]
        a_t, b_t = probe.T @ np.stack((am, bm)) @ probe
        off = max(_frobenius(a_t - np.diag(np.diag(a_t))), _frobenius(b_t - np.diag(np.diag(b_t))))
        if off <= 1e-8 * max(1.0, norm_a, norm_b):
            scalar_checked = True
            scalar_margin = _scalar_chain_margin(np.diag(a_t), np.diag(b_t), s)

    return InequalityChainReport(s, tuple(links), commuting,
                                 scalar_checked, scalar_margin)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of verify_mean_axioms."""

    normalization_ok: bool
    class_identity_ok: bool
    monotone_status: str
    transformer_ok: bool
    max_transformer_residual: float

    @property
    def all_ok(self) -> bool:
        return (self.normalization_ok and self.class_identity_ok
                and self.monotone_status == "consistent" and self.transformer_ok)


def verify_mean_axioms(descriptor: MeanDescriptor, *, seed: int = 0,
                       trials: int = 25, n: int = 3,
                       tol: float = 1e-9) -> AxiomReport:
    """Probe the defining properties of a mean numerically.

    Checks f(1) = 1, the symmetry-class identity on a log grid, sampled
    operator monotonicity of f, and the congruence identity
    T mean(A, B) T = mean(T A T, T B T) for random SPD T.
    """
    _check_sampling(trials, seed, tol)
    _check_matrix_size(n)
    fn = representing_function(descriptor)
    normalization_ok = abs(fn.value(1.0) - 1.0) <= tol

    class_identity_ok = _class_residual(fn, fn.symmetry_class,
                                        np.logspace(-3, 3, 25)) <= 1e-10

    config = MonoConfig(trials=max(trials, 10), seed=seed)
    verdict = is_operator_monotone_sampled(fn.value, fn.derivative, config=config)

    # A, B and T of each trial drawn in turn, in one stack; the trials are checked as stacks
    draws = _random_spd_stack(np.random.default_rng(seed), 3 * trials, n,
                              (50.0, 50.0, 10.0) * trials)
    worst = 0.0
    if trials:
        a, b, t = (np.array(draws[k::3]) for k in range(3))
        lhs = t @ eval_mean_from_function(a, b, fn) @ t
        rhs = eval_mean_from_function(t @ a @ t, t @ b @ t, fn)
        worst = float(np.max(_frobenius(lhs - rhs) / np.maximum(1.0, _frobenius(rhs))))
    transformer_ok = worst <= 1e-8

    return AxiomReport(normalization_ok, class_identity_ok,
                       verdict.status, transformer_ok, worst)
