"""Symmetric eigendecomposition, spectral calculus, and Loewner comparisons.

Everything numerically heavy in this package reduces to the primitives here.
The eigensolver is LAPACK's symmetric solver, through the gufuncs numpy's
eigh/eigvalsh call. It is normwise backward stable: every computed
eigenvalue lies within a small multiple of n * eps * ||M||_2 of the exact
one. That error is far below the tol * ||M|| term of every refutation rule
in monocheck.

Every operator mean of a pair (A, B) is C diag(g(lam)) C^T, for the relative
spectrum Z = A^{-1/2} B A^{-1/2} = U diag(lam) U^T and the factor C = A^{1/2} U.
RelativeSpectrum decomposes a pair once, in the eigenbasis an SpdMatrix A keeps
from its validation, and stores C; the means, solvers and checks all use it.

The eigensolver, sym_eigendecompose, SpectralDecomposition.apply,
min_eig_and_norm, SpdMatrix and RelativeSpectrum take a (k, n, n) stack of
matrices as well as one (n, n) matrix, through the same code: LAPACK's
gufuncs, numpy's qr and @ act on the last two axes, and on this build give
each matrix of a stack bitwise the result of a call on that matrix alone.
The sampled checks run their trials through them as stacks of SpdMatrix pairs.

Each input matrix is checked once, and nothing built from checked matrices
is checked again. The two checks are _as_array (shape, at least one row,
finite entries) and _check_symmetric (symmetry within SYMMETRY_RTOL, the
matrix returned for its caller to symmetrize). They run in four places:
  * SpdMatrix, which then applies the positive-definiteness floor
    (_above_floor); as_spd wraps it for one matrix named in its errors;
  * _checked_pair, for a pair (A, B): RelativeSpectrum, loewner_leq and
    verify_inequality_chain;
  * sym_eigendecompose and min_eig_and_norm, for a symmetric matrix;
  * _spd_relative_spectrum, for the solvers' and the CLI's pair (X, Y): X
    by as_spd, Y's entries once, and Y's floor proven from the pair's
    relative spectrum or else tested by _above_floor on those entries.
_one_matrix holds the one-matrix shape check and the name prefix of as_spd
and _spd_relative_spectrum. RelativeSpectrum._of takes a checked pair, or
one built exactly symmetric, without checking it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DOMAIN_ERRORS, ConditioningError, DomainError, StructuralError

SYMMETRY_RTOL = 1e-12      # admissible asymmetry, relative to max(1, ||M||_F)
PD_FLOOR_RTOL = 1e-12      # positive definiteness floor, relative to ||M||_F
_PD_PROOF_ULPS = 64        # rounding allowance of _deferred_relative_spectrum, in n * eps
_EPS = float(np.finfo(float).eps)


def _shape_error(name: str, shape: tuple, stack: bool = False) -> StructuralError:
    want = "square 2-d array or a (k, n, n) stack" if stack else "square 2-d array"
    return StructuralError(f"{name} must be a {want}, got shape {shape}")


def _as_array(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """m as a float array of finite entries (_all_finite): one square matrix,
    or with stack a (k, n, n) stack."""
    if isinstance(m, SpdMatrix) and (stack or m.entries.ndim == 2):
        return m.entries        # validated already
    a = np.asarray(m.entries if isinstance(m, SpdMatrix) else m, dtype=float)
    if a.ndim not in ((2, 3) if stack else (2,)) or a.shape[-1] != a.shape[-2]:
        raise _shape_error(name, a.shape, stack)
    if a.shape[-1] == 0:
        raise StructuralError(f"{name} must have at least one row")
    if not _all_finite(a):
        raise StructuralError(f"{name} contains non-finite entries")
    return a


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite: its sum of squares is (np.vdot
    does not warn when it overflows), or else each entry is, so a finite
    matrix of huge entries passes."""
    return np.vdot(a, a) < math.inf or bool(np.isfinite(a).all())


def _checked_pair(a, b, stack: bool = True) -> tuple:
    """The arrays (A, B) of a matrix pair, each finite (with stack, a matrix
    or a stack) and symmetric within SYMMETRY_RTOL, of one shape; in that
    order the first failing check raises. An SpdMatrix A passed them already."""
    am, bm = _as_array(a, "A", stack=stack), _as_array(b, "B", stack=stack)
    _check_same_shape(am, bm)
    if not isinstance(a, SpdMatrix):
        _check_symmetric(am, "A")
    _check_symmetric(bm, "B")
    return am, bm


def _check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise StructuralError(f"shape mismatch: {a.shape} vs {b.shape}")


def _check_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    """a, once it is symmetric within SYMMETRY_RTOL * max(1, ||a||_F); the
    caller symmetrizes it where it needs exact symmetry.

    A stack is checked matrix by matrix, each against its own norm; exactly
    symmetric input, the common case, costs one comparison.
    """
    if (a != _transpose(a)).any():
        asym = np.abs(a - _transpose(a)).max(axis=(-2, -1))
        bad = asym > SYMMETRY_RTOL * np.maximum(1.0, _frobenius(a))
        if bad.any():
            raise StructuralError(
                f"{name} is not symmetric: max |M - M^T| = {float(np.max(asym[bad])):.3e} "
                f"exceeds {SYMMETRY_RTOL:.0e} * max(1, ||M||_F)")
    return a


def _transpose(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2, halved before the sum so that no finite entry overflows."""
    half = 0.5 * a
    return half + _transpose(half)


def _frobenius(a: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix of a stack.

    Each norm is sqrt(x @ x) over the matrix's entries in row order, the
    arithmetic of np.linalg.norm(matrix), so a stacked norm is bitwise the
    norm of that matrix alone; np.linalg.norm(stack, axis=(-2, -1)) and
    einsum sum in other orders and are not. A matrix whose x @ x overflows,
    or falls below 2^-960 where its squares lose digits or underflow to 0,
    is scaled by a power of two first: its norm is inf only if the norm is,
    and 0 only for a zero matrix.
    """
    total = np.vdot(a, a)       # of all matrices; np.vdot, unlike @, does not warn on overflow
    if a.ndim == 2 and (2.0 ** -960 <= total < math.inf or not a.any()):
        return np.sqrt(total)
    rows = a.reshape(a.shape[:-2] + (1, a.shape[-2] * a.shape[-1]))    # also for k = 0
    if total < 2.0 ** 1020:     # no matrix's x @ x overflows
        squares = (rows @ _transpose(rows))[..., 0, 0]
        # nor falls below 2^-960, unless the matrix is zero and its norm 0 exact
        if squares.min(initial=math.inf) >= 2.0 ** -960 or not rows[squares < 2.0 ** -960].any():
            return np.sqrt(squares)
    with np.errstate(over="ignore"):
        norm = np.sqrt((rows @ _transpose(rows))[..., 0, 0])
        exponent = np.frexp(np.abs(rows).max(axis=-1))[1]
        scaled = np.ldexp(rows, -exponent[..., None])
        rescaled = np.ldexp(np.sqrt((scaled @ _transpose(scaled))[..., 0, 0]), exponent[..., 0])
        return np.where((2.0 ** -480 <= norm) & (norm < math.inf), norm, rescaled)[()]


def _eigh(a: np.ndarray, vectors: bool = True):
    """The package's one symmetric eigensolver: LAPACK's, through numpy's gufuncs.

    Returns ascending eigenvalues w, or (w, V) with a = V diag(w) V^T when
    vectors is true; for a (k, n, n) stack, w is (k, n) and V is (k, n, n),
    each bitwise what the matrix alone would give. The solver is normwise
    backward stable, so each eigenvalue is within a small multiple of
    n * eps * ||a||_2 of the exact one. Non-finite input (an overflowed
    difference), eigenvalues past the float range and LAPACK failures raise
    ConditioningError instead of returning inf or NaN.

    It calls the gufuncs eigh_lo and eigvalsh_lo of numpy.linalg._umath_linalg
    as np.linalg.eigh and eigvalsh call them (lower triangle, signature d->dd
    or d->d), so the results are bitwise theirs, but skips their wrapper,
    whose conversions and checks cost more than the solve of a small matrix.
    A gufunc marks a LAPACK failure by the invalid floating-point flag, which
    that wrapper turns into LinAlgError.
    """
    # no eigenvalue exceeds the root of this sum of squares in size: while
    # it is finite, input and output are
    bounded = np.vdot(a, a) < math.inf
    if not bounded and not np.isfinite(a).all():
        raise ConditioningError(
            "eigensolver input has non-finite entries (overflow upstream)")
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            out = (_umath_linalg.eigh_lo(a, signature="d->dd") if vectors
                   else _umath_linalg.eigvalsh_lo(a, signature="d->d"))
    except FloatingPointError:
        raise ConditioningError(
            "symmetric eigensolver failed: Eigenvalues did not converge") from None
    if not bounded and not np.isfinite(out[0] if vectors else out).all():
        raise ConditioningError("eigenvalues overflow the float range")
    return out


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (non-ascending) and an orthonormal eigenbasis (columns).

    For a stack, eigenvalues is (k, n) and basis is (k, n, n).
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        for name in ("eigenvalues", "basis"):
            x = np.array(getattr(self, name), dtype=float)
            x.setflags(write=False)
            object.__setattr__(self, name, x)

    def apply(self, values) -> np.ndarray:
        """Assemble U diag(values) U^T.

        values may carry leading axes, (k, n) for a stack or for k value sets
        on one basis; the result is then a (k, n, n) stack.
        """
        return _assemble(self.basis, values)

    def reconstruct(self) -> np.ndarray:
        return self.apply(self.eigenvalues)


def _assemble(basis: np.ndarray, values) -> np.ndarray:
    """basis diag(values) basis^T, symmetrized; values (..., n) gives a stack."""
    vals = np.asarray(values, dtype=float)
    return _symmetrize((basis * vals[..., None, :]) @ _transpose(basis))


def _eigh_descending(a: np.ndarray) -> tuple:
    """_eigh(a) in non-ascending order, as C-contiguous copies, not reversed
    views: numpy's ** rounds differently on non-contiguous input."""
    w, v = _eigh(a)
    return np.ascontiguousarray(w[..., ::-1]), np.ascontiguousarray(v[..., ::-1])


def sym_eigendecompose(m) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix (positive definiteness not required).

    Eigenvalues come back non-ascending. Eigenvector signs are fixed by making
    the largest-magnitude component of each column positive, so repeated calls
    on equal input give identical output. A (k, n, n) stack is decomposed
    matrix by matrix in one call.
    """
    w, v = _eigh_descending(_symmetrize(_check_symmetric(_as_array(m, stack=True), "matrix")))
    # the largest-magnitude entry of each column, gathered from the columns
    # laid out as rows
    row = np.abs(v).argmax(axis=-2)
    columns = _transpose(v).reshape(-1, v.shape[-1])
    lead = columns[np.arange(len(columns)), row.ravel()].reshape(row.shape)
    v = v * np.where(lead < 0.0, -1.0, 1.0)[..., None, :]
    return SpectralDecomposition(eigenvalues=w, basis=v)


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """A validated symmetric positive definite matrix, or a (k, n, n) stack.

    Construction checks symmetry (within SYMMETRY_RTOL relative) and rejects
    matrices whose smallest eigenvalue is <= PD_FLOOR_RTOL * ||M||_F, or
    whose ||M||_F overflows, each matrix of a stack bitwise as if alone. The
    stored array is a read-only copy; instances are immutable value objects.
    Validation's (w, V), w non-ascending, is kept, private and read-only,
    for RelativeSpectrum.
    """

    entries: np.ndarray
    _spectrum: tuple = field(init=False, repr=False)

    def __post_init__(self):
        a = _symmetrize(_check_symmetric(_as_array(self.entries, "SpdMatrix", stack=True),
                                         "SpdMatrix"))
        w, v = _above_floor(a)
        for x in (a, w, v):
            x.setflags(write=False)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "_spectrum", (w, v))

    @property
    def n(self) -> int:
        return self.entries.shape[-1]

    @classmethod
    def identity(cls, n: int) -> "SpdMatrix":
        return cls(np.eye(n))

    def to_json_dict(self) -> dict:
        return matrix_to_json_dict(self.entries)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SpdMatrix":
        return cls(matrix_from_json_dict(data))


def _above_floor(a: np.ndarray) -> tuple:
    """_eigh_descending(a) of an exactly symmetric matrix or stack, once the
    smallest eigenvalue of each matrix lies above PD_FLOOR_RTOL * ||M||_F and
    its ||M||_F is finite: SpdMatrix's test of positive definiteness."""
    w, v = _eigh_descending(a)
    low, floor = w[..., -1], PD_FLOOR_RTOL * _frobenius(a)
    if (low <= floor).any():
        first = np.argmax(low <= floor)
        if floor.flat[first] == math.inf:     # ||M||_F overflowed, and no floor is left
            raise StructuralError("matrix norm ||M||_F exceeds the float range")
        raise StructuralError(
            f"matrix is not positive definite within tolerance: smallest eigenvalue "
            f"{low.flat[first]:.6e} is below the floor {floor.flat[first]:.6e}")
    return w, v


def as_spd(m, name: str = "matrix") -> SpdMatrix:
    """Coerce one matrix (not a stack) to SpdMatrix, validating it once; errors start with name."""
    return _one_matrix(m, name, lambda a: m if isinstance(m, SpdMatrix) else SpdMatrix(a))


def _one_matrix(m, name: str, check):
    """check(a) of the entries a of m, once m is one square matrix, not a
    stack; every StructuralError, the shape's among them, starts with name."""
    a = m.entries if isinstance(m, SpdMatrix) else np.asarray(m, dtype=float)
    try:
        if a.ndim != 2 or a.shape[0] != a.shape[1]:     # check does the rest
            raise _shape_error("SpdMatrix", a.shape)
        return check(a)
    except StructuralError as exc:
        raise StructuralError(f"{name}: {exc}") from None


def _spd_relative_spectrum(x, y, names=("X", "Y")) -> tuple:
    """(X, Y, RelativeSpectrum(X, Y)) of _deferred_relative_spectrum, whose
    error, if the spectrum raised one, is raised here, after X's and Y's."""
    xa, ya, spectrum = _deferred_relative_spectrum(x, y, names)
    if not isinstance(spectrum, RelativeSpectrum):
        raise spectrum
    return xa, ya, spectrum


def _deferred_relative_spectrum(x, y, names=("X", "Y")) -> tuple:
    """(X, Y, spectrum) for a pair of single matrices that must be SPD: X and
    Y the entries, and the errors, of as_spd(x, names[0]) and as_spd(y,
    names[1]), in that order, and spectrum RelativeSpectrum(X, Y), or the
    error computing it raised (a shape mismatch, an overflow), returned for
    the caller to raise where it belongs. Each matrix is checked once, here;
    the spectrum takes them unchecked (RelativeSpectrum._of).

    Y is decomposed only when the spectrum cannot prove it SPD. X's kept
    decomposition is exact for an X' = V diag(w) V^T near X, and Y =
    X'^{1/2} Z' X'^{1/2}, so lambda_min(Y) >= w_min lambda_min(Z'). Forming
    and decomposing Z' errs by a small multiple of n eps kappa(X) ||Z'||_2,
    Y's own eigensolve by one of n eps ||Y||_F. Less _PD_PROOF_ULPS times
    each, a bound above twice the floor proves that Y passes SpdMatrix's
    floor test (_above_floor); otherwise that test decides, on Y's checked
    entries.
    """
    xs, name = as_spd(x, names[0]), names[1]
    proven = isinstance(y, SpdMatrix)
    ya = as_spd(y, name).entries if proven else _one_matrix(
        y, name, lambda a: _symmetrize(_check_symmetric(_as_array(a, "SpdMatrix"), "SpdMatrix")))
    try:
        _check_same_shape(xs.entries, ya)
        with np.errstate(all="ignore"):     # every warning comes with an error
            spectrum = RelativeSpectrum._of(xs, ya)
    except (StructuralError, ConditioningError) as exc:
        spectrum = exc
    if not proven and isinstance(spectrum, RelativeSpectrum):
        w, lam = xs._spectrum[0], spectrum.eigenvalues
        rounding = _PD_PROOF_ULPS * len(w) * _EPS
        kappa, lo = float(w[0]) / float(w[-1]), float(lam[-1])
        bound = float(w[-1]) * (lo - rounding * kappa * max(float(lam[0]), -lo))
        proven = bound > (2.0 * PD_FLOOR_RTOL + rounding) * float(_frobenius(ya))
    if not proven:
        _one_matrix(ya, name, _above_floor)     # raises unless Y is SPD
    return xs.entries, ya, spectrum


def matrix_to_json_dict(m) -> dict:
    a = _as_array(m)
    return {"n": int(a.shape[0]), "rows": a.tolist()}


@dataclass(frozen=True)
class _MatrixPair:
    """A matrix pair and the numbers reported with it, shared by every pair
    witness; its JSON record is "A", "B", then each further field by name."""

    matrix_a: np.ndarray
    matrix_b: np.ndarray

    def to_json_dict(self) -> dict:
        return {"A": matrix_to_json_dict(self.matrix_a), "B": matrix_to_json_dict(self.matrix_b),
                **{f.name: getattr(self, f.name) for f in fields(self)[2:]}}


def matrix_from_json_dict(data) -> np.ndarray:
    if not isinstance(data, dict) or "n" not in data or "rows" not in data:
        raise StructuralError('matrix JSON must be an object with "n" and "rows"')
    n = data["n"]
    rows = data["rows"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise StructuralError(f'matrix JSON field "n" must be a positive integer, got {n!r}')
    try:
        a = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise StructuralError('matrix JSON "rows" must be a list of rows of numbers') from None
    if a.shape != (n, n):
        raise StructuralError(f'matrix JSON "rows" has shape {a.shape}, expected ({n}, {n})')
    return a


def _evaluate(g, x: np.ndarray) -> np.ndarray:
    """g at each point of the 1-d float array x: _evaluate_sets on one set,
    with that set's error, if any, raised."""
    out, errors = _evaluate_sets(g, x, [len(x)])
    if errors and errors[0] is not None:
        raise errors[0]
    return out


def _evaluate_sets(g, x: np.ndarray, lengths):
    """g at the 1-d float array x, which holds consecutive point sets of the
    given lengths: one call on all of x, or, when that raises or returns the
    wrong shape, one call per point. Rejecting non-finite values is the
    caller's job.

    Returns (values, errors). errors is None after the one call; otherwise it
    holds per set the first exception g raised on one of its points, or None.
    That error is kept, not raised, so the caller can raise it when its set
    is reached; a failed set's values are NaN.
    """
    with np.errstate(all="ignore"):
        try:
            out = np.asarray(g(x), dtype=float)
            if out.shape == x.shape:
                return out, None
        except Exception:
            pass
        out = np.full(x.shape, np.nan)
        errors = []
        cuts = np.cumsum(lengths)[:-1]
        for part, vals in zip(np.split(x, cuts), np.split(out, cuts)):
            try:
                vals[:] = [float(g(v)) for v in part.tolist()]
                errors.append(None)
            except Exception as exc:
                errors.append(exc)
    return out, errors


def apply_spectral_function(m, g) -> np.ndarray:
    """Apply a scalar function to a symmetric matrix through its eigenvalues.

    An array-in, array-out g (a FunctionExpr too) is called once on all the
    eigenvalues; a g that accepts only scalars (a math.* lambda), or whose
    array call raises, is called on each.
    A non-finite value or an error of g in errors.DOMAIN_ERRORS (a complex
    value fails float()) raises DomainError; any other error of g propagates.
    """
    _check_callable("g", g)
    dec = sym_eigendecompose(m)
    lam = dec.eigenvalues
    try:
        vals = _evaluate(g, lam)
    except DOMAIN_ERRORS as exc:
        raise DomainError(f"function undefined on the spectrum: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        bad = float(lam[~np.isfinite(vals)][0])
        raise DomainError(f"function undefined at eigenvalue {bad!r}")
    return dec.apply(vals)


def loewner_leq(a, b, tol: float = 1e-8) -> bool:
    """Test A <= B in the Loewner order, up to a relative tolerance.

    True iff the smallest eigenvalue of B - A is >= -tol * max(1, ||B-A||_F).
    A and B must each be symmetric within SYMMETRY_RTOL; tol must be a finite
    positive real.
    """
    _check_tol(tol)
    am, bm = _checked_pair(a, b, stack=False)
    lo, norm = _min_eig_and_norm(_symmetrize(bm - am))
    return float(lo) >= -tol * max(1.0, float(norm))


def min_eig_and_norm(a):
    """Smallest eigenvalue and Frobenius norm of a matrix symmetric within SYMMETRY_RTOL.

    Two floats for one matrix; for a (k, n, n) stack two (k,) arrays, from
    one eigvalsh call, each entry bitwise the value of its matrix alone.
    """
    m = _symmetrize(_check_symmetric(_as_array(a, stack=True), "matrix"))
    lo, norm = _min_eig_and_norm(m)
    return (float(lo), float(norm)) if m.ndim == 2 else (lo, norm)


def _min_eig_and_norm(m: np.ndarray):
    """min_eig_and_norm of an exactly symmetric float array, unvalidated."""
    return _eigh(m, vectors=False)[..., 0], _frobenius(m)


def sqrt_pair(m) -> tuple[np.ndarray, np.ndarray]:
    """Return (M^{1/2}, M^{-1/2}) for a positive definite matrix."""
    dec = sym_eigendecompose(m)
    r = _sqrt_spectrum(dec.eigenvalues, "matrix")
    return _assemble(dec.basis, r), _assemble(dec.basis, 1.0 / r)


def _sqrt_spectrum(w: np.ndarray, name: str) -> np.ndarray:
    """sqrt(w) for the eigenvalues w of a matrix named name in errors, all > 0."""
    lo = float(w.min(initial=math.inf))     # an empty stack has no roots to check
    if lo <= 0.0:
        raise ConditioningError(f"square root of {name} needs a positive spectrum, got {lo!r}")
    return np.sqrt(w)


@dataclass(frozen=True, eq=False, init=False)
class RelativeSpectrum:
    """The relative spectrum Z = A^{-1/2} B A^{-1/2} of an SPD pair (A, B).

    Holds, read-only, Z's non-ascending eigenvalues lam and the factor
    C = A^{1/2} U, U an eigenbasis of Z (column signs not normalized):
    congruate(g(lam)) = C diag(g(lam)) C^T = A^{1/2} g(Z) A^{1/2}, so
    congruate(ones) is A and congruate(lam) is B. From A = V diag(w) V^T (an
    SpdMatrix A lends its kept one) and r = sqrt(w), (V^T B V) / (r_i r_j) =
    U' diag(lam) U'^T is decomposed and C = V diag(r) U': no matrix root of A
    is formed. An SpdMatrix's kept w lies above its positive floor, so only
    a raw A's w is checked before its root is taken. A and B may be (k, n, n)
    stacks of k pairs; lam is then (k, n) and congruate maps (k, n) values
    to a (k, n, n) stack, each matrix bitwise that of its pair alone. A and
    B must be finite, of one shape and symmetric within SYMMETRY_RTOL
    (_checked_pair).

    RelativeSpectrum._of(a, b) is the same arithmetic, bit for bit, without
    those input checks. Its precondition is that the pair would pass them:
    the caller has validated it (_spd_relative_spectrum, an SpdMatrix
    stack, _checked_pair) or built it exactly symmetric and checked it finite
    (_assemble, _symmetrize, _random_spd_stack). A raw A is still
    symmetrized and its w still checked positive.
    """

    factor: np.ndarray
    eigenvalues: np.ndarray

    def __init__(self, a, b):
        am, bm = _checked_pair(a, b)
        self._relate(a if isinstance(a, SpdMatrix) else am, bm)

    @classmethod
    def _of(cls, a, b: np.ndarray) -> "RelativeSpectrum":
        """RelativeSpectrum(a, b) of a pair that passed its checks, unchecked (see above)."""
        spectrum = object.__new__(cls)
        spectrum._relate(a, b)
        return spectrum

    def _relate(self, a, b: np.ndarray) -> None:
        kept = isinstance(a, SpdMatrix)
        w, v = a._spectrum if kept else _eigh_descending(_symmetrize(a))
        r = np.sqrt(w) if kept else _sqrt_spectrum(w, "A")
        ev, u = _eigh_descending(     # Z, symmetrized
            _symmetrize((_transpose(v) @ b @ v) / (r[..., :, None] * r[..., None, :])))
        for name, x in (("factor", (v * r[..., None, :]) @ u), ("eigenvalues", ev)):
            x.setflags(write=False)
            object.__setattr__(self, name, x)

    @property
    def condition(self):
        """Largest over smallest eigenvalue of Z; inf when the smallest is <= 0.

        A float, or for a stack a (k,) array.
        """
        lo, hi = self.eigenvalues[..., -1], self.eigenvalues[..., 0]
        if lo.ndim == 0:
            return float(hi) / float(lo) if lo > 0.0 else math.inf
        return np.divide(hi, lo, out=np.full(lo.shape, math.inf), where=lo > 0.0)

    def congruate(self, values) -> np.ndarray:
        """C diag(values) C^T = A^{1/2} U diag(values) U^T A^{1/2}.

        values (..., n) with leading axes gives a stack: with one pair, k
        value sets congruate to k matrices.
        """
        return _assemble(self.factor, values)


def random_spd(n: int, cond_cap: float = 100.0, seed: int = 0) -> SpdMatrix:
    """Deterministic random SPD matrix with condition number <= cond_cap."""
    _check_count("seed", seed)
    return random_spd_from(np.random.default_rng(seed), n, cond_cap)


def random_spd_from(rng: np.random.Generator, n: int, cond_cap: float = 100.0) -> SpdMatrix:
    """Draw a random SPD matrix from an existing generator stream."""
    return SpdMatrix(_random_spd_stack(rng, 1, n, cond_cap)[0])


def _check_matrix_size(n) -> None:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise StructuralError(f"matrix size must be a positive integer, got {n!r}")


def _check_count(name: str, value) -> None:
    """Reject a count (a seed, a number of trials) that is a bool, not an integer or negative."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
        raise StructuralError(f"{name} must be a non-negative integer, got {value!r}")


def _check_callable(name: str, f) -> None:
    """Reject a function argument that is not callable: a parsed expression's
    text, or a config passed in its place."""
    if not callable(f):
        raise StructuralError(f"{name} must be callable, got {type(f).__name__}")


def _check_real(name: str, value) -> None:
    """Reject a real parameter (a mean's s, a chain's gamma0) that is a bool or not a real."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise StructuralError(f"{name} must be a real number, got {value!r}")


def _check_tol(tol) -> None:
    """Reject a tolerance that is a bool, not a real, not finite or not positive."""
    if isinstance(tol, bool) or not isinstance(tol, Real) or not 0.0 < tol < math.inf:
        raise StructuralError(f"tolerance must be a finite positive real, got {tol!r}")


def _random_spd_stack(rng: np.random.Generator, count: int, n: int,
                      cond_cap) -> np.ndarray:
    """count random SPD matrices as an exactly symmetric (count, n, n) array.

    cond_cap is one cap for all matrices, or a tuple or list of count caps,
    one per matrix. The draws from rng are those of count successive
    random_spd_from calls, each with its matrix's cap, and matrix k is
    bitwise the entries of the k-th call's SpdMatrix. SpdMatrix(stack)
    validates and decomposes all of them in one call.
    """
    _check_matrix_size(n)
    per_matrix = isinstance(cond_cap, (tuple, list))
    caps = cond_cap if per_matrix else (cond_cap,)
    for cap in caps:
        if isinstance(cap, bool) or not isinstance(cap, Real) or cap == math.inf:
            raise StructuralError(f"condition cap must be a finite real, got {cap!r}")
        if not (cap >= 1.0):
            raise StructuralError(f"condition cap must be >= 1, got {cap!r}")
    if per_matrix and len(caps) != count:
        raise StructuralError(f"expected {count} condition caps, got {len(caps)}")
    g = np.empty((count, n, n))
    # eigenvalues log-uniform in [1, cap] keeps the condition number capped
    u = np.zeros((count, n))
    for k in range(count):
        rng.standard_normal(out=g[k])
        if caps[k if per_matrix else 0] > 1.0:
            rng.random(out=u[k])
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * np.where(d >= 0.0, 1.0, -1.0)[:, None, :]
    # uniform(0, h) draws 0 + h * random(), which is h * random() exactly,
    # with or without a fused multiply-add; a cap of 1 gives exp(0) = 1
    logs = [math.log(cap) for cap in caps]
    lam = np.exp(u * (np.array(logs)[:, None] if per_matrix else logs[0]))
    return _symmetrize((q * lam[:, None, :]) @ _transpose(q))
