"""Symmetric eigendecomposition, spectral calculus, and Loewner comparisons.

Everything numerically heavy in this package reduces to the primitives here.
The eigensolver is LAPACK's symmetric solver (numpy's eigh/eigvalsh). It is
normwise backward stable: every computed eigenvalue lies within a small
multiple of n * eps * ||M||_2 of the exact one. That error is far below the
tol * ||M|| term of every refutation rule in monocheck.

Every operator mean of a pair (P, Q) is a spectral function of the relative
spectrum Z = P^{-1/2} Q P^{-1/2}, congruated back by P^{1/2}. RelativeSpectrum
decomposes a pair once; the means, the inverse solvers, the chain builder and
the sampled checks all go through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError, StructuralError

SYMMETRY_RTOL = 1e-12      # admissible asymmetry, relative to max(1, ||M||_F)
PD_FLOOR_RTOL = 1e-12      # positive definiteness floor, relative to ||M||_F


def _as_array(m, name: str = "matrix") -> np.ndarray:
    if isinstance(m, SpdMatrix):
        return m.entries
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError(f"{name} must be a square 2-d array, got shape {a.shape}")
    if a.shape[0] == 0:
        raise StructuralError(f"{name} must have at least one row")
    if not np.all(np.isfinite(a)):
        raise StructuralError(f"{name} contains non-finite entries")
    return a


def _require_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Reject matrices that are asymmetric beyond roundoff; return (a + a.T)/2."""
    scale = max(1.0, float(np.linalg.norm(a)))
    asym = float(np.max(np.abs(a - a.T)))
    if asym > SYMMETRY_RTOL * scale:
        raise StructuralError(
            f"{name} is not symmetric: max |M - M^T| = {asym:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * max(1, ||M||_F)")
    return _symmetrize(a)


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _eigh(a: np.ndarray, vectors: bool = True):
    """The package's one symmetric eigensolver: LAPACK through numpy.

    Returns ascending eigenvalues w, or (w, V) with a = V diag(w) V^T when
    vectors is true. The solver is normwise backward stable, so each
    eigenvalue is within a small multiple of n * eps * ||a||_2 of the exact
    one. Non-finite input (an overflowed difference or symmetrization) and
    LAPACK failures raise ConditioningError instead of returning NaN.
    """
    if not np.all(np.isfinite(a)):
        raise ConditioningError(
            "eigensolver input has non-finite entries (overflow upstream)")
    try:
        return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"symmetric eigensolver failed: {exc}") from None


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (non-ascending) and an orthonormal eigenbasis (columns)."""

    eigenvalues: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        w = np.array(self.eigenvalues, dtype=float)
        u = np.array(self.basis, dtype=float)
        w.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "basis", u)

    def apply(self, values) -> np.ndarray:
        """Assemble U diag(values) U^T."""
        vals = np.asarray(values, dtype=float)
        return _symmetrize((self.basis * vals) @ self.basis.T)

    def reconstruct(self) -> np.ndarray:
        return self.apply(self.eigenvalues)


def sym_eigendecompose(m) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix (positive definiteness not required).

    Eigenvalues come back non-ascending. Eigenvector signs are fixed by making
    the largest-magnitude component of each column positive, so repeated calls
    on equal input give identical output.
    """
    a = _require_symmetric(_as_array(m), "matrix")
    w, v = _eigh(a)
    w, v = w[::-1], v[:, ::-1]
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    v = v * np.where(lead < 0.0, -1.0, 1.0)
    return SpectralDecomposition(eigenvalues=w, basis=v)


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """A validated symmetric positive definite matrix.

    Construction checks symmetry (within SYMMETRY_RTOL relative) and rejects
    matrices whose smallest eigenvalue is <= PD_FLOOR_RTOL * ||M||_F. The
    stored array is a read-only copy; instances are immutable value objects.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = _require_symmetric(_as_array(self.entries, "SpdMatrix"), "SpdMatrix")
        w = _eigh(a, vectors=False)
        floor = PD_FLOOR_RTOL * float(np.linalg.norm(a))
        lam_min = float(np.min(w))
        if lam_min <= floor:
            raise StructuralError(
                f"matrix is not positive definite within tolerance: smallest "
                f"eigenvalue {lam_min:.6e} is below the floor {floor:.6e}")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, n: int) -> "SpdMatrix":
        return cls(np.eye(n))

    def to_json_dict(self) -> dict:
        return matrix_to_json_dict(self.entries)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SpdMatrix":
        return cls(matrix_from_json_dict(data))


def as_spd(m, name: str = "matrix") -> SpdMatrix:
    """Coerce to SpdMatrix, validating on the way in; errors start with name."""
    if isinstance(m, SpdMatrix):
        return m
    try:
        return SpdMatrix(m)
    except StructuralError as exc:
        raise StructuralError(f"{name}: {exc}") from None


def matrix_to_json_dict(m) -> dict:
    a = _as_array(m)
    return {"n": int(a.shape[0]), "rows": [[float(x) for x in row] for row in a]}


def matrix_from_json_dict(data) -> np.ndarray:
    if not isinstance(data, dict) or "n" not in data or "rows" not in data:
        raise StructuralError('matrix JSON must be an object with "n" and "rows"')
    n = data["n"]
    rows = data["rows"]
    if not isinstance(n, int) or n < 1:
        raise StructuralError(f'matrix JSON field "n" must be a positive integer, got {n!r}')
    a = np.asarray(rows, dtype=float)
    if a.shape != (n, n):
        raise StructuralError(f'matrix JSON "rows" has shape {a.shape}, expected ({n}, {n})')
    return a


def _evaluate(g, x: np.ndarray) -> np.ndarray:
    """g at each point of the 1-d float array x: one call on the whole array,
    or, when that raises or returns the wrong shape, one call per point (whose
    errors propagate). Rejecting non-finite values is the caller's job."""
    with np.errstate(all="ignore"):
        try:
            out = np.asarray(g(x), dtype=float)
            if out.shape == x.shape:
                return out
        except Exception:
            pass
        return np.array([float(g(v)) for v in x.tolist()])


def apply_spectral_function(m, g) -> np.ndarray:
    """Apply a scalar function to a symmetric matrix through its eigenvalues.

    An array-in, array-out g is called once on all the eigenvalues; a g that
    accepts only scalars (a FunctionExpr, a math.* lambda) is called on each.
    A non-finite value or an arithmetic, value or type error of g (a complex
    value fails float()) raises DomainError; any other error of g propagates.
    """
    dec = sym_eigendecompose(m)
    lam = dec.eigenvalues
    try:
        vals = _evaluate(g, lam)
    except (DomainError, ArithmeticError, ValueError, TypeError) as exc:
        raise DomainError(f"function undefined on the spectrum: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        bad = float(lam[~np.isfinite(vals)][0])
        raise DomainError(f"function undefined at eigenvalue {bad!r}")
    return dec.apply(vals)


def loewner_leq(a, b, tol: float = 1e-8) -> bool:
    """Test A <= B in the Loewner order, up to a relative tolerance.

    True iff the smallest eigenvalue of B - A is >= -tol * max(1, ||B-A||_F).
    """
    am = _as_array(a, "A")
    bm = _as_array(b, "B")
    if am.shape != bm.shape:
        raise StructuralError(f"shape mismatch: {am.shape} vs {bm.shape}")
    d = _symmetrize(bm - am)
    w = _eigh(d, vectors=False)
    return float(np.min(w)) >= -tol * max(1.0, float(np.linalg.norm(d)))


def min_eig_and_norm(a) -> tuple[float, float]:
    """Smallest eigenvalue and Frobenius norm of a symmetric matrix."""
    m = _symmetrize(_as_array(a))
    w = _eigh(m, vectors=False)
    return float(np.min(w)), float(np.linalg.norm(m))


def sqrt_pair(m) -> tuple[np.ndarray, np.ndarray]:
    """Return (M^{1/2}, M^{-1/2}) for a positive definite matrix."""
    dec = sym_eigendecompose(m)
    lam = dec.eigenvalues
    if float(np.min(lam)) <= 0.0:
        raise ConditioningError(
            f"matrix square root requires positive spectrum, got {np.min(lam)!r}")
    r = np.sqrt(lam)
    return dec.apply(r), dec.apply(1.0 / r)


@dataclass(frozen=True, eq=False, init=False)
class RelativeSpectrum:
    """The relative spectrum Z = P^{-1/2} Q P^{-1/2} of an SPD pair (P, Q).

    Holds P^{1/2} and the eigendecomposition of Z, so any number of spectral
    functions g of one pair cost a single decomposition each way:
    congruate(g(eigenvalues)) = P^{1/2} g(Z) P^{1/2}. congruate(ones) is P
    and congruate(eigenvalues) is Q.
    """

    root: np.ndarray
    decomposition: SpectralDecomposition

    def __init__(self, p, q):
        pm = _as_array(p, "P")
        qm = _as_array(q, "Q")
        if pm.shape != qm.shape:
            raise StructuralError(f"shape mismatch: {pm.shape} vs {qm.shape}")
        root, inv_root = sqrt_pair(pm)
        root.setflags(write=False)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "decomposition",
                           sym_eigendecompose(_symmetrize(inv_root @ qm @ inv_root)))

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of Z, non-ascending."""
        return self.decomposition.eigenvalues

    @property
    def condition(self) -> float:
        """Largest over smallest eigenvalue of Z; inf when the smallest is <= 0."""
        lo = float(self.eigenvalues[-1])
        return float(self.eigenvalues[0]) / lo if lo > 0.0 else math.inf

    def congruate(self, values) -> np.ndarray:
        """P^{1/2} U diag(values) U^T P^{1/2}, U the eigenbasis of Z."""
        return _symmetrize(self.root @ self.decomposition.apply(values) @ self.root)


def random_spd(n: int, cond_cap: float = 100.0, seed: int = 0) -> SpdMatrix:
    """Deterministic random SPD matrix with condition number <= cond_cap."""
    return random_spd_from(np.random.default_rng(seed), n, cond_cap)


def random_spd_from(rng: np.random.Generator, n: int, cond_cap: float = 100.0) -> SpdMatrix:
    """Draw a random SPD matrix from an existing generator stream."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise StructuralError(f"matrix size must be a positive integer, got {n!r}")
    if not (cond_cap >= 1.0):
        raise StructuralError(f"condition cap must be >= 1, got {cond_cap!r}")
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    q = q * np.where(d >= 0.0, 1.0, -1.0)
    # eigenvalues log-uniform in [1, cond_cap] keeps the condition number capped
    lam = np.exp(rng.uniform(0.0, math.log(cond_cap), size=n)) if cond_cap > 1.0 else np.ones(n)
    return SpdMatrix(_symmetrize((q * lam) @ q.T))
