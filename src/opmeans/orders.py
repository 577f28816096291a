"""Orders on representing functions, phi-profiles, and the adjoint involution.

Two comparison tests live here, both reductions to sampled operator
monotonicity (monocheck):

  symmetric class:     f below g  <=>  psi(t) = ((t+1)/2) f(t)/g(t) operator monotone
  self-adjoint class:  f/g operator monotone  <=>  the density of f dominates
                       the density of g (which places f *above* g in the
                       self-adjoint lattice; the quotient direction matches
                       the symmetric test's psi, so both tests probe the same
                       density relation h_f >= h_g)

The phi-profile of a representing function carries two closely related maps:

  phi(t)         = f(t*t) / t        (the analysis map; for a symmetric f it
                                      satisfies phi(t) = phi(1/t))
  realize_phi(t) = t * f(1/(t*t))    (the value of the mean at the pair
                                      (t, 1/t); this is the map the pair
                                      solvers invert)

For symmetric f the two coincide; for self-adjoint f they are reciprocals.
Each comes with its own limit at infinity (gamma), which bounds the
realizable targets of the pair construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, StructuralError
from .means import (CLASS_SELF_ADJOINT, CLASS_SYMMETRIC, MeanDescriptor,
                    RepresentingFunction, eval_mean_from_function,
                    mean_from_spectrum, representing_function)
from .monocheck import (MonoConfig, MonotonicityVerdict, _difference_rounding_bound,
                        is_operator_monotone_sampled)
from .spd import (RelativeSpectrum, matrix_to_json_dict, min_eig_and_norm,
                  random_spd_from)

DIRECTION_UP = "non-decreasing"
DIRECTION_DOWN = "non-increasing"
DIRECTION_FLAT = "constant"
DIRECTION_MIXED = "mixed"

_GAMMA_CUTOFF = 1e12
_GAMMA_STEPS = 40
_GAMMA_SNAP = 1e-9
_CLASS_GRID = np.logspace(-4.0, 4.0, 33)


@dataclass(frozen=True)
class PhiProfile:
    """Profile of t -> f(t^2)/t and of the realize map t -> t f(1/t^2)."""

    phi: Callable
    gamma: float
    direction_below_1: str
    direction_above_1: str
    realize_phi: Callable
    realize_gamma: float
    symmetry_class: str


def _limit_at_infinity(fn: Callable) -> float:
    """Estimate lim fn(2^k) for k -> inf; inf above 1e12, snap tiny to 0.

    A sequence still rising unconverged at k = 40 is declared infinite; one
    still falling is declared 0 (every catalog profile is eventually
    monotone, so the horizon only truncates slow tails).
    """
    prev = None
    value = None
    for k in range(_GAMMA_STEPS + 1):
        prev = value
        value = float(fn(2.0 ** k))
        if not math.isfinite(value) or value > _GAMMA_CUTOFF:
            return math.inf
    if prev is not None and abs(value - prev) > 1e-9 * max(1.0, abs(value)):
        if value > prev:
            return math.inf
        return 0.0
    if abs(value) < _GAMMA_SNAP:
        return 0.0
    return value


def _direction(values: np.ndarray, tol: float = 1e-7) -> str:
    diffs = np.diff(values)
    scale = tol * np.maximum(1.0, np.abs(values[:-1]))
    rising = bool(np.any(diffs > scale))
    falling = bool(np.any(diffs < -scale))
    if rising and falling:
        return DIRECTION_MIXED
    if rising:
        return DIRECTION_UP
    if falling:
        return DIRECTION_DOWN
    return DIRECTION_FLAT


def _eval_vec(fn: Callable, t: np.ndarray) -> np.ndarray:
    return np.array([float(fn(x)) for x in t])


def phi_profile(f: RepresentingFunction) -> PhiProfile:
    """Build the phi-profile of a representing function.

    gamma values are numeric limit estimates of phi(2^k) up to k = 40:
    divergence past 1e12 reads as infinity and limits below 1e-9 as 0.
    Direction flags on (0, 1) and (1, inf) come from sampled differences at
    relative tolerance 1e-7.
    """
    def phi(t):
        t = np.asarray(t, dtype=float)
        out = np.asarray(f.value(t * t), dtype=float) / t
        return float(out) if out.ndim == 0 else out

    def realize_phi(t):
        t = np.asarray(t, dtype=float)
        out = t * np.asarray(f.value(1.0 / (t * t)), dtype=float)
        return float(out) if out.ndim == 0 else out

    at_one = phi(1.0)
    if abs(at_one - 1.0) > 1e-9:
        raise StructuralError(
            f"profile requires f(1) = 1; got phi(1) = {at_one!r}")

    below = _eval_vec(phi, np.logspace(-3.0, np.log10(0.999), 33))
    above = _eval_vec(phi, np.logspace(np.log10(1.001), 3.0, 33))
    return PhiProfile(
        phi=phi,
        gamma=_limit_at_infinity(phi),
        direction_below_1=_direction(below),
        direction_above_1=_direction(above),
        realize_phi=realize_phi,
        realize_gamma=_limit_at_infinity(realize_phi),
        symmetry_class=f.symmetry_class)


def _check_class_identity(fn: RepresentingFunction, want: str, op: str) -> None:
    fv = _eval_vec(fn.value, _CLASS_GRID)
    fr = _eval_vec(fn.value, 1.0 / _CLASS_GRID)
    if want == CLASS_SYMMETRIC:
        resid = np.max(np.abs(_CLASS_GRID * fr - fv) / np.abs(fv))
        name = "symmetric (t f(1/t) = f(t))"
    else:
        resid = np.max(np.abs(fr * fv - 1.0))
        name = "self-adjoint (f(1/t) f(t) = 1)"
    if resid > 1e-8:
        raise StructuralError(
            f"{op}: {fn.label} fails the {name} identity "
            f"(max residual {float(resid):.3e})")


def order_leq_sym(f: RepresentingFunction, g: RepresentingFunction,
                  config: Optional[MonoConfig] = None) -> MonotonicityVerdict:
    """Sampled test of the symmetric-class comparison 'f below g'.

    Forms psi(t) = ((t+1)/2) f(t)/g(t) and runs the Loewner sampler on it
    with its analytic derivative. Consistent is a necessary-condition
    verdict, not a proof; refuted comes with a witness whose Loewner matrix
    has min eigenvalue below -(tol * ||L||_F + rounding bound).
    """
    _check_class_identity(f, CLASS_SYMMETRIC, "order_leq_sym")
    _check_class_identity(g, CLASS_SYMMETRIC, "order_leq_sym")

    def psi(t):
        return 0.5 * (t + 1.0) * float(f.value(t)) / float(g.value(t))

    def psi_prime(t):
        fv, gv = float(f.value(t)), float(g.value(t))
        fp, gp = float(f.derivative(t)), float(g.derivative(t))
        return 0.5 * fv / gv + 0.5 * (t + 1.0) * (fp * gv - fv * gp) / (gv * gv)

    return is_operator_monotone_sampled(psi, psi_prime, config or MonoConfig())


def order_leq_sa(f: RepresentingFunction, g: RepresentingFunction,
                 config: Optional[MonoConfig] = None) -> MonotonicityVerdict:
    """Sampled test of the self-adjoint-class comparison via the quotient f/g.

    Consistent means f/g looks operator monotone, i.e. the density of f
    dominates the density of g; in the self-adjoint lattice that places f
    above g (h_order verdict "geq"), mirroring how the symmetric test also
    puts its first argument in the quotient's numerator.
    """
    _check_class_identity(f, CLASS_SELF_ADJOINT, "order_leq_sa")
    _check_class_identity(g, CLASS_SELF_ADJOINT, "order_leq_sa")

    def quot(t):
        return float(f.value(t)) / float(g.value(t))

    def quot_prime(t):
        fv, gv = float(f.value(t)), float(g.value(t))
        fp, gp = float(f.derivative(t)), float(g.derivative(t))
        return (fp * gv - fv * gp) / (gv * gv)

    return is_operator_monotone_sampled(quot, quot_prime, config or MonoConfig())


def dagger(f: RepresentingFunction) -> RepresentingFunction:
    """The adjoint map f -> t/f(t): involutive and order reversing.

    Preserves both symmetry classes; at the density level it maps h to 1-h.
    """
    def value(t):
        arr = np.asarray(t, dtype=float)
        fv = np.asarray(f.value(arr), dtype=float)
        if np.any(fv == 0.0):
            raise DomainError(f"adjoint undefined where {f.label} vanishes")
        out = arr / fv
        return float(out) if arr.ndim == 0 else out

    def derivative(t):
        arr = np.asarray(t, dtype=float)
        fv = np.asarray(f.value(arr), dtype=float)
        fp = np.asarray(f.derivative(arr), dtype=float)
        if np.any(fv == 0.0):
            raise DomainError(f"adjoint undefined where {f.label} vanishes")
        out = (fv - arr * fp) / (fv * fv)
        return float(out) if arr.ndim == 0 else out

    return RepresentingFunction(f"adjoint of {f.label}", f.symmetry_class,
                                value, derivative)


@dataclass(frozen=True)
class KaViolation:
    """A matrix pair violating the mixing inequality, with its margin."""

    matrix_a: np.ndarray
    matrix_b: np.ndarray
    min_eigenvalue: float
    diff_norm: float

    def to_json_dict(self) -> dict:
        return {"A": matrix_to_json_dict(self.matrix_a),
                "B": matrix_to_json_dict(self.matrix_b),
                "min_eigenvalue": self.min_eigenvalue,
                "diff_norm": self.diff_norm}


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

    where tau_perp carries the adjoint of tau's representing function. A
    violation is any pair whose difference has min eigenvalue below
    -(tol * max(1, norm) + E), E the bound on the eigenvalue error of the
    computed difference from monocheck._difference_rounding_bound. The
    returned margin is the worst normalized eigenvalue seen.
    """
    if trials < 0:
        raise StructuralError("trials must be non-negative")
    f_sigma = representing_function(sigma)
    g_tau = representing_function(tau)
    g_perp = dagger(g_tau)

    def margin(a, b):
        spectrum = RelativeSpectrum(a, b)
        mixed_lo = mean_from_spectrum(spectrum, g_tau)
        mixed_hi = mean_from_spectrum(spectrum, g_perp)
        lhs = eval_mean_from_function(mixed_lo, mixed_hi, f_sigma)
        rhs = mean_from_spectrum(spectrum, f_sigma)
        return (*min_eig_and_norm(rhs - lhs),
                _difference_rounding_bound(a.entries, b.entries, lhs, rhs))

    rng = np.random.default_rng(seed)
    worst = math.inf
    violations = []
    for _ in range(trials):
        a = random_spd_from(rng, n, cond_cap=50.0)
        b = random_spd_from(rng, n, cond_cap=50.0)
        min_eig, norm, bound = margin(a, b)
        worst = min(worst, min_eig / max(1.0, norm))
        if min_eig < -(tol * max(1.0, norm) + bound):
            violations.append(KaViolation(a, b, min_eig, norm))
    if math.isinf(worst):
        worst = 0.0
    return KaReport(f_sigma.label, g_tau.label, trials, seed, tol, n,
                    worst, tuple(violations))
