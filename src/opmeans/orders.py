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
                    RepresentingFunction, _class_residual, _scalarize, arithmetic_pair,
                    representing_function)
from .monocheck import (MonoConfig, MonotonicityVerdict, _check_sampling, _MatrixPair,
                        _pair_margins, _random_pairs, is_operator_monotone_sampled)

DIRECTION_UP = "non-decreasing"
DIRECTION_DOWN = "non-increasing"
DIRECTION_FLAT = "constant"
DIRECTION_MIXED = "mixed"

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


def _reciprocal_limit(gamma: float) -> float:
    """The limit of 1 / phi where phi tends to gamma: 0 and inf swap."""
    return 1.0 / gamma if gamma else math.inf


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


def phi_profile(f: RepresentingFunction) -> PhiProfile:
    """Build the phi-profile of a representing function.

    Both gammas are exact: realize_phi is f.realize and realize_gamma is
    f.realize_gamma, and gamma is that limit too for a symmetric f
    (phi = realize_phi) and its reciprocal for a self-adjoint one
    (phi = 1 / realize_phi). Direction flags on (0, 1) and (1, inf) come
    from sampled differences at relative tolerance 1e-7.
    """
    phi = _scalarize(lambda t: np.asarray(f.value(t * t), dtype=float) / t)
    gamma = f.realize_gamma
    return PhiProfile(
        phi=phi,
        gamma=_reciprocal_limit(gamma) if f.symmetry_class == CLASS_SELF_ADJOINT else gamma,
        direction_below_1=_direction(phi(np.logspace(-3.0, np.log10(0.999), 33))),
        direction_above_1=_direction(phi(np.logspace(np.log10(1.001), 3.0, 33))),
        realize_phi=f.realize,
        realize_gamma=gamma,
        symmetry_class=f.symmetry_class)


def _check_class_identity(fn: RepresentingFunction, want: str, op: str) -> None:
    resid = _class_residual(fn, want, _CLASS_GRID)
    name = ("symmetric (t f(1/t) = f(t))" if want == CLASS_SYMMETRIC
            else "self-adjoint (f(1/t) f(t) = 1)")
    if resid > 1e-8:
        raise StructuralError(
            f"{op}: {fn.label} fails the {name} identity "
            f"(max residual {resid:.3e})")


def _sampled_quotient(f: RepresentingFunction, g: RepresentingFunction, config,
                      quotient: Callable, slope: Callable) -> MonotonicityVerdict:
    """The Loewner sampler on quotient(t, f, f', g, g') with derivative slope(...),
    f and g evaluated with their derivatives at once. The sampler hands slope a
    copy of quotient's points, so the last values are reused for equal bits."""
    last = [None, None]

    def parts(t):
        key = np.shape(t), np.asarray(t, dtype=float).tobytes()
        if key != last[0]:
            last[:] = key, (*f.value_and_derivative(t), *g.value_and_derivative(t))
        return last[1]

    return is_operator_monotone_sampled(lambda t: quotient(t, *parts(t)),
                                        lambda t: slope(t, *parts(t)), config or MonoConfig())


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
    return _sampled_quotient(
        f, g, config, lambda t, fv, fp, gv, gp: arithmetic_pair(1.0, t) * fv / gv,
        lambda t, fv, fp, gv, gp: (0.5 * fv / gv
                                   + arithmetic_pair(1.0, t) * (fp * gv - fv * gp) / (gv * gv)))


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
    return _sampled_quotient(f, g, config, lambda t, fv, fp, gv, gp: fv / gv,
                             lambda t, fv, fp, gv, gp: (fp * gv - fv * gp) / (gv * gv))


def dagger(f: RepresentingFunction) -> RepresentingFunction:
    """The adjoint map f -> t/f(t): involutive and order reversing.

    Preserves both symmetry classes; at the density level it maps h to 1-h.
    Its realize map is the reciprocal of f's, and so is its realize_gamma.
    """
    def nonvanishing(t):
        fv = np.asarray(f.value(t), dtype=float)
        if np.any(fv == 0.0):
            raise DomainError(f"adjoint undefined where {f.label} vanishes")
        return fv

    def derivative(t):
        fv = nonvanishing(t)
        return (fv - t * np.asarray(f.derivative(t), dtype=float)) / (fv * fv)

    return RepresentingFunction(f"adjoint of {f.label}", f.symmetry_class,
                                _scalarize(lambda t: t / nonvanishing(t)),
                                _scalarize(derivative),
                                realize_gamma=_reciprocal_limit(f.realize_gamma))


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
