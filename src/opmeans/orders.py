"""Orders on representing functions, phi-profiles, and the adjoint involution.

Two comparison tests live here, both reductions to sampled operator
monotonicity through monocheck's public sampler:

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
from .means import (CLASS_SELF_ADJOINT, CLASS_SYMMETRIC, RepresentingFunction,
                    _class_residual, _scalarize, arithmetic_pair)
from .monocheck import MonoConfig, MonotonicityVerdict, is_operator_monotone_sampled

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
                                        lambda t: slope(t, *parts(t)),
                                        MonoConfig() if config is None else config)


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
