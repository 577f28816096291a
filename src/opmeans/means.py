"""Operator mean catalog and evaluation.

A normalized operator mean on positive definite matrices is determined by a
representing function f: (0, inf) -> (0, inf) with f(1) = 1, operator
monotone, applied through the congruence recipe

    mean(A, B) = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2},

which lives in spd.RelativeSpectrum: mean_from_spectrum evaluates any number
of means of one pair from a single decomposition of it.

This module holds the named catalog (arithmetic, harmonic, geometric,
weighted geometric, Heinz, Heron), means generated from piecewise-constant
densities, descriptor parsing for the CLI, and an axiom checker that probes
normalization, the symmetry-class identity, operator monotonicity on sampled
matrix pairs, and congruence equivariance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import hdensity, jsonio
from .errors import ConditioningError, StructuralError, UsageError
from .hdensity import HDensity
from .spd import RelativeSpectrum, random_spd_from
from .spd import sqrt_pair  # noqa: F401 -- perfbench's tracer test patches this binding

ARITHMETIC = "arithmetic"
HARMONIC = "harmonic"
GEOMETRIC = "geometric"
WEIGHTED_GEOMETRIC = "wgeo"
HEINZ = "heinz"
HERON = "heron"
H_DENSITY = "hdensity"

_PARAMETRIC = {WEIGHTED_GEOMETRIC, HEINZ, HERON}
_PARAMETER_FREE = {ARITHMETIC, HARMONIC, GEOMETRIC}

CLASS_SYMMETRIC = "symmetric"
CLASS_SELF_ADJOINT = "self-adjoint"
CLASS_BOTH = "both"

_COND_CAP = 1e12


@dataclass(frozen=True)
class RepresentingFunction:
    """A representing function with its derivative and symmetry class."""

    label: str
    symmetry_class: str
    value: Callable
    derivative: Callable

    def __call__(self, t):
        return self.value(t)


@dataclass(frozen=True)
class MeanDescriptor:
    """Names one mean from the catalog, or one generated from a density."""

    kind: str
    param: Optional[float] = None
    density: Optional[HDensity] = None

    def __post_init__(self):
        if self.kind in _PARAMETER_FREE:
            if self.param is not None or self.density is not None:
                raise StructuralError(f"{self.kind} mean takes no parameter")
        elif self.kind in _PARAMETRIC:
            if self.param is None or self.density is not None:
                raise StructuralError(f"{self.kind} mean needs a numeric parameter")
            p = float(self.param)
            if not math.isfinite(p):
                raise StructuralError(f"{self.kind} parameter must be finite")
            if self.kind == WEIGHTED_GEOMETRIC and not 0.0 < p < 1.0:
                raise StructuralError(
                    f"weighted geometric exponent must lie in (0, 1), got {p}")
            if self.kind in (HEINZ, HERON) and not 0.0 <= p <= 1.0:
                raise StructuralError(
                    f"{self.kind} parameter must lie in [0, 1], got {p}")
            object.__setattr__(self, "param", p)
        elif self.kind == H_DENSITY:
            if self.density is None or self.param is not None:
                raise StructuralError("hdensity mean needs an HDensity and no scalar parameter")
            if not isinstance(self.density, HDensity):
                raise StructuralError("density must be an HDensity")
        else:
            raise UsageError(f"unknown mean kind {self.kind!r}")

    @classmethod
    def arithmetic(cls) -> "MeanDescriptor":
        return cls(ARITHMETIC)

    @classmethod
    def harmonic(cls) -> "MeanDescriptor":
        return cls(HARMONIC)

    @classmethod
    def geometric(cls) -> "MeanDescriptor":
        return cls(GEOMETRIC)

    @classmethod
    def weighted_geometric(cls, w: float) -> "MeanDescriptor":
        return cls(WEIGHTED_GEOMETRIC, param=w)

    @classmethod
    def heinz(cls, s: float) -> "MeanDescriptor":
        return cls(HEINZ, param=s)

    @classmethod
    def heron(cls, s: float) -> "MeanDescriptor":
        return cls(HERON, param=s)

    @classmethod
    def from_h_density(cls, density: HDensity) -> "MeanDescriptor":
        return cls(H_DENSITY, density=density)

    def describe(self) -> str:
        if self.kind in _PARAMETER_FREE:
            return f"{self.kind} mean"
        if self.kind == WEIGHTED_GEOMETRIC:
            return f"weighted geometric mean (exponent {self.param:g})"
        if self.kind == HEINZ:
            return f"Heinz mean (s = {self.param:g})"
        if self.kind == HERON:
            return f"Heron mean (s = {self.param:g})"
        cls = ("symmetric" if self.density.domain_class == hdensity.SYMMETRIC
               else "self-adjoint")
        return (f"density-generated mean ({cls} class, "
                f"{len(self.density.values)} segment(s))")


def _scalarize(fn):
    def wrapped(t):
        arr = np.asarray(t, dtype=float)
        out = fn(arr)
        return float(out) if arr.ndim == 0 else out
    return wrapped


_CATALOG = {
    ARITHMETIC: (CLASS_SYMMETRIC,
                 lambda t: 0.5 * (1.0 + t),
                 lambda t: np.full_like(t, 0.5)),
    HARMONIC: (CLASS_SYMMETRIC,
               lambda t: 2.0 * t / (1.0 + t),
               lambda t: 2.0 / (1.0 + t) ** 2),
    GEOMETRIC: (CLASS_BOTH,
                lambda t: np.sqrt(t),
                lambda t: 0.5 / np.sqrt(t)),
}


@lru_cache(maxsize=256)
def representing_function(descriptor: MeanDescriptor) -> RepresentingFunction:
    """Build the representing function (with analytic derivative) of a mean."""
    kind = descriptor.kind
    if kind in _CATALOG:
        cls, val, der = _CATALOG[kind]
        return RepresentingFunction(descriptor.describe(), cls,
                                    _scalarize(val), _scalarize(der))
    if kind == WEIGHTED_GEOMETRIC:
        w = descriptor.param
        return RepresentingFunction(
            descriptor.describe(), CLASS_SELF_ADJOINT,
            _scalarize(lambda t: t ** w),
            _scalarize(lambda t: w * t ** (w - 1.0)))
    if kind == HEINZ:
        s = descriptor.param
        return RepresentingFunction(
            descriptor.describe(), CLASS_SYMMETRIC,
            _scalarize(lambda t: 0.5 * (t ** s + t ** (1.0 - s))),
            _scalarize(lambda t: 0.5 * (s * t ** (s - 1.0)
                                        + (1.0 - s) * t ** (-s))))
    if kind == HERON:
        s = descriptor.param
        return RepresentingFunction(
            descriptor.describe(), CLASS_SYMMETRIC,
            _scalarize(lambda t: s * 0.5 * (1.0 + t) + (1.0 - s) * np.sqrt(t)),
            _scalarize(lambda t: s * 0.5 + (1.0 - s) * 0.5 / np.sqrt(t)))
    h = descriptor.density
    if h.domain_class == hdensity.SYMMETRIC:
        return RepresentingFunction(
            descriptor.describe(), CLASS_SYMMETRIC,
            lambda t: hdensity.eval_symmetric_rep(h, t),
            lambda t: hdensity.symmetric_rep_derivative(h, t))
    return RepresentingFunction(
        descriptor.describe(), CLASS_SELF_ADJOINT,
        lambda t: hdensity.eval_selfadjoint_rep(h, t),
        lambda t: hdensity.selfadjoint_rep_derivative(h, t))


def mean_from_spectrum(spectrum: RelativeSpectrum, fn: RepresentingFunction) -> np.ndarray:
    """mean(P, Q) = P^{1/2} f(Z) P^{1/2} from the relative spectrum Z of (P, Q).

    Refuses pairs whose relative spectrum has condition number above 1e12.
    """
    if spectrum.condition > _COND_CAP:
        raise ConditioningError(
            f"relative spectrum of the matrix pair spans [{spectrum.eigenvalues[-1]:.3e}, "
            f"{spectrum.eigenvalues[0]:.3e}]; too ill-conditioned to evaluate reliably")
    return spectrum.congruate(fn.value(spectrum.eigenvalues))


def eval_mean_from_function(a, b, fn: RepresentingFunction) -> np.ndarray:
    """Apply mean(A, B) = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}."""
    return mean_from_spectrum(RelativeSpectrum(a, b), fn)


def eval_mean(a, b, descriptor: MeanDescriptor) -> np.ndarray:
    """Evaluate the described mean on a pair of positive definite matrices."""
    return eval_mean_from_function(a, b, representing_function(descriptor))


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
    from .monocheck import MonoConfig, is_operator_monotone_sampled

    fn = representing_function(descriptor)
    normalization_ok = abs(fn.value(1.0) - 1.0) <= tol

    grid = np.logspace(-3, 3, 25)
    fv = np.asarray(fn.value(grid), dtype=float)
    fr = np.asarray(fn.value(1.0 / grid), dtype=float)
    sym_resid = float(np.max(np.abs(grid * fr - fv) / np.abs(fv)))
    sa_resid = float(np.max(np.abs(fr * fv - 1.0)))
    if fn.symmetry_class == CLASS_SYMMETRIC:
        class_identity_ok = sym_resid <= 1e-10
    elif fn.symmetry_class == CLASS_SELF_ADJOINT:
        class_identity_ok = sa_resid <= 1e-10
    else:
        class_identity_ok = sym_resid <= 1e-10 and sa_resid <= 1e-10

    config = MonoConfig(trials=max(trials, 10), seed=seed)
    verdict = is_operator_monotone_sampled(fn.value, fn.derivative, config=config)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        a = random_spd_from(rng, n, cond_cap=50.0).entries
        b = random_spd_from(rng, n, cond_cap=50.0).entries
        t = random_spd_from(rng, n, cond_cap=10.0).entries
        lhs = t @ eval_mean_from_function(a, b, fn) @ t
        rhs = eval_mean_from_function(t @ a @ t, t @ b @ t, fn)
        scale = max(1.0, float(np.linalg.norm(rhs)))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / scale)
    transformer_ok = worst <= 1e-8

    return AxiomReport(normalization_ok, class_identity_ok,
                       verdict.status, transformer_ok, worst)


def parse_mean_descriptor(text: str) -> MeanDescriptor:
    """Parse a CLI mean spec.

    Accepted forms: "arithmetic", "harmonic", "geometric", "wgeo:<w>",
    "heinz:<s>", "heron:<s>", "hdensity:<json-file>".
    """
    if not isinstance(text, str) or not text:
        raise UsageError("mean spec must be a non-empty string")
    head, sep, tail = text.partition(":")
    head = head.strip()
    if head in _PARAMETER_FREE:
        if sep:
            raise UsageError(f"{head} takes no parameter, got {text!r}")
        return MeanDescriptor(head)
    if head in _PARAMETRIC:
        if not sep or not tail.strip():
            raise UsageError(f"{head} needs a parameter, e.g. {head}:0.5")
        try:
            value = float(tail)
        except ValueError:
            raise UsageError(f"bad numeric parameter in {text!r}") from None
        try:
            return MeanDescriptor(head, param=value)
        except StructuralError as exc:
            raise UsageError(str(exc)) from None
    if head == H_DENSITY:
        if not sep or not tail.strip():
            raise UsageError("hdensity needs a JSON file path, e.g. hdensity:h.json")
        data = jsonio.load_file(tail.strip())
        try:
            return MeanDescriptor(H_DENSITY, density=HDensity.from_json_dict(data))
        except StructuralError as exc:
            raise UsageError(str(exc)) from None
    raise UsageError(
        f"unknown mean spec {text!r}; expected arithmetic, harmonic, geometric, "
        "wgeo:<w>, heinz:<s>, heron:<s>, or hdensity:<file>")
