"""Operator mean catalog and evaluation.

A normalized operator mean on positive definite matrices is determined by a
representing function f: (0, inf) -> (0, inf) with f(1) = 1, operator
monotone, applied through the congruence recipe

    mean(A, B) = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2},

which lives in spd.RelativeSpectrum: mean_from_spectrum evaluates any number
of means of one pair from a single decomposition of it.

This module holds the named catalog (arithmetic, harmonic, geometric,
weighted geometric, Heinz, Heron), means generated from piecewise-constant
densities, and descriptor parsing for the CLI. The checks built on these
means, the axiom checker among them, live in monocheck, a layer above.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from . import hdensity, jsonio
from .errors import ConditioningError, StructuralError, UsageError
from .hdensity import HDensity
from .spd import RelativeSpectrum, _check_real
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
    """A representing function with its derivative and symmetry class.

    realize_gamma, required and keyword-only, is the exact limit at inf of
    the realize map t -> t f(1/t^2) (the method realize). realize_inverse,
    when given, maps an array of targets of that map to their roots t >= 1
    in closed form; the catalog means with a non-constant realize map carry
    one, and density means a jet.
    """

    label: str
    symmetry_class: str
    value: Callable
    derivative: Callable
    realize_inverse: Optional[Callable] = None
    jet: Optional[Callable] = None      # t -> (value(t), derivative(t)) in one evaluation
    realize_gamma: float = field(kw_only=True)

    def __call__(self, t):
        return self.value(t)

    def realize(self, t):
        """t f(1/t^2), the mean of the pair (t, 1/t); a float for a scalar t."""
        return _scalarize(lambda t: t * np.asarray(self.value(1.0 / (t * t)), dtype=float))(t)

    def value_and_derivative(self, t) -> tuple:
        return self.jet(t) if self.jet else (self.value(t), self.derivative(t))


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
            _check_real(f"{self.kind} parameter", self.param)
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
        if self.kind == H_DENSITY:
            cls = ("symmetric" if self.density.domain_class == hdensity.SYMMETRIC
                   else "self-adjoint")
            return (f"density-generated mean ({cls} class, "
                    f"{len(self.density.values)} segment(s))")
        # :g unless it rounds the parameter, which could give two means one label
        param = f"{self.param:g}"
        param = param if float(param) == self.param else repr(float(self.param))
        if self.kind == WEIGHTED_GEOMETRIC:
            return f"weighted geometric mean (exponent {param})"
        return f"{'Heinz' if self.kind == HEINZ else 'Heron'} mean (s = {param})"


def _scalarize(fn):
    def wrapped(t):
        arr = np.asarray(t, dtype=float)
        out = fn(arr)
        return float(out) if arr.ndim == 0 else out
    return wrapped


# Each catalog formula, once, as the mean of a scalar pair (a, b) of arrays;
# the representing function is f(t) = mean(1, t). No ratio b / a is formed:
# it overflows where the mean does not (a = 1e-200, b = 1e200).
def arithmetic_pair(a, b):
    return 0.5 * (a + b)


def harmonic_pair(a, b):
    return 2.0 * a * b / (a + b)


def geometric_pair(a, b):
    return np.sqrt(a) * np.sqrt(b)


def heinz_pair(s, a, b):
    return 0.5 * (a ** s * b ** (1.0 - s) + a ** (1.0 - s) * b ** s)


def heron_pair(s, a, b):
    return s * arithmetic_pair(a, b) + (1.0 - s) * geometric_pair(a, b)


def _cosh_log_root(d):
    """The root t >= 1 of cosh(log t) = (t + 1/t) / 2 = 1 + d, for d >= 0:
    algebraic, as exp(arccosh) misses the target by more than a few ulps."""
    return 1.0 + d + np.sqrt(d * (d + 2.0))


def _power_root(s: float):
    """r -> r^(1/k), the root of t^k = r, for k = 1 - 2s; None for s = 1/2.

    k and 1/k are exact integer ratios, and 1/k is split into its float e
    and the float of the rest: r^e alone is off by the rounding of e times
    log r, 10 ulps at r = 1e9, and the float 1 - 2s rounds for s < 1/4.
    """
    n, d = s.as_integer_ratio()
    num = d - 2 * n                 # k = num / d
    if num == 0:
        return None
    e = d / num                     # int true division rounds once
    en, ed = e.as_integer_ratio()
    rest = (d * ed - en * num) / (num * ed)
    return lambda r: r ** e * r ** rest


# The realize map of each catalog mean, mean(t, 1/t), is cosh(log t) for the
# arithmetic, 1 / cosh(log t) for the harmonic, cosh((1 - 2s) log t) for
# Heinz_s, s cosh(log t) + 1 - s for Heron_s and t^(1 - 2w) for the weighted
# geometric w. A constant map (geometric, Heinz 1/2, Heron 0, weighted
# geometric 1/2) has no inverse: its one target, 1, needs none.
_CATALOG = {
    ARITHMETIC: (CLASS_SYMMETRIC, arithmetic_pair, lambda t: np.full_like(t, 0.5),
                 lambda y: _cosh_log_root(y - 1.0), math.inf),
    HARMONIC: (CLASS_SYMMETRIC, harmonic_pair, lambda t: 2.0 / (1.0 + t) ** 2,
               lambda y: _cosh_log_root((1.0 - y) / y), 0.0),
    GEOMETRIC: (CLASS_BOTH, geometric_pair, lambda t: 0.5 / np.sqrt(t), None, 1.0),
}


@lru_cache(maxsize=256)
def representing_function(descriptor: MeanDescriptor) -> RepresentingFunction:
    """Build the representing function (with analytic derivative) of a mean."""
    kind = descriptor.kind
    if kind in _CATALOG:
        cls, val, der, inverse, gamma = _CATALOG[kind]
        return RepresentingFunction(descriptor.describe(), cls,
                                    _scalarize(partial(val, 1.0)), _scalarize(der),
                                    inverse, realize_gamma=gamma)
    if kind == WEIGHTED_GEOMETRIC:
        w = descriptor.param
        return RepresentingFunction(
            descriptor.describe(), CLASS_SELF_ADJOINT,
            _scalarize(lambda t: t ** w),
            _scalarize(lambda t: w * t ** (w - 1.0)),
            _power_root(w), realize_gamma=math.inf if w < 0.5 else 1.0 if w == 0.5 else 0.0)
    if kind == HEINZ:
        s = descriptor.param
        power = _power_root(min(s, 1.0 - s))
        return RepresentingFunction(
            descriptor.describe(), CLASS_SYMMETRIC,
            _scalarize(partial(heinz_pair, s, 1.0)),
            _scalarize(lambda t: 0.5 * (s * t ** (s - 1.0) + (1.0 - s) * t ** (-s))),
            None if power is None else lambda y: power(_cosh_log_root(y - 1.0)),
            realize_gamma=1.0 if power is None else math.inf)
    if kind == HERON:
        s = descriptor.param
        return RepresentingFunction(
            descriptor.describe(), CLASS_SYMMETRIC,
            _scalarize(partial(heron_pair, s, 1.0)),
            _scalarize(lambda t: s * 0.5 + (1.0 - s) * 0.5 / np.sqrt(t)),
            None if s == 0.0 else lambda y: _cosh_log_root((y - 1.0) / s),
            realize_gamma=1.0 if s == 0.0 else math.inf)
    h = descriptor.density
    if h.domain_class == hdensity.SYMMETRIC:
        return RepresentingFunction(
            descriptor.describe(), CLASS_SYMMETRIC,
            lambda t: hdensity.eval_symmetric_rep(h, t),
            lambda t: hdensity.symmetric_rep_derivative(h, t),
            jet=lambda t: hdensity._symmetric_jet(h, t),
            realize_gamma=hdensity._realize_gamma(h))
    return RepresentingFunction(
        descriptor.describe(), CLASS_SELF_ADJOINT,
        lambda t: hdensity.eval_selfadjoint_rep(h, t),
        lambda t: hdensity.selfadjoint_rep_derivative(h, t),
        jet=lambda t: hdensity._selfadjoint_jet(h, t),
        realize_gamma=hdensity._realize_gamma(h))


def mean_from_spectrum(spectrum: RelativeSpectrum, fn: RepresentingFunction) -> np.ndarray:
    """mean(A, B) = A^{1/2} f(Z) A^{1/2} from the relative spectrum Z of (A, B).

    Refuses pairs whose relative spectrum has condition number above 1e12
    or is not positive. For a stacked spectrum, f is called once on all
    eigenvalues of the stack, and one refused pair refuses the stack.
    """
    ev = _checked_eigenvalues(spectrum)
    return spectrum.congruate(np.reshape(fn.value(ev.ravel()), ev.shape))


def _checked_eigenvalues(spectrum: RelativeSpectrum) -> np.ndarray:
    """The eigenvalues of spectrum, once mean_from_spectrum's check of them passed."""
    ev, condition = spectrum.eigenvalues, spectrum.condition
    if condition > _COND_CAP if ev.ndim == 1 else (condition > _COND_CAP).any():
        raise ConditioningError(
            f"relative spectrum of the matrix pair spans [{np.min(ev):.3e}, "
            f"{np.max(ev):.3e}]; " + ("the pair is not positive definite" if np.min(ev) <= 0.0
                                     else "too ill-conditioned to evaluate reliably"))
    return ev


def eval_mean_from_function(a, b, fn: RepresentingFunction) -> np.ndarray:
    """Apply mean(A, B) = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}."""
    return mean_from_spectrum(RelativeSpectrum(a, b), fn)


def _class_residual(fn: RepresentingFunction, cls: str, grid: np.ndarray) -> float:
    """Worst residual on grid of the identities of class cls (both for "both"):

    max |t f(1/t) - f(t)| / |f(t)| for t f(1/t) = f(t) (symmetric), and
    max |f(1/t) f(t) - 1| for f(1/t) f(t) = 1 (self-adjoint). f is
    evaluated once, at the grid and its reciprocals together.
    """
    fv, fr = np.split(np.asarray(fn.value(np.concatenate((grid, 1.0 / grid))), dtype=float), 2)
    resid = 0.0
    if cls != CLASS_SELF_ADJOINT:
        resid = float(np.max(np.abs(grid * fr - fv) / np.abs(fv)))
    if cls != CLASS_SYMMETRIC:
        resid = max(resid, float(np.max(np.abs(fr * fv - 1.0))))
    return resid


def eval_mean(a, b, descriptor: MeanDescriptor) -> np.ndarray:
    """Evaluate the described mean on a pair of positive definite matrices."""
    return eval_mean_from_function(a, b, representing_function(descriptor))


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
