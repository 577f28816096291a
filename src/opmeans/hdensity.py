"""Piecewise-constant densities and their exponential integral representations.

A density h lives on [0, 1] (class "sym") or on [-1, 0] (class "sa") and
takes values in [0, 1]. Each class generates a normalized operator mean
representing function:

  sym:  f(t) = (1 + t)/2 * exp(H(t)),
        H(t) = integral over [0, 1] of
               (u^2 - 1)(1 - t)^2 / ((t + u)(1 + t u)(1 + u)^2) * h(u) du
  sa:   f(t) = exp(L(t)),
        L(t) = integral over [-1, 0] of (1/(u - t) + t/(1 - u t)) * h(u) du

Constant densities recover familiar means: for "sym", h = 0, 1/2, 1 give the
arithmetic, geometric, and harmonic representing functions; for "sa", h = c
gives t^c.

The sym kernel is 2/(1 + u) - 1/(t + u) - t/(1 + t u), so both kernels have
elementary antiderivatives in u, and for a step density the integrals are
exact sums over the segments (b_i, b_{i+1}):

  H(t) = sum_i h_i [2 log(1 + u) - log(t + u) - log(1 + t u)]  from b_i to b_{i+1}
  L(t) = sum_i h_i [log(t - u) - log(1 - t u)]                 from b_i to b_{i+1}

Their t-derivatives take the brackets [-1/(t + u) - u/(1 + t u)] and
[1/(t - u) + u/(1 - t u)] over the same limits. Summed by parts, each
breakpoint costs one bracket, weighted by the jump of h there. Each log
bracket is evaluated as the log of a single ratio, (t + u)(1 + t u)/(1 + u)^2
or (t - u)/(1 - t u), which is exactly 1 at t = 1, so f(1) == 1.0 exactly.

Evaluation folds t to min(t, 1/t) <= 1. The sym kernel satisfies
K(1/t, u) = K(t, u) and the sa kernel k(1/t, u) = -k(t, u), so the class
identities t*f(1/t) = f(t) and f(1/t)*f(t) = 1 hold *exactly* for the
computed values. Derivatives go through the same fold, which keeps them free
of cancellation for large t. The error in log f is a few ulps of
max(1, |log t|), so values are accurate to about 1e-14 relative for every
finite t > 0.

Each HDensity keeps its breakpoint and jump arrays, read-only, in the
private cached property HDensity._jumps, built at its first evaluation: a
mean's representing function evaluates one HDensity many times. A jet forms
the brackets x +- b and 1 +- x b, and t > 1, once for both f and f'.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, StructuralError

SYMMETRIC = "sym"
SELF_ADJOINT = "sa"
_DOMAIN = {SYMMETRIC: (0.0, 1.0), SELF_ADJOINT: (-1.0, 0.0)}

_MEASURE_EPS = 1e-12    # sets of breakpoint measure below this are ignored
# The slope of log f at x <= 1 has a term h/x, which overflows at subnormal x
# although f'(x) does not. The derivatives divide by x * _SLOPE_SCALE and
# multiply f' back by _SLOPE_SCALE: both are exact scalings by a power of
# two, so every result that did not overflow before keeps all its bits.
_SLOPE_SCALE = 2.0 ** 64

ORDER_LEQ = "leq"
ORDER_GEQ = "geq"
ORDER_EQUAL = "equal"
ORDER_INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class HDensity:
    """A piecewise-constant density: values[i] on (breaks[i], breaks[i+1])."""

    domain_class: str
    breaks: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if self.domain_class not in (SYMMETRIC, SELF_ADJOINT):   # also unhashable input
            raise StructuralError(
                f'density class must be "{SYMMETRIC}" or "{SELF_ADJOINT}", '
                f"got {self.domain_class!r}")
        try:
            breaks = tuple(map(float, self.breaks))
            values = tuple(map(float, self.values))
        except (TypeError, ValueError):
            raise StructuralError("density breaks and values must be lists of numbers") from None
        lo, hi = _DOMAIN[self.domain_class]
        if len(breaks) < 2:
            raise StructuralError("density needs at least two breakpoints")
        if breaks[0] != lo or breaks[-1] != hi:
            raise StructuralError(
                f"breakpoints must span [{lo}, {hi}] exactly, got "
                f"[{breaks[0]}, {breaks[-1]}]")
        if not all(b < c for b, c in zip(breaks, breaks[1:])):     # also rejects nan
            raise StructuralError("breakpoints must be strictly increasing")
        if len(values) != len(breaks) - 1:
            raise StructuralError(
                f"expected {len(breaks) - 1} segment values, got {len(values)}")
        if any(not (0.0 <= v <= 1.0) for v in values):
            raise StructuralError("density values must lie in [0, 1]")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, value: float, domain_class: str = SYMMETRIC) -> "HDensity":
        lo, hi = _DOMAIN.get(domain_class, (0.0, 1.0))
        return cls(domain_class, (lo, hi), (value,))

    @cached_property
    def _jumps(self) -> tuple[np.ndarray, np.ndarray]:
        """Breakpoints b_j and jumps w_j = h_{j-1} - h_j of h (zero off its
        domain), read-only. Summing by parts,
        sum_i h_i [G(b_{i+1}) - G(b_i)] = sum_j w_j G(b_j).
        """
        v = np.array((0.0, *self.values, 0.0))
        b, w = np.array(self.breaks), v[:-1] - v[1:]
        for a in (b, w):
            a.setflags(write=False)
        return b, w

    def value_at(self, x):
        """Segment value at each point of x (boundary points take the right segment)."""
        xs = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.breaks, xs, side="right") - 1,
                      0, len(self.values) - 1)
        return np.asarray(self.values, dtype=float)[idx]

    def to_json_dict(self) -> dict:
        return {"class": self.domain_class,
                "breaks": [float(b) for b in self.breaks],
                "values": [float(v) for v in self.values]}

    @classmethod
    def from_json_dict(cls, data) -> "HDensity":
        if not isinstance(data, dict) or not {"class", "breaks", "values"} <= set(data):
            raise StructuralError(
                'density JSON must be an object with "class", "breaks", "values"')
        return cls(data["class"], data["breaks"], data["values"])


def _as_positive_1d(t, name: str = "t") -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    elif arr.ndim != 1:
        raise StructuralError(f"{name} must be a scalar or 1-d array")
    # min and max propagate NaN, so these two tests also reject it
    if arr.size and not (arr.min() > 0.0 and arr.max() < np.inf):
        raise DomainError(f"{name} must consist of finite positive reals")
    return arr, scalar


def _require_class(h: HDensity, cls: str, op: str) -> None:
    if not isinstance(h, HDensity):
        raise StructuralError(f"{op} expects an HDensity, got {type(h).__name__}")
    if h.domain_class != cls:
        raise StructuralError(f'{op} expects a "{cls}" density, got "{h.domain_class}"')


def _realize_gamma(h: HDensity) -> float:
    """Exact limit at inf of the realize map t -> t f(1/t^2) of h's mean.

    With h_e the value next to u = 0 (the first segment of "sym", the last
    of "sa"), the map is C t^(1 - 2 h_e) (1 + o(1)): the bracket at b = 0
    gives h_e log(1/t^2) and the others constants. So the limit is inf for
    h_e < 1/2, 0 for h_e > 1/2 and C for h_e = 1/2, with jumps w_j at b_j:
      sym:  log C = sum over b_j > 0 of w_j (2 log(1 + b_j) - log b_j) - log 2
      sa:   log C = sum over b_j < 0 of w_j log(-b_j)
    """
    sym = h.domain_class == SYMMETRIC
    edge = h.values[0 if sym else -1]
    if edge != 0.5:
        return math.inf if edge < 0.5 else 0.0
    b, w = h._jumps
    if sym:
        b, w = b[b > 0.0], w[b > 0.0]
        return 0.5 * math.exp(float(np.sum(w * (2.0 * np.log1p(b) - np.log(b)))))
    b, w = b[b < 0.0], w[b < 0.0]
    return math.exp(float(np.sum(w * np.log(-b))))


def _weighted_rows(terms: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j terms[i, j] * w[j] per row i; unlike terms @ w, whose BLAS row
    blocking lets a point's value depend on the other points in the call."""
    return np.add.reduce(terms * w, axis=1)       # terms.sum(axis=1), without its wrapper


def _fold(ts: np.ndarray) -> np.ndarray:
    """x = min(t, 1/t), without forming the 1/t that overflows at subnormal t."""
    return np.minimum(ts, 1.0 / np.maximum(ts, 1.0))


def _symmetric_rep(ts, x, b, w) -> tuple:
    """f at ts, from the folded points x = min(ts, 1/ts), with its brackets
    x + b and 1 + x b (one row per point), which the jet reuses."""
    xc = x[:, None]
    plus, prod = xc + b, 1.0 + xc * b
    hv = _weighted_rows(np.log(plus * prod / ((1.0 + b) * (1.0 + b))), -w)
    return 0.5 * (1.0 + ts) * np.exp(hv), plus, prod


def _selfadjoint_rep(ts, up, x, b, w) -> tuple:
    """f at ts, from up = ts > 1 and the folded points x = min(ts, 1/ts),
    with its brackets x - b and 1 - x b (one row per point), which the jet
    reuses."""
    xc = x[:, None]
    minus, prod = xc - b, 1.0 - xc * b
    lv = _weighted_rows(np.log(minus / prod), w)
    return np.exp(np.where(up, -lv, lv)), minus, prod


def eval_symmetric_rep(h: HDensity, t):
    """Evaluate the symmetric-class representing function of h at t (> 0)."""
    _require_class(h, SYMMETRIC, "eval_symmetric_rep")
    ts, scalar = _as_positive_1d(t)
    f = _symmetric_rep(ts, _fold(ts), *h._jumps)[0]
    return float(f[0]) if scalar else f


def eval_selfadjoint_rep(h: HDensity, t):
    """Evaluate the self-adjoint-class representing function of h at t (> 0)."""
    _require_class(h, SELF_ADJOINT, "eval_selfadjoint_rep")
    ts, scalar = _as_positive_1d(t)
    f = _selfadjoint_rep(ts, ts > 1.0, _fold(ts), *h._jumps)[0]
    return float(f[0]) if scalar else f


def symmetric_rep_derivative(h: HDensity, t):
    """d/dt of the symmetric-class representing function of h."""
    return _symmetric_jet(h, t)[1]


def _symmetric_jet(h: HDensity, t):
    """(eval_symmetric_rep(h, t), symmetric_rep_derivative(h, t)) at one evaluation of f.

    With x = min(t, 1/t), d/dx log f(x) = 1/(1 + x) + h_0/x + P(x), where
    h_0/x is the bracket at b_0 = 0 and P sums the other breakpoints. With
    r = x/(1 + x) + x*P(x) that is (h_0 + r)/x, and for t > 1 the identity
    t*f(1/t) = f(t) turns it into x*((1 - h_0) - r), in which h_0 cancels
    exactly. P's brackets reuse the value's x + b and 1 + x b.
    """
    _require_class(h, SYMMETRIC, "symmetric_rep_derivative")
    ts, scalar = _as_positive_1d(t)
    x = _fold(ts)
    b, w = h._jumps
    f, plus, prod = _symmetric_rep(ts, x, b, w)
    h0 = h.values[0]
    r = x * (1.0 / (1.0 + x)
             + _weighted_rows(-1.0 / plus[:, 1:] - b[1:] / prod[:, 1:], w[1:]))
    up = ts > 1.0
    dlog = np.where(up, x * ((1.0 - h0) - r), (h0 + r) / (x * _SLOPE_SCALE))
    fprime = f * dlog * np.where(up, 1.0, _SLOPE_SCALE)
    return (float(f[0]), float(fprime[0])) if scalar else (f, fprime)


def selfadjoint_rep_derivative(h: HDensity, t):
    """d/dt of the self-adjoint-class representing function of h."""
    return _selfadjoint_jet(h, t)[1]


def _selfadjoint_jet(h: HDensity, t):
    """(eval_selfadjoint_rep(h, t), selfadjoint_rep_derivative(h, t)) at one evaluation of f.

    The bracket 1/(t - u) + u/(1 - t u) is summed as
    (1 - u^2)/((t - u)(1 - t u)), which has no cancellation for u <= 0 and
    reuses the value's t - u and 1 - t u. For t > 1, f(1/t)*f(t) = 1 gives
    d/dt log f(t) = x^2 L'(x) with x = 1/t; one factor x goes into each
    bracket, where it cancels the 1/x of u = 0, which overflows at the
    subnormal x of the largest t.
    """
    _require_class(h, SELF_ADJOINT, "selfadjoint_rep_derivative")
    ts, scalar = _as_positive_1d(t)
    x = _fold(ts)
    b, w = h._jumps
    up = ts > 1.0
    f, minus, prod = _selfadjoint_rep(ts, up, x, b, w)
    num = np.where(up, x, 1.0 / _SLOPE_SCALE)[:, None]
    dlog = _weighted_rows((1.0 - b * b) * num / (minus * prod), w)
    dlog = np.where(up, x * dlog, dlog)
    fprime = f * dlog * np.where(up, 1.0, _SLOPE_SCALE)
    return (float(f[0]), float(fprime[0])) if scalar else (f, fprime)


def _require_pair(hf: HDensity, hg: HDensity, op: str) -> None:
    if not isinstance(hf, HDensity) or not isinstance(hg, HDensity):
        raise StructuralError(f"{op} expects two HDensity values")
    if hf.domain_class != hg.domain_class:
        raise StructuralError(
            f"density class mismatch: {hf.domain_class!r} vs {hg.domain_class!r}")


def _merged_segments(hf: HDensity, hg: HDensity):
    cuts = np.array(sorted(set(hf.breaks) | set(hg.breaks)))
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    return cuts, np.diff(cuts), hf.value_at(mids), hg.value_at(mids)


def h_order(hf: HDensity, hg: HDensity) -> str:
    """Compare two densities pointwise and report the induced order on means.

    Returns one of "leq", "geq", "equal", "incomparable". The verdict is
    stated for the *means*: a larger density means a smaller mean in the
    symmetric class, and a larger mean in the self-adjoint class. Equality is
    up to disagreement sets of total length below 1e-12, which is exact in
    practice for piecewise-constant densities.
    """
    _require_pair(hf, hg, "h_order")
    _, lengths, vf, vg = _merged_segments(hf, hg)
    above = float(np.sum(lengths[vf > vg]))
    below = float(np.sum(lengths[vf < vg]))
    if above < _MEASURE_EPS and below < _MEASURE_EPS:
        return ORDER_EQUAL
    if below < _MEASURE_EPS:
        f_ge_density = True
    elif above < _MEASURE_EPS:
        f_ge_density = False
    else:
        return ORDER_INCOMPARABLE
    if hf.domain_class == SYMMETRIC:
        return ORDER_LEQ if f_ge_density else ORDER_GEQ
    return ORDER_GEQ if f_ge_density else ORDER_LEQ


def dagger_density(h: HDensity) -> HDensity:
    """Density of the adjoint mean: h maps to 1 - h (same class, same breaks).

    The adjoint of a representing function f is t/f(t); at the density level
    that flips every segment value through 1/2, so applying this twice gives
    the original density back and comparisons reverse direction.
    """
    if not isinstance(h, HDensity):
        raise StructuralError(f"dagger_density expects an HDensity, got {type(h).__name__}")
    return HDensity(h.domain_class, h.breaks,
                    tuple(1.0 - v for v in h.values))


def lattice_meet_join(hf: HDensity, hg: HDensity) -> tuple[HDensity, HDensity]:
    """Meet and join of the two means, computed on their densities.

    Orientation follows the class: in the symmetric class the meet (greatest
    lower bound of the means) is the pointwise maximum of the densities and
    the join the pointwise minimum; the self-adjoint class runs with the
    density, so the roles swap.
    """
    _require_pair(hf, hg, "lattice_meet_join")
    cuts, _, vf, vg = _merged_segments(hf, hg)
    hi = np.maximum(vf, vg)
    lo = np.minimum(vf, vg)
    if hf.domain_class == SYMMETRIC:
        meet_vals, join_vals = hi, lo
    else:
        meet_vals, join_vals = lo, hi
    meet = HDensity(hf.domain_class, tuple(cuts), tuple(meet_vals))
    join = HDensity(hf.domain_class, tuple(cuts), tuple(join_vals))
    return meet, join
