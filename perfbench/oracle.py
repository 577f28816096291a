"""Reference computations the benchmark checks the package against.

Everything here is independent of opmeans: eigendecompositions come from
numpy.linalg.eigh, density representations from their closed-form
antiderivatives (cross-checked against scipy.integrate.quad), and solver
residuals are recomputed from scratch rather than through the package's own
eval_mean. None of it runs inside a timed region.
"""
from __future__ import annotations

import math

import numpy as np

DIGITS_CAP = 16.0
MEAN_TOL = 1e-8        # mean values and representation values, relative
RESIDUAL_TOL = 1e-7    # solver residuals, relative
MARGIN_TOL = 1e-8      # Loewner margins, relative to max(1, ||difference||)


def digits(rel_err: float) -> float:
    """-log10 of a relative error, capped at DIGITS_CAP (exact reads as the cap)."""
    if not math.isfinite(rel_err):
        return 0.0
    if rel_err <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return max(0.0, min(DIGITS_CAP, -math.log10(rel_err)))


def sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def spectral(m: np.ndarray, g) -> np.ndarray:
    w, u = np.linalg.eigh(sym(m))
    return sym((u * g(w)) @ u.T)


def min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(sym(m))[0])


def rel_diff(got, want) -> float:
    want = np.asarray(want, dtype=float)
    scale = float(np.linalg.norm(want))
    err = float(np.linalg.norm(np.asarray(got, dtype=float) - want))
    return err / scale if scale > 0.0 else err


# ------------------------------------------------------------ representations

def catalog(kind: str, param=None):
    """Vectorized representing function of a catalog mean."""
    if kind == "arithmetic":
        return lambda t: 0.5 * (1.0 + t)
    if kind == "harmonic":
        return lambda t: 2.0 * t / (1.0 + t)
    if kind == "geometric":
        return np.sqrt
    if kind == "wgeo":
        return lambda t: t ** param
    if kind == "heinz":
        return lambda t: 0.5 * (t ** param + t ** (1.0 - param))
    if kind == "heron":
        return lambda t: param * 0.5 * (1.0 + t) + (1.0 - param) * np.sqrt(t)
    raise ValueError(f"unknown mean kind {kind!r}")


def _segments(density: dict):
    b = np.asarray(density["breaks"], dtype=float)
    return b[:-1], b[1:], np.asarray(density["values"], dtype=float)


def density_log_rep(density: dict, t):
    """log f(t) and d/dt log f(t) of a step density, from the antiderivatives.

    sym: K(t,u) = 2/(1+u) - 1/(t+u) - t/(1+tu), so the u-antiderivative is
         log((1+u)^2 / ((t+u)(1+tu))) and that of dK/dt is
         -1/(t+u) + 1/(t(1+tu)); log f = log((1+t)/2) + H(t).
    sa:  k(t,u) = 1/(u-t) + t/(1-ut), antiderivative log(t-u) - log(1-tu);
         dk/dt integrates to -1/(u-t) + 1/(t(1-ut)); log f = L(t).
    """
    t = np.asarray(t, dtype=float)[..., None]
    lo, hi, h = _segments(density)
    if density["class"] == "sym":
        def prim(u):
            return 2.0 * np.log1p(u) - np.log(t + u) - np.log1p(t * u)

        def dprim(u):
            return -1.0 / (t + u) + 1.0 / (t * (1.0 + t * u))
        base = np.log(0.5 * (1.0 + t[..., 0]))
        dbase = 1.0 / (1.0 + t[..., 0])
    else:
        def prim(u):
            return np.log(t - u) - np.log1p(-t * u)

        def dprim(u):
            return -1.0 / (u - t) + 1.0 / (t * (1.0 - t * u))
        base = 0.0
        dbase = 0.0
    logf = base + np.sum(h * (prim(hi) - prim(lo)), axis=-1)
    dlogf = dbase + np.sum(h * (dprim(hi) - dprim(lo)), axis=-1)
    return logf, dlogf


def density_rep(density: dict):
    """Vectorized representing function of a density-generated mean."""
    return lambda t: np.exp(density_log_rep(density, t)[0])


def density_rep_and_slope(density: dict, t):
    logf, dlogf = density_log_rep(density, t)
    f = np.exp(logf)
    return f, f * dlogf


def density_rep_by_quad(density: dict, t: float) -> float:
    """The same representing function by adaptive quadrature of the kernel."""
    from scipy.integrate import quad

    lo, hi, h = _segments(density)
    if density["class"] == "sym":
        def kernel(u):
            return ((u * u - 1.0) * (1.0 - t) ** 2
                    / ((t + u) * (1.0 + t * u) * (1.0 + u) ** 2))
        base = math.log(0.5 * (1.0 + t))
    else:
        def kernel(u):
            return 1.0 / (u - t) + t / (1.0 - u * t)
        base = 0.0
    total = sum(v * quad(kernel, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                for a, b, v in zip(lo, hi, h) if v)
    return math.exp(base + total)


def density_order(hf: dict, hg: dict) -> str:
    """The mean order implied by pointwise comparison of two step densities."""
    cuts = np.array(sorted(set(hf["breaks"]) | set(hg["breaks"])))
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    lengths = np.diff(cuts)
    vf = step_values(hf, mids)
    vg = step_values(hg, mids)
    above = float(np.sum(lengths[vf > vg]))
    below = float(np.sum(lengths[vf < vg]))
    if above < 1e-12 and below < 1e-12:
        return "equal"
    if above >= 1e-12 and below >= 1e-12:
        return "incomparable"
    f_ge = below < 1e-12
    if hf["class"] == "sym":
        return "leq" if f_ge else "geq"
    return "geq" if f_ge else "leq"


def step_values(density: dict, x) -> np.ndarray:
    b = density["breaks"]
    idx = np.clip(np.searchsorted(b, x, side="right") - 1, 0, len(density["values"]) - 1)
    return np.asarray(density["values"], dtype=float)[idx]


# --------------------------------------------------------------- matrix means

def mean(a: np.ndarray, b: np.ndarray, f) -> np.ndarray:
    """A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2} with eigh throughout."""
    w, u = np.linalg.eigh(sym(a))
    r = np.sqrt(w)
    root = sym((u * r) @ u.T)
    inv_root = sym((u / r) @ u.T)
    inner = spectral(inv_root @ b @ inv_root, f)
    return sym(root @ inner @ root)


def pair_residuals(a, b, x, y, f_x, f_y) -> tuple[float, float]:
    """Relative residuals of mean_fx(A, B) = X and mean_fy(A, B) = Y."""
    return rel_diff(mean(a, b, f_x), x), rel_diff(mean(a, b, f_y), y)


# -------------------------------------------------------------- random inputs

def random_spd(rng: np.random.Generator, n: int, cond_cap: float = 100.0) -> np.ndarray:
    """Random SPD matrix with eigenvalues log-uniform in [1, cond_cap].

    Draws from the stream in the same order as opmeans.spd.random_spd_from,
    so the oracle can replay the pairs a seeded package routine sampled.
    """
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    lam = (np.exp(rng.uniform(0.0, math.log(cond_cap), size=n))
           if cond_cap > 1.0 else np.ones(n))
    return sym((q * lam) @ q.T)


def spd_bump(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return scale * (g @ g.T) / n


# ------------------------------------------------------------ known functions

def loewner_min_eig(points, f) -> tuple[float, float]:
    """Smallest eigenvalue and Frobenius norm of the exact Loewner matrix of f.

    f is given with its derivative as (f, fprime), both vectorized.
    """
    fn, fprime = f
    x = np.asarray(points, dtype=float)
    fx = fn(x)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    mat = (fx[:, None] - fx[None, :]) / dx
    np.fill_diagonal(mat, fprime(x))
    mat = sym(mat)
    return min_eig(mat), float(np.linalg.norm(mat))


def ka_margins(pairs, w: float) -> float:
    """Worst normalized margin of G(A #_w B, A #_{1-w} B) <= A # B."""
    geo = catalog("geometric")
    worst = math.inf
    for a, b in pairs:
        lo = mean(a, b, catalog("wgeo", w))
        hi = mean(a, b, catalog("wgeo", 1.0 - w))
        d = mean(a, b, geo) - mean(lo, hi, geo)
        worst = min(worst, min_eig(d) / max(1.0, float(np.linalg.norm(d))))
    return 0.0 if math.isinf(worst) else worst


def chain_link_margins(a, b, s: float) -> dict:
    """Min eigenvalue of each link difference of the Heinz inequality chain."""
    w, u = np.linalg.eigh(sym(a))
    root = sym((u * np.sqrt(w)) @ u.T)
    inv_root = sym((u / np.sqrt(w)) @ u.T)
    ev, v = np.linalg.eigh(sym(inv_root @ b @ inv_root))
    harm = 2.0 * ev / (1.0 + ev)
    geo = np.sqrt(ev)
    heinz = 0.5 * (ev ** s + ev ** (1.0 - s))
    arith = 0.5 * (1.0 + ev)
    alpha2 = (2.0 * s - 1.0) ** 2
    heron = alpha2 * arith + (1.0 - alpha2) * geo
    out = {}
    for name, lo, hi in (("harmonic<=heinz", harm, heinz),
                         ("geometric<=heinz", geo, heinz),
                         ("heinz<=heron", heinz, heron),
                         ("heron<=arithmetic", heron, arith),
                         ("heinz<=arithmetic", heinz, arith)):
        d = sym(root @ sym((v * (hi - lo)) @ v.T) @ root)
        out[name] = min_eig(d)
    return out
