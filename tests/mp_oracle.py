"""A 50-digit oracle for the package's witnesses, sharing no arithmetic with it.

Each function takes the mpmath module as its first argument, so that a test
module can import this one whether or not mpmath is installed and skip with
pytest.importorskip("mpmath") where it needs it. Matrices enter as their
float entries, taken exactly; every means, matrix function and eigenvalue
after that is computed by mpmath at 50 significant digits.
"""

DIGITS = 50


def mp_mean(mpmath, a, b, f):
    """A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2} at mpmath's working precision,
    from the float entries of a and b taken exactly."""
    w, v = mpmath.eigsy(mpmath.matrix(a.tolist()))
    root = v * mpmath.diag([mpmath.sqrt(x) for x in w]) * v.T
    inv_root = v * mpmath.diag([1 / mpmath.sqrt(x) for x in w]) * v.T
    lam, u = mpmath.eigsy(inv_root * mpmath.matrix(b.tolist()) * inv_root)
    c = root * u
    return c * mpmath.diag([f(x) for x in lam]) * c.T


def mp_representing(mpmath, mean):
    """The representing function of an arithmetic, harmonic, geometric, Heinz
    or Heron MeanDescriptor, on mpf values."""
    s = mean.param
    return {"arithmetic": lambda t: (1 + t) / 2,
            "harmonic": lambda t: 2 * t / (1 + t),
            "geometric": mpmath.sqrt,
            "heinz": lambda t: (t ** s + t ** (1 - s)) / 2,
            "heron": lambda t: s * (1 + t) / 2 + (1 - s) * mpmath.sqrt(t)}[mean.kind]


def _min_eigenvalue_and_norm(mpmath, m):
    return min(mpmath.eigsy(m, eigvals_only=True)), mpmath.mnorm(m, "f")


def loewner_min_eigenvalue(mpmath, witness, f):
    """(min eigenvalue, Frobenius norm) of the Loewner matrix of f over a
    LoewnerWitness's points: divided differences off the diagonal and
    mpmath.diff's derivative on it."""
    with mpmath.workdps(DIGITS):
        x = [mpmath.mpf(p) for p in witness.points]
        n = len(x)
        m = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                m[i, j] = (mpmath.diff(f, x[i]) if i == j
                           else (f(x[i]) - f(x[j])) / (x[i] - x[j]))
        return _min_eigenvalue_and_norm(mpmath, m)


def transfer_min_eigenvalue(mpmath, witness, f, sigma, tau):
    """(min eigenvalue, Frobenius norm) of D = f(A tau B) - f(A sigma B) for
    a TransferWitness (A, B): both means and f of each recomputed."""
    with mpmath.workdps(DIGITS):
        images = []
        for mean in (sigma, tau):
            w, v = mpmath.eigsy(mp_mean(mpmath, witness.matrix_a, witness.matrix_b,
                                        mp_representing(mpmath, mean)))
            images.append(v * mpmath.diag([f(x) for x in w]) * v.T)
        return _min_eigenvalue_and_norm(mpmath, images[1] - images[0])
