"""Exception types shared across the package.

Every failure mode callers are expected to distinguish gets its own class;
all of them derive from :class:`OpmeansError` so blanket handling stays easy.
"""


class OpmeansError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(OpmeansError):
    """Malformed input: wrong shape, broken invariant, bad parameter."""


class DomainError(OpmeansError):
    """A scalar function was evaluated outside its domain."""


class OrderError(OpmeansError):
    """A required Loewner or scalar ordering between inputs does not hold."""


class OutOfRangeError(OpmeansError):
    """A target value lies outside the range a construction can realize."""


class UnsupportedMeanError(OpmeansError):
    """The requested operation is undefined for this mean."""


class ConditioningError(OpmeansError):
    """Numerical conditioning exceeded the contract of a solver."""


class ConvergenceError(OpmeansError):
    """An iterative routine failed to reach its tolerance."""


class UsageError(OpmeansError):
    """Bad command-line arguments or malformed input files."""


# The errors of a scalar function f that mean "f is undefined there": the
# sampled checks skip the point set or pair, apply_spectral_function and a
# parsed function raise DomainError. A complex value fails float() with a
# TypeError; any other error of f is a fault and propagates.
DOMAIN_ERRORS = (DomainError, ArithmeticError, ValueError, TypeError)
