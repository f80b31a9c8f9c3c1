"""Exception hierarchy shared by all levylab modules."""


class LevylabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LevylabError):
    """An input violates a documented invariant or precondition."""


class ConfigurationError(LevylabError):
    """A run configuration is inconsistent or exceeds resource caps."""


class RangeError(LevylabError):
    """A query lies outside the domain covered by the data."""


class QuadratureError(LevylabError):
    """Adaptive quadrature could not meet its tolerance.

    Raised when QUADPACK flags a failure (subdivision limit, roundoff,
    divergence) and its error estimate exceeds ten times the requested
    tolerance, or when a row of the batched Gauss-Legendre rule has not
    converged at its panel cap.  ``estimate`` is the best value reached,
    ``error`` QUADPACK's error estimate for it (None from the batched rule),
    and ``tolerance`` the tolerance it was held to
    (``tol_abs + tol_rel * |estimate|``).
    """

    def __init__(self, message, estimate=None, error=None, tolerance=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error
        self.tolerance = tolerance


class SchemeStepError(LevylabError):
    """A simulation step cannot be carried out with the given parameters."""


class WindowEdgeError(SchemeStepError):
    """A path reached the edge of a potential window that is not its domain."""


class PotentialOverflowError(LevylabError):
    """An exponential-integral window overflows double precision."""


class ExpressionError(ValidationError):
    """The coefficient expression mini-language rejected its input."""
