"""Exception types shared across the package.

Every error a caller can act on gets its own class; the CLI maps any
NellipticError to exit code 3 with a machine-readable error record.
"""


class NellipticError(Exception):
    """Base class for all package errors."""


class InvalidInputError(NellipticError):
    """Non-finite or dimensionally inconsistent input."""


class ParameterError(NellipticError):
    """Parameter outside its admissible range (e.g. lambda > Lambda)."""


class SingularEvaluationError(NellipticError):
    """Operator evaluation hit a singularity (e.g. sigma_l = 0 in a quotient).

    In a batched evaluation, index is the flat (C-order) position of the
    first singular jet."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ProbeDomainError(NellipticError):
    """Ellipticity probe failed to evaluate the operator inside the probe set."""

    def __init__(self, message, jet=None):
        super().__init__(message)
        self.jet = jet


class RankError(NellipticError):
    """Degenerate sample geometry: the fit/ellipsoid problem is rank deficient."""


class ConstraintInfeasibleError(NellipticError):
    """No root of the t*I compatibility correction inside the search bracket."""


class AnisotropyError(NellipticError):
    """Coefficient matrix violates the monotonicity condition of the stencil."""


class IterationLimitError(NellipticError):
    """Iterative solve did not reach the residual target."""

    def __init__(self, message, residual=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.history = history or []


class AdmissibilityError(NellipticError):
    """Data outside the admissible set of the equation (e.g. f <= 0 for det)."""


class SmallDataError(NellipticError):
    """Input exceeds the small-data guard of the mean-curvature solver."""


class SectionEscapeError(NellipticError):
    """A sublevel section reached the domain boundary before closing."""


class NonConvexityError(NellipticError):
    """Convexity precondition violated (detected during ray bisection)."""


class SingularityError(NellipticError):
    """Requested derivatives at a point of the declared singular set."""


class InsufficientDataError(NellipticError):
    """Too few usable scales/samples for the requested estimate."""
