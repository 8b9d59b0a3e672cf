"""Exception types shared across the solver modules."""


class MonoflowError(Exception):
    """Base class for failures raised by this package."""


class StationaryPoint(MonoflowError):
    """The query point already solves the inclusion to working tolerance."""

    def __init__(self, message, x=None, residual=None):
        super().__init__(message)
        self.x = x
        self.residual = residual


class BracketOverflow(MonoflowError):
    """Geometric bracketing failed to enclose the target after max doublings."""


class InnerSolverDiverged(MonoflowError):
    """An inner iterative solve exhausted its iteration budget."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class StepRejected(MonoflowError):
    """A flow step left the control law unsatisfied beyond tolerance."""

    def __init__(self, message, t=None, residual=None):
        super().__init__(message)
        self.t = t
        self.residual = residual


class CertificateViolation(MonoflowError):
    """A machine-checked step certificate failed; records holds the steps before it."""

    def __init__(self, message, k=None, certificate=None, records=None):
        super().__init__(message)
        self.k = k
        self.certificate = certificate
        self.records = records


class OracleFailure(MonoflowError):
    """An iteration oracle failed; carries the offending iteration index."""

    def __init__(self, message, k=None, records=None):
        super().__init__(message)
        self.k = k
        self.records = records


class WindowUnreachable(MonoflowError):
    """Step-size window search exhausted its bisection budget."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class SurrogateNonmonotone(MonoflowError):
    """A Taylor surrogate failed its monotonicity check on the search region."""


class UnknownSolutionSet(MonoflowError):
    """The metric needs a solution set the problem instance does not declare."""


class DomainUnbounded(MonoflowError):
    """The gap function is only defined over a bounded domain."""


class UnsupportedMetric(MonoflowError):
    """The metric has no certified route for this operator structure."""


class InsufficientPoints(MonoflowError):
    """Too few usable points remain in the tail window to fit a rate."""


class ConfigError(MonoflowError):
    """An experiment configuration violates a declared invariant."""
