"""Exception taxonomy shared across the toolkit."""


class FracdecayError(Exception):
    """Base class for all toolkit errors."""


class DomainError(FracdecayError):
    """An argument lies outside the mathematical domain of an operation."""


class InadmissibleParams(FracdecayError):
    """Kilbas-Saigo indices hit a pole of the Gamma ratios."""


class NonConvergence(FracdecayError):
    """A series truncation budget was exhausted before the tolerance was met."""


class GridMismatch(FracdecayError):
    """Sample array does not line up with the time grid."""


class RootSolveFailure(FracdecayError):
    """The per-step scalar root solve could not be bracketed or converged."""


class QuadratureUnderResolved(FracdecayError):
    """Parseval defect of a projection exceeds the resolution guard."""


class NonpositivePrimitive(FracdecayError):
    """The coefficient primitive integral is not positive for t > 0."""


class NonFiniteState(FracdecayError):
    """A spatial field contains NaN or infinite entries."""


class StepDivergence(FracdecayError):
    """The fixed-point sweep of a semi-implicit step failed to contract."""


class PositivityLoss(FracdecayError):
    """A run that requires a nonnegative state produced negative values."""


class DegenerateTrace(FracdecayError):
    """An energy trace has too little usable signal to fit."""


class AmbiguousFit(FracdecayError):
    """Two decay models explain the trace equally well."""


class ConfigError(FracdecayError):
    """An experiment configuration is malformed or breaks a precondition."""
