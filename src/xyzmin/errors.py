"""Exception types shared across the package."""


class StateInvalid(ValueError):
    """Raised when a matrix fails the density-matrix checks (trace, Hermiticity, positivity)."""


class NotDiagonalCorrelation(ValueError):
    """Raised when the trace-distance closed formula is applied outside its X-state domain."""


class ConventionMismatch(RuntimeError):
    """Raised when the printed fidelity formula disagrees with the definition-based value."""


class DomainError(ValueError):
    """Raised when a closed formula is evaluated at a degenerate parameter point."""


class OracleInconsistent(RuntimeError):
    """Raised when the oracle's grid search of a definition exceeds the exact maximum it checks."""
