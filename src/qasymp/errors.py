"""Exception types shared across the package, and the range checks they share."""


class QAsympError(Exception):
    """Base class for all package-specific errors."""


class InvertAtZero(QAsympError):
    """Series inversion requested but the lowest stored coefficient is zero."""


class SeriesTruncationError(QAsympError):
    """A coefficient beyond the truncation order was read."""


class InvalidK(QAsympError):
    """k < 2 passed to an operation defined only for k >= 2."""


def check_k(k: int) -> None:
    """Raise InvalidK unless k >= 2."""
    if k < 2:
        raise InvalidK(f"k must be >= 2, got {k}")


def check_at_least(value: int, lo: int, name: str) -> None:
    """Raise ValueError("<name> must be >= <lo>") unless value >= lo."""
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}")


class InvalidRho(QAsympError):
    """rho outside the validity range of the requested expansion."""


class NonConvergent(QAsympError):
    """A numeric sum or product cannot converge for the given arguments."""


class TermCapExceeded(QAsympError):
    """A sum or product loop reached EvalConfig.max_terms, the class-wide term cap,
    before its tail threshold."""


class PoleAtNonpositive(QAsympError):
    """(q;q)_x evaluated at a pole (some q^{x+1+m} = 1)."""


class ReconstructionFailed(QAsympError):
    """Continued-fraction rational reconstruction failed (insufficient precision)."""


class DivisionByZeroBeta(QAsympError):
    """Ratio of Puiseux coefficients requested with a vanishing denominator."""
