"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: bad inputs exit 1, numerical
non-convergence exits 2, internal invariant violations exit 3.
"""


class SpectralSDPError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(SpectralSDPError, ValueError):
    """An argument violates a documented precondition."""


class DimensionMismatchError(InvalidInputError):
    """Array shapes are incompatible for the requested operation."""


class NumericalError(SpectralSDPError, RuntimeError):
    """A floating-point computation produced inconsistent results."""


class ConditioningError(NumericalError):
    """A linear system is too ill-conditioned to solve reliably."""


class InvariantViolationError(SpectralSDPError, RuntimeError):
    """An internal consistency check failed; indicates a bug."""


class LocalizationError(SpectralSDPError, RuntimeError):
    """Frequency localization failed (degenerate or overcrowded dual)."""
