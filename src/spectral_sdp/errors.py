"""Exception hierarchy shared across the package, and the integer rule
that the library and the CLI both read integer inputs by.

The CLI maps these onto exit codes: bad inputs exit 1, numerical
non-convergence exits 2, internal invariant violations exit 3.
"""

import numpy as np


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


def as_integer(value, what: str = "value") -> int:
    """``int(value)``, where a bool, a number with a fractional part or a
    value ``int`` cannot read raises :class:`InvalidInputError` naming
    ``what``. numpy integers, integral floats and integer strings pass."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}") from exc
    if isinstance(value, (bool, np.bool_)) or (not isinstance(value, str) and out != value):
        raise InvalidInputError(f"{what} must be an integer, got {value!r}")
    return out
