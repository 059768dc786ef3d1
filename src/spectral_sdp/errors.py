"""Exception hierarchy shared across the package, and the rules that the
library and the CLI both read outside numbers by: integers, reals and
exact rationals. A bool is no number under any of them, and a value the
cast cannot read is an :class:`InvalidInputError` naming the field.

The CLI maps these onto exit codes: bad inputs exit 1, numerical
non-convergence exits 2, internal invariant violations exit 3.
"""

from fractions import Fraction

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


def _cast(cast, value, what: str, kind: str):
    """``cast(value)``, where a bool (JSON's ``true`` is no 1) or a value
    ``cast`` cannot read raises :class:`InvalidInputError` naming ``what``."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError("a bool is no number")
        return cast(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InvalidInputError(f"{what} must be {kind}, got {value!r}") from exc


def as_integer(value, what: str = "value") -> int:
    """``int(value)`` by :func:`_cast`, where a number with a fractional
    part is rejected too. numpy integers, integral floats and integer
    strings pass."""
    out = _cast(int, value, what, "an integer")
    if not isinstance(value, str) and out != value:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}")
    return out


def as_real(value, what: str = "value") -> float:
    """``float(value)`` by :func:`_cast`; range checks are the caller's."""
    return _cast(float, value, what, "a real number")


def as_fraction(value, what: str = "value") -> Fraction:
    """``Fraction(value)`` by :func:`_cast`, for a value a float can also
    hold (sample times and rates are computed in floats downstream). A
    float is rejected rather than read: grid existence is an exact
    integrality condition that rounding would make ill-defined."""
    if isinstance(value, float):
        raise InvalidInputError(
            f"{what} must be exact (int, Fraction, or 'num/den' string), got float {value!r}"
        )
    out = _cast(Fraction, value, what, "a number")
    try:
        float(out)
    except OverflowError as exc:
        raise InvalidInputError(f"{what} is beyond float range") from exc
    return out
