"""Exception hierarchy shared across the package, and the rules that the
library and the CLI both read outside numbers by: integers, reals, exact
rationals and arrays. A bool is no number under any of them, and a value
the cast cannot read, or one outside the range given with the read, is
an :class:`InvalidInputError` naming the field. Every array a caller
hands the pipeline is read once, by :func:`as_array`: no bool, every
entry finite and real where reals are read, and integral for integers.

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


def as_integer(value, what: str = "value", least: int | None = None) -> int:
    """``int(value)`` by :func:`_cast`, where a number with a fractional
    part, or one below ``least``, is rejected too. numpy integers,
    integral floats and integer strings pass."""
    out = _cast(int, value, what, "an integer")
    if not isinstance(value, str) and out != value:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}")
    if least is not None and out < least:
        raise InvalidInputError(f"{what} must be at least {least}, got {out}")
    return out


def as_real(value, what: str = "value", within: str | None = None) -> float:
    """``float(value)`` by :func:`_cast`, where a value outside the interval
    ``within`` is rejected too. The interval is written as the message
    prints it, ``"(0, inf)"`` or ``"[0, 1)"``: NaN is in none, and an open
    ``inf`` end rejects ``inf``."""
    out = _cast(float, value, what, "a real number")
    if within is not None:
        lo, hi = (float(end) for end in within[1:-1].split(", "))
        above = lo <= out if within[0] == "[" else lo < out
        below = out <= hi if within[-1] == "]" else out < hi
        if not (above and below):
            raise InvalidInputError(f"{what} must be in {within}, got {out}")
    return out


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


def as_array(value, what: str, dtype) -> np.ndarray:
    """``value`` as an array of ``dtype`` by :func:`_cast`, where a bool, a
    non-finite entry, a complex one for a real ``dtype`` or a fractional
    one for an integer ``dtype`` is rejected too. An ndarray tells bools by
    its dtype, a sequence by one scan (``[0.1, True]`` reads as floats). A
    numeric ndarray costs no per-entry Python work, nor a copy if of ``dtype``."""

    def read(v):
        if not isinstance(v, np.ndarray) or v.dtype == object:
            if any(isinstance(e, (bool, np.bool_)) for e in np.asarray(v, dtype=object).flat):
                raise TypeError("a bool is no number")
        raw = np.asarray(v)
        if raw.dtype.kind == "b" or (raw.dtype.kind == "c" and np.dtype(dtype).kind != "c"):
            raise TypeError("a bool is no number, and a complex number is no real one")
        return raw if raw.dtype.kind in "iufc" else raw.astype(dtype)  # objects, strings

    raw = _cast(read, value, what, "an array of numbers")
    if raw.dtype.kind in "fc" and not np.isfinite(raw).all():  # before a cast to integers
        raise InvalidInputError(f"{what} must have finite entries, got {raw[~np.isfinite(raw)][0]}")
    out = raw.astype(dtype, copy=False)
    if out is not raw and out.dtype.kind in "iu" and not np.array_equal(out, raw):
        raise InvalidInputError(f"{what} must have integer entries, got {raw[out != raw][0]}")
    return out
