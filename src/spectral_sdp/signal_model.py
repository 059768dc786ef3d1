"""Spike spectra, uniform/delayed sample synthesis, noise, torus separation.

Frequencies are stored in Hz next to the sampling frequency of whatever
grid observes them; reduced frequencies ``xi / f`` are computed on demand
and never stored, to keep units unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, as_array, as_integer, as_real

#: Algorithm name of the pseudo-random generator, recorded in output
#: metadata so runs are reproducible across implementations.
RNG_ALGORITHM = "numpy.random.PCG64"


@dataclass(frozen=True)
class SpikeSpectrum:
    """A sum of ``s`` complex exponentials.

    ``freqs`` are the spike frequencies in Hz (finite, strictly increasing),
    ``amps`` the finite nonzero complex amplitudes.
    """

    freqs: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        freqs = as_array(self.freqs, "freqs", float)
        amps = as_array(self.amps, "amps", complex)
        if freqs.ndim != 1 or freqs.size == 0:
            raise InvalidInputError("freqs must be a nonempty 1-d array")
        if amps.shape != freqs.shape:
            raise InvalidInputError("freqs and amps must have equal length")
        if not (np.all(np.isfinite(freqs)) and np.all(np.isfinite(amps))):
            raise InvalidInputError("freqs and amps must be finite")
        if np.any(np.diff(freqs) <= 0):
            raise InvalidInputError("freqs must be strictly increasing")
        if np.any(amps == 0):
            raise InvalidInputError("amplitudes must be nonzero")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "amps", amps)

    @property
    def s(self) -> int:
        return self.freqs.size


@dataclass(frozen=True)
class NoiseSpec:
    """Circularly-symmetric complex Gaussian noise of per-sample variance sigma^2."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sigma", as_real(self.sigma, "sigma", "[0, inf)"))
        object.__setattr__(self, "seed", as_integer(self.seed, "noise seed", least=0))


def synthesize_uniform(spec: SpikeSpectrum, f: float, n: int) -> np.ndarray:
    """Samples ``y[k] = sum_r a_r e^{i 2 pi (xi_r / f) k}`` for k = 0..n-1."""
    f = as_real(f, "sampling frequency", "(0, inf)")
    n = as_integer(n, "n", least=1)
    k = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(k, spec.freqs / f))
    return phases @ spec.amps


def synthesize_grid(spec: SpikeSpectrum, grid) -> np.ndarray:
    """Samples of a delayed uniform grid: ``y[k] = sum_r a_r e^{i 2 pi (xi_r/f)(k - gamma)}``.

    ``grid`` is a :class:`spectral_sdp.multirate.Grid`; its exact rational
    rate and delay are converted to float here.
    """
    f = float(grid.f)
    gamma = float(grid.gamma)
    if f <= 0:
        raise InvalidInputError(f"sampling frequency must be positive, got {f}")
    k = np.arange(grid.n) - gamma
    phases = np.exp(2j * np.pi * np.outer(k, spec.freqs / f))
    return phases @ spec.amps


def torus_separation(reduced_freqs: np.ndarray) -> float:
    """Minimal wrap-around distance between points of the unit torus [0, 1).

    Needs at least two points; coinciding points give separation 0.
    """
    pts = np.sort(np.mod(np.asarray(reduced_freqs, dtype=float), 1.0))
    if pts.size < 2:
        raise InvalidInputError("torus separation needs at least 2 points")
    gaps = np.diff(pts)
    wrap = pts[0] + 1.0 - pts[-1]
    return float(min(gaps.min(), wrap))


def add_noise(y: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """Add i.i.d. complex Gaussian noise, variance ``sigma^2`` per sample.

    Real and imaginary parts are each N(0, sigma^2 / 2). Deterministic for
    a fixed seed (generator: PCG64).
    """
    y = np.asarray(y, dtype=complex)
    if noise.sigma == 0:
        return y.copy()
    rng = np.random.default_rng(noise.seed)
    scale = noise.sigma / np.sqrt(2.0)
    w = rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)
    return y + scale * w
