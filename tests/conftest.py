"""Shared helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from spectral_sdp import (
    Grid,
    MultirateSystem,
    ProblemSpec,
    SelectionPattern,
    SpikeSpectrum,
    torus_separation,
)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def random_pattern(rng: np.random.Generator, n: int, admissible: bool = False) -> SelectionPattern:
    density = rng.uniform(0.2, 0.9)
    keep = np.flatnonzero(rng.random(n) < density)
    if keep.size == 0:
        keep = np.array([rng.integers(n)])
    idx = set(int(i) for i in keep)
    if admissible:
        idx.add(0)
    return SelectionPattern(indices=tuple(sorted(idx)), ambient=n)


def random_complex(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def separated_freqs(rng: np.random.Generator, s: int, min_sep: float) -> np.ndarray:
    """Random points of [0, 1) with pairwise wrap-around distance >= min_sep."""
    while True:
        fr = np.sort(rng.random(s))
        if s < 2 or torus_separation(fr) >= min_sep:
            return fr


def random_spike_spectrum(
    rng: np.random.Generator, s: int, min_sep: float, amp_low: float = 0.5
) -> SpikeSpectrum:
    freqs = separated_freqs(rng, s, min_sep)
    amps = (amp_low + rng.random(s)) * np.exp(2j * np.pi * rng.random(s))
    return SpikeSpectrum(freqs=freqs, amps=amps)


def triangle_of(mat, spec: ProblemSpec) -> np.ndarray:
    """The solver's triangle (:attr:`ProblemSpec.triangle`) of a dense
    (m+1) x (m+1) matrix."""
    return np.asarray(mat, dtype=complex).ravel()[spec.triangle[0]]


def lagrangian_c(c, y, z, lam, rho, tau):
    """Border part of the augmented Lagrangian as a function of c."""
    return float(
        -np.real(y @ c)
        + 0.5 * tau * np.linalg.norm(c) ** 2
        + 2.0 * np.real(np.vdot(lam, z - c))
        + rho * np.linalg.norm(z - c) ** 2
    )


def lagrangian_block(s_block, z0_block, lam0_block, rho):
    """One block of the augmented Lagrangian as a function of its S entries."""
    return float(
        np.real(np.vdot(lam0_block, z0_block - s_block))
        + 0.5 * rho * np.linalg.norm(z0_block - s_block) ** 2
    )


def on_block_sum_set(objective, point):
    """``objective`` read along the block-sum affine set through ``point``:
    a perturbation ``v - point`` is first projected to zero sum."""
    return lambda v: objective(point + (v - point) - np.mean(v - point))


@pytest.fixture
def two_grid_system() -> MultirateSystem:
    """Two samplers at 2 Hz and 3 Hz, the second advanced by half a sample.

    Its minimal common grid has 13 points at 6 Hz with 9 net observations
    on indices {0,1,3,5,6,7,9,11,12}; the reference values for several
    tests."""
    return MultirateSystem(
        grids=(
            Grid(f=Fraction(2), gamma=Fraction(0), n=5),
            Grid(f=Fraction(3), gamma=Fraction(-1, 2), n=6),
        )
    )
