"""Spike synthesis, noise injection, and the torus separation metric."""

from fractions import Fraction

import numpy as np
import pytest

from spectral_sdp import (
    Grid,
    InvalidInputError,
    NoiseSpec,
    SpikeSpectrum,
    add_noise,
    synthesize_grid,
    synthesize_uniform,
    torus_separation,
)


class TestSpikeSpectrum:
    def test_validates_ordering(self):
        with pytest.raises(InvalidInputError):
            SpikeSpectrum(freqs=np.array([0.3, 0.1]), amps=np.array([1.0, 1.0]))

    def test_rejects_zero_amplitude(self):
        with pytest.raises(InvalidInputError):
            SpikeSpectrum(freqs=np.array([0.1, 0.2]), amps=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_frequency(self, bad):
        with pytest.raises(InvalidInputError):
            SpikeSpectrum(freqs=np.array([0.1, bad]), amps=np.array([1.0, 1.0]))
        with pytest.raises(InvalidInputError):
            SpikeSpectrum(freqs=np.array([bad]), amps=np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf), complex(1.0, np.nan)])
    def test_rejects_non_finite_amplitude(self, bad):
        with pytest.raises(InvalidInputError):
            SpikeSpectrum(freqs=np.array([0.1, 0.2]), amps=np.array([1.0, bad]))

    def test_s_counts_spikes(self):
        spec = SpikeSpectrum(freqs=np.array([0.1, 0.2]), amps=np.array([1.0, 2.0]))
        assert spec.s == 2


class TestSynthesizeUniform:
    def test_dc_atom(self):
        spec = SpikeSpectrum(freqs=np.array([0.0]), amps=np.array([1.0]))
        assert np.allclose(synthesize_uniform(spec, 8.0, 4), np.ones(4))

    def test_quarter_rate_atom(self):
        spec = SpikeSpectrum(freqs=np.array([2.0]), amps=np.array([1.0]))
        assert np.allclose(synthesize_uniform(spec, 8.0, 4), [1, 1j, -1, -1j])

    def test_dc_plus_half_rate(self):
        spec = SpikeSpectrum(freqs=np.array([0.0, 4.0]), amps=np.array([1.0, 1.0]))
        assert np.allclose(synthesize_uniform(spec, 8.0, 4), [2, 0, 2, 0])

    def test_rejects_nonpositive_rate(self):
        spec = SpikeSpectrum(freqs=np.array([0.1]), amps=np.array([1.0]))
        with pytest.raises(InvalidInputError):
            synthesize_uniform(spec, 0.0, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rate(self, bad):
        # NaN would give NaN samples, and inf a constant signal of ones.
        spec = SpikeSpectrum(freqs=np.array([0.1]), amps=np.array([1.0]))
        with pytest.raises(InvalidInputError):
            synthesize_uniform(spec, bad, 4)

    def test_aliasing_invariance_modulo_rate(self):
        rng = np.random.default_rng(0)
        f = 5.0
        freqs = np.sort(rng.random(3)) * f
        amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = synthesize_uniform(SpikeSpectrum(freqs=freqs, amps=amps), f, 16)
        b = synthesize_uniform(SpikeSpectrum(freqs=freqs + f, amps=amps), f, 16)
        assert np.allclose(a, b, atol=1e-12)

    def test_linearity_over_spectra(self):
        rng = np.random.default_rng(1)
        f, n = 3.0, 12
        s1 = SpikeSpectrum(freqs=np.array([0.2, 0.9]), amps=np.array([1 + 1j, 2.0]))
        s2 = SpikeSpectrum(freqs=np.array([1.4, 2.2]), amps=np.array([-1j, 0.5]))
        union = SpikeSpectrum(
            freqs=np.concatenate([s1.freqs, s2.freqs]),
            amps=np.concatenate([s1.amps, s2.amps]),
        )
        assert np.allclose(
            synthesize_uniform(union, f, n),
            synthesize_uniform(s1, f, n) + synthesize_uniform(s2, f, n),
        )


class TestSynthesizeGrid:
    def test_zero_delay_matches_uniform(self):
        spec = SpikeSpectrum(freqs=np.array([0.7, 1.3]), amps=np.array([1.0, 1j]))
        grid = Grid(f=Fraction(4), gamma=Fraction(0), n=9)
        assert np.allclose(
            synthesize_grid(spec, grid), synthesize_uniform(spec, 4.0, 9)
        )

    def test_rate_frequency_aliases_to_constant_phase(self):
        # xi = f puts e^{i 2 pi (k - gamma)} = e^{-i 2 pi gamma} for integer k.
        spec = SpikeSpectrum(freqs=np.array([4.0]), amps=np.array([1.0]))
        grid = Grid(f=Fraction(4), gamma=Fraction(1, 3), n=6)
        out = synthesize_grid(spec, grid)
        assert np.allclose(out, np.exp(-2j * np.pi / 3))

    def test_coinciding_instants_agree_across_grids(self):
        # 2 Hz and 3 Hz grids both sample t = 1 s (indices 2 and 3).
        spec = SpikeSpectrum(
            freqs=np.array([0.31, 1.7]), amps=np.array([1.0 - 0.5j, 0.25])
        )
        g1 = Grid(f=Fraction(2), gamma=Fraction(0), n=5)
        g2 = Grid(f=Fraction(3), gamma=Fraction(0), n=7)
        y1 = synthesize_grid(spec, g1)
        y2 = synthesize_grid(spec, g2)
        assert np.isclose(y1[2], y2[3])


class TestTorusSeparation:
    def test_plain_pair(self):
        assert np.isclose(torus_separation([0.1, 0.3]), 0.2)

    def test_wrap_around_pair(self):
        assert np.isclose(torus_separation([0.05, 0.95]), 0.1)

    def test_equispaced(self):
        assert np.isclose(torus_separation([0.0, 0.25, 0.5, 0.75]), 0.25)

    def test_needs_two_points(self):
        with pytest.raises(InvalidInputError):
            torus_separation([0.4])

    def test_shift_and_permutation_invariance(self):
        rng = np.random.default_rng(2)
        pts = rng.random(6)
        base = torus_separation(pts)
        for shift in rng.random(5):
            assert np.isclose(torus_separation((pts + shift) % 1.0), base)
        assert np.isclose(torus_separation(rng.permutation(pts)), base)


class TestAddNoise:
    def test_zero_sigma_is_identity(self):
        y = np.array([1.0 + 1j, 2.0])
        assert np.array_equal(add_noise(y, NoiseSpec(sigma=0.0, seed=3)), y)

    def test_deterministic_per_seed(self):
        y = np.zeros(32, dtype=complex)
        a = add_noise(y, NoiseSpec(sigma=1.0, seed=42))
        b = add_noise(y, NoiseSpec(sigma=1.0, seed=42))
        assert np.array_equal(a, b)
        c = add_noise(y, NoiseSpec(sigma=1.0, seed=43))
        assert not np.array_equal(a, c)

    def test_empirical_variance(self):
        y = np.zeros(10**5, dtype=complex)
        sigma = 0.7
        w = add_noise(y, NoiseSpec(sigma=sigma, seed=7))
        assert abs(np.mean(np.abs(w) ** 2) - sigma**2) < 0.02 * sigma**2

    def test_rejects_negative_sigma(self):
        for sigma in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidInputError):
                NoiseSpec(sigma=sigma, seed=0)
