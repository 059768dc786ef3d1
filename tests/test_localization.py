"""Dual polynomial to spectrum estimate: peaks, amplitudes, certificates."""

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spectral_sdp import (
    ConditioningError,
    EstimationConfig,
    InvalidInputError,
    LocalizationError,
    SelectionPattern,
    SpikeSpectrum,
    assemble_problem,
    dual_polynomial,
    estimate,
    locate_frequencies,
    recover_amplitudes,
    solve,
    synthesize_grid,
    synthesize_uniform,
    verify_certificate,
)
from spectral_sdp.errors import DimensionMismatchError
from spectral_sdp.localization import _off_support
from spectral_sdp.sampling import selection_matrix
from spectral_sdp.solver import SolveStats
from spectral_sdp.trigops import PEAK_TOL, dense_sup_norm, grid_maxima, grid_size

from conftest import random_complex, random_pattern, random_spike_spectrum


def _full_pattern(n):
    return SelectionPattern(indices=tuple(range(n)), ambient=n)


def _dense_fit(y, pattern, freqs, f):
    """The least-squares fit through the dense m x n selection matrix."""
    v = np.exp(2j * np.pi * np.outer(np.arange(pattern.ambient), freqs / f))
    a_mat = selection_matrix(pattern) @ v
    amps, *_ = np.linalg.lstsq(a_mat, y, rcond=None)
    return amps, float(np.linalg.norm(y - a_mat @ amps))


def _solved_instance(seed=0, n=32, s=2, rho=20.0):
    """A converged noiseless full-observation solve and its ground truth."""
    rng = np.random.default_rng(seed)
    sig = random_spike_spectrum(rng, s, min_sep=4 / (n - 1))
    y = synthesize_uniform(sig, 1.0, n)
    est = estimate(y, _full_pattern(n), 1.0, EstimationConfig(rho=rho))
    return sig, y, est


class TestDualPolynomial:
    def test_identity(self):
        rng = np.random.default_rng(0)
        c = random_complex(rng, 6)
        assert np.allclose(dual_polynomial(c, _full_pattern(6)), c)

    def test_selection_scatters_support(self):
        pat = SelectionPattern(indices=(0, 2, 5), ambient=8)
        c = np.array([1.0, 2.0, 3.0], dtype=complex)
        q = dual_polynomial(c, pat)
        assert np.allclose(q[[0, 2, 5]], c)
        assert not q[[1, 3, 4, 6, 7]].any()

    def test_matches_naive_product(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pat = random_pattern(rng, int(rng.integers(1, 40)))
            m_mat = selection_matrix(pat)
            m, n = m_mat.shape
            c = random_complex(rng, m)
            naive = np.array(
                [sum(np.conj(m_mat[i, k]) * c[i] for i in range(m)) for k in range(n)]
            )
            q = dual_polynomial(c, pat)
            assert np.allclose(q, naive)
            assert np.array_equal(q, m_mat.conj().T @ c)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dual_polynomial(np.zeros(3), _full_pattern(4))


class TestLocateFrequencies:
    def test_recovers_known_support(self):
        sig, _, est = _solved_instance(seed=2)
        assert est.freqs.size == sig.s
        assert np.allclose(np.sort(est.freqs), sig.freqs, atol=1e-6 / 32)

    def test_small_polynomial_yields_nothing(self):
        q = np.zeros(16, dtype=complex)
        q[3] = 0.4  # sup-norm far below the peak threshold
        out = locate_frequencies(q, 1.0)
        assert out.freqs_hz.size == 0

    def test_constant_unit_polynomial_is_degenerate(self):
        q = np.zeros(8, dtype=complex)
        q[0] = 1.0
        with pytest.raises(LocalizationError):
            locate_frequencies(q, 1.0)

    def test_peak_cap_enforced(self):
        # |1 + z^(n-1)|/2 touches 1 at n-1 points around the circle.
        n = 12
        q = np.zeros(n, dtype=complex)
        q[0] = q[-1] = 0.5
        with pytest.raises(LocalizationError):
            locate_frequencies(q, 1.0, max_peaks=3)
        out = locate_frequencies(q, 1.0)
        assert out.freqs_hz.size == n - 1

    @pytest.mark.parametrize("n, j", [(8, 0), (4, grid_size(4) - 1)], ids=["inside", "across-zero"])
    def test_equal_grid_maxima_merge_into_one_peak(self, n, j):
        # Half a cell off the grid, a unit Dirichlet peak samples to two
        # exactly equal maxima, at j and j + 1, and both refine onto nu0.
        # In the second case the pair straddles the grid's wrap at index 0.
        nu0 = (j + 0.5) / grid_size(n)
        q = np.exp(-2j * np.pi * nu0 * np.arange(n)) / n
        mags, maxima = grid_maxima(q)
        peaks = mags[maxima[mags[maxima] >= 1.0 - PEAK_TOL]]
        assert peaks.size == 2 and peaks[0] == peaks[1]
        out = locate_frequencies(q, 1.0)
        assert out.freqs_hz.size == 1
        assert abs(out.freqs_hz[0] - nu0) < 1e-12

    def test_refinements_across_zero_merge_into_one_peak(self, monkeypatch):
        # Two refinements a rounding apart on either side of 0 are the first
        # and last of the sorted three, so only the wrap-around check merges
        # them. A polynomial yields such a pair only from grid maxima that tie
        # to the last bit around a very flat peak at 0, so the refiner is
        # stubbed: it returns that pair and the peak at 1/2.
        from spectral_sdp import localization

        n = 8
        q = np.zeros(n, dtype=complex)
        q[0] = q[2] = 0.5  # |Q| = |cos(2 pi nu)|, unit at 0 and 1/2
        refinements = np.array([1e-16, 0.5, 1.0 - 1e-16]), np.array([False, True, True])
        monkeypatch.setattr(localization, "refine_maxima", lambda q, starts: refinements)
        out = locate_frequencies(q, 1.0)
        assert out.freqs_hz.tolist() == [1e-16, 0.5]
        assert out.newton_ok.tolist() == [True, True]

    @pytest.mark.parametrize("n", [4, 16, 100, 1000])
    def test_frequencies_lie_in_one_period(self, n):
        # A peak just below 0 refines to -1e-18, which % 1.0 rounds to 1.0.
        q = np.exp(-2j * np.pi * -1e-18 * np.arange(n)) / n
        out = locate_frequencies(q, 1.0)
        assert out.freqs_hz.size == 1
        assert np.all((0 <= out.freqs_hz) & (out.freqs_hz < 1.0))

    def test_peak_between_coarse_grid_points_found_in_bounded_memory(self):
        # A unit Dirichlet peak half a cell off the 8n grid samples to about
        # 0.994 there, below the 0.999 threshold; the default grid keeps it.
        n = 2048
        nu0 = 1000.5 / (8 * n)
        q = np.exp(-2j * np.pi * nu0 * np.arange(n)) / n
        tracemalloc.start()
        try:
            out = locate_frequencies(q, 1.0)
            sup = dense_sup_norm(q)
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.freqs_hz.size == 1
        assert abs(out.freqs_hz[0] - nu0) < 1e-12
        assert abs(sup - 1.0) < 1e-12
        assert peak_bytes < 16 * 2**20


class TestRecoverAmplitudes:
    def test_exact_support_round_trip(self):
        rng = np.random.default_rng(3)
        n = 24
        sig = random_spike_spectrum(rng, 3, min_sep=0.1)
        y_raw = synthesize_uniform(sig, 1.0, n)
        patterns = [_full_pattern(n)] + [random_pattern(rng, n) for _ in range(20)]
        for pat in patterns:
            y = y_raw[list(pat.indices)]
            fit = recover_amplitudes(y, pat, sig.freqs, 1.0)
            assert fit.residual < 1e-8
            assert np.allclose(fit.amps, sig.amps, atol=1e-6)
            amps, residual = _dense_fit(y, pat, sig.freqs, 1.0)
            assert np.array_equal(fit.amps, amps)
            assert fit.residual == residual

    def test_dc_spike_amplitude_is_mean(self):
        y = np.full(10, 2.5 + 1j)
        fit = recover_amplitudes(y, _full_pattern(10), np.array([0.0]), 1.0)
        assert np.isclose(fit.amps[0], np.mean(y))

    def test_empty_support(self):
        y = np.ones(5, dtype=complex)
        fit = recover_amplitudes(y, _full_pattern(5), np.array([]), 1.0)
        assert fit.amps.size == 0
        assert np.isclose(fit.residual, np.linalg.norm(y))

    def test_near_collision_raises(self):
        y = np.ones(16, dtype=complex)
        freqs = np.array([0.3, 0.3 + 1e-14])
        with pytest.raises(ConditioningError):
            recover_amplitudes(y, _full_pattern(16), freqs, 1.0)

    def test_more_atoms_than_observations_rejected(self):
        with pytest.raises(InvalidInputError):
            recover_amplitudes(
                np.ones(2), _full_pattern(2), np.array([0.1, 0.2, 0.3]), 1.0
            )


class TestVerifyCertificate:
    def test_converged_solve_passes(self):
        sig, _, est = _solved_instance(seed=4)
        report = verify_certificate(est.dual_poly, sig, 1.0, tol=1e-3)
        assert report.is_certificate
        assert report.strict_margin > 0

    def test_zero_polynomial_fails_interpolation(self):
        sig = SpikeSpectrum(freqs=np.array([0.2]), amps=np.array([1.0]))
        report = verify_certificate(np.zeros(16, dtype=complex), sig, 1.0)
        assert not report.is_certificate
        assert np.isclose(report.interp_errors[0], 1.0)

    def test_inflated_polynomial_fails_sup_bound(self):
        sig, _, est = _solved_instance(seed=5)
        report = verify_certificate(1.1 * est.dual_poly, sig, 1.0, tol=0.2)
        assert not report.is_certificate
        assert report.strict_margin < 0

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_bad_tolerance_rejected(self, tol):
        sig = SpikeSpectrum(freqs=np.array([0.1]), amps=np.array([1.0]))
        with pytest.raises(InvalidInputError, match="tol"):
            verify_certificate(np.ones(16, dtype=complex) / 16, sig, 1.0, tol=tol)

    def test_many_spikes_in_bounded_memory(self):
        # A (grid x spikes) distance matrix would take 16 MiB here.
        rng = np.random.default_rng(31)
        n, s = 256, 128
        sig = SpikeSpectrum(freqs=np.sort(rng.random(s)), amps=np.ones(s))
        q = random_complex(rng, n) / n
        tracemalloc.start()
        try:
            report = verify_certificate(q, sig, 1.0)
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < report.sup_off_support < np.inf
        assert peak_bytes < 4 * 2**20

    @pytest.mark.parametrize(
        "r, n",
        [(7 / 6400, 100), (7 / 21312, 333), (float(np.random.default_rng(32).random()), 100)],
    )
    def test_ball_edges_match_exact_arithmetic(self, r, n):
        # The first two put grid points exactly 1/(8n) from the spike.
        points = 64 * n
        radius, center = Fraction(1, 8 * n), Fraction(r)
        exact = np.ones(points, dtype=bool)
        for j in range(points):
            d = (Fraction(j, points) - center) % 1
            exact[j] = min(d, 1 - d) > radius
        assert np.array_equal(_off_support(np.array([r]), n, points), exact)

    def test_non_finite_frequency_rejected(self):
        # A NaN spike makes no SpikeSpectrum; a NaN rate makes the reduced
        # frequencies non-finite.
        with pytest.raises(InvalidInputError):
            SpikeSpectrum(freqs=np.array([np.nan]), amps=np.array([1.0]))
        sig = SpikeSpectrum(freqs=np.array([0.1]), amps=np.array([1.0]))
        with pytest.raises(InvalidInputError):
            verify_certificate(np.ones(16, dtype=complex) / 16, sig, float("nan"))


class TestEstimatePipeline:
    def test_full_observation_noiseless(self):
        sig, y, est = _solved_instance(seed=6, n=32)
        assert est.diagnostics.converged and est.diagnostics.reliable
        assert np.allclose(np.sort(est.freqs), sig.freqs, atol=1e-4)
        assert np.allclose(est.amps, sig.amps, atol=1e-3 * np.abs(sig.amps).max())
        assert est.diagnostics.sup_norm <= 1 + 1e-6

    def test_shifted_selection_round_trip(self):
        rng = np.random.default_rng(7)
        n = 32
        sig = random_spike_spectrum(rng, 2, min_sep=4 / (n - 1))
        y_raw = synthesize_uniform(sig, 1.0, n)
        idx = (3, 4, 6, 9, 11, 14, 15, 17, 20, 22, 24, 27, 28, 30)
        pat = SelectionPattern(indices=idx, ambient=n)
        y = y_raw[list(idx)]
        est = estimate(y, pat, 1.0, EstimationConfig(rho=10.0))
        assert np.allclose(np.sort(est.freqs), sig.freqs, atol=1e-4)
        # Re-synthesizing on the original pattern reproduces the data.
        rebuilt = SpikeSpectrum(freqs=np.sort(est.freqs), amps=est.amps[np.argsort(est.freqs)])
        y_model = synthesize_uniform(rebuilt, 1.0, n)[list(idx)]
        assert np.linalg.norm(y_model - y) < 1e-5 * np.linalg.norm(y)

    def test_phase_rotation_leaves_frequencies_fixed(self):
        rng = np.random.default_rng(8)
        n = 24
        sig = random_spike_spectrum(rng, 2, min_sep=0.15)
        y = synthesize_uniform(sig, 1.0, n)
        cfg = EstimationConfig(rho=15.0)
        base = estimate(y, _full_pattern(n), 1.0, cfg)
        for phi in rng.random(3):
            rotated = estimate(np.exp(2j * np.pi * phi) * y, _full_pattern(n), 1.0, cfg)
            assert np.allclose(np.sort(rotated.freqs), np.sort(base.freqs), atol=1e-9)

    def test_multirate_recovers_above_single_rate(self, two_grid_system):
        sig = SpikeSpectrum(freqs=np.array([0.9, 4.1]), amps=np.array([1.0, 1j]))
        ys = [synthesize_grid(sig, g) for g in two_grid_system.grids]
        est = estimate(ys, two_grid_system, config=EstimationConfig(rho=10.0))
        assert est.diagnostics.solve_rate_hz == 6.0
        assert np.allclose(np.sort(est.freqs), sig.freqs, atol=1e-4)
        assert np.allclose(est.amps[np.argsort(est.freqs)], sig.amps, atol=1e-3)

    @pytest.mark.parametrize("max_iter", [20000, 3])
    def test_diagnostics_carry_the_solve_statistics(self, max_iter):
        rng = np.random.default_rng(6)
        n = 32
        sig = random_spike_spectrum(rng, 2, min_sep=4 / (n - 1))
        y = synthesize_uniform(sig, 1.0, n)
        config = EstimationConfig(rho=20.0, max_iter=max_iter)
        diag = estimate(y, _full_pattern(n), 1.0, config).diagnostics
        report = solve(assemble_problem(y, _full_pattern(n), **vars(config)))
        for field in dataclasses.fields(SolveStats):  # NaN gap bounds compare equal
            np.testing.assert_equal(getattr(diag, field.name), getattr(report, field.name))
        assert diag.converged is diag.reliable is (max_iter > 3)

    def test_requires_rate_for_pattern(self):
        with pytest.raises(InvalidInputError):
            estimate(np.ones(4), _full_pattern(4))

    @pytest.mark.parametrize("f", [np.nan, np.inf, 10**400], ids=["nan", "inf", "beyond-float"])
    def test_rejects_a_non_finite_rate_before_solving(self, f, monkeypatch):
        from spectral_sdp import localization

        def no_solve(spec):
            raise AssertionError("solve() ran")

        monkeypatch.setattr(localization, "solve", no_solve)
        shifted = SelectionPattern(indices=tuple(range(3, 24)), ambient=24)
        with pytest.raises(InvalidInputError, match="^f must be"):
            estimate(np.ones(21), shifted, f)

    def test_certificate_implies_peak_count(self):
        sig, _, est = _solved_instance(seed=9, n=32, s=3)
        report = verify_certificate(est.dual_poly, sig, 1.0, tol=1e-3)
        assert report.is_certificate
        assert est.freqs.size == sig.s
