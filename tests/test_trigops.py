"""Toeplitz/Gram operator algebra and circle-polynomial evaluation."""

import numpy as np
import pytest

from spectral_sdp import (
    InvalidInputError,
    NumericalError,
    dense_sup_norm,
    poly_eval,
    selection_matrix,
    SelectionPattern,
)
from spectral_sdp.errors import DimensionMismatchError
from spectral_sdp.oracles import (
    brute_force_sup_norm,
    gram_eval,
    r_op,
    r_op_adjoint,
    toeplitz_adjoint,
    toeplitz_from_vector,
)
from spectral_sdp.trigops import grid_modulus, grid_size, refine_maxima

from conftest import random_complex, random_hermitian


def elementary_toeplitz(n: int, k: int) -> np.ndarray:
    return np.eye(n, k=k, dtype=complex)


class TestToeplitzFromVector:
    def test_unit_vector_gives_identity(self):
        assert np.array_equal(toeplitz_from_vector([1, 0, 0]), np.eye(3))

    def test_imaginary_superdiagonal(self):
        t = toeplitz_from_vector([0, 1j])
        assert np.allclose(t, np.array([[0, 1j], [-1j, 0]]))

    def test_hand_evaluated_3x3(self):
        t = toeplitz_from_vector([2, 1 + 1j, 3])
        expected = np.array(
            [
                [2, 1 + 1j, 3],
                [1 - 1j, 2, 1 + 1j],
                [3, 1 - 1j, 2],
            ]
        )
        assert np.allclose(t, expected)
        assert np.allclose(np.diag(t, 1), 1 + 1j)

    def test_rejects_complex_leading_entry(self):
        with pytest.raises(InvalidInputError):
            toeplitz_from_vector([1j, 0])

    def test_hermitian_for_random_input(self):
        rng = np.random.default_rng(0)
        u = random_complex(rng, 6)
        u[0] = u[0].real
        t = toeplitz_from_vector(u)
        assert np.allclose(t, t.conj().T)


class TestToeplitzAdjoint:
    def test_identity(self):
        out = toeplitz_adjoint(np.eye(4))
        assert np.allclose(out, [4, 0, 0, 0])

    def test_elementary_superdiagonal(self):
        out = toeplitz_adjoint(elementary_toeplitz(3, 1))
        assert np.allclose(out, [0, 2, 0])

    def test_matches_elementary_inner_products(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(rng, 8)
        out = toeplitz_adjoint(h)
        for k in range(8):
            theta = elementary_toeplitz(8, k)
            assert np.isclose(out[k], np.trace(theta.conj().T @ h))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            toeplitz_adjoint(np.zeros((2, 3)))

    def test_inverts_generator_up_to_diagonal_multiplicity(self):
        # The k-th superdiagonal of T(u) holds n - k copies of u[k], so the
        # sum convention recovers u after dividing by that multiplicity and
        # the composition is a bijection on Hermitian Toeplitz matrices.
        rng = np.random.default_rng(2)
        n = 7
        counts = n - np.arange(n)
        for _ in range(20):
            u = random_complex(rng, n)
            u[0] = u[0].real
            t = toeplitz_from_vector(u)
            assert np.allclose(toeplitz_adjoint(t), counts * u)
            assert np.allclose(toeplitz_from_vector(toeplitz_adjoint(t) / counts), t)


class TestROp:
    def test_identity_selection(self):
        u = np.array([1.0, 2.0 + 1j, 0.5])
        assert np.allclose(r_op(np.eye(3), u), toeplitz_from_vector(u))

    def test_single_row(self):
        c = selection_matrix(SelectionPattern(indices=(0,), ambient=3))
        out = r_op(c, [2.0, 1j, 0])
        assert out.shape == (1, 1)
        assert np.isclose(out[0, 0], 2.0)

    def test_two_row_selection_of_basis_vector(self):
        c = selection_matrix(SelectionPattern(indices=(0, 2), ambient=4))
        u = np.zeros(4)
        u[2] = 1.0
        assert np.allclose(r_op(c, u), np.array([[0, 1], [1, 0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            r_op(np.eye(3), np.zeros(4))


class TestROpAdjoint:
    def test_identity(self):
        rng = np.random.default_rng(3)
        s = random_hermitian(rng, 5)
        assert np.allclose(r_op_adjoint(np.eye(5), s), toeplitz_adjoint(s))

    def test_selection_of_identity_is_scaled_e0(self):
        c = selection_matrix(SelectionPattern(indices=(0, 2, 5), ambient=8))
        out = r_op_adjoint(c, np.eye(3))
        expected = np.zeros(8)
        expected[0] = 3
        assert np.allclose(out, expected)

    def test_coordinates_are_compressed_elementary_inner_products(self):
        rng = np.random.default_rng(4)
        m_mat = random_complex(rng, 3, 6)
        s = random_hermitian(rng, 3)
        out = r_op_adjoint(m_mat, s)
        for k in range(6):
            compressed = m_mat @ elementary_toeplitz(6, k) @ m_mat.conj().T
            assert np.isclose(out[k], np.trace(compressed.conj().T @ s))

    def test_real_pairing_with_double_counted_lags(self):
        # Re<S, R_M(u)> pairs each positive lag twice (it appears above and
        # below the diagonal of the Toeplitz matrix) and lag zero once.
        rng = np.random.default_rng(5)
        for _ in range(10):
            m_mat = random_complex(rng, 4, 7)
            s = random_hermitian(rng, 4)
            u = random_complex(rng, 7)
            u[0] = u[0].real
            h = r_op_adjoint(m_mat, s)
            lhs = np.real(np.trace(s.conj().T @ r_op(m_mat, u)))
            weights = np.array([1.0] + [2.0] * 6)
            rhs = np.sum(weights * np.real(np.conj(h) * u))
            assert np.isclose(lhs, rhs)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            r_op_adjoint(np.eye(3), np.zeros((4, 4)))


class TestPolyEval:
    def test_constant(self):
        q = np.zeros(5)
        q[0] = 1.0
        for nu in (0.0, 0.3, 0.99):
            assert np.isclose(poly_eval(q, nu), 1.0)

    def test_first_harmonic_quarter_turn(self):
        assert np.isclose(poly_eval([0, 1], 0.25), 1j)

    def test_at_z_equals_one(self):
        rng = np.random.default_rng(6)
        q = random_complex(rng, 9)
        assert np.isclose(poly_eval(q, 0.0), q.sum())

    def test_zero_coefficients_match_the_dense_phase_product(self):
        # Only the nonzero coefficients are summed; the zeros must not count.
        rng = np.random.default_rng(12)
        q = np.zeros(40, dtype=complex)
        q[[0, 3, 17, 39]] = random_complex(rng, 4)
        nu = rng.random(25)
        dense = np.exp(2j * np.pi * np.outer(nu, np.arange(q.size))) @ q
        assert np.max(np.abs(poly_eval(q, nu) - dense)) <= 1e-13
        assert abs(poly_eval(q, nu[0]) - dense[0]) <= 1e-13
        assert np.array_equal(poly_eval(np.zeros(5), nu), np.zeros(nu.size))


class TestGridModulus:
    @pytest.mark.parametrize("points", [13, 100, 64 * 13])
    def test_matches_poly_eval_on_the_grid(self, points):
        # As many points as coefficients, a size that is not a power of
        # two, and a grid far denser than the coefficients.
        rng = np.random.default_rng(11)
        q = random_complex(rng, 13)
        dense = np.abs(poly_eval(q, np.arange(points) / points))
        fast = grid_modulus(q, points)
        assert fast.shape == (points,)
        assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(dense)

    def test_rejects_fewer_points_than_coefficients(self):
        with pytest.raises(InvalidInputError):
            grid_modulus(np.ones(8), 7)


class TestRefineMaxima:
    def test_converges_to_a_peak_half_a_cell_off_the_grid(self):
        n = 16
        points = grid_size(n)
        j = 1000
        peak = (j + 0.5) / points
        q = np.exp(-2j * np.pi * peak * np.arange(n)) / n  # |Q| peaks at 1 at `peak`
        refined, ok = refine_maxima(q, np.array([j, j + 1]))
        assert ok.all()
        assert np.abs(refined - peak).max() < 1e-12

    def test_sparse_coefficients_converge_half_a_cell_off_the_grid(self):
        # 61 nonzero coefficients of n = 65536, the shape of a long sparse
        # dual polynomial; |Q| peaks at 1 half a cell off the grid.
        n, m = 65536, 61
        rng = np.random.default_rng(13)
        k = np.sort(rng.choice(n, m, replace=False))
        points = grid_size(n)
        j = 123457
        peak = (j + 0.5) / points
        q = np.zeros(n, dtype=complex)
        q[k] = np.exp(-2j * np.pi * peak * k) / m
        refined, ok = refine_maxima(q, np.array([j, j + 1]))
        assert ok.all()
        assert np.abs(refined - peak).max() < 1e-12

    def test_start_at_a_minimum_fails_and_keeps_its_grid_value(self):
        q = np.array([1.0, 0.5])  # |Q| is smallest at nu = 1/2
        refined, ok = refine_maxima(q, [grid_size(2) // 2])
        assert not ok[0]
        assert refined[0] == 0.5


class TestGramEval:
    def test_rank_one_projector(self):
        g = np.zeros((4, 4))
        g[0, 0] = 1.0
        for nu in np.linspace(0, 1, 7, endpoint=False):
            assert np.isclose(gram_eval(g, nu), 1.0)

    def test_identity(self):
        for nu in (0.0, 0.17, 0.5):
            assert np.isclose(gram_eval(np.eye(6), nu), 6.0)

    def test_rank_one_outer_product_is_squared_modulus(self):
        # psi* (v v*) psi = |v* psi|^2, the squared modulus of the
        # v-polynomial at the conjugate point.
        rng = np.random.default_rng(7)
        v = random_complex(rng, 5)
        g = np.outer(v, v.conj())
        for nu in rng.random(10):
            assert np.isclose(gram_eval(g, nu), abs(poly_eval(v, -nu)) ** 2)

    def test_non_hermitian_raises(self):
        g = np.zeros((2, 2), dtype=complex)
        g[0, 1] = 1.0
        with pytest.raises(NumericalError):
            gram_eval(g, 0.15)

    def test_real_on_circle_for_hermitian(self):
        rng = np.random.default_rng(8)
        g = random_hermitian(rng, 9)
        psi = lambda nu: np.exp(2j * np.pi * nu * np.arange(9))
        for nu in rng.random(1000):
            raw = psi(nu).conj() @ g @ psi(nu)
            assert abs(raw.imag) < 1e-10


class TestGramParametrization:
    def test_coefficients_recovered_by_fourier_analysis(self):
        # Sampling psi* G psi at 2n points and taking a DFT isolates the
        # positive-lag coefficients, which must match the superdiagonal sums.
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 33))
            g = random_hermitian(rng, n)
            samples = np.array([gram_eval(g, t / (2 * n)) for t in range(2 * n)])
            spectrum = np.fft.fft(samples) / (2 * n)
            recovered = spectrum[:n]  # bins 0..n-1 hold the positive lags
            assert np.allclose(recovered, toeplitz_adjoint(g), atol=1e-10)


class TestDenseSupNorm:
    def test_constant(self):
        q = np.zeros(3)
        q[0] = 1.0
        assert np.isclose(dense_sup_norm(q), 1.0)

    def test_two_term_average_peaks_at_one(self):
        assert np.isclose(dense_sup_norm([0.5, 0.5]), 1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            q = random_complex(rng, 6)
            fast = dense_sup_norm(q)
            slow = brute_force_sup_norm(q, 10**6)
            assert abs(fast - slow) < 1e-6
