"""ADMM building blocks and full solves of the reduced dual."""

from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from spectral_sdp import (
    EstimationConfig,
    Grid,
    InvalidInputError,
    MultirateSystem,
    NoiseSpec,
    NumericalError,
    ProblemSpec,
    SelectionPattern,
    SpikeSpectrum,
    add_noise,
    align_measurements,
    assemble_problem,
    common_grid,
    compute_partition,
    dual_polynomial,
    estimate,
    locate_frequencies,
    solve,
    synthesize_grid,
    synthesize_uniform,
)
from spectral_sdp.oracles import (
    admm_map,
    block_sums,
    blocks,
    bordered_matrix,
    finite_perturbation_check,
    residuals,
)
from spectral_sdp.solver import _norm, admm_step, psd_project, update_c, update_S_blocks
from spectral_sdp.trigops import dense_sup_norm

from conftest import (
    lagrangian_block,
    lagrangian_c,
    on_block_sum_set,
    random_complex,
    random_hermitian,
    random_pattern,
    random_spike_spectrum,
    separated_freqs,
    triangle_of,
)


def _full_pattern(n):
    return SelectionPattern(indices=tuple(range(n)), ambient=n)


def _spec_for(pattern, y=None, **kw):
    y = np.zeros(pattern.m, dtype=complex) if y is None else np.asarray(y, complex)
    return ProblemSpec(y=y, partition=compute_partition(pattern), **kw)


def _random_state(rng, spec):
    """Random dense ``(Z, S, c, Lambda)``."""
    m = spec.m
    z = random_hermitian(rng, m + 1)
    s = random_hermitian(rng, m)
    c = random_complex(rng, m)
    lam = random_hermitian(rng, m + 1)
    return z, s, c, lam


def _update_inputs(spec, z, lam):
    """S's part and the border of the triangle of ``Z + Lambda/rho``."""
    return spec.split(triangle_of(z + lam / spec.rho, spec))


def _dense(spec, z, b):
    """Dense ``Z``, ``S`` and ``c`` of an evaluation held as the triangles
    ``z`` and ``b``."""
    full = spec.hermitian(b)
    return spec.hermitian(z), full[:-1, :-1], full[:-1, -1]


class TestTriangle:
    def test_round_trip_split_and_weighted_norm(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            pat = random_pattern(rng, int(rng.integers(1, 12)), admissible=True)
            spec = _spec_for(pat)
            h = random_hermitian(rng, pat.m + 1)
            t = triangle_of(h, spec)
            assert np.array_equal(spec.hermitian(t), h)
            s, c = spec.split(t)
            assert np.array_equal(c, h[:-1, -1])
            assert s.size + c.size + 1 == t.size
            assert np.array_equal(block_sums(spec.partition, h[:-1, :-1]), np.add.reduceat(s, spec.partition.starts))
            weighted = t.view(float) * np.repeat(spec.weight, 2)
            assert np.isclose(np.linalg.norm(weighted), np.linalg.norm(h))

    def test_hermitian_is_the_scatter_with_a_real_diagonal(self, two_grid_system):
        rng = np.random.default_rng(41)
        patterns = [random_pattern(rng, int(rng.integers(1, 20)), admissible=True) for _ in range(8)]
        for pat in patterns + [common_grid(two_grid_system).observation_set]:
            spec = _spec_for(pat)
            upper, lower = spec.triangle
            t = random_complex(rng, upper.size)  # complex diagonal entries too
            scattered = np.empty((pat.m + 1) ** 2, dtype=complex)
            scattered[lower] = t.conj()
            scattered[upper] = t
            scattered = scattered.reshape(pat.m + 1, pat.m + 1)
            np.fill_diagonal(scattered.imag, 0.0)
            assert spec.hermitian(t).tobytes() == scattered.tobytes()


class TestNorm:
    def test_equals_numpy_bit_for_bit(self):
        rng = np.random.default_rng(42)
        for size in (1, 7, 130, 8385):
            x = rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8)
            assert _norm(x) == np.linalg.norm(x)
        for order in (2, 65, 130):
            a = random_hermitian(rng, order) + 1e-3 * random_complex(rng, order, order)
            assert _norm(a) == np.linalg.norm(a)
            for cols in (slice(0, 1), slice(0, 3), slice(1, None, 2)):
                assert _norm(a[:, cols]) == np.linalg.norm(a[:, cols])
        assert type(_norm(x)) is float


class TestUpdateC:
    def test_zero_state_scales_conjugate_data(self):
        rng = np.random.default_rng(0)
        pat = _full_pattern(4)
        y = random_complex(rng, 4)
        spec = _spec_for(pat, y=y, rho=2.0)
        # Lambda = 0 and a zero border of Z.
        assert np.allclose(update_c(np.zeros(4, complex), spec), y.conj() / 4.0)

    def test_zero_data_shrinks_border(self):
        rng = np.random.default_rng(1)
        pat = _full_pattern(3)
        spec = _spec_for(pat, tau=3.0, rho=1.0)
        z = random_complex(rng, 3)  # the border of Z; Lambda = 0
        assert np.allclose(update_c(z, spec), (2.0 / 5.0) * z)

    def test_is_the_block_minimizer(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            m = int(rng.integers(1, 6))
            pat = _full_pattern(m)
            y = random_complex(rng, m)
            spec = _spec_for(pat, y=y, tau=float(rng.random()), rho=0.5 + rng.random())
            z_mat, _, _, lam_mat = _random_state(rng, spec)
            c_star = update_c(_update_inputs(spec, z_mat, lam_mat)[1], spec)
            z = z_mat[:m, m]
            lam = lam_mat[:m, m]
            obj = lambda c: lagrangian_c(c, spec.y, z, lam, spec.rho, spec.tau)
            assert finite_perturbation_check(obj, c_star, directions=100, step=1e-3, seed=trial)


class TestUpdateSBlocks:
    def test_singleton_diagonal_block_from_zeros(self):
        spec = _spec_for(SelectionPattern(indices=(0,), ambient=2))
        s = update_S_blocks(np.zeros(1, complex), spec)
        assert np.isclose(s[0], 1.0)  # the block sum of the one diagonal pair

    def test_feasible_input_is_fixed_point(self):
        rng = np.random.default_rng(3)
        pat = SelectionPattern(indices=(0, 1, 3), ambient=5)
        spec = _spec_for(pat)
        part = spec.partition
        # Build a Hermitian Z0 whose block sums hit the constraint exactly.
        z0 = random_hermitian(rng, 3)
        for k in part.positive_lags:
            pairs = blocks(part)[k]
            total = sum(z0[i - 1, j - 1] for i, j in pairs)
            target = 1.0 if k == 0 else 0.0
            correction = (target - total) / len(pairs)
            for i, j in pairs:
                z0[i - 1, j - 1] += correction
                if i != j:
                    z0[j - 1, i - 1] += np.conj(correction)
                else:
                    z0[i - 1, j - 1] = z0[i - 1, j - 1].real
        a = z0[part.rows, part.cols]  # Lambda = 0
        s = update_S_blocks(a, spec)
        assert np.allclose(s, a, atol=1e-12)

    def test_blocks_are_exact_minimizers(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            pat = random_pattern(rng, int(rng.integers(3, 10)), admissible=True)
            spec = _spec_for(pat, rho=0.5 + rng.random())
            z, _, _, lam = _random_state(rng, spec)
            s = update_S_blocks(_update_inputs(spec, z, lam)[0], spec)
            part = spec.partition
            assert np.allclose(np.add.reduceat(s, part.starts), part.delta, rtol=0, atol=1e-12)
            z0, lam0 = triangle_of(z, spec), triangle_of(lam, spec)
            for pos in range(part.p):
                block = slice(part.starts[pos], part.starts[pos] + part.sizes[pos])
                obj = lambda v: lagrangian_block(v, z0[block], lam0[block], spec.rho)
                assert finite_perturbation_check(
                    on_block_sum_set(obj, s[block]),
                    s[block],
                    directions=50,
                    step=1e-3,
                    seed=trial,
                    tol=1e-9,
                )

    def test_output_is_hermitian(self):
        # The triangle is all of S; the report mirrors it into a matrix.
        rng = np.random.default_rng(5)
        pat = random_pattern(rng, 12, admissible=True)
        spec = _spec_for(pat, y=random_complex(rng, pat.m), max_iter=20)
        s = solve(spec).S_star
        assert np.allclose(s, s.conj().T, atol=1e-12)


def _with_spectrum(rng, vals):
    """A Hermitian matrix with eigenvalues ``vals`` and its eigenvectors,
    in the order of ``vals``."""
    vecs = np.linalg.qr(random_complex(rng, vals.size, vals.size))[0]
    return (vecs * vals) @ vecs.conj().T, vecs


def _eigh_projection(h):
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T


def _relative_error(z, h):
    ref = _eigh_projection(h)
    return np.linalg.norm(z - ref) / np.linalg.norm(ref)


def _perturbed(rng, basis, size):
    return np.linalg.qr(basis + size * random_complex(rng, *basis.shape))[0]


class TestPsdProject:
    # Well above the Krylov space of the widest basis here (4 blocks of 7
    # vectors), so a warm start has room to work.
    ORDER = 80

    def test_identity_unchanged(self):
        assert np.allclose(psd_project(np.eye(4))[0], np.eye(4))

    def test_identity_is_certified_without_the_full_eigendecomposition(self):
        # The solver's first projection: V = I, warm-started from one unit vector.
        z, projection = psd_project(np.eye(17), np.eye(17, 1))
        assert np.array_equal(z, np.eye(17))
        assert not projection.full and projection.negatives == 0

    def test_clips_negative_eigenvalue(self):
        out, projection = psd_project(np.diag([1.0, -1.0]))
        assert np.allclose(out, np.diag([1.0, 0.0]))
        assert projection.negatives == 1 and projection.full
        # The negative eigenvector, then the guard.
        assert np.allclose(np.abs(projection.basis), [[0.0, 1.0], [1.0, 0.0]])

    def test_never_beaten_by_sampled_psd_candidates(self):
        rng = np.random.default_rng(6)
        for _ in range(4):
            m = int(rng.integers(2, 9))
            y = random_hermitian(rng, m)
            z_star = psd_project(y)[0]
            base = np.linalg.norm(z_star - y)
            for _ in range(2500):
                w = z_star + rng.exponential(0.3) * random_hermitian(rng, m)
                vals, vecs = np.linalg.eigh(0.5 * (w + w.conj().T))
                cand = (vecs * np.maximum(vals, 0)) @ vecs.conj().T
                assert np.linalg.norm(cand - y) >= base - 1e-10

    def test_reads_only_the_lower_triangle(self):
        rng = np.random.default_rng(26)
        h = random_hermitian(rng, 7)
        other = h.copy()
        other[np.triu_indices(7, 1)] = np.nan
        other[np.diag_indices(7)] += 1j * rng.standard_normal(7)
        assert np.array_equal(psd_project(other)[0], psd_project(h)[0])

    def test_reads_the_full_hermitian_with_a_warm_basis(self):
        rng = np.random.default_rng(26)
        vals = np.concatenate([-1.0 - rng.random(3), 0.5 + rng.random(self.ORDER - 3)])
        h, vecs = _with_spectrum(rng, vals)
        h = 0.5 * (h + h.conj().T)  # both triangles, a real diagonal
        basis = _perturbed(rng, vecs[:, :4], 1e-6)
        before = h.copy()
        z, projection = psd_project(h, basis)
        assert not projection.full and projection.negatives == 3
        assert np.array_equal(h, before)
        assert _relative_error(z, h) <= 1e-12
        # The warm path reads the upper triangle too: a NaN there makes ||V||
        # non-finite, so it declines, and the full eigh, which reads the
        # lower one, takes over.
        other = h.copy()
        other[np.triu_indices(self.ORDER, 1)] = np.nan
        z, projection = psd_project(other, basis)
        assert projection.full
        assert np.array_equal(z, psd_project(h)[0])

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_warm_start_matches_the_full_eigendecomposition(self, k):
        rng = np.random.default_rng(50 + k)
        n = self.ORDER
        # The solver's spectra: a few negatives apart from the rest.
        vals = np.concatenate([-1.0 - rng.random(k), 0.5 * rng.random(n - k)])
        h, vecs = _with_spectrum(rng, vals)
        guard = k + int(np.argmin(vals[k:]))
        basis = _perturbed(rng, vecs[:, list(range(k)) + [guard]], 1e-6)
        z, projection = psd_project(h, basis)
        assert not projection.full and projection.negatives == k
        assert _relative_error(z, h) <= 1e-12
        # The next basis: orthonormal, and spanning the negative eigenvectors.
        assert projection.basis.shape == (n, k + 1)
        assert np.allclose(projection.basis.conj().T @ projection.basis, np.eye(k + 1), atol=1e-12)
        neg = vecs[:, :k]
        assert np.allclose(neg.conj().T @ projection.basis @ projection.basis.conj().T @ neg, np.eye(k), atol=1e-10)

    def test_a_basis_missing_a_negative_pair_fails_the_certificate(self):
        # Exact eigenvectors span an invariant space, so no Krylov step can
        # find the missing pair; the solver's Cholesky certificate must
        # reject the warm Z and accept the full eigh's.
        from spectral_sdp import solver

        rng = np.random.default_rng(52)
        n = self.ORDER
        vals = np.concatenate([[-1.5, -0.7, -1e-6], 0.5 + rng.random(n - 3)])
        h, vecs = _with_spectrum(rng, vals)
        basis = vecs[:, [0, 1, 3 + int(np.argmin(vals[3:]))]]
        z, projection = psd_project(h, basis)
        assert not projection.full and projection.negatives == 2
        shift = solver._shift(n, np.linalg.norm(h))
        assert not solver._certified(z, shift)
        z_full, projection = psd_project(h)
        assert projection.full and projection.negatives == 3
        assert solver._certified(z_full, shift)

    def test_psd_input_is_returned(self):
        rng = np.random.default_rng(53)
        n = self.ORDER
        vals = np.concatenate([np.zeros(4), 0.1 + rng.random(n - 4)])
        h, vecs = _with_spectrum(rng, vals)
        z, projection = psd_project(h, _perturbed(rng, vecs[:, 4:5], 1e-3))
        assert not projection.full and projection.negatives == 0
        assert projection.basis.shape == (n, 1)
        assert _relative_error(z, h) <= 1e-12

    def test_near_zero_negative_cluster(self):
        # Besides two clear negative pairs, a cluster within rounding of
        # zero, on both sides: missing its negative part changes Z by no
        # more than the eigendecomposition's own rounding.
        rng = np.random.default_rng(54)
        n = self.ORDER
        cluster = 1e-15 * rng.uniform(-1.0, 1.0, 6)
        vals = np.concatenate([[-2.0, -1.0], cluster, 0.3 + rng.random(n - 8)])
        h, vecs = _with_spectrum(rng, vals)
        z, projection = psd_project(h, _perturbed(rng, vecs[:, [0, 1, 2]], 1e-5))
        assert projection.negatives >= 2
        assert _relative_error(z, h) <= 1e-12


class TestAdmmStep:
    def test_no_op_at_consistent_state(self):
        rng = np.random.default_rng(7)
        pat = SelectionPattern(indices=(0, 2), ambient=4)
        spec = _spec_for(pat)
        m = pat.m
        # b = w w* is PSD with corner 1 and Lambda >= 0 lives on the
        # complement of w, so V = b - Lambda/rho projects back onto b.
        w = np.append(random_complex(rng, m), 1.0)
        b = np.outer(w, w.conj())
        q = np.eye(m + 1) - b / np.vdot(w, w).real
        a = random_hermitian(rng, m + 1)
        lam = q @ a @ a.conj().T @ q
        v = triangle_of(b - lam / spec.rho, spec)
        z, _, _, _ = admm_step(v, spec)
        assert np.allclose(spec.rho * (z - v), triangle_of(lam, spec))

    def test_every_image_meets_the_block_sums(self):
        rng = np.random.default_rng(28)
        for _ in range(6):
            pat = random_pattern(rng, int(rng.integers(2, 16)), admissible=True)
            y = random_complex(rng, pat.m)
            spec = _spec_for(pat, y=y, tau=float(rng.random()), rho=0.5 + rng.random())
            part = spec.partition
            v = triangle_of(random_hermitian(rng, pat.m + 1), spec)
            for _ in range(5):  # from a random V, then along the plain map
                z, b, v, _ = admm_step(v, spec)
                s = _dense(spec, z, b)[1]
                assert np.allclose(block_sums(part, s), part.delta, rtol=0, atol=1e-12)

    def test_one_step_from_zeros(self):
        spec = _spec_for(_full_pattern(3), rho=1.0)
        _, _, v, _ = admm_step(np.zeros(10, complex), spec)
        # Each block of S is moved onto its block sum: S = I/3.
        assert np.allclose(spec.hermitian(v), np.diag([1 / 3, 1 / 3, 1 / 3, 1.0]))

    def test_inputs_are_only_read(self):
        rng = np.random.default_rng(25)
        pat = random_pattern(rng, 10, admissible=True)
        spec = _spec_for(pat, y=random_complex(rng, pat.m), rho=2.0)
        v = triangle_of(random_hermitian(rng, pat.m + 1), spec)
        v_before = v.copy()
        admm_step(v, spec)
        assert np.array_equal(v, v_before)

    @pytest.mark.parametrize("tau", [0.0, 0.8])
    @pytest.mark.parametrize("kind", ["full", "random", "multirate"])
    def test_matches_the_dense_reference(self, kind, tau, two_grid_system):
        rng = np.random.default_rng(27)
        if kind == "full":
            pat = _full_pattern(9)
        elif kind == "random":
            pat = random_pattern(rng, 16, admissible=True)
        else:
            pat = common_grid(two_grid_system).observation_set
        spec = _spec_for(pat, y=random_complex(rng, pat.m), tau=tau, rho=0.5 + rng.random())
        for _ in range(5):
            v = random_hermitian(rng, pat.m + 1)
            z, b, v_next, _ = admm_step(triangle_of(v, spec), spec)
            z_ref, s_ref, c_ref, v_ref = admm_map(v, spec)
            assert np.allclose(spec.hermitian(z), z_ref, rtol=0, atol=1e-12)
            assert np.allclose(spec.hermitian(b), bordered_matrix(s_ref, c_ref), rtol=0, atol=1e-12)
            assert np.allclose(spec.hermitian(v_next), v_ref, rtol=0, atol=1e-12)


class TestResiduals:
    def test_initial_constraint_residual_is_one(self):
        spec = _spec_for(_full_pattern(4), y=np.ones(4))
        _, constraint = residuals(np.eye(5), np.zeros((4, 4)), np.zeros(4), spec)
        assert np.isclose(constraint, 1.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        pat = random_pattern(rng, 8, admissible=True)
        spec = _spec_for(pat)
        z, s, c, _ = _random_state(rng, spec)
        assert all(r >= 0 for r in residuals(z, s, c, spec))

    def test_small_at_convergence(self):
        spec = _spec_for(_full_pattern(6), y=np.ones(6), rho=5.0, tol_gap=0.0)
        report = solve(spec)
        assert report.converged
        assert max(report.final_residuals) < 1e-6

    def test_solve_reads_the_reference_residuals_off_its_point(self, monkeypatch):
        from spectral_sdp import solver

        rng = np.random.default_rng(24)
        pat = random_pattern(rng, 8, admissible=True)
        y = random_complex(rng, pat.m)
        captured = []
        step = solver.admm_step

        def capture(*args):
            out = step(*args)
            captured.append(out[:2])
            return out

        monkeypatch.setattr(solver, "admm_step", capture)
        checked = 0
        for max_iter in range(1, 13):
            captured.clear()
            prob = _spec_for(pat, y=y, max_iter=max_iter, tol_primal=0.0)
            report = solve(prob)
            z, s, c = _dense(prob, *captured[-1])
            if not np.array_equal(report.c_star, c):
                continue  # the budget ended on a rejected extrapolation
            checked += 1
            expected = residuals(z, s, c, prob)
            assert np.allclose(report.final_residuals, expected, rtol=0, atol=1e-12)
        assert checked >= 6


class TestSolve:
    def test_zero_data_gives_zero_dual(self):
        spec = _spec_for(_full_pattern(5), rho=2.0)
        report = solve(spec)
        assert report.converged
        assert np.linalg.norm(report.c_star) < 1e-6
        assert abs(report.dual_objective) < 1e-6

    def test_single_observation_analytic_optimum(self):
        # With one kept sample the constraint forces S = [1] and |c| <= 1,
        # so the maximizer of Re(y0 c) is conj(y0)/|y0| with value |y0|.
        y0 = 1.2 - 0.9j
        spec = _spec_for(
            SelectionPattern(indices=(0,), ambient=8), y=[y0], rho=1.0
        )
        report = solve(spec)
        assert report.converged
        assert np.isclose(report.c_star[0], np.conj(y0) / abs(y0), atol=1e-6)
        assert np.isclose(report.dual_objective, abs(y0), atol=1e-6)
        assert np.isclose(report.S_star[0, 0], 1.0, atol=1e-6)

    def test_full_observation_objective_matches_atomic_mass(self):
        rng = np.random.default_rng(9)
        n = 32
        spec_sig = random_spike_spectrum(rng, 2, min_sep=4 / (n - 1))
        y = synthesize_uniform(spec_sig, 1.0, n)
        prob = _spec_for(_full_pattern(n), y=y, rho=20.0)
        report = solve(prob)
        assert report.converged
        assert abs(report.dual_objective - np.abs(spec_sig.amps).sum()) < 1e-4

    def test_noiseless_optimum_reports_a_rank_deficit_of_s(self):
        # The optimal multiplier -rho V_- has one rank per spike.
        rng = np.random.default_rng(44)
        n = 64
        sig = random_spike_spectrum(rng, 3, min_sep=4 / (n - 1))
        prob = _spec_for(_full_pattern(n), y=synthesize_uniform(sig, 1.0, n), rho=30.0)
        report = solve(prob)
        assert report.converged
        assert report.rank_deficit == 3
        assert 0 <= report.full_eigh_iterations <= report.iterations

    def test_benchmark_shapes_project_warm_throughout(self):
        # Criterion 5's shape (order 65) and criterion 7's two grids (order
        # 49): every projection, the first included, is a certified warm one.
        rng = np.random.default_rng(46)
        n = 64
        sig = random_spike_spectrum(rng, 3, min_sep=4 / (n - 1))
        prob = _spec_for(_full_pattern(n), y=synthesize_uniform(sig, 1.0, n), rho=30.0)
        report = solve(prob)
        assert report.converged and report.full_eigh_iterations == 0
        system = MultirateSystem(
            grids=(
                Grid(f=Fraction(1), gamma=Fraction(0), n=24),
                Grid(f=Fraction(1), gamma=Fraction(1, 2), n=24),
            )
        )
        amp = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
        sig = SpikeSpectrum(freqs=np.array([0.7]), amps=np.array([amp]))
        ys = [synthesize_grid(sig, g) for g in system.grids]
        diag = estimate(ys, system, config=EstimationConfig(rho=30.0, tol_primal=5e-9)).diagnostics
        assert diag.converged and diag.full_eigh_iterations == 0

    def test_failed_warm_projections_back_off(self, monkeypatch):
        # After each failed warm attempt the next 1, 2, 4, ... projections
        # are full ones, so N iterations make at most log2(N) + 1 attempts.
        from spectral_sdp import solver

        attempts = []

        def fail(a, *args):
            attempts.append(a.shape[0])
            return None

        monkeypatch.setattr(solver, "_ritz_projection", fail)
        rng = np.random.default_rng(47)
        n = 64
        sig = random_spike_spectrum(rng, 3, min_sep=4 / (n - 1))
        prob = _spec_for(_full_pattern(n), y=synthesize_uniform(sig, 1.0, n), rho=30.0, max_iter=40)
        report = solve(prob)
        assert set(attempts) == {65}
        assert report.full_eigh_iterations == report.iterations
        assert 1 <= len(attempts) <= np.ceil(np.log2(report.iterations)) + 1

    def test_sparse_selection_backs_off_and_stops_on_the_gap(self):
        # m = 61 of n = 2048 (the long-sparse shape): V keeps more negative
        # eigenvalues than the Krylov space admits or the Ritz passes
        # resolve, so warm projections fail and the backoff runs full ones.
        rng = np.random.default_rng(48)
        n, m = 2048, 61
        keep = np.sort(rng.choice(n, size=m, replace=False))
        sig = random_spike_spectrum(rng, 2, min_sep=4 / (n - 1))
        y = synthesize_uniform(sig, 1.0, n)[keep]
        pattern = SelectionPattern(indices=tuple(int(i) for i in keep), ambient=n)
        est = estimate(y, pattern, 1.0, EstimationConfig(rho=15.0, tol_primal=5e-9))
        diag = est.diagnostics
        assert diag.stopped_on == "gap"
        assert est.freqs.size == 2
        assert np.allclose(np.sort(est.freqs), sig.freqs, rtol=0, atol=1e-3)
        assert 0 < diag.full_eigh_iterations < diag.iterations

    def test_benchmark_shapes_converge_within_120_iterations(self):
        # Criterion 5's shape (n = 64, s = 3, rho 30) and criterion 6's
        # (48 of n = 128, s = 2, rho 15): the deep Anderson history of
        # these orders took them from 229 and 196 iterations to 58 and 51.
        rng = np.random.default_rng(45)
        n = 64
        sig = random_spike_spectrum(rng, 3, min_sep=4 / (n - 1))
        full = _spec_for(_full_pattern(n), y=synthesize_uniform(sig, 1.0, n), rho=30.0)
        n = 128
        keep = np.sort(np.concatenate([[0], 1 + rng.choice(n - 1, size=47, replace=False)]))
        sig = random_spike_spectrum(rng, 2, min_sep=4 / (n - 1))
        y = synthesize_uniform(sig, 1.0, n)[keep]
        pattern = SelectionPattern(indices=tuple(int(i) for i in keep), ambient=n)
        selected = _spec_for(pattern, y=y, rho=15.0, tol_primal=5e-9)
        for spec in (full, selected):
            report = solve(spec)
            assert report.converged
            assert report.iterations <= 120

    def test_weak_duality_under_subsampling(self):
        rng = np.random.default_rng(10)
        n = 24
        for _ in range(3):
            spec_sig = random_spike_spectrum(rng, 2, min_sep=0.15)
            y_raw = synthesize_uniform(spec_sig, 1.0, n)
            pat = random_pattern(rng, n, admissible=True)
            y = y_raw[list(pat.indices)]
            prob = _spec_for(pat, y=y, rho=10.0)
            report = solve(prob)
            assert report.dual_objective <= np.abs(spec_sig.amps).sum() + 1e-6

    def test_manual_cycle_matches_solve(self):
        rng = np.random.default_rng(11)
        pat = random_pattern(rng, 10, admissible=True)
        y = random_complex(rng, pat.m)
        prob = _spec_for(pat, y=y, max_iter=60, tol_primal=0.0)
        n = pat.m + 1
        upper = prob.triangle[0]
        # The cycle in the classical order, from Z = I and Lambda = 0:
        # c and S, then the projection, then the multiplier.
        z = triangle_of(np.eye(n), prob)
        lam = np.zeros_like(z)  # Lambda / rho
        for _ in range(60):
            a_s, a_c = prob.split(z + lam)
            s = update_S_blocks(a_s, prob)
            b = np.concatenate([s, update_c(a_c, prob), [1.0]])
            v = b - lam
            z_mat = psd_project(prob.hermitian(v))[0]
            assert np.linalg.eigvalsh(z_mat).min() >= -1e-10
            z = z_mat.ravel().take(upper)
            lam = z - v
        # The plain map projects first; from V = I it reproduces the cycle.
        v_in = triangle_of(np.eye(n), prob)
        for _ in range(60):
            _, plain, v_in, _ = admm_step(v_in, prob)
        assert np.array_equal(prob.split(plain)[0], s)
        assert np.array_equal(prob.split(plain)[1], prob.split(b)[1])
        assert np.array_equal(v_in, v)

    def test_accelerated_solve_reaches_the_plain_fixed_point(self):
        rng = np.random.default_rng(11)
        pat = random_pattern(rng, 10, admissible=True)
        y = random_complex(rng, pat.m)
        prob = _spec_for(pat, y=y, rho=2.0)
        # The reference runs well past tol_primal, so that it sits at the
        # fixed point.
        v = triangle_of(np.eye(pat.m + 1), prob)
        for _ in range(prob.max_iter):
            z, b, v, _ = admm_step(v, prob)
            z_mat, s, c = _dense(prob, z, b)
            if max(residuals(z_mat, s, c, prob)) < 1e-3 * prob.tol_primal:
                break
        else:
            pytest.fail("the plain map did not converge")
        report = solve(prob)
        assert report.converged
        assert np.linalg.norm(report.c_star - c) < 10 * prob.tol_primal

    def test_every_iteration_is_one_projection(self, monkeypatch):
        from spectral_sdp import solver

        rng = np.random.default_rng(24)
        pat = random_pattern(rng, 8, admissible=True)
        y = random_complex(rng, pat.m)
        calls = []
        project = solver.psd_project
        monkeypatch.setattr(
            solver,
            "psd_project",
            lambda *args: calls.append(1) or project(*args),
        )
        rejected = [0]
        for max_iter in range(1, 13):
            calls.clear()
            prob = _spec_for(pat, y=y, max_iter=max_iter, tol_primal=0.0)
            report = solve(prob)
            assert report.iterations == max_iter == len(calls)
            assert np.isfinite(report.c_star).all()
            assert np.isfinite(report.S_star).all()
            rejected.append(report.rejected_extrapolations)
        # Some budgets end on a rejected extrapolation.
        assert any(b > a for a, b in zip(rejected, rejected[1:]))

    def test_a_second_solve_of_one_spec_is_byte_identical(self):
        # No state leaks between solves through the spec's cached indices.
        for spec, _ in _gap_shapes(63):
            runs = [solve(spec), solve(spec), solve(replace(spec))]
            dumped = [
                [np.asarray(getattr(run, f.name)).tobytes() for f in fields(run)] for run in runs
            ]
            assert dumped[0] == dumped[1] == dumped[2]

    def test_residuals_trend_downward(self):
        rng = np.random.default_rng(12)
        n = 16
        spec_sig = random_spike_spectrum(rng, 2, min_sep=0.2)
        y = synthesize_uniform(spec_sig, 1.0, n)
        prob = _spec_for(_full_pattern(n), y=y, rho=5.0)
        report = solve(prob)
        assert report.converged
        # The primal residual a budget of k iterations ends on, every 5.
        history = {
            k: solve(replace(prob, max_iter=k)).final_residuals[0]
            for k in range(5, report.iterations + 1, 5)
        }
        assert len(history) >= 3
        records = [history[k] for k in sorted(history)]
        assert records[-1] < records[0]

    def test_nonconvergence_is_reported_not_raised(self):
        spec = _spec_for(_full_pattern(8), y=np.ones(8), max_iter=5)
        report = solve(spec)
        assert not report.converged and report.iterations == 5

    @pytest.mark.parametrize(
        "knob",
        [
            {"max_iter": 0},
            {"max_iter": -3},
            {"tol_primal": -1e-9},
            {"tau": np.nan},
            {"tau": np.inf},
            {"rho": np.nan},
            {"rho": np.inf},
            {"tol_primal": np.nan},
            {"y": [0.0, np.nan, 0.0, 0.0]},
            {"y": [0.0, 0.0, complex(0.0, np.inf), 0.0]},
            {"tol_gap": np.nan},
            {"tol_gap": np.inf},
            {"tol_gap": -1e-5},
            {"tol_gap": 1.0},
        ],
    )
    def test_rejects_empty_budget_and_negative_tolerances(self, knob):
        with pytest.raises(InvalidInputError):
            _spec_for(_full_pattern(4), **knob)

    def test_overflow_raises_numerical_error(self):
        spec = _spec_for(SelectionPattern(indices=(0,), ambient=2), y=[1e200])
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NumericalError):
            solve(spec)


def _gap_shapes(seed):
    """Criterion 5's, 6's and 7's shapes (full 64, 48 of 128, two grids)
    as ``(spec, pattern)``, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n = 64
    sig = random_spike_spectrum(rng, 3, min_sep=4 / (n - 1))
    yield _spec_for(_full_pattern(n), y=synthesize_uniform(sig, 1.0, n), rho=30.0), _full_pattern(n)
    n = 128
    keep = np.sort(np.concatenate([[0], 1 + rng.choice(n - 1, size=47, replace=False)]))
    pattern = SelectionPattern(indices=tuple(int(i) for i in keep), ambient=n)
    sig = random_spike_spectrum(rng, 2, min_sep=4 / (n - 1))
    y = synthesize_uniform(sig, 1.0, n)[keep]
    yield _spec_for(pattern, y=y, rho=15.0, tol_primal=5e-9), pattern
    system = MultirateSystem(
        grids=(
            Grid(f=Fraction(1), gamma=Fraction(0), n=24),
            Grid(f=Fraction(1), gamma=Fraction(1, 2), n=24),
        )
    )
    sig = SpikeSpectrum(freqs=np.array([0.7]), amps=random_complex(rng, 1))
    grid = common_grid(system)
    y = align_measurements(system, [synthesize_grid(sig, g) for g in system.grids], grid)
    yield _spec_for(grid.observation_set, y=y, rho=30.0, tol_primal=5e-9), grid.observation_set


def _last_evaluation(monkeypatch, spec):
    """The report of ``solve(spec)`` and the triangle ``b`` and projection
    of its last evaluation."""
    from spectral_sdp import solver

    captured = []
    step = solver.admm_step

    def capture(*args):
        out = step(*args)
        captured.append(out)
        return out

    monkeypatch.setattr(solver, "admm_step", capture)
    report = solve(spec)
    monkeypatch.undo()
    _, b, _, projection = captured[-1]
    return report, b, projection


class TestDualityGap:
    @pytest.mark.parametrize("seed", [60, 61])
    def test_bounds_bracket_the_optimum(self, seed):
        for spec, _ in _gap_shapes(seed):
            report = solve(spec)
            assert report.stopped_on == "gap"
            tight = solve(replace(spec, tol_gap=0.0, tol_primal=1e-11))
            assert tight.stopped_on == "residuals"
            assert report.gap_lower <= tight.dual_objective <= report.gap_upper
            assert report.gap_upper - report.gap_lower <= spec.tol_gap * report.gap_upper

    @pytest.mark.parametrize(
        "tol_gap", [ProblemSpec.tol_gap, 0.0], ids=["gap", "residuals"]
    )
    def test_gap_stop_returns_a_dual_feasible_point(self, tol_gap):
        # Either stop returns the certified point.
        for spec, pattern in _gap_shapes(62):
            report = solve(replace(spec, tol_gap=tol_gap))
            assert report.stopped_on == ("gap" if tol_gap else "residuals") and report.converged
            sums = block_sums(spec.partition, report.S_star)
            assert np.max(np.abs(sums - spec.partition.delta)) <= 1e-12
            bordered = bordered_matrix(report.S_star, report.c_star)
            assert np.linalg.eigvalsh(bordered).min() >= -1e-10
            assert dense_sup_norm(dual_polynomial(report.c_star, pattern)) <= 1 + 1e-9
            assert report.dual_objective == report.gap_lower
            assert np.array_equal(report.S_star, report.S_star.conj().T)

    def test_relative_gap_is_scale_free(self, monkeypatch):
        from spectral_sdp import solver

        rng = np.random.default_rng(63)
        n = 32
        sig = random_spike_spectrum(rng, 2, min_sep=4 / (n - 1))
        y = add_noise(synthesize_uniform(sig, 1.0, n), NoiseSpec(sigma=0.1, seed=63))
        spec = assemble_problem(y, _full_pattern(n), sigma=0.1, rho=10.0)
        assert spec.tau > 0
        report, b, projection = _last_evaluation(monkeypatch, spec)
        c = spec.split(b)[1]
        gaps = []
        for factor in (1.0, 10.0):
            scaled = replace(spec, y=factor * spec.y, tau=factor * spec.tau)
            lower, upper = solver._gap_bounds(scaled, c, projection, 1.0 + 1e-6)
            gaps.append((upper - lower) / upper)
        assert np.isclose(gaps[0], gaps[1], rtol=1e-9, atol=0)

    def test_esprit_frequencies_match_the_dual_polynomial_peaks(self, monkeypatch):
        from spectral_sdp import solver

        for spec, pattern in _gap_shapes(64):
            for tol_gap in (spec.tol_gap, 0.0):
                report, b, projection = _last_evaluation(monkeypatch, replace(spec, tol_gap=tol_gap))
                esprit = np.sort(solver._atoms(spec, projection, spec.split(b)[1]))
                q = dual_polynomial(report.c_star, pattern)
                peaks = locate_frequencies(q, 1.0).freqs_hz
                assert esprit.size == peaks.size == projection.negatives
                assert np.max(np.abs(esprit - peaks)) <= 1e-8

    def test_failed_certificate_does_not_stop(self, monkeypatch):
        # The first certificate a stop asks for fails: the solve goes on,
        # in full eigendecompositions, and stops later.
        from spectral_sdp import solver

        spec = next(_gap_shapes(66))[0]
        report = solve(spec)
        assert report.full_eigh_iterations == 0
        certified, calls = solver._certified, []

        def fail_once(z, shift):
            calls.append(1)
            return len(calls) > 1 and certified(z, shift)

        monkeypatch.setattr(solver, "_certified", fail_once)
        again = solve(spec)
        assert again.converged and again.iterations > report.iterations
        assert again.full_eigh_iterations >= 1


class TestRitzTolerance:
    @staticmethod
    def _criterion_5_shape(seed, **kw):
        rng = np.random.default_rng(seed)
        n = 64
        sig = random_spike_spectrum(rng, 3, min_sep=4 / (n - 1))
        return _spec_for(_full_pattern(n), y=synthesize_uniform(sig, 1.0, n), rho=30.0, **kw)

    def test_each_tolerance_follows_the_last_accepted_residual(self, monkeypatch):
        # Every evaluation's tolerance is _RITZ_KAPPA times the fixed-point
        # residual of the last accepted one relative to its point, and at
        # least _RITZ_TOL; the warm stopping iterate passed the certificate.
        from spectral_sdp import solver

        spec = self._criterion_5_shape(46)
        scale = np.repeat(spec.weight, 2)
        # Per evaluation: [received tolerance, rule at its own residual,
        # accepted, projected in full]; and the outcome of each certificate
        # with the evaluation it judged.
        evaluations, certificates = [], []
        step, anderson_step, certify = solver.admm_step, solver._Anderson.step, solver._certified

        def record_step(v, problem, basis, tol):
            z, b, image, projection = step(v, problem, basis, tol)
            point = v.view(float) * scale
            residual = _norm(image.view(float) * scale - point)
            rule = max(solver._RITZ_TOL, solver._RITZ_KAPPA * residual / _norm(point))
            evaluations.append([tol, rule, not evaluations, projection.full])
            return z, b, image, projection

        def record_accepted(self, *args):
            evaluations[-1][2] = True
            return anderson_step(self, *args)

        def record_certificate(*args):
            certificates.append((len(evaluations) - 1, certify(*args)))
            return certificates[-1][1]

        monkeypatch.setattr(solver, "admm_step", record_step)
        monkeypatch.setattr(solver._Anderson, "step", record_accepted)
        monkeypatch.setattr(solver, "_certified", record_certificate)
        report = solve(spec)
        assert report.stopped_on == "gap" and len(evaluations) == report.iterations
        assert report.rejected_extrapolations > 0  # so acceptance matters
        tols = [evaluation[0] for evaluation in evaluations]
        assert tols[0] == solver._RITZ_TOL and max(tols) > 1e-6
        expected = solver._RITZ_TOL
        for tol, rule, accepted, _ in evaluations:
            assert tol == pytest.approx(expected, rel=1e-6)
            expected = rule if accepted else expected
        last = len(evaluations) - 1
        assert not evaluations[last][3] and certificates[-1] == (last, True)
        assert tols[last] > solver._RITZ_TOL  # a loose warm step may stop

    def test_residual_stop_runs_no_more_full_projections(self, monkeypatch):
        # With tol_gap = 0 the residual rule stops the solve. A _RITZ_KAPPA
        # of 0 gives every warm projection the fixed tolerance _RITZ_TOL.
        from spectral_sdp import solver

        spec = self._criterion_5_shape(44, tol_gap=0.0)
        report = solve(spec)
        monkeypatch.setattr(solver, "_RITZ_KAPPA", 0.0)
        fixed = solve(spec)
        assert report.stopped_on == fixed.stopped_on == "residuals"
        assert report.full_eigh_iterations <= fixed.full_eigh_iterations

    def test_criterion_11_shape_projects_warm_throughout(self):
        # n = 128, s = 3 at 10 dB, tau factor 1.5, rho 100: the fixed 1e-13
        # tolerance sent 11 of 55 iterations to the full eigh.
        rng = np.random.default_rng(1100)
        n, s = 128, 3
        freqs = separated_freqs(rng, s, 4 / (n - 1))
        amps = np.exp(2j * np.pi * rng.random(s))
        clean = synthesize_uniform(SpikeSpectrum(freqs=freqs, amps=amps), 1.0, n)
        sigma = float(np.sqrt((np.abs(amps) ** 2).sum() / 10))
        y = add_noise(clean, NoiseSpec(sigma=sigma, seed=int(rng.integers(0, 2**63 - 1))))
        tau = 1.5 * sigma * np.sqrt(n * np.log(n))
        report = solve(_spec_for(_full_pattern(n), y=y, tau=tau, rho=100.0))
        assert report.converged and report.full_eigh_iterations == 0


class TestAndersonHistory:
    def test_float32_ring_buffers_sized_by_the_byte_budget(self):
        from spectral_sdp import solver

        # A point holds (m+1)(m+2) floats: the triangle of V, as floats.
        for order, depth in [(49, 40), (65, 40), (129, 19), (201, 10)]:
            size = order * (order + 1)
            history = solver._Anderson(size)
            assert history.depth == depth
            for buf in (history.dg, history.df):
                assert buf.dtype == np.float32
                assert buf.shape == (depth, size)
            if 8 * solver.DEPTH_MIN * size <= solver.HISTORY_BYTES:  # the floor does not bind
                assert history.dg.nbytes + history.df.nbytes <= solver.HISTORY_BYTES
        # The differences are taken in float64 and rounded once.
        size = 37
        history = solver._Anderson(size)
        f, g, f_next, g_next = np.random.default_rng(41).standard_normal((4, size))
        history.step(f, g, f_next, g_next)
        assert np.array_equal(history.dg[0], (g_next - g).astype(np.float32))
        assert np.array_equal(history.df[0], (f_next - f).astype(np.float32))

    def test_non_finite_proposal_clears_the_history(self):
        from spectral_sdp import solver

        # The Gram [[1, 1], [1, 1 + 2^-22]] is exact in float32 and nearly
        # singular: with the residual (0, 2^18), gamma is (-2^29, 2^29), and
        # gamma dF reaches 5e38, beyond float32.
        history = solver._Anderson(2)
        zero = np.zeros(2)
        history.step(zero, zero, np.array([1e30, 0.0]), np.array([1.0, 0.0]))
        g, g_next = np.array([-1.0, 2.0**18 - 2.0**-11]), np.array([0.0, 2.0**18])
        assert history.step(zero, g, np.array([0.0, 1e30]), g_next) is None
        assert history.count == 0
        # The cleared rows take no part in the next proposal.
        f, f_next = np.zeros(2), np.array([1.0, 1.0])
        g, g_next = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert np.array_equal(history.step(f, g, f_next, g_next), f_next - 0.5 * (f_next - f))
        assert history.count == 1

    def test_singular_gram_falls_back_to_least_squares(self):
        from spectral_sdp import solver

        # Two equal differences make the Gram exactly singular; the
        # minimum-norm least-squares gamma splits the one-step coefficient.
        f = np.array([1.0, -2.0, 0.5])
        g, g_next = np.array([1.0, 2.0, 0.0]), np.array([2.0, 2.0, 1.0])
        f_next = np.array([3.0, 0.0, 1.0])
        one, two = solver._Anderson(3), solver._Anderson(3)
        expected = one.step(f, g, f_next, g_next)
        two.step(f, g, f_next, g_next)
        proposal = two.step(f, g, f_next, g_next)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(two.gram[:2, :2], np.ones(2))
        assert np.allclose(proposal, expected, rtol=1e-6, atol=0)
        dg = g_next - g
        assert np.allclose(expected, f_next - dg @ g_next / (dg @ dg) * (f_next - f))

    def test_float32_overflow_falls_back_to_plain_steps(self):
        rng = np.random.default_rng(43)
        y = 1e25 * random_complex(rng, 8)
        report = solve(_spec_for(_full_pattern(8), y=y, rho=5.0, max_iter=60))
        assert not report.converged and report.iterations == 60
        assert np.isfinite(report.c_star).all()

    def test_converged_solve_meets_the_tolerances_on_reference_residuals(self, monkeypatch):
        from spectral_sdp import solver

        rng = np.random.default_rng(42)
        n = 16
        sig = random_spike_spectrum(rng, 2, min_sep=0.2)
        y_raw = synthesize_uniform(sig, 1.0, n)
        pat = random_pattern(rng, n, admissible=True)
        prob = _spec_for(pat, y=y_raw[list(pat.indices)], rho=5.0, tol_primal=1e-8, tol_gap=0.0)
        # The first evaluation is always accepted; every later accepted one
        # takes an Anderson step, except the converged one.
        captured, accepted = [], [0]
        admm_step, anderson_step = solver.admm_step, solver._Anderson.step

        def capture(*args):
            out = admm_step(*args)
            captured.append(out[:2])
            return out

        def record(self, *args):
            accepted.append(len(captured) - 1)
            return anderson_step(self, *args)

        monkeypatch.setattr(solver, "admm_step", capture)
        monkeypatch.setattr(solver._Anderson, "step", record)
        report = solve(prob)
        assert report.converged
        assert accepted[-1] < len(captured) - 1 == report.iterations - 1
        assert report.stopped_on == "residuals"
        z, s, c = _dense(prob, *captured[-1])
        primal, constraint = residuals(z, s, c, prob)
        assert max(primal, constraint) < prob.tol_primal
        # The last evaluation is reported certified, as c / beta with
        # beta - 1 about (m + 1) / 2 times its residual.
        beta = np.vdot(report.c_star, c) / np.vdot(report.c_star, report.c_star)
        assert np.allclose(report.c_star * beta, c, rtol=0, atol=1e-14)
        assert 1 < beta.real < 1 + prob.m * prob.tol_primal


class TestAssembleProblem:
    def test_partition_size(self):
        rng = np.random.default_rng(13)
        pat = random_pattern(rng, 20, admissible=True)
        prob = assemble_problem(np.zeros(pat.m), pat)
        total = sum(len(b) for b in blocks(prob.partition).values())
        assert total == pat.m * (pat.m + 1) // 2

    def test_rejects_pattern_without_index_zero(self):
        pat = SelectionPattern(indices=(2, 5), ambient=8)
        with pytest.raises(InvalidInputError):
            assemble_problem(np.zeros(2), pat)

    def test_noise_rule_sets_tau(self):
        pat = SelectionPattern(indices=tuple(range(16)), ambient=16)
        sigma = 0.25
        prob = assemble_problem(np.zeros(16), pat, sigma=sigma)
        assert np.isclose(prob.tau, 1.5 * sigma * np.sqrt(16 * np.log(16)))

    @pytest.mark.parametrize(
        "noise",
        [
            {"sigma": -0.1},
            {"sigma": np.nan},
            {"sigma": np.inf},
        ],
    )
    def test_rejects_bad_noise_rule_settings(self, noise):
        pat = SelectionPattern(indices=tuple(range(4)), ambient=4)
        with pytest.raises(InvalidInputError):
            assemble_problem(np.zeros(4), pat, **noise)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("rho", True),
            ("tau", True),
            ("tol_primal", True),
            ("tol_gap", False),
            ("sigma", True),
            ("rho", np.True_),
            ("max_iter", True),
            ("rho", None),
            ("tau", "large"),
            ("tol_gap", 1j),
        ],
    )
    def test_rejects_a_bool_or_a_non_number_naming_the_field(self, name, value):
        pat = SelectionPattern(indices=tuple(range(4)), ambient=4)
        with pytest.raises(InvalidInputError, match=name):
            assemble_problem(np.zeros(4), pat, **{name: value})

    def test_real_settings_are_stored_as_floats(self):
        pat = SelectionPattern(indices=tuple(range(4)), ambient=4)
        prob = assemble_problem(
            np.zeros(4), pat, tau=1, rho=np.float32(2.5), tol_primal=0, tol_gap=np.float64(0.5)
        )
        values = {"tau": 1.0, "rho": 2.5, "tol_primal": 0.0, "tol_gap": 0.5}
        for name, value in values.items():
            assert type(getattr(prob, name)) is float and getattr(prob, name) == value
        noisy = assemble_problem(np.zeros(4), pat, sigma=np.int64(2))
        assert noisy.tau == assemble_problem(np.zeros(4), pat, sigma=2.0).tau > 0

    def test_explicit_tau_wins(self):
        pat = SelectionPattern(indices=tuple(range(4)), ambient=4)
        prob = assemble_problem(np.zeros(4), pat, tau=0.7, sigma=9.9)
        assert prob.tau == 0.7
