"""ADMM building blocks and full solves of the reduced dual."""

from dataclasses import replace

import numpy as np
import pytest

from spectral_sdp import (
    InvalidInputError,
    NumericalError,
    ProblemSpec,
    SelectionPattern,
    admm_step,
    assemble_problem,
    common_grid,
    compute_partition,
    psd_project,
    solve,
    synthesize_uniform,
    update_S_blocks,
    update_c,
)
from spectral_sdp.oracles import (
    admm_map,
    block_sums,
    blocks,
    bordered_matrix,
    finite_perturbation_check,
    residuals,
)

from conftest import (
    lagrangian_block,
    lagrangian_c,
    random_complex,
    random_hermitian,
    random_pattern,
    random_spike_spectrum,
    triangle_of,
)


def _full_pattern(n):
    return SelectionPattern(indices=tuple(range(n)), ambient=n)


def _spec_for(pattern, y=None, **kw):
    y = np.zeros(pattern.m, dtype=complex) if y is None else np.asarray(y, complex)
    return ProblemSpec(y=y, partition=compute_partition(pattern), **kw)


def _random_state(rng, spec):
    """Random dense ``(Z, S, c, Lambda, mu)``, with ``mu`` real at lag 0."""
    m = spec.m
    z = random_hermitian(rng, m + 1)
    s = random_hermitian(rng, m)
    c = random_complex(rng, m)
    lam = random_hermitian(rng, m + 1)
    mu = random_complex(rng, spec.partition.p)
    mu[list(spec.partition.positive_lags).index(0)] = rng.standard_normal()
    return z, s, c, lam, mu


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
            z_mat, _, _, lam_mat, _ = _random_state(rng, spec)
            c_star = update_c(_update_inputs(spec, z_mat, lam_mat)[1], spec)
            z = z_mat[:m, m]
            lam = lam_mat[:m, m]
            obj = lambda c: lagrangian_c(c, spec.y, z, lam, spec.rho, spec.tau)
            assert finite_perturbation_check(obj, c_star, directions=100, step=1e-3, seed=trial)


class TestUpdateSBlocks:
    def test_singleton_diagonal_block_from_zeros(self):
        spec = _spec_for(SelectionPattern(indices=(0,), ambient=2))
        s = update_S_blocks(np.zeros(1, complex), np.zeros(spec.partition.p, complex), spec)
        assert np.isclose(s[0], 0.5)

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
        a = z0[part.rows, part.cols]  # Lambda = 0 and mu = 0
        s = update_S_blocks(a, np.zeros(part.p, complex), spec)
        assert np.allclose(s, a, atol=1e-12)

    def test_blocks_are_exact_minimizers(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            pat = random_pattern(rng, int(rng.integers(3, 10)), admissible=True)
            spec = _spec_for(pat, rho=0.5 + rng.random())
            z, _, _, lam, mu = _random_state(rng, spec)
            s = update_S_blocks(_update_inputs(spec, z, lam)[0], mu, spec)
            part = spec.partition
            z0, lam0 = triangle_of(z, spec), triangle_of(lam, spec)
            for pos, k in enumerate(part.positive_lags):
                block = slice(part.starts[pos], part.starts[pos] + part.sizes[pos])
                obj = lambda v: lagrangian_block(
                    v,
                    z0[block],
                    lam0[block],
                    mu[pos],
                    1.0 if k == 0 else 0.0,
                    spec.rho,
                )
                assert finite_perturbation_check(
                    obj, s[block], directions=50, step=1e-3, seed=trial, tol=1e-9
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
    # Above this order a given basis warm-starts the projection.
    ORDER = 80

    def test_identity_unchanged(self):
        assert np.allclose(psd_project(np.eye(4))[0], np.eye(4))

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

    def test_reads_only_the_lower_triangle_with_a_warm_basis(self):
        rng = np.random.default_rng(26)
        vals = np.concatenate([-1.0 - rng.random(3), 0.5 + rng.random(self.ORDER - 3)])
        h, vecs = _with_spectrum(rng, vals)
        basis = _perturbed(rng, vecs[:, :4], 1e-6)
        other = h.copy()
        other[np.triu_indices(self.ORDER, 1)] = np.nan
        other[np.diag_indices(self.ORDER)] += 1j * rng.standard_normal(self.ORDER)
        z, projection = psd_project(other, basis)
        assert not projection.full
        assert np.array_equal(z, psd_project(h, basis)[0])

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

    def test_a_basis_missing_a_negative_pair_falls_back(self):
        # Exact eigenvectors span an invariant space, so no Krylov step can
        # find the missing pair; the Cholesky certificate must reject Z.
        rng = np.random.default_rng(52)
        n = self.ORDER
        vals = np.concatenate([[-1.5, -0.7, -1e-6], 0.5 + rng.random(n - 3)])
        h, vecs = _with_spectrum(rng, vals)
        basis = vecs[:, [0, 1, 3 + int(np.argmin(vals[3:]))]]
        z, projection = psd_project(h, basis)
        assert projection.full and projection.negatives == 3
        assert np.array_equal(z, psd_project(h)[0])  # the full eigh, as without a basis
        assert _relative_error(z, h) <= 1e-12

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
        z, _, _, _, _ = admm_step(v, np.zeros(spec.partition.p, complex), spec)
        assert np.allclose(spec.rho * (z - v), triangle_of(lam, spec))

    def test_mu_frozen_when_block_sums_feasible(self):
        spec = _spec_for(SelectionPattern(indices=(0, 1), ambient=3))
        mu_in = np.zeros(spec.partition.p, dtype=complex)
        v = triangle_of(bordered_matrix(np.eye(2) / 2.0, np.zeros(2)), spec)
        z, b, _, mu, _ = admm_step(v, mu_in, spec)
        part = spec.partition
        s = _dense(spec, z, b)[1]
        assert np.allclose(mu - mu_in, spec.rho * (block_sums(part, s) - part.delta))
        assert np.allclose(mu, mu_in)

    def test_one_step_from_zeros(self):
        spec = _spec_for(_full_pattern(3), rho=1.0)
        part = spec.partition
        _, _, v, mu, _ = admm_step(np.zeros(10, complex), np.zeros(part.p, complex), spec)
        # Each block of S sits below delta by delta/(|J|+1): S = I/4.
        assert np.allclose(spec.hermitian(v), np.diag([0.25, 0.25, 0.25, 1.0]))
        expected = np.zeros(part.p)
        expected[list(part.positive_lags).index(0)] = -0.25
        assert np.allclose(mu, expected)

    def test_inputs_are_only_read(self):
        rng = np.random.default_rng(25)
        pat = random_pattern(rng, 10, admissible=True)
        spec = _spec_for(pat, y=random_complex(rng, pat.m), rho=2.0)
        v = triangle_of(random_hermitian(rng, pat.m + 1), spec)
        mu = random_complex(rng, spec.partition.p)
        v_before, mu_before = v.copy(), mu.copy()
        admm_step(v, mu, spec)
        assert np.array_equal(v, v_before) and np.array_equal(mu, mu_before)

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
            mu = random_complex(rng, spec.partition.p)
            z, b, v_next, mu_next, _ = admm_step(triangle_of(v, spec), mu, spec)
            z_ref, s_ref, c_ref, v_ref, mu_ref = admm_map(v, mu, spec)
            assert np.allclose(spec.hermitian(z), z_ref, rtol=0, atol=1e-12)
            assert np.allclose(spec.hermitian(b), bordered_matrix(s_ref, c_ref), rtol=0, atol=1e-12)
            assert np.allclose(spec.hermitian(v_next), v_ref, rtol=0, atol=1e-12)
            assert np.allclose(mu_next, mu_ref, rtol=0, atol=1e-12)


class TestResiduals:
    def test_initial_constraint_residual_is_one(self):
        spec = _spec_for(_full_pattern(4), y=np.ones(4))
        _, constraint, _ = residuals(np.eye(5), np.zeros((4, 4)), np.zeros(4), spec)
        assert np.isclose(constraint, 1.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        pat = random_pattern(rng, 8, admissible=True)
        spec = _spec_for(pat)
        z, s, c, _, _ = _random_state(rng, spec)
        z_prev = random_hermitian(rng, pat.m + 1)
        assert all(r >= 0 for r in residuals(z, s, c, spec, z_prev))

    def test_small_at_convergence(self):
        spec = _spec_for(_full_pattern(6), y=np.ones(6), rho=5.0)
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

        def capture(v, mu, spec, basis):
            out = step(v, mu, spec, basis)
            captured.append(out[:2])
            return out

        monkeypatch.setattr(solver, "admm_step", capture)
        checked = 0
        for max_iter in range(1, 13):
            captured.clear()
            prob = _spec_for(pat, y=y, max_iter=max_iter, tol_primal=0.0, tol_dual=0.0)
            report = solve(prob)
            z, s, c = _dense(prob, *captured[-1])
            if not np.array_equal(report.c_star, c):
                continue  # the budget ended on a rejected extrapolation
            checked += 1
            expected = residuals(z, s, c, prob)[:2]
            assert np.allclose(report.final_residuals[:2], expected, rtol=0, atol=1e-12)
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
        # The optimal multiplier -rho V_- has one rank per spike; at order
        # 65 the projection is warm-started after the first iteration.
        rng = np.random.default_rng(44)
        n = 64
        sig = random_spike_spectrum(rng, 3, min_sep=4 / (n - 1))
        prob = _spec_for(_full_pattern(n), y=synthesize_uniform(sig, 1.0, n), rho=30.0)
        report = solve(prob)
        assert report.converged
        assert report.rank_deficit == 3
        assert 1 <= report.full_eigh_iterations < report.iterations

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
        prob = _spec_for(pat, y=y, max_iter=60, tol_primal=0.0, tol_dual=0.0)
        part, n = prob.partition, pat.m + 1
        upper, lower = prob.triangle
        # The cycle in the classical order, from Z = I and Lambda = mu = 0:
        # c and S, then the projection, then the multipliers.
        z = triangle_of(np.eye(n), prob)
        lam = np.zeros_like(z)  # Lambda / rho
        mu = np.zeros(part.p, dtype=complex)
        for _ in range(60):
            a_s, a_c = prob.split(z + lam)
            s = update_S_blocks(a_s, mu, prob)
            b = np.concatenate([s, update_c(a_c, prob), [1.0]])
            v = b - lam
            h = np.empty((n, n), dtype=complex)
            h.ravel()[lower] = v.conj()
            z_mat = psd_project(h)[0]
            assert np.linalg.eigvalsh(z_mat).min() >= -1e-10
            z = z_mat.ravel().take(upper)
            lam = z - v
            mu = mu + prob.rho * (np.add.reduceat(s, part.starts) - part.delta)
        # The plain map projects first; from V = I it reproduces the cycle.
        v_in = triangle_of(np.eye(n), prob)
        mu_in = np.zeros(part.p, dtype=complex)
        for _ in range(60):
            _, plain, v_in, mu_in, _ = admm_step(v_in, mu_in, prob)
        assert np.array_equal(prob.split(plain)[0], s)
        assert np.array_equal(prob.split(plain)[1], prob.split(b)[1])
        assert np.array_equal(v_in, v)
        assert np.array_equal(mu_in, mu)

    def test_accelerated_solve_reaches_the_plain_fixed_point(self):
        rng = np.random.default_rng(11)
        pat = random_pattern(rng, 10, admissible=True)
        y = random_complex(rng, pat.m)
        prob = _spec_for(pat, y=y, rho=2.0)
        v = z_prev = triangle_of(np.eye(pat.m + 1), prob)
        mu = np.zeros(prob.partition.p, dtype=complex)
        for _ in range(prob.max_iter):
            z, b, v, mu, _ = admm_step(v, mu, prob)
            z_mat, s, c = _dense(prob, z, b)
            primal, constraint, dual = residuals(z_mat, s, c, prob, prob.hermitian(z_prev))
            z_prev = z
            if max(primal, constraint) < prob.tol_primal and dual < prob.tol_dual:
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
            solver, "psd_project", lambda h, basis: calls.append(1) or project(h, basis)
        )
        rejected = [0]
        for max_iter in range(1, 13):
            calls.clear()
            prob = _spec_for(pat, y=y, max_iter=max_iter, tol_primal=0.0, tol_dual=0.0)
            report = solve(prob)
            assert report.iterations == max_iter == len(calls)
            assert np.isfinite(report.c_star).all()
            assert np.isfinite(report.S_star).all()
            rejected.append(report.rejected_extrapolations)
        # Some budgets end on a rejected extrapolation.
        assert any(b > a for a, b in zip(rejected, rejected[1:]))

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
            {"tol_dual": -1.0},
            {"tau": np.nan},
            {"tau": np.inf},
            {"rho": np.nan},
            {"rho": np.inf},
            {"tol_primal": np.nan},
            {"tol_dual": np.nan},
            {"y": [0.0, np.nan, 0.0, 0.0]},
            {"y": [0.0, 0.0, complex(0.0, np.inf), 0.0]},
        ],
    )
    def test_rejects_empty_budget_and_negative_tolerances(self, knob):
        with pytest.raises(InvalidInputError):
            _spec_for(_full_pattern(4), **knob)

    def test_overflow_raises_numerical_error(self):
        spec = _spec_for(SelectionPattern(indices=(0,), ambient=2), y=[1e200])
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NumericalError):
            solve(spec)


class TestAndersonHistory:
    def test_float32_ring_buffers_in_the_bytes_of_float64_memory_five(self):
        from spectral_sdp import solver

        size = 37
        history = solver._Anderson(size)
        for buf in (history.dg, history.df):
            assert buf.dtype == np.float32
            assert buf.shape == (solver.MEMORY, size)
        assert history.dg.nbytes + history.df.nbytes == 2 * 5 * size * 8
        # The differences are taken in float64 and rounded once.
        f, g, f_next, g_next = np.random.default_rng(41).standard_normal((4, size))
        history.push(f, g, f_next, g_next)
        assert np.array_equal(history.dg[0], (g_next - g).astype(np.float32))
        assert np.array_equal(history.df[0], (f_next - f).astype(np.float32))

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
        prob = _spec_for(pat, y=y_raw[list(pat.indices)], rho=5.0, tol_primal=1e-8)
        captured, accepted = [], [0]  # the first evaluation is always accepted
        step, push = solver.admm_step, solver._Anderson.push

        def capture(v, mu, spec, basis):
            out = step(v, mu, spec, basis)
            captured.append(out[:2])
            return out

        def record(self, *args):
            accepted.append(len(captured) - 1)
            push(self, *args)

        monkeypatch.setattr(solver, "admm_step", capture)
        monkeypatch.setattr(solver._Anderson, "push", record)
        report = solve(prob)
        assert report.converged
        assert accepted[-1] == len(captured) - 1 == report.iterations - 1
        z, s, c = _dense(prob, *captured[-1])
        assert np.array_equal(report.c_star, c)
        z_prev = prob.hermitian(captured[accepted[-2]][0])
        primal, constraint, dual = residuals(z, s, c, prob, z_prev)
        assert max(primal, constraint) < prob.tol_primal
        assert dual < prob.tol_dual


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
        prob = assemble_problem(np.zeros(16), pat, sigma=sigma, gamma=1.5)
        assert np.isclose(prob.tau, 1.5 * sigma * np.sqrt(16 * np.log(16)))

    @pytest.mark.parametrize(
        "noise",
        [
            {"sigma": -0.1},
            {"sigma": np.nan},
            {"sigma": np.inf},
            {"sigma": 0.25, "gamma": 1.0},
            {"sigma": 0.25, "gamma": 0.5},
        ],
    )
    def test_rejects_bad_noise_rule_settings(self, noise):
        pat = SelectionPattern(indices=tuple(range(4)), ambient=4)
        with pytest.raises(InvalidInputError):
            assemble_problem(np.zeros(4), pat, **noise)

    def test_explicit_tau_wins(self):
        pat = SelectionPattern(indices=tuple(range(4)), ambient=4)
        prob = assemble_problem(np.zeros(4), pat, tau=0.7, sigma=9.9)
        assert prob.tau == 0.7
