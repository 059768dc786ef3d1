"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them live) and asserts its stated tolerance and time budget. Solver
options such as rho are tuned per run for wall-clock headroom; the
asserted tolerances are the criteria's own.
"""

import time
from fractions import Fraction

import numpy as np

from spectral_sdp import (
    EstimationConfig,
    Grid,
    MultirateSystem,
    SelectionPattern,
    SpikeSpectrum,
    assemble_problem,
    common_grid,
    compute_partition,
    dual_polynomial,
    estimate,
    solve,
    synthesize_grid,
    synthesize_uniform,
    verify_certificate,
)
from spectral_sdp import ProblemSpec, random_selection
from spectral_sdp.oracles import (
    blocks,
    bordered_matrix,
    brute_force_partition,
    finite_perturbation_check,
    gram_eval,
    toeplitz_adjoint,
)
from spectral_sdp.sampling import selection_matrix
from spectral_sdp.solver import update_c, update_S_blocks
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

# sup norms of every converged dual polynomial produced by criteria 4-7,
# asserted globally by criterion 9
_SUP_NORMS: list[float] = []


def _report(num: int, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _wrap_dist(a: float, b: float) -> float:
    return abs((a - b + 0.5) % 1.0 - 0.5)


def _match_error(est: np.ndarray, true: np.ndarray) -> float:
    """Worst-case wrap-around distance from each true frequency to the
    nearest estimate; a count mismatch scores as the maximal distance."""
    if est.size != true.size:
        return 0.5
    return max(min(_wrap_dist(t, e) for e in est) for t in true)


def test_criterion_01_two_grid_reference_values(two_grid_system):
    common_grid(two_grid_system)  # warm caches before timing
    start = time.perf_counter()
    cg = common_grid(two_grid_system)
    elapsed = time.perf_counter() - start
    ok = (
        cg.n0 == 13
        and two_grid_system.m_tilde == 11
        and cg.m == 9
        and cg.observation_set.indices == (0, 1, 3, 5, 6, 7, 9, 11, 12)
        and elapsed < 1e-3
    )
    _report(
        1,
        ok,
        f"two-grid reference: n0={cg.n0}, m_tilde={two_grid_system.m_tilde}, "
        f"m={cg.m}, I={cg.observation_set.indices}, {elapsed * 1e6:.0f} us",
    )


def test_criterion_02_partition_axioms():
    rng = np.random.default_rng(20)
    start = time.perf_counter()
    checked = 0
    for _ in range(200):
        n = int(rng.integers(4, 129))
        pat = random_pattern(rng, n)
        part = compute_partition(pat)
        oracle = brute_force_partition(pat)
        part_blocks, oracle_blocks = blocks(part), blocks(oracle)
        assert part.positive_lags == oracle.positive_lags
        for k in part.positive_lags:
            assert sorted(part_blocks[k]) == sorted(oracle_blocks[k])
        m = pat.m
        seen = {}
        for k, pairs in part_blocks.items():
            for i, j in pairs:
                assert (i, j) not in seen, "blocks overlap"
                seen[(i, j)] = k
        assert sum(len(b) for b in part_blocks.values()) == m * (m + 1) // 2
        for i in range(1, m + 1):
            assert (i, i) in seen, "diagonal pair missing"
            for j in range(i + 1, m + 1):
                assert ((i, j) in seen) != ((j, i) in seen), "orientation broken"
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 200 and elapsed < 10.0
    _report(2, ok, f"partition axioms on {checked} random patterns in {elapsed:.1f} s")


def test_criterion_03_gram_parametrization():
    rng = np.random.default_rng(30)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 33))
        g = random_hermitian(rng, n)
        samples = np.array([gram_eval(g, t / (2 * n)) for t in range(2 * n)])
        recovered = (np.fft.fft(samples) / (2 * n))[:n]
        worst = max(worst, float(np.abs(recovered - toeplitz_adjoint(g)).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(3, ok, f"gram coefficients recovered, worst error {worst:.2e} in {elapsed:.1f} s")


def test_criterion_04_feasibility_lift():
    # The lift bounds depend on the primal and constraint residuals only
    # (eigenvalue bound via ||Z - B||, equality via the block sums), and
    # tol_primal is the one residual tolerance.
    rng = np.random.default_rng(40)
    start = time.perf_counter()
    worst_eq = 0.0
    worst_eig = 0.0
    for trial in range(20):
        n = int(rng.integers(8, 25))
        density = rng.uniform(0.5, 0.95)
        keep = {int(i) for i in np.flatnonzero(rng.random(n) < density)} | {0}
        pat = SelectionPattern(indices=tuple(sorted(keep)), ambient=n)
        s = 1 if pat.m < 8 else int(rng.integers(1, 3))
        sig = random_spike_spectrum(rng, s, min_sep=4 / (n - 1))
        y = synthesize_uniform(sig, 1.0, n)[list(pat.indices)]
        prob = assemble_problem(
            y, pat, rho=30.0, tol_primal=1e-9, max_iter=100000
        )
        report = solve(prob)
        assert report.converged, f"instance {trial} did not converge"
        m_mat = selection_matrix(pat)
        q = dual_polynomial(report.c_star, pat)
        _SUP_NORMS.append(dense_sup_norm(q))
        h = m_mat.conj().T @ report.S_star @ m_mat
        e0 = np.zeros(n)
        e0[0] = 1.0
        worst_eq = max(worst_eq, float(np.abs(toeplitz_adjoint(h) - e0).max()))
        lifted = bordered_matrix(h, q)
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(lifted).min()))
    elapsed = time.perf_counter() - start
    ok = worst_eq <= 1e-6 and worst_eig >= -1e-8 and elapsed < 120.0
    _report(
        4,
        ok,
        f"lift feasibility: max |T*(H)-e0| = {worst_eq:.2e}, "
        f"min eigenvalue {worst_eig:.2e}, {elapsed:.0f} s",
    )


def test_criterion_05_noiseless_exact_recovery():
    n, s = 64, 3
    start = time.perf_counter()
    failures = []
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        sig = random_spike_spectrum(rng, s, min_sep=4 / (n - 1))
        y = synthesize_uniform(sig, 1.0, n)
        pat = SelectionPattern(indices=tuple(range(n)), ambient=n)
        est = estimate(y, pat, 1.0, EstimationConfig(rho=30.0))
        _SUP_NORMS.append(est.diagnostics.sup_norm)
        order = np.argsort(est.freqs)
        freq_err = (
            np.abs(est.freqs[order] - sig.freqs).max() if est.freqs.size == s else 1.0
        )
        amp_err = (
            (np.abs(est.amps[order] - sig.amps) / np.abs(sig.amps)).max()
            if est.freqs.size == s
            else 1.0
        )
        obj_err = abs(est.diagnostics.dual_objective - np.abs(sig.amps).sum())
        cert = verify_certificate(est.dual_poly, sig, 1.0, tol=1e-3)
        if not (
            est.diagnostics.converged
            and freq_err < 1e-4
            and amp_err < 1e-3
            and obj_err < 1e-4
            and cert.is_certificate
        ):
            failures.append((seed, freq_err, amp_err, obj_err, cert.is_certificate))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _report(
        5,
        ok,
        f"noiseless full-observation recovery 10/10 seeds in {elapsed:.0f} s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_06_random_selection_recovery():
    n, s, p = 128, 2, 0.375
    start = time.perf_counter()
    successes = 0
    for seed in range(20):
        rng = np.random.default_rng(600 + seed)
        pat = random_selection(n, p, seed=6000 + seed)
        sig = random_spike_spectrum(rng, s, min_sep=4 / (n - 1))
        y = synthesize_uniform(sig, 1.0, n)[list(pat.indices)]
        est = estimate(
            y, pat, 1.0, EstimationConfig(rho=15.0, tol_primal=5e-9)
        )
        if est.diagnostics.converged:
            _SUP_NORMS.append(est.diagnostics.sup_norm)
        err = _match_error(est.freqs, sig.freqs)
        if est.diagnostics.converged and err < 1e-3:
            successes += 1
    elapsed = time.perf_counter() - start
    ok = successes >= 18 and elapsed < 600.0
    _report(
        6,
        ok,
        f"random selection (m ~ {int(n * p)}): {successes}/20 seeds within 1e-3 "
        f"in {elapsed:.0f} s",
    )


def test_criterion_07_sub_nyquist_multirate():
    # Two rate-1 samplers, half a sample apart: their common grid runs at
    # rate 2, so 0.7 Hz sits inside the joint range while a single rate-1
    # sampler folds it to -0.3 Hz in its classic band (-1/2, 1/2].
    f = 1.0
    xi = 0.7
    n_each = 24
    system = MultirateSystem(
        grids=(
            Grid(f=Fraction(1), gamma=Fraction(0), n=n_each),
            Grid(f=Fraction(1), gamma=Fraction(1, 2), n=n_each),
        )
    )
    cg = common_grid(system)
    assert float(cg.f0) == 2.0 and cg.m == 2 * n_each
    start = time.perf_counter()
    ok_all = True
    details = []
    for seed in range(5):
        rng = np.random.default_rng(700 + seed)
        amp = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
        sig = SpikeSpectrum(freqs=np.array([xi]), amps=np.array([amp]))
        ys = [synthesize_grid(sig, g) for g in system.grids]
        joint = estimate(
            ys, system, config=EstimationConfig(rho=30.0, tol_primal=5e-9)
        )
        if joint.diagnostics.converged:
            _SUP_NORMS.append(joint.diagnostics.sup_norm)
        joint_ok = (
            joint.freqs.size == 1 and abs(joint.freqs[0] - xi) < 1e-3 * f
        )

        # The same spike and its -0.3 Hz alias generate identical samples on
        # sampler 1 alone, so any single-sampler method is blind to the
        # difference; its classic-band report lands at the alias.
        alias = SpikeSpectrum(freqs=np.array([xi - f]), amps=np.array([amp]))
        indistinguishable = np.allclose(
            ys[0], synthesize_grid(alias, system.grids[0]), atol=1e-12
        )
        single = estimate(
            ys[0],
            SelectionPattern(indices=tuple(range(n_each)), ambient=n_each),
            f,
            EstimationConfig(rho=30.0, tol_primal=5e-9),
        )
        if single.diagnostics.converged:
            _SUP_NORMS.append(single.diagnostics.sup_norm)
        centered = (single.freqs[0] + f / 2) % f - f / 2 if single.freqs.size else np.nan
        single_aliased = np.isfinite(centered) and abs(centered - xi) > 0.5
        ok_all &= joint_ok and indistinguishable and single_aliased
        details.append((joint.freqs[0] if joint.freqs.size else None, centered))
    elapsed = time.perf_counter() - start
    ok = ok_all and elapsed < 120.0
    _report(
        7,
        ok,
        f"sub-Nyquist joint recovery of {xi} Hz (single-sampler classic band "
        f"folds to {details[0][1]:.3f} Hz), 5/5 seeds in {elapsed:.0f} s",
    )


def test_criterion_08_block_update_optimality():
    rng = np.random.default_rng(80)
    start = time.perf_counter()
    all_ok = True
    for trial in range(100):
        m_target = int(rng.integers(2, 9))
        pat = random_pattern(rng, 2 * m_target, admissible=True)
        part = compute_partition(pat)
        m = pat.m
        spec = ProblemSpec(
            y=random_complex(rng, m),
            partition=part,
            tau=float(rng.random()),
            rho=0.5 + 2.0 * rng.random(),
        )
        z = random_hermitian(rng, m + 1)
        random_hermitian(rng, m), random_complex(rng, m)  # S, c: kept draws, not read
        lam = random_hermitian(rng, m + 1)
        random_complex(rng, part.p)  # a kept draw, not read
        a_s, a_c = spec.split(triangle_of(z + lam / spec.rho, spec))

        c_star = update_c(a_c, spec)
        all_ok &= finite_perturbation_check(
            lambda c: lagrangian_c(c, spec.y, z[:m, m], lam[:m, m], spec.rho, spec.tau),
            c_star,
            directions=40,
            step=1e-3,
            seed=trial,
            tol=1e-9,
        )

        # S minimizes its block Lagrangians on the block-sum affine sets:
        # it meets every block sum, and no perturbation inside a set, a
        # direction projected to zero block sum, lowers its block's terms.
        s_new = update_S_blocks(a_s, spec)
        sums = np.add.reduceat(s_new, part.starts)
        all_ok &= bool(np.max(np.abs(sums - part.delta)) <= 1e-12)
        z0, lam0 = triangle_of(z, spec), triangle_of(lam, spec)
        for pos in range(part.p):
            block = slice(part.starts[pos], part.starts[pos] + part.sizes[pos])
            all_ok &= finite_perturbation_check(
                on_block_sum_set(
                    lambda v, b=block: lagrangian_block(v, z0[b], lam0[b], spec.rho),
                    s_new[block],
                ),
                s_new[block],
                directions=25,
                step=1e-3,
                seed=trial,
                tol=1e-9,
            )
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 30.0
    _report(8, ok, f"closed-form updates are block minimizers on 100 states in {elapsed:.1f} s")


def test_criterion_09_dual_feasibility_everywhere():
    worst = max(_SUP_NORMS) if _SUP_NORMS else np.inf
    ok = bool(_SUP_NORMS) and worst <= 1 + 1e-6
    _report(
        9,
        ok,
        f"sup|Q| <= 1+1e-6 across {len(_SUP_NORMS)} converged solves "
        f"(worst {worst:.8f})",
    )


def test_criterion_10_cubic_iteration_envelope():
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    timings = {}
    for m in (50, 100, 200):
        n = 2 * m
        others = rng.choice(np.arange(1, n), size=m - 1, replace=False)
        pat = SelectionPattern(
            indices=tuple(sorted([0] + [int(i) for i in others])), ambient=n
        )
        y = random_complex(rng, m)
        spec = ProblemSpec(
            y=y,
            partition=compute_partition(pat),
            max_iter=40,
            tol_primal=0.0,
        )
        solve(spec)  # warm up allocators and BLAS
        t0 = time.perf_counter()
        report = solve(spec)
        timings[m] = (time.perf_counter() - t0) / report.iterations
    ratio = timings[200] / timings[50]
    envelope = 2.0 * (200 / 50) ** 3
    elapsed = time.perf_counter() - start
    ok = ratio <= envelope and elapsed < 300.0
    _report(
        10,
        ok,
        f"iteration time ratio m=200/m=50 is {ratio:.1f} (envelope {envelope:.0f}); "
        f"per-iteration {timings[200] * 1e3:.2f} ms at m=200",
    )


def _periodogram_peaks(y: np.ndarray, s: int) -> np.ndarray:
    """Naive baseline: the s strongest local maxima of the n-point
    periodogram, reported on the DFT grid."""
    power = np.abs(np.fft.fft(y)) ** 2
    local = (power >= np.roll(power, 1)) & (power >= np.roll(power, -1))
    idx = np.flatnonzero(local)
    top = idx[np.argsort(power[idx])[::-1][:s]]
    return np.sort(top / y.size)


def test_criterion_11_ast_denoising():
    n, s = 128, 3
    snr_db = 10.0
    start = time.perf_counter()
    ast_errors, per_errors = [], []
    for seed in range(20):
        rng = np.random.default_rng(1100 + seed)
        freqs = separated_freqs(rng, s, 4 / (n - 1))
        amps = np.exp(2j * np.pi * rng.random(s))
        sig = SpikeSpectrum(freqs=freqs, amps=amps)
        clean = synthesize_uniform(sig, 1.0, n)
        sigma = float(np.sqrt((np.abs(amps) ** 2).sum() / 10 ** (snr_db / 10)))
        rng_noise = int(rng.integers(0, 2**63 - 1))
        from spectral_sdp import NoiseSpec, add_noise

        y = add_noise(clean, NoiseSpec(sigma=sigma, seed=rng_noise))
        tau = 1.5 * sigma * np.sqrt(n * np.log(n))
        pat = SelectionPattern(indices=tuple(range(n)), ambient=n)
        est = estimate(y, pat, 1.0, EstimationConfig(tau=tau, rho=100.0))
        ast_errors.append(_match_error(est.freqs, freqs))
        per_errors.append(_match_error(_periodogram_peaks(y, s), freqs))
    ast_med = float(np.median(ast_errors))
    per_med = float(np.median(per_errors))
    elapsed = time.perf_counter() - start
    ok = ast_med < 5e-3 and ast_med < per_med and elapsed < 600.0
    _report(
        11,
        ok,
        f"AST median error {ast_med:.2e} vs periodogram {per_med:.2e} "
        f"over 20 trials in {elapsed:.0f} s",
    )
