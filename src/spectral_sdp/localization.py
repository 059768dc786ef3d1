"""Turn a converged dual solution into a spectrum estimate.

The dual vector lifts to a polynomial ``Q`` with coefficients ``M* c``;
frequencies sit where ``|Q|`` peaks at 1 on the unit circle, amplitudes
follow from least squares against the observation constraint, and a
certificate check validates interpolation and strict boundedness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import multirate
from .errors import (
    ConditioningError,
    DimensionMismatchError,
    InvalidInputError,
    LocalizationError,
)
# selection_matrix is unused here; perfbench/tracing.py wraps it by this name.
from .sampling import SelectionPattern, normalize_to_admissible, selection_matrix
from .signal_model import SpikeSpectrum
from .solver import ProblemSpec, assemble_problem, solve
from .trigops import PEAK_TOL, dense_sup_norm, grid_maxima, grid_modulus, poly_eval, refine_maxima


@dataclass(frozen=True)
class EstimateDiagnostics:
    """How an estimate was obtained and how far it can be trusted.

    The solve ran on a uniform frame at ``solve_rate_hz``: frame index
    ``k`` sits at time ``k / solve_rate_hz - time_shift_s`` of the
    original acquisition, so ``dual_poly`` certifies the spectrum whose
    amplitudes are rotated by ``e^{-i 2 pi xi time_shift_s}``.
    ``rejected_extrapolations`` counts the solver iterations whose Anderson
    extrapolation the safeguard turned down, ``full_eigh_iterations`` those
    whose projection ran the full eigendecomposition: after a failed
    certificate, and in the backoff that follows it (0 on most calls of
    the benchmark's shapes). ``rank_deficit`` is
    the count of negative eigenvalues the last accepted projection zeroed:
    at the optimum of a noiseless instance, the number of spikes.
    ``history_depth`` is the depth of the Anderson history, set by the
    solver's byte budget from the problem's size. ``stopped_on`` tells
    which rule ended the solve (``"gap"``, ``"residuals"`` or
    ``"max_iter"``); ``gap_lower`` and ``gap_upper`` bracket the optimal
    value of the reduced dual, as certified at the returned iterate (NaN
    when the solve ran out of iterations).
    """

    peak_moduli: np.ndarray
    residual: float
    sup_norm: float
    iterations: int
    final_residuals: tuple
    converged: bool
    reliable: bool
    newton_fallbacks: int
    solve_rate_hz: float
    time_shift_s: float
    tau: float
    dual_objective: float
    rejected_extrapolations: int
    full_eigh_iterations: int
    rank_deficit: int
    history_depth: int
    gap_lower: float
    gap_upper: float
    stopped_on: str


@dataclass(frozen=True)
class SpectrumEstimate:
    """Located frequencies (Hz), their complex amplitudes, and the dual
    polynomial coefficients the localization was read from."""

    freqs: np.ndarray
    amps: np.ndarray
    dual_poly: np.ndarray
    diagnostics: EstimateDiagnostics


@dataclass(frozen=True)
class PeakSet:
    freqs_hz: np.ndarray
    moduli: np.ndarray
    newton_ok: np.ndarray


@dataclass(frozen=True)
class AmplitudeFit:
    amps: np.ndarray
    residual: float


@dataclass(frozen=True)
class CertificateReport:
    is_certificate: bool
    interp_errors: np.ndarray
    strict_margin: float
    sup_off_support: float


def dual_polynomial(c: np.ndarray, pattern: SelectionPattern) -> np.ndarray:
    """Coefficients ``q = M* c`` of the dual polynomial: ``c`` scattered onto
    the kept indices, zero elsewhere."""
    c = np.asarray(c, dtype=complex)
    if c.shape != (pattern.m,):
        raise DimensionMismatchError(
            f"dual vector of shape {c.shape} does not match a pattern keeping "
            f"{pattern.m} indices"
        )
    q = np.zeros(pattern.ambient, dtype=complex)
    q[list(pattern.indices)] = c
    return q


def locate_frequencies(
    q: np.ndarray,
    f: float,
    peak_tol: float = PEAK_TOL,
    max_peaks: int | None = None,
) -> PeakSet:
    """Find the reduced frequencies where ``|Q|`` peaks near 1.

    The grid local maxima of :func:`~spectral_sdp.trigops.grid_maxima`
    with ``|Q| >= 1 - peak_tol`` are refined by Newton iterations on the
    analytic derivative; a peak falling back to its grid value (Newton
    left the bracket or stalled) is flagged.
    Nearby refinements (within a quarter grid step) are merged. Returned
    frequencies are ``nu * f`` in Hz, sorted.

    Raises :class:`LocalizationError` when the polynomial is a near-unit
    plateau (at least 10% of the grid above threshold: such a dual
    certifies nothing) or when more than ``max_peaks`` peaks survive.
    """
    q = np.asarray(q, dtype=complex)
    if not 0 < peak_tol < 1:
        raise InvalidInputError("peak_tol must be in (0, 1)")

    mags, maxima = grid_maxima(q)
    threshold = 1.0 - peak_tol
    if np.mean(mags >= threshold) >= 0.10:
        raise LocalizationError(
            "dual polynomial is a near-unit plateau; frequencies are not "
            "identifiable from it"
        )
    refined, ok_flags = refine_maxima(q, maxima[mags[maxima] >= threshold])

    # Merge refinements that collapsed onto the same maximum.
    merged: list[float] = []
    merged_ok: list[bool] = []
    radius = 0.25 / mags.size
    for nu, ok in sorted(zip(refined.tolist(), ok_flags.tolist())):
        dist = min(abs(nu - merged[-1]), 1.0 - abs(nu - merged[-1])) if merged else np.inf
        if merged and dist < radius:
            merged_ok[-1] = merged_ok[-1] or ok
            continue
        merged.append(nu)
        merged_ok.append(ok)
    if len(merged) > 1:
        wrap = merged[0] + 1.0 - merged[-1]
        if wrap < radius:
            merged_ok[0] = merged_ok[0] or merged_ok.pop()
            merged.pop()

    if max_peaks is not None and len(merged) > max_peaks:
        raise LocalizationError(
            f"located {len(merged)} peaks but at most {max_peaks} atoms are "
            "identifiable from the measurements"
        )
    nu_arr = np.array(merged, dtype=float)
    moduli = np.abs(poly_eval(q, nu_arr)) if nu_arr.size else np.empty(0)
    return PeakSet(
        freqs_hz=nu_arr * f,
        moduli=np.asarray(moduli, dtype=float),
        newton_ok=np.array(merged_ok, dtype=bool),
    )


def recover_amplitudes(
    y: np.ndarray, pattern: SelectionPattern, freqs, f: float
) -> AmplitudeFit:
    """Least-squares amplitudes for fixed frequencies.

    Minimizes ``||y - M V a||``, where ``M V`` is the Vandermonde matrix on
    the kept indices only, ``(M V)[t, r] = e^{i 2 pi (xi_r / f) I[t]}``,
    by ``np.linalg.lstsq``. A condition number above 1e12 (near-collision
    of frequencies), read off the singular values it returns, raises
    :class:`ConditioningError`.
    """
    y = np.asarray(y, dtype=complex)
    freqs = np.asarray(freqs, dtype=float)
    if y.shape != (pattern.m,):
        raise DimensionMismatchError(
            f"{y.shape} observations do not match a pattern keeping {pattern.m} indices"
        )
    if freqs.size == 0:
        return AmplitudeFit(
            amps=np.empty(0, dtype=complex),
            residual=float(np.linalg.norm(y)),
        )
    if freqs.size > pattern.m:
        raise InvalidInputError(
            f"cannot fit {freqs.size} amplitudes from {pattern.m} observations"
        )
    if np.unique(freqs).size != freqs.size:
        raise InvalidInputError("frequencies must be distinct")
    a_mat = np.exp(2j * np.pi * np.outer(pattern.indices, freqs / f))
    amps, _, _, sv = np.linalg.lstsq(a_mat, y, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if cond > 1e12:
        reduced = np.sort(np.mod(freqs / f, 1.0))
        gaps = np.diff(reduced)
        worst = int(np.argmin(gaps)) if gaps.size else 0
        raise ConditioningError(
            f"amplitude system condition {cond:.2e}; closest reduced pair "
            f"{reduced[worst]:.9f} and {reduced[worst + 1]:.9f}"
            if gaps.size
            else f"amplitude system condition {cond:.2e}"
        )
    residual = float(np.linalg.norm(y - a_mat @ amps))
    return AmplitudeFit(amps=amps, residual=residual)


def verify_certificate(
    q: np.ndarray,
    spec: SpikeSpectrum,
    f: float,
    tol: float = 1e-3,
) -> CertificateReport:
    """Check the two defining properties of a dual certificate.

    (a) ``Q`` interpolates the aligned unit phase at every reduced spike
    frequency within ``tol``: the bilinear data pairing ``Re(y^T c)``
    reaches the atomic mass exactly when ``Q(e^{i 2 pi xi_r / f})``
    equals ``conj(sign(alpha_r))``, so that is the value checked.
    (b) ``|Q| < 1`` strictly away from the spikes, measured on a dense
    grid with balls of radius ``1/(8n)`` around the spikes excluded. The
    reported margin is ``1 - sup`` over the excluded-ball grid; the
    certificate holds when all interpolation errors pass and the margin
    is positive.
    """
    q = np.asarray(q, dtype=complex)
    n = q.size
    # Denser than the localization grid: the grid maximum is not refined.
    points = max(64 * n, 4096)
    reduced = np.mod(spec.freqs / f, 1.0)
    if not np.all(np.isfinite(reduced)):
        raise InvalidInputError("reduced spike frequencies must be finite")
    targets = np.conj(spec.amps / np.abs(spec.amps))
    values = np.asarray(poly_eval(q, reduced), dtype=complex)
    interp_errors = np.abs(values - targets)

    keep = _off_support(reduced, n, points)
    sup_off = float(np.max(grid_modulus(q, points)[keep])) if keep.any() else 0.0
    margin = 1.0 - sup_off
    return CertificateReport(
        is_certificate=bool(np.all(interp_errors <= tol) and margin > 0),
        interp_errors=interp_errors,
        strict_margin=margin,
        sup_off_support=sup_off,
    )


def _off_support(reduced: np.ndarray, n: int, points: int) -> np.ndarray:
    """Mask of the grid points ``j/points`` farther than ``1/(8n)`` from
    every reduced frequency, wrapping around the circle.

    Each ball is excluded by its integer index range, whose edges are
    computed exactly from the float frequency, so a grid point on a
    ball's edge is decided as in exact arithmetic. One spike at a time:
    O(points) memory.
    """
    keep = np.ones(points, dtype=bool)
    radius = Fraction(points, 8 * n)
    for r in reduced:
        center = Fraction(float(r)) * points
        lo, hi = math.ceil(center - radius), math.floor(center + radius)
        keep[np.arange(lo, hi + 1) % points] = False
    return keep


@dataclass(frozen=True)
class EstimationConfig:
    """Knobs of the end-to-end pipeline; defaults match the solver's.

    The solve stops on the relative duality gap ``tol_gap`` (0 turns that
    off) or on the residual tolerances ``tol_primal`` and ``tol_dual``,
    whichever holds first; see :class:`~spectral_sdp.solver.ProblemSpec`.
    """

    tau: float | None = None
    sigma: float | None = None
    gamma: float = 1.5
    rho: float = ProblemSpec.rho
    max_iter: int = ProblemSpec.max_iter
    tol_primal: float = ProblemSpec.tol_primal
    tol_dual: float = ProblemSpec.tol_dual
    tol_gap: float = ProblemSpec.tol_gap
    peak_tol: float = PEAK_TOL


def estimate(y, sampler, f: float | None = None, config: EstimationConfig | None = None) -> SpectrumEstimate:
    """End-to-end estimation from sub-sampled or multirate observations.

    Two call shapes:

    * ``estimate(y, pattern, f)`` with ``y`` the selected samples of a
      rate-``f`` uniform acquisition; a non-admissible pattern is solved
      shifted down by its first index.
    * ``estimate(per_grid_samples, system)`` with a
      :class:`~spectral_sdp.multirate.MultirateSystem`; samples are
      aligned on the minimal common grid and solved in its frame.

    Right after the least-squares fit, the amplitudes are rotated by
    ``e^{i 2 pi xi time_shift_s}`` from that frame to the original time
    origin; ``dual_poly`` stays in the frame.

    Non-convergence of the solver yields an estimate whose diagnostics
    are flagged unreliable rather than an exception.
    """
    # Every step is looked up at call time, in this module's globals or on
    # the multirate module, so that perfbench/tracing.py can swap it.
    config = config or EstimationConfig()
    if isinstance(sampler, multirate.MultirateSystem):
        cg = multirate.common_grid(sampler)
        y = multirate.align_measurements(sampler, y, cg)
        pattern, f = cg.observation_set, float(cg.f0)
        time_shift_s = float(cg.gamma0 / cg.f0)
    elif isinstance(sampler, SelectionPattern):
        try:
            valid = f > 0 and math.isfinite(f)
        except (TypeError, OverflowError):  # None, or beyond float range
            valid = False
        if not valid:
            raise InvalidInputError("estimate from a pattern needs a finite positive rate f")
        y = np.asarray(y, dtype=complex)
        pattern, k0 = normalize_to_admissible(sampler)
        time_shift_s = -k0 / f
    else:
        raise InvalidInputError(
            f"sampler must be a SelectionPattern or MultirateSystem, got {type(sampler)!r}"
        )
    spec = assemble_problem(
        y,
        pattern,
        config.tau,
        sigma=config.sigma,
        gamma=config.gamma,
        rho=config.rho,
        max_iter=config.max_iter,
        tol_primal=config.tol_primal,
        tol_dual=config.tol_dual,
        tol_gap=config.tol_gap,
    )
    report = solve(spec)
    q = dual_polynomial(report.c_star, pattern)
    sup = dense_sup_norm(q)
    try:
        peaks = locate_frequencies(q, f, peak_tol=config.peak_tol, max_peaks=pattern.m)
    except LocalizationError:
        if report.converged:
            raise
        # An unconverged dual often has no readable peak structure; report
        # an empty, unreliable estimate instead of failing.
        peaks = PeakSet(
            freqs_hz=np.empty(0),
            moduli=np.empty(0),
            newton_ok=np.empty(0, dtype=bool),
        )
    fit = recover_amplitudes(y, pattern, peaks.freqs_hz, f)
    amps = fit.amps
    if time_shift_s != 0.0:
        amps = amps * np.exp(2j * np.pi * time_shift_s * peaks.freqs_hz)
    diag = EstimateDiagnostics(
        peak_moduli=peaks.moduli,
        residual=fit.residual,
        sup_norm=sup,
        iterations=report.iterations,
        final_residuals=report.final_residuals,
        converged=report.converged,
        reliable=bool(report.converged and peaks.newton_ok.all()),
        newton_fallbacks=int((~peaks.newton_ok).sum()),
        solve_rate_hz=f,
        time_shift_s=time_shift_s,
        tau=spec.tau,
        dual_objective=report.dual_objective,
        rejected_extrapolations=report.rejected_extrapolations,
        full_eigh_iterations=report.full_eigh_iterations,
        rank_deficit=report.rank_deficit,
        history_depth=report.history_depth,
        gap_lower=report.gap_lower,
        gap_upper=report.gap_upper,
        stopped_on=report.stopped_on,
    )
    return SpectrumEstimate(freqs=peaks.freqs_hz, amps=amps, dual_poly=q, diagnostics=diag)
