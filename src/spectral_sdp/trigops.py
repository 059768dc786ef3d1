"""Polynomial evaluation on the unit circle: at points, on a uniform grid,
and at the refined maxima of the modulus.

A polynomial is its coefficient vector ``q`` indexed 0..n-1,
``Q(z) = sum_k q[k] z^k``. All functions are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

_NEWTON_MAX_ITER = 50
_NEWTON_TOL = 1e-12


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Symmetrize ``(a + a*)/2``; use after floating-point accumulations."""
    return 0.5 * (a + a.conj().T)


def poly_eval(q: np.ndarray, nu) -> complex | np.ndarray:
    """Evaluate ``Q(e^{i 2 pi nu}) = sum_k q[k] e^{i 2 pi nu k}``.

    ``nu`` may be a scalar or an array; the result matches its shape.
    """
    q = np.asarray(q, dtype=complex)
    nu_arr = np.asarray(nu, dtype=float)
    k = np.arange(q.size)
    phases = np.exp(2j * np.pi * np.multiply.outer(nu_arr, k))
    values = phases @ q
    if np.isscalar(nu) or nu_arr.ndim == 0:
        return complex(values)
    return values


def grid_size(n: int) -> int:
    """Points of the uniform grid ``|Q|`` is read on for ``n`` coefficients.

    Half a cell off this grid, the unit peak of the degree ``n - 1``
    Dirichlet kernel still samples to 0.9996, above the default peak
    threshold 0.999 of :func:`~spectral_sdp.localization.locate_frequencies`;
    at 8 points per coefficient it samples to 0.994 and is missed.
    """
    return max(32 * n, 4096)


def grid_modulus(q: np.ndarray, points: int) -> np.ndarray:
    """``|Q(e^{i 2 pi j / points})|`` for ``j = 0..points-1``.

    One zero-padded inverse FFT: ``points * |ifft(q, points)|``, in
    ``O(points log points)`` time and ``O(points)`` memory. ``points``
    must be at least the number of coefficients (fewer would alias them).
    """
    q = np.asarray(q, dtype=complex)
    if points < q.size:
        raise InvalidInputError(
            f"grid of {points} points cannot hold {q.size} coefficients"
        )
    return points * np.abs(np.fft.ifft(q, points))


def refine_maxima(q: np.ndarray, nu0, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Newton ascent on ``|Q(e^{i 2 pi nu})|^2`` from each start in ``nu0``.

    ``|Q|^2 = r_0 + 2 Re sum_d r_d e^{i 2 pi nu d}`` with the
    autocorrelation ``r[d] = sum_k conj(q[k]) q[k+d]``, so both
    derivatives are analytic. A start succeeds when a Newton step falls
    below 1e-12 within 50 iterations. It fails, and keeps its start
    value, when the curvature is not negative or the iterate leaves
    ``[nu0 - step, nu0 + step]`` (it diverged from the grid cell).

    Returns the refined points reduced modulo 1 and the success flags.
    """
    q = np.asarray(q, dtype=complex)
    n = q.size
    r = np.array([np.vdot(q[: n - d], q[d:]) for d in range(1, n)], dtype=complex)
    d1 = 2j * np.pi * np.arange(1, n)
    d2 = d1**2
    refined, ok_flags = [], []
    for start in np.asarray(nu0, dtype=float):
        nu, ok = start, False
        for _ in range(_NEWTON_MAX_ITER):
            w = r * np.exp(d1 * nu)
            g1 = float(2.0 * np.real(d1 @ w))
            g2 = float(2.0 * np.real(d2 @ w))
            if g2 >= 0 or not np.isfinite(g1) or not np.isfinite(g2):
                break
            delta = g1 / g2
            nu_next = nu - delta
            if abs(nu_next - start) > step:
                break
            nu = nu_next
            if abs(delta) < _NEWTON_TOL:
                ok = True
                break
        refined.append(nu if ok else start)
        ok_flags.append(ok)
    return np.array(refined, dtype=float) % 1.0, np.array(ok_flags, dtype=bool)


def dense_sup_norm(q: np.ndarray, grid_points: int) -> float:
    """Max of ``|Q(e^{i 2 pi nu})|`` over [0, 1), grid plus local refinement.

    The grid, read by :func:`grid_modulus`, must hold at least 4 points
    per coefficient; the grid-local maxima near the top are refined by
    :func:`refine_maxima` and the best value is returned.
    """
    q = np.asarray(q, dtype=complex)
    n = q.size
    if grid_points < 4 * n:
        raise InvalidInputError(
            f"grid too coarse: need at least {4 * n} points for degree {n - 1}"
        )
    mags = grid_modulus(q, grid_points)

    # Local maxima on the circular grid near the global grid max; refining a
    # handful of candidates guards against the grid argmax sitting on the
    # wrong lobe.
    left = np.roll(mags, 1)
    right = np.roll(mags, -1)
    local_max = np.flatnonzero((mags >= left) & (mags >= right))
    order = np.argsort(mags[local_max])[::-1]
    candidates = local_max[order][:5]

    peaks, _ = refine_maxima(q, candidates / grid_points, 1.0 / grid_points)
    return max(float(mags.max()), float(np.abs(poly_eval(q, peaks)).max()))
