"""Polynomial evaluation on the unit circle: at points, on a uniform grid,
and at the refined maxima of the modulus.

A polynomial is its coefficient vector ``q`` indexed 0..n-1,
``Q(z) = sum_k q[k] z^k``. Only its ``m`` nonzero coefficients are read:
``O(m)`` per point, and folded onto a grid of any size before one FFT.
All functions are pure.
"""

from __future__ import annotations

import numpy as np

PEAK_TOL = 1e-3  # the peak threshold: a maximum of |Q| >= 1 - PEAK_TOL is a peak

_NEWTON_MAX_ITER = 50
_NEWTON_TOL = 1e-12


def poly_eval(q: np.ndarray, nu) -> complex | np.ndarray:
    """Evaluate ``Q(e^{i 2 pi nu}) = sum_k q[k] e^{i 2 pi nu k}`` over ``q[k] != 0``.

    ``nu`` may be a scalar or an array; the result matches its shape.
    """
    q = np.asarray(q, dtype=complex)
    nu_arr = np.asarray(nu, dtype=float)
    k = np.flatnonzero(q)
    values = np.exp(2j * np.pi * np.multiply.outer(nu_arr, k)) @ q[k]
    if np.isscalar(nu) or nu_arr.ndim == 0:
        return complex(values)
    return values


def grid_size(n: int) -> int:
    """Points of the uniform grid ``|Q|`` is read on for ``n`` coefficients.

    Half a cell off this grid, the unit peak of the degree ``n - 1``
    Dirichlet kernel still samples to 0.9996, above the peak threshold
    0.999 of :func:`~spectral_sdp.localization.locate_frequencies`;
    at 8 points per coefficient it samples to 0.994 and is missed.
    """
    return max(32 * n, 4096)


def grid_modulus(q: np.ndarray, points: int, offset: float = 0.0) -> np.ndarray:
    """``|Q(e^{i 2 pi (j + offset) / points})|`` for ``j = 0..points-1``.

    With ``k = r + points l``, ``Q = sum_r w_r e^{i 2 pi j r / points}``
    for the fold ``w_r = sum_l q[k] e^{i 2 pi offset k / points}`` of the
    nonzero ``q[k]``: ``points * |ifft(w)|``, one inverse FFT, in
    ``O(points log points)`` time and ``O(points)`` memory. The fold is
    exact at any ``points``, fewer than the coefficients included.
    """
    q = np.asarray(q, dtype=complex)
    k = np.flatnonzero(q)
    w = np.zeros(min(points, q.size), dtype=complex)  # ifft pads it to points
    np.add.at(w, k % points, q[k] * np.exp(2j * np.pi * offset / points * k))
    return points * np.abs(np.fft.ifft(w, points))


def grid_maxima(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``|Q|`` on the :func:`grid_size` grid (by :func:`grid_modulus`) and
    the indices of its local maxima on the circular grid, largest first."""
    q = np.asarray(q, dtype=complex)
    mags = grid_modulus(q, grid_size(q.size))
    maxima = np.flatnonzero((mags >= np.roll(mags, 1)) & (mags >= np.roll(mags, -1)))
    return mags, maxima[np.argsort(mags[maxima])[::-1]]


def refine_maxima(q: np.ndarray, starts) -> tuple[np.ndarray, np.ndarray]:
    """Newton ascent on ``|Q(e^{i 2 pi nu})|^2`` from each grid point in ``starts``.

    ``starts`` are indices ``j`` of the :func:`grid_size` grid, whose
    points are ``nu0 = j / grid_size(n)``. With ``d = i 2 pi k`` over the
    nonzero ``q[k]``, ``Q' = sum d q[k] e^{d nu}`` and ``Q'' = sum d^2 q[k]
    e^{d nu}``, so ``(|Q|^2)' = 2 Re(conj(Q) Q')`` and ``(|Q|^2)'' =
    2 (|Q'|^2 + Re(conj(Q) Q''))``: ``O(m)`` per step for ``m`` nonzero
    coefficients. A start succeeds when a Newton step falls below 1e-12
    within 50 iterations. It fails, and keeps its start value, when the
    curvature is not negative or the iterate leaves the one-cell bracket
    ``[nu0 - 1/grid_size(n), nu0 + 1/grid_size(n)]`` (it diverged from the
    grid cell).

    Returns the refined points reduced into [0, 1) and the success flags.
    """
    q = np.asarray(q, dtype=complex)
    points = grid_size(q.size)
    nu0, step = np.asarray(starts) / points, 1.0 / points
    k = np.flatnonzero(q)
    d, c = 2j * np.pi * k, q[k]
    terms = np.array([c, d * c, d * d * c])  # Q, Q', Q'' are these rows @ e^{d nu}
    refined, ok_flags = [], []
    for start in np.asarray(nu0, dtype=float):
        nu, ok = start, False
        for _ in range(_NEWTON_MAX_ITER):
            v, v1, v2 = terms @ np.exp(d * nu)
            g1 = 2.0 * float((v.conjugate() * v1).real)
            g2 = 2.0 * float(abs(v1) ** 2 + (v.conjugate() * v2).real)
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
    # A second % 1.0 maps the 1.0 that rounding gives, as -1e-18 % 1.0, to 0.
    return np.array(refined, dtype=float) % 1.0 % 1.0, np.array(ok_flags, dtype=bool)


def dense_sup_norm(q: np.ndarray) -> float:
    """Max of ``|Q(e^{i 2 pi nu})|`` over [0, 1), grid plus local refinement.

    The five largest maxima of :func:`grid_maxima` are refined by
    :func:`refine_maxima` (a handful, in case the grid argmax sits on the
    wrong lobe), and the best value is returned.
    """
    q = np.asarray(q, dtype=complex)
    mags, maxima = grid_maxima(q)
    peaks, _ = refine_maxima(q, maxima[:5])
    return max(float(mags.max()), float(np.abs(poly_eval(q, peaks)).max()))
