"""Slow, simple reference implementations used by the test suite.

These deliberately avoid the production code paths: they import shared
data types only, and recompute everything from first principles
(exhaustive search, explicit matrix products, dense grids). Keep them
dumb; performance is a non-goal.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError, SearchBudgetError
from .multirate import CommonGrid, MultirateSystem
from .sampling import PartitionStructure, SelectionPattern


def _rational_lcm(values):
    out = values[0]
    for v in values[1:]:
        out = Fraction(
            math.lcm(out.numerator, v.numerator),
            math.gcd(out.denominator, v.denominator),
        )
    return out


def brute_force_common_grid(
    system: MultirateSystem, n_max: int = 256, max_candidates: int = 100000
) -> CommonGrid | None:
    """Exhaustively search for the smallest grid containing all samples.

    Candidate rates are the integer multiples of the rational lcm of the
    sampler rates (any supporting grid's rate must be one); for each, the
    grid is anchored at the earliest sample instant and every instant is
    checked for exact integer alignment. Returns the minimal candidate
    with at most ``n_max`` points, or ``None`` when provably no such grid
    exists. Exceeding ``max_candidates`` rates raises
    :class:`SearchBudgetError` instead of guessing.
    """
    if n_max > 256:
        raise InvalidInputError("oracle search is capped at n_max <= 256")
    instants = []
    for j, grid in enumerate(system.grids):
        for k, t in enumerate(grid.sample_instants()):
            instants.append((t, j, k))
    earliest = min(t for t, _, _ in instants)
    span = max(t for t, _, _ in instants) - earliest

    f_base = _rational_lcm([g.f for g in system.grids])
    best = None  # (n, t_mult, f_plus, gamma_plus, groups)
    t_mult = 0
    while True:
        t_mult += 1
        if t_mult > max_candidates:
            raise SearchBudgetError(
                f"exhausted {max_candidates} candidate rates before covering "
                f"n <= {n_max}"
            )
        f_plus = t_mult * f_base
        if f_plus * span + 1 > n_max:
            break  # every further candidate is coarser-bounded below by this
        gamma_plus = -f_plus * earliest
        groups: dict[int, list[tuple[int, int]]] = {}
        aligned = True
        for t, j, k in instants:
            pos = f_plus * t + gamma_plus
            if pos.denominator != 1:
                aligned = False
                break
            groups.setdefault(int(pos), []).append((j, k))
        if not aligned:
            continue
        n_cand = max(groups) + 1
        if n_cand > n_max:
            continue
        if best is None or n_cand < best[0]:
            best = (n_cand, t_mult, f_plus, gamma_plus, groups)
        if span == 0:
            break  # n cannot shrink below 1; first aligned rate wins

    if best is None:
        return None
    n_cand, _, f_plus, gamma_plus, groups = best
    expansions = tuple(
        (int(f_plus / g.f), int(int(f_plus / g.f) * g.gamma - gamma_plus))
        for g in system.grids
    )
    indices = tuple(sorted(groups))
    return CommonGrid(
        f0=f_plus,
        gamma0=gamma_plus,
        n0=n_cand,
        expansions=expansions,
        observation_set=SelectionPattern(indices=indices, ambient=n_cand),
        duplicate_groups=tuple(tuple(groups[q]) for q in indices),
    )


def brute_force_partition(pattern: SelectionPattern) -> PartitionStructure:
    """Read the block partition off explicit triple products C Theta_k C*."""
    n = pattern.ambient
    m = pattern.m
    c = np.zeros((m, n))
    c[np.arange(m), list(pattern.indices)] = 1.0
    lags, rows, cols = [], [], []
    for k in range(n):
        theta = np.eye(n, k=k)
        m_k = c @ theta @ c.T
        i, j = np.nonzero(m_k > 0.5)
        if i.size:
            lags.append(k)
            rows.append(i)
            cols.append(j)
    sizes = np.array([r.size for r in rows])
    return PartitionStructure(
        positive_lags=tuple(lags),
        rows=np.concatenate(rows),
        cols=np.concatenate(cols),
        starts=np.cumsum(sizes) - sizes,
        sizes=sizes,
        m=m,
        ambient=n,
    )


def brute_force_sup_norm(q: np.ndarray, points: int = 10**6) -> float:
    """Max modulus of the polynomial over a uniform mega-grid."""
    if points < 10**5:
        raise InvalidInputError("reference grid must have at least 1e5 points")
    q = np.asarray(q, dtype=complex)
    best = 0.0
    chunk = 2 * 10**5
    for start in range(0, points, chunk):
        nu = np.arange(start, min(start + chunk, points)) / points
        z = np.exp(2j * np.pi * nu)
        vals = np.zeros_like(z)
        for coeff in q[::-1]:
            vals = vals * z + coeff
        best = max(best, float(np.abs(vals).max()))
    return best


def finite_perturbation_check(
    objective,
    point: np.ndarray,
    directions: int = 100,
    step: float = 1e-4,
    seed: int = 0,
    tol: float = 1e-12,
) -> bool:
    """True when no sampled perturbation of size ``step`` decreases the objective."""
    if step <= 0:
        raise InvalidInputError("step must be positive")
    point = np.asarray(point)
    rng = np.random.default_rng(seed)
    base = objective(point)
    for _ in range(directions):
        d = rng.standard_normal(point.shape)
        if np.iscomplexobj(point):
            d = d + 1j * rng.standard_normal(point.shape)
        d = d / np.linalg.norm(d)
        if base > objective(point + step * d) + tol:
            return False
    return True
