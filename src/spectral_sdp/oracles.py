"""Slow, simple reference implementations used by the test suite.

These deliberately avoid the production code paths: they import shared
data types only, and recompute everything from first principles
(exhaustive search, explicit matrix products, dense grids). Keep them
dumb; performance is a non-goal.

The pipeline sub-samples only by picking kept indices; the operator
algebra of a general sub-sampling matrix ``M`` (Toeplitz generator and
adjoint, ``M T(u) M*``, the Gram form, admissibility of a general ``M``)
lives here as the reference the index-based code is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    NumericalError,
    SpectralSDPError,
)
from .multirate import CommonGrid, Grid, MultirateSystem
from .sampling import PartitionStructure, SelectionPattern


class SearchBudgetError(SpectralSDPError, RuntimeError):
    """An exhaustive search ran out of budget before covering its space.

    Distinct from a definite "no result exists" answer, which is returned
    as ``None`` by the search routines.
    """


def toeplitz_from_vector(u: np.ndarray) -> np.ndarray:
    """Build the (n, n) Hermitian Toeplitz matrix generated by ``u``.

    ``u`` is a nonempty (n,) vector with ``u[0]`` real (within 1e-12).
    Entry (i, j) equals ``u[j-i]`` for j >= i and ``conj(u[i-j])`` below
    the diagonal.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 1 or u.size == 0:
        raise InvalidInputError("u must be a nonempty 1-d array")
    if abs(u[0].imag) > 1e-12:
        raise InvalidInputError(
            f"u[0] must be real for a Hermitian Toeplitz matrix, got {u[0]}"
        )
    n = u.size
    idx = np.subtract.outer(np.arange(n), np.arange(n))  # idx[i, j] = i - j
    out = np.where(idx <= 0, u[np.abs(idx)], np.conj(u[np.abs(idx)]))
    out[np.diag_indices(n)] = u[0].real
    return out


def toeplitz_adjoint(h: np.ndarray) -> np.ndarray:
    """Sum each superdiagonal of a square matrix.

    ``out[k] = sum_{j-i=k} h[i, j]`` for k = 0..n-1, which is the inner
    product of ``h`` against the k-th elementary Toeplitz matrix (1 on
    that superdiagonal, 0 elsewhere): the adjoint of the generator.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {h.shape}")
    n = h.shape[0]
    return np.array([np.trace(h, offset=k) for k in range(n)], dtype=complex)


def r_op(m_mat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Compress the Toeplitz matrix of ``u`` through ``m_mat``: M T(u) M*."""
    m_mat = np.asarray(m_mat, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if m_mat.ndim != 2:
        raise DimensionMismatchError("m_mat must be 2-d")
    if m_mat.shape[1] != u.shape[0]:
        raise DimensionMismatchError(
            f"m_mat has {m_mat.shape[1]} columns but u has length {u.shape[0]}"
        )
    t = toeplitz_from_vector(u)
    return m_mat @ t @ m_mat.conj().T


def r_op_adjoint(m_mat: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`r_op`: the superdiagonal sums of ``M* S M``."""
    m_mat = np.asarray(m_mat, dtype=complex)
    s = np.asarray(s, dtype=complex)
    if m_mat.ndim != 2 or s.ndim != 2:
        raise DimensionMismatchError("m_mat and s must be 2-d")
    if s.shape[0] != s.shape[1] or s.shape[0] != m_mat.shape[0]:
        raise DimensionMismatchError(
            f"s has shape {s.shape}; expected square of side {m_mat.shape[0]}"
        )
    return toeplitz_adjoint(m_mat.conj().T @ s @ m_mat)


def gram_eval(g: np.ndarray, nu: float) -> float:
    """Evaluate the real quadratic form ``psi(z)* G psi(z)`` at ``z = e^{i2pi nu}``.

    ``g`` must be Hermitian so the value is real; an imaginary residue
    above 1e-8 raises :class:`NumericalError`, smaller residues are
    discarded.
    """
    g = np.asarray(g, dtype=complex)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {g.shape}")
    n = g.shape[0]
    psi = np.exp(2j * np.pi * nu * np.arange(n))
    value = complex(psi.conj() @ g @ psi)
    if abs(value.imag) > 1e-8:
        raise NumericalError(
            f"quadratic form returned imaginary residue {value.imag:.3e}; "
            "matrix is not numerically Hermitian"
        )
    return value.real


def is_admissible_general(m_mat: np.ndarray, tol: float = 1e-10) -> bool:
    """Full rank and ``e_0`` in the range of ``M*``, both checked numerically.

    Rank counts singular values above ``tol`` times the largest; the range
    condition solves ``M* c = e_0`` in the least-squares sense and requires
    residual below ``tol``.
    """
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    m_mat = np.asarray(m_mat, dtype=complex)
    if m_mat.ndim != 2:
        raise DimensionMismatchError("m_mat must be 2-d")
    m, n = m_mat.shape
    sv = np.linalg.svd(m_mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return False
    if np.sum(sv > tol * sv[0]) < m:
        return False
    e0 = np.zeros(n, dtype=complex)
    e0[0] = 1.0
    c, *_ = np.linalg.lstsq(m_mat.conj().T, e0, rcond=None)
    residual = np.linalg.norm(m_mat.conj().T @ c - e0)
    return bool(residual < tol)


def apply_subsampling(m_mat: np.ndarray, y_raw: np.ndarray) -> np.ndarray:
    """Compress a raw uniform acquisition: ``y = M y_raw``."""
    m_mat = np.asarray(m_mat, dtype=complex)
    y_raw = np.asarray(y_raw, dtype=complex)
    if m_mat.ndim != 2 or m_mat.shape[1] != y_raw.shape[0]:
        raise DimensionMismatchError(
            f"matrix of shape {m_mat.shape} cannot act on vector of length {y_raw.shape[0]}"
        )
    return m_mat @ y_raw


def _rational_lcm(values):
    out = values[0]
    for v in values[1:]:
        out = Fraction(
            math.lcm(out.numerator, v.numerator),
            math.gcd(out.denominator, v.denominator),
        )
    return out


def sample_instants(grid: Grid) -> list[Fraction]:
    """Exact acquisition times (k - gamma) / f for k = 0..n-1."""
    return [(Fraction(k) - grid.gamma) / grid.f for k in range(grid.n)]


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
        for k, t in enumerate(sample_instants(grid)):
            instants.append((t, j, k))
    earliest = min(t for t, _, _ in instants)
    span = max(t for t, _, _ in instants) - earliest

    f_base = _rational_lcm([g.f for g in system.grids])
    best = None  # (n, t_mult, f_plus, gamma_plus, net index of each instant)
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
        net = []
        for t, _, _ in instants:
            pos = f_plus * t + gamma_plus
            if pos.denominator != 1:
                break
            net.append(int(pos))
        if len(net) < len(instants):
            continue  # not aligned
        n_cand = max(net) + 1
        if n_cand > n_max:
            continue
        if best is None or n_cand < best[0]:
            best = (n_cand, t_mult, f_plus, gamma_plus, net)
        if span == 0:
            break  # n cannot shrink below 1; first aligned rate wins

    if best is None:
        return None
    n_cand, _, f_plus, gamma_plus, net = best
    expansions = tuple(
        (int(f_plus / g.f), int(int(f_plus / g.f) * g.gamma - gamma_plus))
        for g in system.grids
    )
    indices = tuple(sorted(set(net)))
    ranks = iter([indices.index(q) for q in net])  # the instants run grid by grid
    return CommonGrid(
        f0=f_plus,
        gamma0=gamma_plus,
        expansions=expansions,
        observation_set=SelectionPattern(indices=indices, ambient=n_cand),
        slots=tuple(tuple(islice(ranks, g.n)) for g in system.grids),
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
        indices=np.subtract(pattern.indices, pattern.indices[0]),
    )


def blocks(partition: PartitionStructure) -> dict[int, list]:
    """``{lag: [(row, col), ...]}`` with 1-based positions, lags ascending."""
    pairs = list(zip((partition.rows + 1).tolist(), (partition.cols + 1).tolist()))
    groups = zip(
        partition.positive_lags, partition.starts.tolist(), partition.sizes.tolist()
    )
    return {k: pairs[s : s + n] for k, s, n in groups}


def bordered_matrix(s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Assemble ``[[S, c], [c*, 1]]``."""
    c = np.asarray(c, dtype=complex)[:, None]
    return np.block([[s, c], [c.conj().T, np.ones((1, 1))]])


def admm_map(v: np.ndarray, spec) -> tuple:
    """The plain ADMM map ``T(V)`` from its definitions, on dense matrices.

    ``Z`` is the projection of the Hermitian part of ``V`` onto the PSD
    cone and ``Lambda = rho (Z - V)``. ``c`` minimizes the border terms;
    each block of S, visited one by one, is the projection of its entries
    of ``Z + Lambda/rho`` onto the affine set where they sum to ``delta``,
    and S is mirrored to be Hermitian. The image is
    ``[[S, c], [c*, 1]] - Lambda/rho``. Returns ``(Z, S, c, V')``.
    """
    m, rho, part = spec.m, spec.rho, spec.partition
    vals, vecs = np.linalg.eigh(0.5 * (v + v.conj().T))
    z = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
    lam = rho * (z - v)
    c = (spec.y.conj() + 2.0 * rho * z[:m, m] + 2.0 * lam[:m, m]) / (2.0 * rho + spec.tau)
    a = z[:m, :m] + lam[:m, :m] / rho
    s = np.zeros((m, m), dtype=complex)
    for lag, pairs in blocks(part).items():
        block = tuple(np.array(pairs).T - 1)
        delta = 1.0 if lag == 0 else 0.0
        s[block] = a[block] - (a[block].sum() - delta) / len(pairs)
    s += np.triu(s, 1).conj().T  # the lower triangle, from the upper one
    return z, s, c, bordered_matrix(s, c) - lam / rho


def block_sums(partition: PartitionStructure, s: np.ndarray) -> np.ndarray:
    """Sum of the dense m x m matrix ``s`` over each group of ``partition``,
    in the order of ``positive_lags``."""
    return np.add.reduceat(s[partition.rows, partition.cols], partition.starts)


def residuals(z, s, c, spec) -> tuple[float, float]:
    """(primal, constraint) residuals of an ADMM evaluation ``(Z, S, c)``
    from their definitions: ``||Z - [[S, c], [c*, 1]]||`` and ``max |block
    sums of S - delta|``."""
    primal = float(np.linalg.norm(z - bordered_matrix(s, c)))
    sums = block_sums(spec.partition, s)
    constraint = float(np.max(np.abs(sums - spec.partition.delta)))
    return primal, constraint


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
