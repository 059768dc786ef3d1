"""ADMM solver for the reduced (m+1)-dimensional semidefinite dual.

The program solved is

    max Re(y^T c) - (tau/2) ||c||^2
    s.t. [[S, c], [c*, 1]] >= 0,  sum over block J_k of S = delta_k,

where the blocks come from the skew-symmetric partition of a selection
pattern. ``tau = 0`` is the noiseless equality-constrained program; the
regularized path degenerates to it smoothly in the same code.

Each iteration performs six steps: the c update, the per-block S update,
a Hermitian mirror of S, a projection of the split variable Z onto the
PSD cone, and the two multiplier ascents. All multiplier pairings use
the real part of the complex inner product so the Lagrangian is
real-valued; under that convention the closed-form updates below are the
exact block minimizers (the test suite checks them against finite
perturbations).

The projection dominates the cost: one Hermitian eigendecomposition of
size m+1 per iteration, hence O(m^3) work per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .trigops import hermitian_part
from .sampling import (
    PartitionStructure,
    SelectionPattern,
    compute_partition,
    is_admissible_selection,
    normalize_to_admissible,
)


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Data and knobs of one reduced dual solve.

    ``tau = 0`` selects the noiseless program. ``rho`` is the augmented
    Lagrangian weight. The primal and constraint residuals are compared
    against ``tol_primal``, the dual residual against ``tol_dual``
    (absolute, Frobenius).
    """

    y: np.ndarray
    partition: PartitionStructure
    tau: float = 0.0
    rho: float = 1.0
    max_iter: int = 20000
    tol_primal: float = 1e-7
    tol_dual: float = 1e-7

    def __post_init__(self):
        y = np.asarray(self.y, dtype=complex)
        if y.ndim != 1 or y.size != self.partition.m:
            raise InvalidInputError(
                f"y must have length {self.partition.m}, got shape {y.shape}"
            )
        if self.tau < 0:
            raise InvalidInputError("tau must be nonnegative")
        if self.rho <= 0:
            raise InvalidInputError("rho must be positive")
        if self.max_iter < 1:
            raise InvalidInputError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.tol_primal < 0 or self.tol_dual < 0:
            raise InvalidInputError("tolerances must be nonnegative")
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.partition.m


@dataclass(eq=False)
class AdmmState:
    """Iterates of the solver; ``z_prev`` backs the dual residual."""

    Z: np.ndarray
    S: np.ndarray
    c: np.ndarray
    Lambda: np.ndarray
    mu: np.ndarray
    z_prev: np.ndarray | None = None


@dataclass(frozen=True)
class SolveReport:
    c_star: np.ndarray
    S_star: np.ndarray
    dual_objective: float
    iterations: int
    final_residuals: tuple
    converged: bool


def bordered_matrix(s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Assemble [[S, c], [c*, 1]]."""
    m = c.size
    b = np.empty((m + 1, m + 1), dtype=complex)
    b[:m, :m] = s
    b[:m, m] = c
    b[m, :m] = c.conj()
    b[m, m] = 1.0
    return b


def init_state(spec: ProblemSpec) -> AdmmState:
    """Zero multipliers and variables; Z starts as the identity."""
    m = spec.m
    return AdmmState(
        Z=np.eye(m + 1, dtype=complex),
        S=np.zeros((m, m), dtype=complex),
        c=np.zeros(m, dtype=complex),
        Lambda=np.zeros((m + 1, m + 1), dtype=complex),
        mu=np.zeros(spec.partition.p, dtype=complex),
    )


def update_c(state: AdmmState, spec: ProblemSpec) -> np.ndarray:
    """Minimizer of the c-part of the augmented Lagrangian.

    ``c = (conj(y) + 2 rho z + 2 lambda) / (2 rho + tau)`` with ``z`` and
    ``lambda`` the border columns of Z and Lambda.
    """
    m = spec.m
    z = state.Z[:m, m]
    lam = state.Lambda[:m, m]
    return (spec.y.conj() + 2.0 * spec.rho * z + 2.0 * lam) / (2.0 * spec.rho + spec.tau)


def update_S_blocks(state: AdmmState, spec: ProblemSpec) -> np.ndarray:
    """Exact minimizer of every block Lagrangian, then Hermitian mirror.

    Per block: with ``a = (Z0 + Lambda0/rho)`` on the block and
    ``b = delta_k - mu_k/rho``, the coupling through the block-sum penalty
    shifts every entry by the same amount, giving
    ``S = a - (sum(a) - b) / (|J_k| + 1)``.
    """
    part = spec.partition
    m = spec.m
    a_mat = state.Z[:m, :m] + state.Lambda[:m, :m] / spec.rho
    a = a_mat[part.rows, part.cols]
    sums = np.add.reduceat(a, part.starts)
    b = part.delta - state.mu / spec.rho
    shift = (sums - b) / (part.sizes + 1)
    s_flat = a - np.repeat(shift, part.sizes)
    s = np.zeros((m, m), dtype=complex)
    s[part.rows, part.cols] = s_flat
    off_rows, off_cols = part.rows[m:], part.cols[m:]  # past the diagonal group
    s[off_cols, off_rows] = s[off_rows, off_cols].conj()
    return s


def psd_project(y_mat: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix.

    Symmetrizes, then zeroes the negative eigenvalues of a full Hermitian
    eigendecomposition.
    """
    h = hermitian_part(np.asarray(y_mat, dtype=complex))
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    clipped = np.maximum(vals, 0.0)
    return (vecs * clipped) @ vecs.conj().T


def update_multipliers(
    state: AdmmState,
    spec: ProblemSpec,
    b: np.ndarray | None = None,
    sums: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient-ascent steps on both multiplier groups.

    ``b`` is the bordered matrix of ``(S, c)`` and ``sums`` the block sums
    of ``S``; both are computed from ``state`` when not given.
    """
    b = bordered_matrix(state.S, state.c) if b is None else b
    sums = spec.partition.block_sums(state.S) if sums is None else sums
    lam = state.Lambda + spec.rho * (state.Z - b)
    mu = state.mu + spec.rho * (sums - spec.partition.delta)
    return lam, mu


def residuals(
    state: AdmmState,
    spec: ProblemSpec,
    b: np.ndarray | None = None,
    sums: np.ndarray | None = None,
) -> tuple[float, float, float]:
    """(primal, constraint, dual) residuals of the current iterate.

    ``b`` and ``sums`` are as in :func:`update_multipliers`.
    """
    b = bordered_matrix(state.S, state.c) if b is None else b
    sums = spec.partition.block_sums(state.S) if sums is None else sums
    primal = float(np.linalg.norm(state.Z - b))
    constraint = float(np.max(np.abs(sums - spec.partition.delta)))
    if state.z_prev is None:
        dual = 0.0
    else:
        dual = float(spec.rho * np.linalg.norm(state.Z - state.z_prev))
    return primal, constraint, dual


def _dual_objective(spec: ProblemSpec, c: np.ndarray) -> float:
    obj = float(np.real(spec.y @ c))
    if spec.tau > 0:
        obj -= 0.5 * spec.tau * float(np.linalg.norm(c) ** 2)
    return obj


def solve(spec: ProblemSpec, progress=None, progress_every: int = 100) -> SolveReport:
    """Iterate the six-step cycle until the residuals meet the tolerances.

    Non-convergence within ``max_iter`` is reported, not raised;
    non-finite iterates raise :class:`NumericalError`. ``progress``, when
    given, is called as ``progress(iteration, (primal, constraint, dual))``
    every ``progress_every`` iterations.
    """
    state = init_state(spec)
    converged = False
    for it in range(1, spec.max_iter + 1):
        state.c = update_c(state, spec)
        state.S = update_S_blocks(state, spec)
        b = bordered_matrix(state.S, state.c)
        sums = spec.partition.block_sums(state.S)
        state.z_prev = state.Z
        state.Z = psd_project(b - state.Lambda / spec.rho)
        state.Lambda, state.mu = update_multipliers(state, spec, b, sums)
        last = residuals(state, spec, b, sums)
        if not all(np.isfinite(last)):
            raise NumericalError(f"non-finite residuals at iteration {it}: {last}")
        if progress is not None and it % progress_every == 0:
            progress(it, last)
        primal, constraint, dual = last
        if primal < spec.tol_primal and constraint < spec.tol_primal and dual < spec.tol_dual:
            converged = True
            break

    return SolveReport(
        c_star=state.c.copy(),
        S_star=state.S.copy(),
        dual_objective=_dual_objective(spec, state.c),
        iterations=it,
        final_residuals=last,
        converged=converged,
    )


def assemble_problem(
    y: np.ndarray,
    pattern: SelectionPattern,
    tau: float | None = None,
    *,
    sigma: float | None = None,
    gamma: float = 1.5,
    auto_normalize: bool = False,
    rho: float = 1.0,
    max_iter: int = 20000,
    tol_primal: float = 1e-7,
    tol_dual: float = 1e-7,
) -> tuple[ProblemSpec, SelectionPattern, int]:
    """Build a :class:`ProblemSpec` from observations and a pattern.

    Patterns not containing index 0 are shifted when ``auto_normalize``
    is set (the shift ``k0`` is returned for later amplitude correction)
    and rejected otherwise. When ``tau`` is not given it defaults to the
    noise rule ``gamma * sigma * sqrt(m log m)`` if ``sigma`` is provided,
    else to 0.
    """
    k0 = 0
    if not is_admissible_selection(pattern):
        if not auto_normalize:
            raise InvalidInputError(
                "selection pattern must contain index 0; pass auto_normalize=True "
                "to shift it"
            )
        pattern, k0 = normalize_to_admissible(pattern)
    if tau is None:
        if sigma is not None and sigma > 0:
            m = pattern.m
            tau = float(gamma * sigma * np.sqrt(m * np.log(m))) if m > 1 else 0.0
        else:
            tau = 0.0
    spec = ProblemSpec(
        y=np.asarray(y, dtype=complex),
        partition=compute_partition(pattern),
        tau=tau,
        rho=rho,
        max_iter=max_iter,
        tol_primal=tol_primal,
        tol_dual=tol_dual,
    )
    return spec, pattern, k0
