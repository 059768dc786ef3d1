"""ADMM solver for the reduced (m+1)-dimensional semidefinite dual.

The program solved is

    max Re(y^T c) - (tau/2) ||c||^2
    s.t. [[S, c], [c*, 1]] >= 0,  sum over block J_k of S = delta_k,

where the blocks come from the skew-symmetric partition of a selection
pattern. ``tau = 0`` is the noiseless equality-constrained program; the
regularized path degenerates to it smoothly in the same code.

The plain ADMM cycle is a fixed-point map ``T`` on ``(V, mu)``, where
``V = b - Lambda/rho`` is the Hermitian matrix handed to the PSD
projection (``b`` the bordered matrix of ``(S, c)``). :func:`admm_step`
evaluates ``T``: it projects ``V`` onto the PSD cone, ascends both
multipliers, then updates c and S (the block updates and the Hermitian
mirror), which form the next ``V``. All multiplier pairings use the real
part of the complex inner product so the Lagrangian is real-valued;
under that convention the closed-form updates below are the exact block
minimizers (the test suite checks them against finite perturbations).

:func:`solve` runs a safeguarded type-II Anderson iteration over ``T``
(Walker & Ni 2011; Zhang, O'Donoghue & Boyd, arXiv:1808.03971). It
extrapolates the next input from the last ``MEMORY`` accepted
evaluations, and keeps the extrapolated point only when its fixed-point
residual ``T(x) - x`` is no larger than that of the point it extrapolated
from; otherwise it takes the plain step ``T(x)`` and clears the history.

Every evaluation of ``T`` is one Hermitian eigendecomposition of size
m+1, O(m^3) work, and counts as one iteration, rejected or not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    rejected_extrapolations: int


MEMORY = 5  # Anderson history: differences of the last five accepted evaluations


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


def admm_step(
    state: AdmmState, spec: ProblemSpec, b: np.ndarray, sums: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The plain ADMM map ``T``: one cycle from the input ``b - Lambda/rho``.

    Projects that input onto the PSD cone (the one eigendecomposition),
    ascends both multipliers with ``b`` and ``sums``, the bordered matrix
    and block sums it was formed from, then updates c and S. The fields of
    ``state`` are reassigned, never written into. Returns the bordered
    matrix and the block sums of the new ``(S, c)``.
    """
    state.z_prev = state.Z
    state.Z = psd_project(b - state.Lambda / spec.rho)
    state.Lambda, state.mu = update_multipliers(state, spec, b, sums)
    state.c = update_c(state, spec)
    state.S = update_S_blocks(state, spec)
    return bordered_matrix(state.S, state.c), spec.partition.block_sums(state.S)


class _Anderson:
    """Type-II Anderson extrapolation over the last :data:`MEMORY` steps.

    Row ``j`` of ``dg`` and ``df`` is a difference of consecutive residuals
    ``g = T(x) - x`` and images ``T(x)``, written into a ring buffer;
    ``gram`` holds the inner products of the ``dg`` rows and gains one row
    per push, so the history is never stacked or copied.
    """

    def __init__(self, size: int):
        self.dg, self.df = np.empty((2, MEMORY, size))
        self.gram = np.empty((MEMORY, MEMORY))
        self.count = 0

    def push(self, f: np.ndarray, g: np.ndarray, f_next: np.ndarray, g_next: np.ndarray) -> None:
        """Record the step from ``(f, g)`` to ``(f_next, g_next)``."""
        j = self.count % MEMORY
        np.subtract(g_next, g, out=self.dg[j])
        np.subtract(f_next, f, out=self.df[j])
        self.count += 1
        k = min(self.count, MEMORY)
        self.gram[j, :k] = self.gram[:k, j] = self.dg[:k] @ self.dg[j]

    def extrapolate(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """``f - dF gamma`` with ``gamma`` minimizing ``||g - dG gamma||``."""
        k = min(self.count, MEMORY)
        gamma = np.linalg.lstsq(self.gram[:k, :k], self.dg[:k] @ g, rcond=None)[0]
        return f - gamma @ self.df[:k]


class _Packing:
    """A Hermitian ``(m+1) x (m+1)`` matrix and a length-``p`` vector as one
    real vector: the upper triangle, off-diagonals weighted by sqrt(2) so
    the Euclidean norm is the Frobenius norm, then the vector."""

    def __init__(self, spec: ProblemSpec):
        n = spec.m + 1
        rows, cols = np.triu_indices(n, 1)
        self.n = n
        # Flat positions in the matrix: the diagonal, then the upper triangle.
        self.triangle = np.concatenate([np.arange(n) * (n + 1), rows * n + cols])
        self.lower = cols * n + rows
        ends = np.cumsum([n, rows.size, rows.size, spec.partition.p, spec.partition.p])
        self.parts = [slice(a, b) for a, b in zip([0, *ends[:-1]], ends)]
        self.size = int(ends[-1])

    def pack(self, a: np.ndarray, b: np.ndarray, scale: float, mu: np.ndarray) -> np.ndarray:
        """The vector of ``(a - scale * b, mu)``."""
        tri = a.ravel().take(self.triangle) - scale * b.ravel().take(self.triangle)
        off = np.sqrt(2.0) * tri[self.n :]
        return np.concatenate([tri[: self.n].real, off.real, off.imag, mu.real, mu.imag])

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        diag, re, im, mu_re, mu_im = (x[part] for part in self.parts)
        off = (re + 1j * im) / np.sqrt(2.0)
        v = np.empty(self.n * self.n, dtype=complex)
        v[self.triangle[self.n :]] = off
        v[self.lower] = off.conj()
        v[self.triangle[: self.n]] = diag
        return v.reshape(self.n, self.n), mu_re + 1j * mu_im


def solve(spec: ProblemSpec, progress=None, progress_every: int = 100) -> SolveReport:
    """Anderson-accelerated ADMM until the residuals meet the tolerances.

    Each iteration evaluates :func:`admm_step` once. An accepted
    evaluation's residuals are (primal ``||b - Z||``, constraint
    ``max |block sums - delta|``, dual ``rho ||Z - Z_prev||``), with ``b``
    the bordered matrix of its ``(S, c)`` and ``Z`` its projection; the
    report returns the last accepted evaluation. Non-convergence within
    ``max_iter`` is reported, not raised; non-finite iterates raise
    :class:`NumericalError`. ``progress``, when given, is called as
    ``progress(iteration, (primal, constraint, dual))`` with the last
    accepted residuals every ``progress_every`` iterations.
    """
    rho, delta = spec.rho, spec.partition.delta
    packing = _Packing(spec)
    # V = I and mu = 0: the projection gives Z = I and Lambda = 0.
    trial = init_state(spec)
    b, sums = trial.Z, delta
    anderson = _Anderson(packing.size)
    extrapolated = converged = False
    rejected = 0
    for it in range(1, spec.max_iter + 1):
        # trial is a fresh copy: a rejected evaluation leaves state untouched.
        b, sums = admm_step(trial, spec, b, sums)
        res = residuals(trial, spec, b, sums)
        if not all(np.isfinite(res)):
            raise NumericalError(f"non-finite residuals at iteration {it}: {res}")
        trial.z_prev = None  # read by the dual residual only; frees the older Z
        # The image T(x) = (V, mu/rho) and the residual T(x) - x, which is
        # (b - Z, block sums - delta): the primal and constraint residuals.
        f_out = packing.pack(b, trial.Lambda, 1.0 / rho, trial.mu / rho + (sums - delta))
        g_out = packing.pack(b, trial.Z, 1.0, sums - delta)
        g_out_norm = np.linalg.norm(g_out)
        if extrapolated and g_out_norm > g_norm:
            rejected += 1  # the safeguard: next comes the plain step
            anderson.count = 0
            # Rebuilt rather than kept: admm_step returned exactly these.
            b, sums = bordered_matrix(state.S, state.c), spec.partition.block_sums(state.S)
        else:
            if it > 1:  # the first evaluation is always accepted
                anderson.push(f, g, f_out, g_out)
            state, f, g, g_norm = trial, f_out, g_out, g_out_norm
            last = primal, constraint, dual = res
            converged = max(primal, constraint) < spec.tol_primal and dual < spec.tol_dual
        if progress is not None and it % progress_every == 0:
            progress(it, last)
        if converged:
            break
        extrapolated = anderson.count > 0
        if extrapolated:
            # Only V and mu are extrapolated: b = V + Lambda/rho keeps the
            # input V, and admm_step sets Lambda = rho (Z - V).
            b, mu = packing.unpack(anderson.extrapolate(f, g))
            b += state.Lambda / rho
            trial = replace(state, mu=rho * mu)
            sums = delta  # so the mu ascent adds nothing
        else:
            trial = replace(state)

    return SolveReport(
        c_star=state.c.copy(),
        S_star=state.S.copy(),
        dual_objective=_dual_objective(spec, state.c),
        iterations=it,
        final_residuals=last,
        converged=converged,
        rejected_extrapolations=rejected,
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
