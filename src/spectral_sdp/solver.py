"""ADMM solver for the reduced (m+1)-dimensional semidefinite dual.

The program solved is

    max Re(y^T c) - (tau/2) ||c||^2
    s.t. [[S, c], [c*, 1]] >= 0,  sum over block J_k of S = delta_k,

where the blocks come from the skew-symmetric partition of a selection
pattern. ``tau = 0`` is the noiseless equality-constrained program; the
regularized path degenerates to it smoothly in the same code.

The plain ADMM cycle is a fixed-point map ``T(V, mu)`` on the Hermitian
matrix ``V`` handed to the PSD projection and the block-sum multipliers
``mu``. :func:`admm_step` evaluates it: ``Z`` is the projection of ``V``
onto the PSD cone and ``Lambda = rho (Z - V)`` its multiplier; the c and
S updates (the block updates and the Hermitian mirror) follow, and give
the image: ``mu`` ascended on the block sums of S, and the bordered
matrix of ``(S, c)`` less ``Lambda/rho``. All multiplier pairings use the
real part of the complex inner product so the Lagrangian is real-valued;
under that convention the closed-form updates below are the exact block
minimizers (the test suite checks them against finite perturbations).

:func:`solve` runs a safeguarded type-II Anderson iteration over ``T``
(Walker & Ni 2011; Zhang, O'Donoghue & Boyd, arXiv:1808.03971). It
extrapolates the next input from the last ``MEMORY`` accepted
evaluations, and keeps the extrapolated point only when its fixed-point
residual ``T(x) - x`` is no larger than that of the point it extrapolated
from; otherwise it takes the plain step ``T(x)`` and clears the history.
The same residual is the stopping rule: its V-part is ``b - Z``, the
primal residual, and its mu-part the block sums of S less delta.

Every evaluation of ``T`` is one Hermitian eigendecomposition of size
m+1, O(m^3) work, and counts as one iteration, rejected or not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .sampling import (
    PartitionStructure,
    SelectionPattern,
    compute_partition,
    is_admissible_selection,
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
    """One evaluation of the ADMM map: the projection ``Z``, its multiplier
    ``Lambda``, the block-sum multipliers ``mu`` it was evaluated at, and
    the ``c`` and ``S`` updated from them."""

    Z: np.ndarray
    S: np.ndarray
    c: np.ndarray
    Lambda: np.ndarray
    mu: np.ndarray


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
    h = np.asarray(y_mat, dtype=complex)
    h = 0.5 * (h + h.conj().T)
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    clipped = np.maximum(vals, 0.0)
    return (vecs * clipped) @ vecs.conj().T


def _dual_objective(spec: ProblemSpec, c: np.ndarray) -> float:
    obj = float(np.real(spec.y @ c))
    if spec.tau > 0:
        obj -= 0.5 * spec.tau * float(np.linalg.norm(c) ** 2)
    return obj


def admm_step(
    v: np.ndarray, mu: np.ndarray, spec: ProblemSpec
) -> tuple[AdmmState, np.ndarray, np.ndarray]:
    """The plain ADMM map ``T(V, mu)``; ``v`` and ``mu`` are only read.

    Projects ``V`` onto the PSD cone (the one eigendecomposition), sets
    ``Lambda = rho (Z - V)``, updates c and S, then ascends ``mu`` on the
    block sums of S. Returns the evaluation and the image
    ``(b - Lambda/rho, mu')``, ``b`` the bordered matrix of ``(S, c)``.
    """
    z = psd_project(v)
    state = AdmmState(Z=z, S=None, c=None, Lambda=spec.rho * (z - v), mu=mu)
    state.c = update_c(state, spec)
    state.S = update_S_blocks(state, spec)
    part = spec.partition
    mu_next = mu + spec.rho * (part.block_sums(state.S) - part.delta)
    return state, bordered_matrix(state.S, state.c) - state.Lambda / spec.rho, mu_next


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


def solve(spec: ProblemSpec) -> SolveReport:
    """Anderson-accelerated ADMM until the residuals meet the tolerances.

    The iterate is one point ``x = (V, mu/rho)``; each iteration evaluates
    :func:`admm_step` at it once and reads the primal and constraint
    residuals off ``T(x) - x``. The report returns the last accepted
    evaluation and its residuals, the dual one against the previous
    accepted ``Z``. Non-convergence within ``max_iter`` is reported, not
    raised; non-finite iterates raise :class:`NumericalError`.
    """
    rho = spec.rho
    n = spec.m + 1
    # A point is one complex vector, viewed as floats: the upper triangle of
    # V with the off-diagonals times sqrt(2), so its norm is the Frobenius
    # norm, then mu/rho.
    rows, cols = np.triu_indices(n)
    upper, lower = rows * n + cols, cols * n + rows
    weight = np.where(rows == cols, 1.0, np.sqrt(2.0))
    k = upper.size

    def pack(v: np.ndarray, mu: np.ndarray) -> np.ndarray:
        return np.concatenate([weight * v.ravel().take(upper), mu / rho]).view(float)

    # V = I and mu = 0: the projection gives Z = I and Lambda = 0.
    v = z_prev = np.eye(n, dtype=complex)
    mu = np.zeros(spec.partition.p, dtype=complex)
    x = pack(v, mu)
    anderson = _Anderson(x.size)
    extrapolated = converged = False
    rejected = 0
    for it in range(1, spec.max_iter + 1):
        trial, v_out, mu_out = admm_step(v, mu, spec)
        # The image T(x) and the residual g = T(x) - x: its V-part is b - Z,
        # the primal residual, its mu-part the block sums of S less delta.
        f_out = pack(v_out, mu_out)
        g_out = f_out - x
        g_v, g_mu = np.split(g_out.view(complex), [k])
        z_step = np.linalg.norm(trial.Z - z_prev)
        res = float(np.linalg.norm(g_v)), float(np.max(np.abs(g_mu))), float(rho * z_step)
        if not all(np.isfinite(res)):
            raise NumericalError(f"non-finite residuals at iteration {it}: {res}")
        g_out_norm = np.linalg.norm(g_out)
        if extrapolated and g_out_norm > g_norm:
            rejected += 1  # the safeguard: next comes the plain step
            anderson.count = 0
        else:
            if it > 1:  # the first evaluation is always accepted
                anderson.push(f, g, f_out, g_out)
            f, g, g_norm = f_out, g_out, g_out_norm
            # Z backs the dual residual, (S, c) the report; Lambda is not read.
            z_prev, s_star, c_star = trial.Z, trial.S, trial.c
            last = primal, constraint, dual = res
            converged = max(primal, constraint) < spec.tol_primal and dual < spec.tol_dual
        del trial, v_out, mu_out  # only the accepted part outlives the next projection
        if converged:
            break
        extrapolated = anderson.count > 0
        x = anderson.extrapolate(f, g) if extrapolated else f
        point = x.view(complex)
        tri = point[:k] / weight
        v = np.empty(n * n, dtype=complex)  # the diagonal is in both index sets
        v[lower] = tri.conj()
        v[upper] = tri
        v, mu = v.reshape(n, n), point[k:] * rho
        del tri

    return SolveReport(
        c_star=c_star,
        S_star=s_star,
        dual_objective=_dual_objective(spec, c_star),
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
    **settings,
) -> ProblemSpec:
    """Build a :class:`ProblemSpec` from observations and a pattern.

    The pattern must contain index 0 (shift it first with
    :func:`~spectral_sdp.sampling.normalize_to_admissible`). When ``tau``
    is not given it defaults to the noise rule
    ``gamma * sigma * sqrt(m log m)`` if ``sigma`` is provided, else to 0.
    ``settings`` (``rho``, ``max_iter``, the tolerances) go to the spec.
    """
    if not is_admissible_selection(pattern):
        raise InvalidInputError("selection pattern must contain index 0")
    if tau is None:
        if sigma is not None and sigma > 0:
            m = pattern.m
            tau = float(gamma * sigma * np.sqrt(m * np.log(m))) if m > 1 else 0.0
        else:
            tau = 0.0
    return ProblemSpec(y=y, partition=compute_partition(pattern), tau=tau, **settings)
