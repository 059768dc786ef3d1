"""ADMM solver for the reduced (m+1)-dimensional semidefinite dual.

The program solved is

    max Re(y^T c) - (tau/2) ||c||^2
    s.t. [[S, c], [c*, 1]] >= 0,  sum over block J_k of S = delta_k,

where the blocks come from the skew-symmetric partition of a selection
pattern. ``tau = 0`` is the noiseless program; the regularized path
degenerates to it smoothly in the same code.

Every (m+1) x (m+1) Hermitian matrix the solver handles is held as one
vector, its *triangle* (:attr:`ProblemSpec.triangle`): the upper-triangle
entries in partition order, so a block of S is a contiguous slice and the
border ``c`` a slice after it.

The plain ADMM cycle is a fixed-point map ``T(V, mu)`` on the triangle of
the matrix ``V`` handed to the PSD projection and the block-sum
multipliers ``mu``. :func:`admm_step` evaluates it: ``Z`` is the
projection of ``V`` onto the PSD cone and ``Lambda = rho (Z - V)`` its
multiplier; c and S are the block minimizers at ``Z + Lambda/rho``, and
the image is ``mu`` ascended on the block sums of S and the triangle
``(S, c, 1)`` less ``Lambda/rho``. All multiplier pairings use the real
part of the complex inner product so the Lagrangian is real-valued; under
that convention the closed-form updates below are the exact block
minimizers (the test suite checks them against finite perturbations).

:func:`solve` runs a safeguarded type-II Anderson iteration over ``T``
(Walker & Ni 2011; Zhang, O'Donoghue & Boyd, arXiv:1808.03971). It
extrapolates the next input from the last ``MEMORY`` = 10 accepted
evaluations, and keeps the extrapolated point only when its fixed-point
residual ``T(x) - x`` is no larger than that of the point it extrapolated
from; otherwise it takes the plain step ``T(x)`` and clears the history.
The same residual is the stopping rule: its V-part is ``(S, c, 1) - Z``,
the primal residual, and its mu-part the block sums of S less delta.

The history of differences is held in float32, so memory 10 takes the
bytes that memory 5 took in float64. Near the fixed point the map is
nearly linear and a deeper history captures more of its spectrum: on the
benchmark's seeded sets the mean iterations per call fell from about 268
to 166 (criteria 5-7 shapes, m 48-64), 142 to 90 (criterion 11's
signals, m = 129) and 1074 to 650 (m = 61 of n = 2048). Only the history
is rounded: every point is evaluated, judged by the safeguard and tested
by the stopping rule in float64.

Every evaluation of ``T`` is one PSD projection of size m+1 and counts as
one iteration, rejected or not. ``V`` has few negative eigenvalues (as many
as spikes, at the optimum), so :func:`psd_project` subtracts only those,
warm-started from the previous iteration's eigenvectors and certified by a
Cholesky factorization: O(m^2 s) work besides that O(m^3 / 3)
factorization. When the certificate fails, and on the first iteration, it
falls back to the full Hermitian eigendecomposition, O(m^3);
:class:`SolveReport` counts those iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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
        if not np.all(np.isfinite(y)):
            raise InvalidInputError("y must be finite")
        if not (np.isfinite(self.tau) and self.tau >= 0):
            raise InvalidInputError(f"tau must be finite and nonnegative, got {self.tau}")
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise InvalidInputError(f"rho must be finite and positive, got {self.rho}")
        if self.max_iter < 1:
            raise InvalidInputError(f"max_iter must be at least 1, got {self.max_iter}")
        if not all(np.isfinite(t) and t >= 0 for t in (self.tol_primal, self.tol_dual)):
            raise InvalidInputError("tolerances must be finite and nonnegative")
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.partition.m

    @cached_property
    def triangle(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat positions of the triangle in a raveled (m+1) x (m+1) matrix:
        ``(upper, lower)``, the entries ``(i, j)`` and their mirrors ``(j, i)``.

        The order is the S pairs of the partition (the m diagonal entries
        first), then the border ``(i, m)``, then the corner ``(m, m)``.
        """
        part = self.partition
        n = part.m + 1
        rows = np.concatenate([part.rows, np.arange(n)])
        cols = np.concatenate([part.cols, np.full(n, n - 1)])
        return rows * n + cols, cols * n + rows

    @cached_property
    def weight(self) -> np.ndarray:
        """1 on the triangle's diagonal entries and sqrt(2) off them, so a
        weighted triangle's Euclidean norm is its matrix's Frobenius norm."""
        upper, lower = self.triangle
        return np.where(upper == lower, 1.0, np.sqrt(2.0))

    def split(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of S's part and of the border ``c`` of a triangle ``t``."""
        k = self.partition.rows.size
        return t[:k], t[k:-1]

    def hermitian(self, t: np.ndarray) -> np.ndarray:
        """The Hermitian (m+1) x (m+1) matrix whose triangle is ``t``."""
        upper, lower = self.triangle
        h = np.empty((self.m + 1) ** 2, dtype=complex)
        h[lower] = t.conj()
        h[upper] = t  # the diagonal keeps t's entries
        return h.reshape(self.m + 1, self.m + 1)


@dataclass(frozen=True)
class SolveReport:
    c_star: np.ndarray
    S_star: np.ndarray
    dual_objective: float
    iterations: int
    final_residuals: tuple
    converged: bool
    rejected_extrapolations: int
    full_eigh_iterations: int
    rank_deficit: int


MEMORY = 10  # Anderson history: differences of the last ten accepted evaluations

# The warm-started projection of psd_project.
_KRYLOV_BLOCKS = 4  # the space [X, VX, V^2 X, V^3 X]
_RITZ_PASSES = 4  # Rayleigh-Ritz passes before the full eigh takes over
_RITZ_TOL = 1e-13  # residual of the negative Ritz pairs, relative to ||V||_F
_LOW_RANK_MIN_ORDER = 64  # below it, eigh was as fast on random selections (order sweep)


def update_c(a: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Minimizer of the c-part of the augmented Lagrangian.

    ``a`` is the border of ``Z + Lambda/rho``, the entries ``(i, m)`` of
    the triangle; the minimizer is ``c = (conj(y) + 2 rho a) / (2 rho + tau)``.
    """
    return (spec.y.conj() + 2.0 * spec.rho * a) / (2.0 * spec.rho + spec.tau)


def update_S_blocks(a: np.ndarray, mu: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Exact minimizer of every block Lagrangian, as S's part of the triangle.

    ``a`` is S's part of the triangle of ``Z + Lambda/rho``, in partition
    order, so block k is the slice of ``sizes[k]`` entries at ``starts[k]``.
    With ``b = delta_k - mu_k/rho``, the coupling through the block-sum
    penalty shifts every entry of the block by the same amount, giving
    ``S = a - (sum(a) - b) / (|J_k| + 1)``.
    """
    part = spec.partition
    b = part.delta - mu / spec.rho
    shift = (np.add.reduceat(a, part.starts) - b) / (part.sizes + 1)
    return a - np.repeat(shift, part.sizes)


class Projection(NamedTuple):
    """What one projection leaves for the next: ``basis`` holds orthonormal
    approximations of the eigenvectors of the ``negatives`` negative
    eigenvalues, then of the next one up (the guard) when there is one.
    ``full`` tells whether the full eigendecomposition ran."""

    basis: np.ndarray
    negatives: int
    full: bool


def _ritz_projection(a: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, Projection] | None:
    """``Z = A - U Theta U*`` from the negative Ritz pairs ``(Theta, U)`` of
    the Hermitian ``a``, or None when it is not certified. ``a`` is
    overwritten, by ``Z`` when it is returned.

    Each pass is a Rayleigh-Ritz step on the block Krylov space
    ``[X, AX, A^2 X, A^3 X]`` of the last pass's negative Ritz vectors and
    guard ``X``. The pairs are accepted once their residual
    ``||A U - U Theta||_F`` is at most ``_RITZ_TOL ||A||_F``, within
    ``_RITZ_PASSES`` passes; the passes stop early when, at the rate of the
    last one, those left would fall short. ``Z`` is accepted once
    ``Z + eps I`` has a Cholesky factor, ``eps = order * machine eps *
    ||A||_F``: then ``A`` has no negative eigenvalue outside ``U`` beyond
    rounding.
    """
    order = a.shape[0]
    norm = np.linalg.norm(a)
    if not np.isfinite(norm) or _KRYLOV_BLOCKS * basis.shape[1] >= order:
        return None
    x = basis
    previous = np.inf
    for left in range(_RITZ_PASSES - 1, -1, -1):
        blocks = [x]
        for _ in range(_KRYLOV_BLOCKS - 1):
            blocks.append(a @ blocks[-1] / norm)  # scaled, so no power overflows
        q = np.linalg.qr(np.hstack(blocks))[0]
        aq = a @ q
        theta, w = np.linalg.eigh(q.conj().T @ aq)
        k = int(np.count_nonzero(theta < 0))
        x, ax = q @ w[:, : k + 1], aq @ w[:, : k + 1]
        residual = np.linalg.norm(ax[:, :k] - x[:, :k] * theta[:k]) / norm
        if residual <= _RITZ_TOL:
            break
        if residual * (residual / previous) ** left > _RITZ_TOL:
            return None  # at the last pass's rate, the passes left fall short
        previous = residual
    a -= (x[:, :k] * theta[:k]) @ x[:, :k].conj().T  # Z, in place
    diagonal = a.diagonal().copy()
    a.flat[:: order + 1] += order * np.finfo(float).eps * norm
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    a.flat[:: order + 1] = diagonal
    return a, Projection(x, k, False)


def psd_project(h: np.ndarray, basis: np.ndarray | None = None) -> tuple[np.ndarray, Projection]:
    """Frobenius-nearest positive semidefinite matrix ``Z`` to the Hermitian
    matrix ``V`` held in the lower triangle of ``h``, and the
    :class:`Projection` that warm-starts the next call.

    Only the lower triangle is read (the imaginary parts of the diagonal
    are taken as zero). ``Z = V - V_-`` needs only the few negative
    eigenpairs of ``V``: from an order of ``_LOW_RANK_MIN_ORDER`` on, and
    given the ``basis`` of the previous call, they come from a certified
    Rayleigh-Ritz step (``_ritz_projection``) in O(order^2 k) work besides
    one Cholesky factorization. Without a basis, below that order, or when
    the certificate fails, the full eigendecomposition zeroes the negative
    eigenvalues, in O(order^3) work; a call without a basis is exactly that.
    """
    if basis is not None and h.shape[0] >= _LOW_RANK_MIN_ORDER:
        a = np.tril(h, -1)
        a += a.conj().T
        a.flat[:: a.shape[0] + 1] = h.diagonal().real
        certified = _ritz_projection(a, basis)
        if certified is not None:
            return certified
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    k = int(np.count_nonzero(vals < 0))
    z = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
    return z, Projection(vecs[:, : k + 1].copy(), k, True)


def admm_step(
    v: np.ndarray, mu: np.ndarray, spec: ProblemSpec, basis: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Projection]:
    """The plain ADMM map ``T(V, mu)`` on the triangle ``v`` of ``V``;
    ``v``, ``mu`` and ``basis`` are only read.

    Writes ``V`` into the lower triangle the projection reads, projects
    (warm-started from ``basis``, see :func:`psd_project`) and gathers the
    triangle ``z`` of ``Z``. With ``Lambda/rho = Z - V``, c and S are the
    block minimizers at ``Z + Lambda/rho``, and ``mu`` ascends on the block
    sums of S. Returns ``z``, the triangle ``b`` of ``(S, c, 1)``, the
    image ``(b - Lambda/rho, mu')`` and the projection's
    :class:`Projection`.
    """
    part = spec.partition
    upper, lower = spec.triangle
    n = spec.m + 1
    h = np.empty((n, n), dtype=complex)
    h.ravel()[lower] = v.conj()
    z_mat, projection = psd_project(h, basis)
    z = z_mat.ravel().take(upper)
    lam = z - v  # Lambda / rho
    a_s, a_c = spec.split(z + lam)
    s = update_S_blocks(a_s, mu, spec)
    b = np.concatenate([s, update_c(a_c, spec), [1.0]])
    mu_next = mu + spec.rho * (np.add.reduceat(s, part.starts) - part.delta)
    return z, b, b - lam, mu_next, projection


class _Anderson:
    """Type-II Anderson extrapolation over the last :data:`MEMORY` steps.

    Row ``j`` of ``dg`` and ``df`` is a difference of consecutive residuals
    ``g = T(x) - x`` and images ``T(x)``, computed in float64 and rounded
    once into a float32 ring buffer: memory 10 in the bytes of memory 5 in
    float64. ``gram`` holds the inner products of the ``dg`` rows in
    float64 and gains one row per push. The products with the history run
    in float32 BLAS, so no float64 copy of it is made; the extrapolated
    point only proposes, and :func:`solve` judges it in float64.
    """

    def __init__(self, size: int):
        self.dg, self.df = np.empty((2, MEMORY, size), dtype=np.float32)
        self.gram = np.empty((MEMORY, MEMORY))
        self.count = 0

    @np.errstate(over="ignore", invalid="ignore")  # extrapolate() checks
    def push(self, f: np.ndarray, g: np.ndarray, f_next: np.ndarray, g_next: np.ndarray) -> None:
        """Record the step from ``(f, g)`` to ``(f_next, g_next)``."""
        j = self.count % MEMORY
        np.subtract(g_next, g, out=self.dg[j])
        np.subtract(f_next, f, out=self.df[j])
        self.count += 1
        k = min(self.count, MEMORY)
        self.gram[j, :k] = self.gram[:k, j] = self.dg[:k] @ self.dg[j]

    @np.errstate(over="ignore", invalid="ignore")
    def extrapolate(self, f: np.ndarray, g: np.ndarray) -> np.ndarray | None:
        """``f - dF gamma`` with ``gamma`` minimizing ``||g - dG gamma||``.

        None without a history, and also when a float32 product overflowed
        (differences beyond about 1e19); the history is then cleared.
        """
        k = min(self.count, MEMORY)
        if k == 0:
            return None
        rhs = self.dg[:k] @ g.astype(np.float32)
        gram = self.gram[:k, :k]
        if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
            self.count = 0
            return None
        gamma = np.linalg.lstsq(gram, rhs, rcond=None)[0]  # in float64, as gram is
        return f - gamma.astype(np.float32) @ self.df[:k]


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
    # A point is one float vector: the weighted triangle of V viewed as
    # floats, so that its norm is the Frobenius norm, then mu/rho.
    scale, unscale = np.repeat(spec.weight, 2), np.repeat(1.0 / spec.weight, 2)
    k = scale.size  # the V-part of a point

    def pack(v: np.ndarray, mu: np.ndarray) -> np.ndarray:
        return np.concatenate([v.view(float) * scale, (mu / rho).view(float)])

    # V = I and mu = 0: the projection gives Z = I and Lambda = 0.
    v = z_prev = np.eye(spec.m + 1, dtype=complex).ravel()[spec.triangle[0]]
    mu = np.zeros(spec.partition.p, dtype=complex)
    x = pack(v, mu)
    anderson = _Anderson(x.size)
    extrapolated = converged = False
    rejected = full = 0
    basis = None  # the first projection has nothing to warm-start from
    for it in range(1, spec.max_iter + 1):
        z, b, v_out, mu_out, projection = admm_step(v, mu, spec, basis)
        basis = projection.basis
        full += projection.full
        # The image T(x) and the residual g = T(x) - x: its V-part is b - Z,
        # the primal residual, its mu-part the block sums of S less delta.
        f_out = pack(v_out, mu_out)
        g_out = f_out - x
        z_step = np.linalg.norm((z - z_prev).view(float) * scale)  # ||Z - Z_prev||
        res = (
            float(np.linalg.norm(g_out[:k])),
            float(np.max(np.abs(g_out[k:].view(complex)))),
            float(rho * z_step),
        )
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
            z_prev, b_star = z, b  # Z backs the dual residual, b the report
            deficit = projection.negatives
            last = primal, constraint, dual = res
            converged = max(primal, constraint) < spec.tol_primal and dual < spec.tol_dual
        if converged:
            break
        proposal = anderson.extrapolate(f, g)
        extrapolated = proposal is not None
        x = proposal if extrapolated else f
        v, mu = (x[:k] * unscale).view(complex), x[k:].view(complex) * rho

    c_star = spec.split(b_star)[1]
    return SolveReport(
        c_star=c_star,
        S_star=spec.hermitian(b_star)[:-1, :-1],
        dual_objective=float(np.real(spec.y @ c_star))
        - 0.5 * spec.tau * float(np.linalg.norm(c_star) ** 2),
        iterations=it,
        final_residuals=last,
        converged=converged,
        rejected_extrapolations=rejected,
        full_eigh_iterations=full,
        rank_deficit=deficit,
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
    ``gamma * sigma * sqrt(m log m)`` if ``sigma`` is positive, else to 0;
    the rule needs ``gamma > 1``. ``sigma`` must be finite and nonnegative.
    ``settings`` (``rho``, ``max_iter``, the tolerances) go to the spec.
    """
    if not is_admissible_selection(pattern):
        raise InvalidInputError("selection pattern must contain index 0")
    if sigma is not None and not (np.isfinite(sigma) and sigma >= 0):
        raise InvalidInputError(f"sigma must be finite and nonnegative, got {sigma}")
    if tau is None:
        if sigma is not None and sigma > 0:
            if not gamma > 1:
                raise InvalidInputError(f"gamma must exceed 1 for the noise rule, got {gamma}")
            m = pattern.m
            tau = float(gamma * sigma * np.sqrt(m * np.log(m))) if m > 1 else 0.0
        else:
            tau = 0.0
    return ProblemSpec(y=y, partition=compute_partition(pattern), tau=tau, **settings)
