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

The ADMM is the classical two-block splitting (Boyd et al. 2011, §5;
SCS, O'Donoghue et al., arXiv:1312.3039): ``X = [[S, c], [c*, 1]]`` with
S in the affine set of the block sums, ``Z`` in the PSD cone, and the
consensus ``X = Z``. Its plain cycle is a fixed-point map ``T(V)`` on the
triangle of the matrix ``V`` handed to the PSD projection.
:func:`admm_step` evaluates it: ``Z`` is the projection of ``V`` onto the
PSD cone and ``Lambda = rho (Z - V)`` its multiplier; c and S are the
block minimizers at ``Z + Lambda/rho``, S by the exact projection onto
the block sums, and the image is the triangle ``(S, c, 1)`` less
``Lambda/rho``. So every iterate meets the block sums exactly. All
multiplier pairings use the real part of the complex inner product so the
Lagrangian is real-valued; under that convention the closed-form updates
below are the exact block minimizers (the test suite checks them against
finite perturbations).

:func:`solve` runs a safeguarded type-II Anderson iteration over ``T``
(Walker & Ni 2011; Zhang, O'Donoghue & Boyd, arXiv:1808.03971). It
extrapolates the next input from the last accepted evaluations, and keeps
the extrapolated point only when its fixed-point residual ``T(x) - x`` is
no larger than that of the point it extrapolated from; otherwise it takes
the plain step ``T(x)`` and clears the history. The same residual is
``(S, c, 1) - Z``, the primal residual ``eps``. The block sums of the
returned S are checked once, at the end, and reported as the constraint
residual.

The solve stops on a certified duality gap (SCS's relative-gap rule; the
gap of atomic-norm denoising is in Bhaskar, Tang & Recht,
arXiv:1204.6537). When ``Z`` is PSD, ``(S, c, 1) + eps I`` is too, and by
the Gram parametrization ``c / beta``, ``beta = sqrt((1 + eps)(1 + m
eps))``, is dual-feasible: its objective is a lower bound. The atoms that
ESPRIT reads off the projection's negative eigenvectors, fitted to ``y -
tau conj(c)``, give a primal upper bound. The solve stops where their
relative gap is at most ``tol_gap``, which does not change when ``y`` and
``tau`` are scaled together, and returns the dual-feasible point; or
where the primal and dual residuals meet ``tol_primal`` and
``tol_dual``, if that comes first.

The history of differences is held in float32 and sized by a byte budget,
:data:`HISTORY_BYTES` = 2.5 MiB: as many evaluations as fit, from 10 to
40 (40 up to order 90, 19 at order 129, 10 from order 173 on; from
order 181 the floor of 10 takes more than the budget). Near the fixed
point the map is nearly linear and Anderson acts like GMRES on it, so a
deeper history captures more of its spectrum: on the benchmark's seeded
sets the mean iterations per call fell from about 202 to 62 (criterion
5's shape, m = 64, depth 40), 246 to 51 (criterion 6's, m = 48, depth
40) and 79 to 63 (criterion 11's signals, m = 128, depth 19) against the
fixed depth of 10. The Gram system is solved directly, which keeps a
depth-40 solve at tens of µs where least squares took hundreds. Only the
history is rounded: every point is evaluated, judged by the safeguard
and tested by the stopping rule in float64.

Every evaluation of ``T`` is one PSD projection of size m+1 and counts as
one iteration, rejected or not. ``V`` has few negative eigenvalues (as many
as spikes, at the optimum), so :func:`psd_project` subtracts only those,
warm-started from the previous iteration's eigenvectors (the first from
any unit vector, since ``V = I``): O(m^2 s) work. When the Ritz pairs are
not accepted, the projection falls back to the full Hermitian
eigendecomposition, O(m^3). Only an iterate that may stop needs ``Z``
PSD, so :func:`solve` runs the O(m^3 / 3) Cholesky certificate of a warm
``Z`` there alone, not at every iteration (ADMM tolerates summable
projection errors: Eckstein & Bertsekas 1992). After a failed warm
projection or certificate, :func:`solve` projects in full for the next
1, 2, 4, ... iterations, doubling with each failure in a row until a warm
one passes again.
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
from .trigops import PEAK_TOL


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Data and knobs of one reduced dual solve.

    ``tau = 0`` selects the noiseless program. ``rho`` is the augmented
    Lagrangian weight. The solve stops where the relative duality gap
    ``(UB - LB) / UB`` is at most ``tol_gap``, in [0, 1) (0 turns that
    rule off), or where the primal residual is below ``tol_primal`` and
    the dual residual below ``tol_dual`` (absolute, Frobenius).
    """

    y: np.ndarray
    partition: PartitionStructure
    tau: float = 0.0
    rho: float = 1.0
    max_iter: int = 20000
    tol_primal: float = 1e-7
    tol_dual: float = 1e-7
    tol_gap: float = 1e-5

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
        if not (np.isfinite(self.tol_gap) and 0 <= self.tol_gap < 1):
            raise InvalidInputError(f"tol_gap must be in [0, 1), got {self.tol_gap}")
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

    @cached_property
    def longest_block(self) -> tuple[int, np.ndarray, np.ndarray] | None:
        """``(d, rows, cols)`` of the off-diagonal block with the most pairs,
        ties going to the smaller lag ``d``; None when every pair is on the
        diagonal. Its pairs ``(i, j)`` have ``I[j] - I[i] = d``."""
        part = self.partition
        if part.p == 1:
            return None
        g = 1 + int(np.argmax(part.sizes[1:]))
        pairs = slice(part.starts[g], part.starts[g] + part.sizes[g])
        return part.positive_lags[g], part.rows[pairs], part.cols[pairs]

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
    """``full_eigh_iterations`` counts fallbacks and backed-off iterations.
    ``stopped_on`` is ``"gap"``, ``"residuals"`` or ``"max_iter"``;
    ``gap_lower`` and ``gap_upper`` bracket the optimal value, from the
    returned iterate (NaN after ``max_iter``)."""

    c_star: np.ndarray
    S_star: np.ndarray
    dual_objective: float
    iterations: int
    final_residuals: tuple
    converged: bool
    rejected_extrapolations: int
    full_eigh_iterations: int
    rank_deficit: int
    history_depth: int
    gap_lower: float
    gap_upper: float
    stopped_on: str


# The depth of the Anderson history (see _Anderson). Iterations per call
# fell with depth up to about 30 on the benchmark's shapes and little more
# to 40, while the Gram solve grows as depth^3.
HISTORY_BYTES = 5 * 2**19  # 2.5 MiB: depth 40 up to order 90, 19 at order 129
DEPTH_MIN, DEPTH_MAX = 10, 40  # depth 10 from order 173 on; the floor binds from 181

# The warm-started projection of psd_project.
_KRYLOV_BLOCKS = 4  # the space [X, VX, V^2 X, V^3 X]
_RITZ_PASSES = 4  # Rayleigh-Ritz passes before the full eigh takes over
_RITZ_TOL = 1e-13  # residual of the negative Ritz pairs, relative to ||V||_F


def update_c(a: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Minimizer of the c-part of the augmented Lagrangian.

    ``a`` is the border of ``Z + Lambda/rho``, the entries ``(i, m)`` of
    the triangle; the minimizer is ``c = (conj(y) + 2 rho a) / (2 rho + tau)``.
    """
    return (spec.y.conj() + 2.0 * spec.rho * a) / (2.0 * spec.rho + spec.tau)


def update_S_blocks(a: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Exact minimizer of every block Lagrangian on its block-sum set, as
    S's part of the triangle.

    ``a`` is S's part of the triangle of ``Z + Lambda/rho``, in partition
    order, so block k is the slice of ``sizes[k]`` entries at ``starts[k]``.
    The minimizer is the projection of ``a`` onto the affine set
    ``sum(S) = delta_k``; the entries of a block share one weight, so it
    shifts every entry by the same amount, ``S = a - (sum(a) - delta_k) / |J_k|``.
    """
    part = spec.partition
    shift = (np.add.reduceat(a, part.starts) - part.delta) / part.sizes
    return a - np.repeat(shift, part.sizes)


class Projection(NamedTuple):
    """What one projection leaves for the next: ``basis`` holds orthonormal
    approximations of the eigenvectors of the ``negatives`` negative
    eigenvalues, then of the next one up (the guard) when there is one.
    ``full`` tells whether the full eigendecomposition ran."""

    basis: np.ndarray
    negatives: int
    full: bool


def _shift(order: int, norm: float) -> float:
    """The diagonal shift of the Cholesky certificate of an order-``order``
    projection of a matrix of Frobenius norm ``norm``: rounding."""
    return order * np.finfo(float).eps * norm


def _certified(z: np.ndarray, shift: float) -> bool:
    """Whether ``z + shift I`` has a Cholesky factor, so that the Hermitian
    ``z`` has no eigenvalue below ``-shift``. ``z`` is only read."""
    shifted = z.copy()
    shifted.flat[:: z.shape[0] + 1] += shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _ritz_projection(
    a: np.ndarray, basis: np.ndarray, certify: bool
) -> tuple[np.ndarray, Projection] | None:
    """``Z = A - U Theta U*`` from the negative Ritz pairs ``(Theta, U)`` of
    the Hermitian ``a``, or None when they are not accepted. ``a`` is
    overwritten, by ``Z`` when it is returned.

    Each pass is a Rayleigh-Ritz step on the block Krylov space
    ``[X, AX, A^2 X, A^3 X]`` of the last pass's negative Ritz vectors and
    guard ``X``. The pairs are accepted once their residual
    ``||A U - U Theta||_F`` is at most ``_RITZ_TOL ||A||_F``, within
    ``_RITZ_PASSES`` passes; the passes stop early when, at the rate of the
    last one, those left would fall short. With ``certify``, ``Z`` is
    accepted only once ``Z + eps I`` has a Cholesky factor, ``eps = order *
    machine eps * ||A||_F`` (:func:`_shift`): then ``A`` has no negative
    eigenvalue outside ``U`` beyond rounding. Without it, ``Z`` is
    returned uncertified, and may have negative eigenvalues that the
    passes did not find.
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
    if certify and not _certified(a, _shift(order, norm)):
        return None
    return a, Projection(x, k, False)


def psd_project(
    h: np.ndarray, basis: np.ndarray | None = None, certify: bool = True
) -> tuple[np.ndarray, Projection]:
    """Frobenius-nearest positive semidefinite matrix ``Z`` to the Hermitian
    matrix ``h``, and the :class:`Projection` that warm-starts the next call.

    ``h`` must hold both triangles and a real diagonal; it is only read.
    ``Z = h - h_-`` needs only the few negative eigenpairs of ``h``: given
    a ``basis``, such as the previous call's, they come from a
    Rayleigh-Ritz step (``_ritz_projection``) in O(order^2 k) work, which
    ``certify`` follows with one Cholesky factorization, O(order^3 / 3).
    Without a basis, or when the Ritz pairs or the certificate fail, the
    full eigendecomposition zeroes the negative eigenvalues, in O(order^3)
    work; a call without a basis is exactly that. Without ``certify`` a
    warm ``Z`` may keep negative eigenvalues that the Ritz step missed;
    :func:`solve` certifies it only where it may stop.
    """
    if basis is not None:
        a = h.copy()
        warm = _ritz_projection(a, basis, certify)
        if warm is not None:
            return warm
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    k = int(np.count_nonzero(vals < 0))
    z = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
    return z, Projection(vecs[:, : k + 1].copy(), k, True)


def admm_step(
    v: np.ndarray, spec: ProblemSpec, basis: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Projection]:
    """The plain ADMM map ``T(V)`` on the triangle ``v`` of ``V``; ``v`` and
    ``basis`` are only read.

    Builds the Hermitian ``V`` with a real diagonal, projects it
    (warm-started from ``basis`` and not certified, see
    :func:`psd_project`) and gathers the
    triangle ``z`` of ``Z``. With ``Lambda/rho = Z - V``, c and S are the
    block minimizers at ``Z + Lambda/rho``. Returns ``z``, the triangle
    ``b`` of ``(S, c, 1)``, the image ``b - Lambda/rho`` and the
    projection's :class:`Projection`.
    """
    h = spec.hermitian(v)
    np.fill_diagonal(h.imag, 0.0)
    z_mat, projection = psd_project(h, basis, certify=False)
    z = z_mat.ravel().take(spec.triangle[0])
    lam = z - v  # Lambda / rho
    a_s, a_c = spec.split(z + lam)
    b = np.concatenate([update_S_blocks(a_s, spec), update_c(a_c, spec), [1.0]])
    return z, b, b - lam, projection


class _Anderson:
    """Type-II Anderson extrapolation over the last ``depth`` steps.

    ``depth`` is the number of float32 row pairs of ``size`` entries that
    fit in :data:`HISTORY_BYTES`, clamped to ``[DEPTH_MIN, DEPTH_MAX]``.
    Row ``j`` of ``dg`` and ``df`` is a difference of consecutive residuals
    ``g = T(x) - x`` and images ``T(x)``, computed in float64 and rounded
    once into a float32 ring buffer. ``gram`` holds the inner products of
    the ``dg`` rows in float64 and gains one row per step. The products
    with the history run in float32 BLAS, so no float64 copy of it is
    made; the extrapolated point only proposes, and :func:`solve` judges
    it in float64.
    """

    def __init__(self, size: int):
        self.depth = min(max(HISTORY_BYTES // (8 * size), DEPTH_MIN), DEPTH_MAX)
        self.dg, self.df = np.empty((2, self.depth, size), dtype=np.float32)
        self.gram = np.empty((self.depth, self.depth))
        self.count = 0

    @np.errstate(over="ignore", invalid="ignore")
    def step(
        self, f: np.ndarray, g: np.ndarray, f_next: np.ndarray, g_next: np.ndarray
    ) -> np.ndarray | None:
        """Record the step from ``(f, g)`` to ``(f_next, g_next)`` and return
        the next proposal, ``f_next - dF gamma`` with ``gamma`` minimizing
        ``||g_next - dG gamma||``.

        The Gram system is solved directly, in float64 as ``gram`` is, and by
        least squares only when it is exactly singular. None when a float32
        product overflowed (differences beyond about 1e19) or a near-singular
        Gram gave a point that is not finite; the history is then cleared.
        """
        j = self.count % self.depth
        np.subtract(g_next, g, out=self.dg[j])
        np.subtract(f_next, f, out=self.df[j])
        self.count += 1
        k = min(self.count, self.depth)
        self.gram[j, :k] = self.gram[:k, j] = self.dg[:k] @ self.dg[j]
        rhs = self.dg[:k] @ g_next.astype(np.float32)
        gram = self.gram[:k, :k]
        if np.isfinite(gram).all() and np.isfinite(rhs).all():
            try:
                gamma = np.linalg.solve(gram, rhs)
            except np.linalg.LinAlgError:
                gamma = np.linalg.lstsq(gram, rhs, rcond=None)[0]
            proposal = f_next - gamma.astype(np.float32) @ self.df[:k]
            if np.isfinite(proposal).all():
                return proposal
        self.count = 0
        return None


def _dual_objective(spec: ProblemSpec, c: np.ndarray) -> float:
    return float(np.real(spec.y @ c)) - 0.5 * spec.tau * float(np.linalg.norm(c) ** 2)


def _fold_values(indices: np.ndarray, c: np.ndarray, nu0: float, d: int) -> np.ndarray:
    """``Q(e^{i 2 pi (nu0 + j) / d})`` for ``j = 0..d-1``, where ``Q`` has
    the coefficient ``c[t]`` at ``indices[t]``.

    With ``k = r + d l``, ``Q = sum_r w_r e^{i 2 pi j r / d}`` for the fold
    ``w_r = sum_l c e^{i 2 pi nu0 k / d}``: one length-``d`` FFT.
    """
    w = np.zeros(d, dtype=complex)
    np.add.at(w, indices % d, c * np.exp(2j * np.pi * nu0 / d * indices))
    return d * np.fft.ifft(w)


def _atoms(spec: ProblemSpec, projection: Projection, c: np.ndarray) -> np.ndarray:
    """Reduced frequencies read by ESPRIT off the negative eigenvectors.

    On the pairs ``(i, j)`` of :attr:`ProblemSpec.longest_block`, of lag
    ``d``, the first ``m`` rows of the eigenvectors satisfy ``U[j] = U[i]
    Phi``, and the eigenvalues of ``Phi`` are ``e^{-i 2 pi nu d}``
    (Roy & Kailath 1989). Each gives ``d`` candidates ``(nu0 + j) / d``;
    the one of largest ``|Q|`` (:func:`_fold_values`) is kept when
    ``|Q| >= 1 - PEAK_TOL``. None are read when the block has fewer pairs
    than there are negative eigenvalues.
    """
    k, block = projection.negatives, spec.longest_block
    if k == 0 or block is None or block[1].size < k:
        return np.empty(0)
    d, rows, cols = block
    u = projection.basis[: spec.m, :k]
    phi = np.linalg.lstsq(u[rows], u[cols], rcond=None)[0]
    found = []
    for nu0 in -np.angle(np.linalg.eigvals(phi)) / (2 * np.pi):
        values = np.abs(_fold_values(spec.partition.indices, c, nu0, d))
        j = int(np.argmax(values))
        if values[j] >= 1.0 - PEAK_TOL:
            found.append((nu0 + j) / d % 1.0)
    return np.array(found)


def _gap_bounds(
    spec: ProblemSpec, c: np.ndarray, projection: Projection, beta: float
) -> tuple[float, float]:
    """Lower and upper bounds on the optimal value at an accepted iterate
    with border ``c`` and ``beta = sqrt((1 + eps)(1 + m eps))``.

    Lower: the objective of ``c / beta``, which is dual-feasible when the
    iterate's ``Z`` is PSD (see :func:`solve`). Upper: the primal objective at ``x = y - tau conj(c)``,
    ``sum |a| + ||x - M V a|| + (tau/2) ||c||^2``, with ``a`` the least
    squares amplitudes at the :func:`_atoms` frequencies; the residual
    term bounds its atomic norm, since every dual-feasible ``c`` has
    ``||c|| <= 1``.
    """
    x = spec.y - spec.tau * c.conj()
    nu = _atoms(spec, projection, c)
    residual, mass = x, 0.0
    if nu.size:
        vandermonde = np.exp(2j * np.pi * np.outer(spec.partition.indices, nu))
        amps = np.linalg.lstsq(vandermonde, x, rcond=None)[0]
        residual, mass = x - vandermonde @ amps, float(np.abs(amps).sum())
    upper = mass + float(np.linalg.norm(residual)) + 0.5 * spec.tau * float(np.linalg.norm(c) ** 2)
    return _dual_objective(spec, c / beta), upper


def solve(spec: ProblemSpec) -> SolveReport:
    """Anderson-accelerated ADMM until the duality gap or the residuals
    meet their tolerances.

    The iterate is one point ``x``, the triangle of ``V``; each iteration
    evaluates :func:`admm_step` at it once and reads the primal residual
    off ``T(x) - x``. Only accepted evaluations may stop the solve.

    With ``Z`` PSD up to the certificate's ``shift`` and ``eps`` the primal
    residual plus that shift, ``[[S + eps I, c], [c*, 1 + eps]]`` is PSD;
    so ``S' = (S + eps I) / (1 + m eps)`` and ``c' = c / beta`` meet the
    block sums with ``sup |Q| <= 1``, and :func:`_gap_bounds` brackets the
    optimum. The gap is checked once ``beta - 1 <= tol_gap``, since it
    cannot close before; a solve that stops on it returns ``(S', c')``,
    whose dual objective is the lower bound. A solve that stops on the
    residuals (the dual one against the previous accepted ``Z``) returns
    the evaluation itself. Either stop first certifies a warm ``Z`` by
    Cholesky; when that fails, the solve goes on and backs off as after a
    failed warm projection. Non-convergence within ``max_iter`` is
    reported, not raised; non-finite iterates raise
    :class:`NumericalError`.
    """
    # A point is the weighted triangle of V viewed as floats, so that its
    # norm is the Frobenius norm.
    scale, unscale = np.repeat(spec.weight, 2), np.repeat(1.0 / spec.weight, 2)

    # V = I: the warm projection gives Z = I, and Lambda = 0.
    v = z_prev = np.eye(spec.m + 1, dtype=complex).ravel()[spec.triangle[0]]
    basis = np.eye(spec.m + 1, 1)
    x = v.view(float) * scale
    anderson = _Anderson(x.size)
    extrapolated = False
    rejected = full = backoff = cold_until = 0
    stopped_on, bounds = "max_iter", (np.nan, np.nan)
    for it in range(1, spec.max_iter + 1):
        warm = it > cold_until
        z, b, v_out, projection = admm_step(v, spec, basis if warm else None)
        basis = projection.basis
        full += projection.full
        failed = projection.full
        # The image T(x) and the residual g = T(x) - x = b - Z, the primal
        # residual.
        f_out = v_out.view(float) * scale
        g_out = f_out - x
        g_out_norm = np.linalg.norm(g_out)
        z_step = np.linalg.norm((z - z_prev).view(float) * scale)  # ||Z - Z_prev||
        res = (float(g_out_norm), float(spec.rho * z_step))
        if not all(np.isfinite(res)):
            raise NumericalError(f"non-finite residuals at iteration {it}: {res}")
        if extrapolated and g_out_norm > g_norm:
            rejected += 1  # the safeguard: next comes the plain step
            anderson.count = 0
            proposal = None
        else:  # the first evaluation is always accepted
            z_prev, b_star = z, b  # Z backs the dual residual, b the report
            deficit = projection.negatives
            primal, dual = res
            converged = primal < spec.tol_primal and dual < spec.tol_dual
            shift = _shift(spec.m + 1, float(np.linalg.norm(x)))
            eps = primal + shift
            beta = np.sqrt((1.0 + eps) * (1.0 + spec.m * eps))
            near = 0 < spec.tol_gap and beta - 1.0 <= spec.tol_gap
            if converged or near:
                lower, upper = _gap_bounds(spec, spec.split(b)[1], projection, beta)
                closed = near and upper - lower <= spec.tol_gap * upper
                if closed or converged:
                    if projection.full or _certified(spec.hermitian(z), shift):
                        stopped_on = "gap" if closed else "residuals"
                        bounds = (lower, upper)
                        break
                    failed = True  # the Ritz step missed a negative eigenvalue
            proposal = anderson.step(f, g, f_out, g_out) if it > 1 else None
            f, g, g_norm = f_out, g_out, g_out_norm
        if warm:  # after a failed warm projection, back off
            backoff = (2 * backoff or 1) if failed else 0
            cold_until = it + backoff
        extrapolated = proposal is not None
        x = proposal if extrapolated else f
        v = (x * unscale).view(complex)

    part = spec.partition
    s_star, c_star = spec.split(b_star)
    if stopped_on == "gap":
        s_star = s_star.copy()
        s_star[: spec.m] += eps  # the diagonal comes first
        s_star /= 1.0 + spec.m * eps
        c_star = c_star / beta
        b_star = np.concatenate([s_star, c_star, [1.0]])
    constraint = float(np.max(np.abs(np.add.reduceat(s_star, part.starts) - part.delta)))
    return SolveReport(
        c_star=c_star,
        S_star=spec.hermitian(b_star)[:-1, :-1],
        dual_objective=_dual_objective(spec, c_star),
        iterations=it,
        final_residuals=(primal, constraint, dual),
        converged=stopped_on != "max_iter",
        rejected_extrapolations=rejected,
        full_eigh_iterations=full,
        rank_deficit=deficit,
        history_depth=anderson.depth,
        gap_lower=float(bounds[0]),
        gap_upper=float(bounds[1]),
        stopped_on=stopped_on,
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
