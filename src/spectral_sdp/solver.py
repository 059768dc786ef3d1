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
border ``c`` a slice after it. One gather (:meth:`ProblemSpec.hermitian`)
builds the matrix of a triangle, with a real diagonal.

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
``(S, c, 1) - Z``, the primal residual ``eps``, and the dual residual too:
the multipliers of ``b = (S, c, 1)`` and ``Z``, ``rho (2 Z - V - b)`` and
``rho (V - Z)``, sum to ``-rho eps``. The block sums of the returned S are
checked once, at the end, and reported as the constraint residual.

The solve stops on a certified duality gap (SCS's relative-gap rule; the
gap of atomic-norm denoising is in Bhaskar, Tang & Recht,
arXiv:1204.6537). When ``Z`` is PSD, ``(S, c, 1) + eps I`` is too, and by
the Gram parametrization ``c / beta``, ``beta = sqrt((1 + eps)(1 + m
eps))``, is dual-feasible: its objective is a lower bound. The atoms that
ESPRIT reads off the projection's negative eigenvectors, fitted to ``y -
tau conj(c)``, give a primal upper bound. The solve stops where their
relative gap is at most ``tol_gap``, which does not change when ``y`` and
``tau`` are scaled together, or where the residual is below ``tol_primal``
if that comes first, and returns the dual-feasible point either way.

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
projection errors: Eckstein & Bertsekas 1992). For the same reason the
Ritz pairs need only be as exact as the step: :func:`solve` accepts them
at a residual of ``tol ||V||_F``, with ``tol`` 1e-4 times the last
accepted fixed-point residual relative to its point, and at least 1e-13
(a relative-error rule: Eckstein & Yao, Math. Program. 170, 2018). The
certificate alone decides whether a warm iterate may stop, whatever its
tolerance; the gap's upper bound holds for any atoms, so a loose basis
can delay a gap stop but not make one wrong. After a failed warm
projection or certificate, :func:`solve` projects in full for the next
1, 2, 4, ... iterations, doubling with each failure in a row until a
warm one passes again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericalError, as_integer, as_real
from .sampling import (
    PartitionStructure,
    SelectionPattern,
    compute_partition,
    is_admissible_selection,
)
from .trigops import PEAK_TOL, grid_modulus


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Data and knobs of one reduced dual solve.

    ``tau = 0`` selects the noiseless program. ``rho`` is the augmented
    Lagrangian weight. The solve stops where the relative duality gap
    ``(UB - LB) / UB`` is at most ``tol_gap``, in [0, 1) (0 turns that
    rule off), or where the fixed-point residual is below ``tol_primal``
    (absolute, Frobenius). The real settings are read by
    :func:`~spectral_sdp.errors.as_real` and stored as ``float``; the
    integer ``max_iter`` by :func:`~spectral_sdp.errors.as_integer`.
    """

    y: np.ndarray
    partition: PartitionStructure
    tau: float = 0.0
    rho: float = 1.0
    max_iter: int = 20000
    tol_primal: float = 1e-7
    tol_gap: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "tau", as_real(self.tau, "tau", "[0, inf)"))
        object.__setattr__(self, "rho", as_real(self.rho, "rho", "(0, inf)"))
        object.__setattr__(self, "tol_primal", as_real(self.tol_primal, "tol_primal", "[0, inf)"))
        object.__setattr__(self, "tol_gap", as_real(self.tol_gap, "tol_gap", "[0, 1)"))
        object.__setattr__(self, "max_iter", as_integer(self.max_iter, "max_iter", least=1))
        y = np.asarray(self.y, dtype=complex)
        if y.ndim != 1 or y.size != self.partition.m:
            raise InvalidInputError(
                f"y must have length {self.partition.m}, got shape {y.shape}"
            )
        if not np.all(np.isfinite(y)):
            raise InvalidInputError("y must be finite")
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

    @cached_property
    def _gather(self) -> tuple[np.ndarray, np.ndarray]:
        """``(index, diagonal)``: ``diagonal`` holds the triangle's diagonal
        entries, and ``index`` the position of each entry of a raveled
        (m+1) x (m+1) Hermitian matrix in ``[t, conj(t), real(t[diagonal])]``."""
        upper, lower = self.triangle
        size = upper.size
        diagonal = np.flatnonzero(upper == lower)
        index = np.empty((self.m + 1) ** 2, dtype=np.intp)
        index[lower] = np.arange(size, 2 * size)
        index[upper] = np.arange(size)
        index[upper[diagonal]] = 2 * size + np.arange(diagonal.size)
        return index, diagonal

    def hermitian(self, t: np.ndarray) -> np.ndarray:
        """The Hermitian (m+1) x (m+1) matrix whose triangle is ``t``, with
        the real parts of t's diagonal entries on its diagonal: one gather."""
        index, diagonal = self._gather
        size = t.size
        source = np.empty(2 * size + diagonal.size, dtype=complex)
        source[:size] = t
        np.conjugate(t, out=source[size : 2 * size])
        source[2 * size :] = t.real[diagonal]
        return source.take(index).reshape(self.m + 1, self.m + 1)


@dataclass(frozen=True)
class SolveStats:
    """How a solve ended and what it took. ``stopped_on`` names the rule
    that ended it, ``"gap"``, ``"residuals"`` or ``"max_iter"``; either
    stop returns a certified dual point, whose ``dual_objective`` is
    ``gap_lower``, and ``gap_lower`` and ``gap_upper`` bracket the optimal
    value (NaN after ``max_iter``). ``final_residuals`` are the primal and
    constraint residuals. Of the ``iterations``, ``rejected_extrapolations``
    had their Anderson extrapolation turned down by the safeguard and
    ``full_eigh_iterations`` ran the full eigendecomposition: after a
    failed warm projection or certificate, and in the backoff that follows
    (0 on most benchmark calls). ``rank_deficit`` counts the negative
    eigenvalues the last accepted projection zeroed (at a noiseless
    optimum, the spikes), and ``history_depth`` is the Anderson depth the
    byte budget gave for the problem's size.
    """

    dual_objective: float
    iterations: int
    final_residuals: tuple
    rejected_extrapolations: int
    full_eigh_iterations: int
    rank_deficit: int
    history_depth: int
    gap_lower: float
    gap_upper: float
    stopped_on: str

    @property
    def converged(self) -> bool:
        return self.stopped_on != "max_iter"


@dataclass(frozen=True)
class SolveReport(SolveStats):
    """The returned dual point ``(S_star, c_star)`` and its statistics."""

    c_star: np.ndarray
    S_star: np.ndarray


# The depth of the Anderson history (see _Anderson). Iterations per call
# fell with depth up to about 30 on the benchmark's shapes and little more
# to 40, while the Gram solve grows as depth^3.
HISTORY_BYTES = 5 * 2**19  # 2.5 MiB: depth 40 up to order 90, 19 at order 129
DEPTH_MIN, DEPTH_MAX = 10, 40  # depth 10 from order 173 on; the floor binds from 181

# The warm-started projection of psd_project.
_KRYLOV_BLOCKS = 4  # the space [X, VX, V^2 X, V^3 X]
_RITZ_PASSES = 4  # Rayleigh-Ritz passes before the full eigh takes over
_RITZ_TOL = 1e-13  # residual of the negative Ritz pairs, relative to ||V||_F
# solve's tolerance: _RITZ_KAPPA times the last accepted residual relative
# to its point, and at least _RITZ_TOL.
_RITZ_KAPPA = 1e-4

# The factor of the noise rule tau = 1.5 sigma sqrt(m log m), which needs
# some constant above 1 (Bhaskar, Tang & Recht, arXiv:1204.6537).
_NOISE_FACTOR = 1.5


def update_c(a: np.ndarray, spec: ProblemSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Minimizer of the c-part of the augmented Lagrangian, written into
    ``out`` when given (``a`` itself may be ``out``).

    ``a`` is the border of ``Z + Lambda/rho``, the entries ``(i, m)`` of
    the triangle; the minimizer is ``c = (conj(y) + 2 rho a) / (2 rho + tau)``.
    """
    return np.divide(spec.y.conj() + 2.0 * spec.rho * a, 2.0 * spec.rho + spec.tau, out=out)


def update_S_blocks(a: np.ndarray, spec: ProblemSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Exact minimizer of every block Lagrangian on its block-sum set, as
    S's part of the triangle, written into ``out`` when given (``a`` itself
    may be ``out``).

    ``a`` is S's part of the triangle of ``Z + Lambda/rho``, in partition
    order, so block k is the slice of ``sizes[k]`` entries at ``starts[k]``.
    The minimizer is the projection of ``a`` onto the affine set
    ``sum(S) = delta_k``; the entries of a block share one weight, so it
    shifts every entry by the same amount, ``S = a - (sum(a) - delta_k) / |J_k|``.
    """
    part = spec.partition
    shift = (np.add.reduceat(a, part.starts) - part.delta) / part.sizes
    return np.subtract(a, np.repeat(shift, part.sizes), out=out)


class Projection(NamedTuple):
    """What one projection leaves for the next: ``basis`` holds orthonormal
    approximations of the eigenvectors of the ``negatives`` negative
    eigenvalues, then of the next one up (the guard) when there is one.
    ``full`` tells whether the full eigendecomposition ran."""

    basis: np.ndarray
    negatives: int
    full: bool


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` as a float, the Euclidean norm of the raveled
    ``x``, evaluated as NumPy does (``sqrt(x . x)``, and ``sqrt(re . re +
    im . im)`` for complex ``x``) without its dispatch."""
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


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
    a: np.ndarray, basis: np.ndarray, tol: float = _RITZ_TOL
) -> tuple[np.ndarray, Projection] | None:
    """``Z = A - U Theta U*`` from the negative Ritz pairs ``(Theta, U)`` of
    the Hermitian ``a``, or None when they are not accepted. ``a`` is only
    read.

    Each pass is a Rayleigh-Ritz step on the block Krylov space
    ``[X, AX, A^2 X, A^3 X]`` of the last pass's negative Ritz vectors and
    guard ``X``. The pairs are accepted once their residual
    ``||A U - U Theta||_F`` is at most ``tol ||A||_F``, within
    ``_RITZ_PASSES`` passes; the passes stop early when, at the rate of the
    last one, those left would fall short. ``Z`` is not certified: it
    may keep negative eigenvalues that the passes did not find, and only
    :func:`_certified` tells.
    """
    order = a.shape[0]
    norm = _norm(a)
    if not math.isfinite(norm) or _KRYLOV_BLOCKS * basis.shape[1] >= order:
        return None
    x = basis
    previous = np.inf
    for left in range(_RITZ_PASSES - 1, -1, -1):
        blocks = [x]
        for _ in range(_KRYLOV_BLOCKS - 1):
            blocks.append(a @ blocks[-1] / norm)  # scaled, so no power overflows
        q = np.linalg.qr(np.concatenate(blocks, axis=1))[0]
        aq = a @ q
        theta, w = np.linalg.eigh(q.conj().T @ aq)
        k = int(np.count_nonzero(theta < 0))
        x, ax = q @ w[:, : k + 1], aq @ w[:, : k + 1]
        residual = _norm(ax[:, :k] - x[:, :k] * theta[:k]) / norm
        if residual <= tol:
            break
        if residual * (residual / previous) ** left > tol:
            return None  # at the last pass's rate, the passes left fall short
        previous = residual
    update = (x[:, :k] * theta[:k]) @ x[:, :k].conj().T
    return np.subtract(a, update, out=update), Projection(x, k, False)  # Z


def psd_project(
    h: np.ndarray, basis: np.ndarray | None = None, tol: float = _RITZ_TOL
) -> tuple[np.ndarray, Projection]:
    """``Z = h - h_-``, the Hermitian matrix ``h`` less its negative
    eigenpairs, and the :class:`Projection` that warm-starts the next call.

    ``h`` must hold both triangles and a real diagonal; it is only read.
    Given a ``basis``, such as the previous call's, the pairs come from a
    Rayleigh-Ritz step (:func:`_ritz_projection`) in O(order^2 k) work,
    accepted at a residual of ``tol ||h||_F`` (1e-13 by default;
    :func:`solve` loosens it with the residual). This ``Z`` is not
    certified and may keep negative eigenvalues the step missed
    (:func:`solve` runs :func:`_certified` where it may stop).
    Without a basis, or when the Ritz pairs are not accepted, the full
    eigendecomposition, O(order^3), gives the nearest PSD matrix to ``h``.
    """
    if basis is not None:
        warm = _ritz_projection(h, basis, tol)
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
    v: np.ndarray, spec: ProblemSpec, basis: np.ndarray | None = None, tol: float = _RITZ_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Projection]:
    """The plain ADMM map ``T(V)`` on the triangle ``v`` of ``V``; ``v`` and
    ``basis`` are only read.

    Builds the Hermitian ``V`` with a real diagonal by one gather
    (:meth:`ProblemSpec.hermitian`), projects it (warm-started from
    ``basis`` at the Ritz tolerance ``tol``, see :func:`psd_project`) and
    gathers the triangle ``z`` of ``Z``. With ``Lambda/rho = Z - V``, c and
    S are the block minimizers at ``Z + Lambda/rho``, written over the
    slices of its triangle. Returns ``z``, the triangle ``b`` of ``(S, c, 1)``,
    the image ``b - Lambda/rho`` and the projection's :class:`Projection`.
    """
    z_mat, projection = psd_project(spec.hermitian(v), basis, tol)
    z = z_mat.ravel().take(spec.triangle[0])
    lam = z - v  # Lambda / rho
    b = z + lam  # Z + Lambda/rho, then (S, c, 1) in place
    s, c = spec.split(b)
    update_S_blocks(s, spec, out=s)
    update_c(c, spec, out=c)
    b[-1] = 1.0
    return z, b, np.subtract(b, lam, out=lam), projection


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


def _atoms(spec: ProblemSpec, projection: Projection, c: np.ndarray) -> np.ndarray:
    """Reduced frequencies read by ESPRIT off the negative eigenvectors.

    On the pairs ``(i, j)`` of :attr:`ProblemSpec.longest_block`, of lag
    ``d``, the first ``m`` rows of the eigenvectors satisfy ``U[j] = U[i]
    Phi``, and the eigenvalues of ``Phi`` are ``e^{-i 2 pi nu d}``
    (Roy & Kailath 1989). Each gives ``d`` candidates ``(nu0 + j) / d``,
    the grid of ``d`` points at offset ``nu0`` that
    :func:`~spectral_sdp.trigops.grid_modulus` reads; the one of largest
    ``|Q|`` is kept when ``|Q| >= 1 - PEAK_TOL``. None are read when the block has fewer pairs
    than there are negative eigenvalues.
    """
    k, block = projection.negatives, spec.longest_block
    if k == 0 or block is None or block[1].size < k:
        return np.empty(0)
    d, rows, cols = block
    u = projection.basis[: spec.m, :k]
    phi = np.linalg.lstsq(u[rows], u[cols], rcond=None)[0]
    indices = spec.partition.indices
    q = np.zeros(indices.max() + 1, dtype=complex)
    q[indices] = c
    found = []
    for nu0 in -np.angle(np.linalg.eigvals(phi)) / (2 * np.pi):
        values = grid_modulus(q, d, nu0)
        j = int(np.argmax(values))
        if values[j] >= 1.0 - PEAK_TOL:
            found.append((nu0 + j) / d % 1.0 % 1.0)  # -1e-18 % 1.0 is 1.0
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
    cannot close before, and the residual rule is ``||T(x) - x|| <
    tol_primal``. Either stop returns ``(S', c')``, whose dual objective
    is the lower bound, once a warm ``Z`` passes the Cholesky certificate;
    a failed one backs the solve off as a failed warm projection does.
    Each warm projection's Ritz tolerance follows the last accepted
    residual (see the module docstring); the certificate alone guards
    the stop.
    After ``max_iter`` the last accepted evaluation is returned, and
    non-finite iterates raise :class:`NumericalError`.
    """
    # A point is the weighted triangle of V viewed as floats, so that its
    # norm is the Frobenius norm.
    scale, unscale = np.repeat(spec.weight, 2), np.repeat(1.0 / spec.weight, 2)

    # V = I: the warm projection gives Z = I, and Lambda = 0.
    v = np.eye(spec.m + 1, dtype=complex).ravel()[spec.triangle[0]]
    basis = np.eye(spec.m + 1, 1)
    x = v.view(float) * scale
    anderson = _Anderson(x.size)
    extrapolated = False
    rejected = full = backoff = cold_until = 0
    stopped_on, bounds = "max_iter", (np.nan, np.nan)
    tol = _RITZ_TOL
    for it in range(1, spec.max_iter + 1):
        warm = it > cold_until
        z, b, v_out, projection = admm_step(v, spec, basis if warm else None, tol)
        basis = projection.basis
        full += projection.full
        failed = projection.full
        # The image T(x) and the residual g = T(x) - x = b - Z, the primal
        # residual.
        f_out = np.multiply(v_out.view(float), scale, out=v_out.view(float))
        g_out = f_out - x
        g_out_norm = _norm(g_out)
        if not math.isfinite(g_out_norm):
            raise NumericalError(f"non-finite residual at iteration {it}: {g_out_norm}")
        if extrapolated and g_out_norm > g_norm:
            rejected += 1  # the safeguard: next comes the plain step
            anderson.count = 0
            proposal = None
        else:  # the first evaluation is always accepted
            b_star, deficit, primal = b, projection.negatives, g_out_norm
            converged = primal < spec.tol_primal
            norm = _norm(x)
            shift = _shift(spec.m + 1, norm)
            eps = primal + shift
            beta = math.sqrt((1.0 + eps) * (1.0 + spec.m * eps))
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
            tol = max(_RITZ_TOL, _RITZ_KAPPA * primal / norm)
            proposal = anderson.step(f, g, f_out, g_out) if it > 1 else None
            f, g, g_norm = f_out, g_out, g_out_norm
        if warm:  # after a failed warm projection, back off
            backoff = (2 * backoff or 1) if failed else 0
            cold_until = it + backoff
        extrapolated = proposal is not None
        x = proposal if extrapolated else f
        v = (x * unscale).view(complex)

    part = spec.partition
    if stopped_on != "max_iter":  # the certified point (S', c')
        s, c = spec.split(b_star)
        s = np.concatenate([s[: spec.m] + eps, s[spec.m :]])  # the diagonal comes first
        b_star = np.concatenate([s / (1.0 + spec.m * eps), c / beta, [1.0]])
    s_star, c_star = spec.split(b_star)
    constraint = float(np.max(np.abs(np.add.reduceat(s_star, part.starts) - part.delta)))
    return SolveReport(
        c_star=c_star,
        S_star=spec.hermitian(b_star)[:-1, :-1],
        dual_objective=_dual_objective(spec, c_star),
        iterations=it,
        final_residuals=(primal, constraint),
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
    **settings,
) -> ProblemSpec:
    """Build a :class:`ProblemSpec` from observations and a pattern.

    The pattern must contain index 0 (shift it first with
    :func:`~spectral_sdp.sampling.normalize_to_admissible`). When ``tau``
    is not given it defaults to the noise rule
    ``1.5 * sigma * sqrt(m log m)`` if ``sigma`` is positive, else to 0;
    pass ``tau`` for another factor. ``sigma`` must be finite and
    nonnegative, and is read as the spec's real settings are. ``settings``
    (``rho``, ``max_iter``, the tolerances) go to the spec.
    """
    if not is_admissible_selection(pattern):
        raise InvalidInputError("selection pattern must contain index 0")
    if sigma is not None:
        sigma = as_real(sigma, "sigma", "[0, inf)")
    if tau is None:
        m = pattern.m
        noisy = sigma is not None and sigma > 0 and m > 1
        tau = float(_NOISE_FACTOR * sigma * np.sqrt(m * np.log(m))) if noisy else 0.0
    return ProblemSpec(y=y, partition=compute_partition(pattern), tau=tau, **settings)
