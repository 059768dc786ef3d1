"""Selection patterns, sub-sampling matrices, admissibility, and the
skew-symmetric partition that turns the Toeplitz constraint into
independent block-sum equations.

Row ordering of selection matrices is fixed to ascending index order;
every block index downstream relies on that choice.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError


@dataclass(frozen=True)
class SelectionPattern:
    """A sorted set of kept indices ``I`` inside an ambient range 0..n-1."""

    indices: tuple
    ambient: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) == 0:
            raise InvalidInputError("selection pattern must be nonempty")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidInputError("indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= self.ambient:
            raise InvalidInputError(
                f"indices must lie in [0, {self.ambient - 1}], got {idx[0]}..{idx[-1]}"
            )
        object.__setattr__(self, "indices", idx)

    @property
    def m(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, eq=False)
class PartitionStructure:
    """Partition of the index square induced by a selection pattern.

    The pairs (i, j), i <= j, of 0-based matrix positions are stored in the
    flat arrays ``rows`` and ``cols``, grouped by the lag ``I[j] - I[i]``
    in ascending order and by ascending row inside a group. Group ``g``
    has lag ``positive_lags[g]`` and occupies ``starts[g]`` onward for
    ``sizes[g]`` entries. The groups cover each unordered pair exactly
    once, diagonal included, so there are m(m+1)/2 entries. Lag 0 is the
    diagonal and comes first; every later entry is off-diagonal.
    """

    positive_lags: tuple
    rows: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    m: int
    ambient: int

    @property
    def p(self) -> int:
        return len(self.positive_lags)

    @cached_property
    def blocks(self) -> Mapping[int, list]:
        """Read-only ``{lag: [(row, col), ...]}`` with 1-based positions."""
        pairs = list(zip((self.rows + 1).tolist(), (self.cols + 1).tolist()))
        groups = zip(self.positive_lags, self.starts.tolist(), self.sizes.tolist())
        return MappingProxyType({k: pairs[s : s + n] for k, s, n in groups})

    @cached_property
    def delta(self) -> np.ndarray:
        """Right-hand sides of the block-sum equations: 1 at lag 0, else 0."""
        out = np.zeros(self.p, dtype=complex)
        out[0] = 1.0
        return out

    def block_sums(self, s: np.ndarray) -> np.ndarray:
        """Sum of ``s`` over each group, in the order of ``positive_lags``."""
        return np.add.reduceat(s[self.rows, self.cols], self.starts)


def selection_matrix(pattern: SelectionPattern) -> np.ndarray:
    """Dense 0/1 matrix whose t-th row picks index ``pattern.indices[t]``."""
    c = np.zeros((pattern.m, pattern.ambient), dtype=complex)
    c[np.arange(pattern.m), list(pattern.indices)] = 1.0
    return c


def is_admissible_selection(pattern: SelectionPattern) -> bool:
    """A selection pattern supports the reduced dual program iff it keeps index 0."""
    return pattern.indices[0] == 0


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


def compute_partition(pattern: SelectionPattern) -> PartitionStructure:
    """Group the pairs (i, j) of kept indices by their difference I[j] - I[i].

    Only nonnegative differences are kept (lag 0 is the diagonal), so each
    off-diagonal unordered pair appears in exactly one orientation. A
    stable sort of the row-major upper triangle keeps rows ascending
    inside each lag.
    """
    idx = np.asarray(pattern.indices)
    rows, cols = np.triu_indices(idx.size)
    lags = idx[cols] - idx[rows]
    order = np.argsort(lags, kind="stable")
    lags, starts, sizes = np.unique(lags[order], return_index=True, return_counts=True)
    return PartitionStructure(
        positive_lags=tuple(lags.tolist()),
        rows=rows[order],
        cols=cols[order],
        starts=starts,
        sizes=sizes,
        m=idx.size,
        ambient=pattern.ambient,
    )


def apply_subsampling(m_mat: np.ndarray, y_raw: np.ndarray) -> np.ndarray:
    """Compress a raw uniform acquisition: ``y = M y_raw``."""
    m_mat = np.asarray(m_mat, dtype=complex)
    y_raw = np.asarray(y_raw, dtype=complex)
    if m_mat.ndim != 2 or m_mat.shape[1] != y_raw.shape[0]:
        raise DimensionMismatchError(
            f"matrix of shape {m_mat.shape} cannot act on vector of length {y_raw.shape[0]}"
        )
    return m_mat @ y_raw


def random_selection(n: int, p: float, seed: int) -> SelectionPattern:
    """Keep each index independently with probability ``p``.

    Empty draws are resampled from the same stream, so the result is
    nonempty and deterministic per seed.
    """
    if not 0 < p <= 1:
        raise InvalidInputError(f"keep probability must be in (0, 1], got {p}")
    rng = np.random.default_rng(seed)
    while True:
        keep = np.flatnonzero(rng.random(n) < p)
        if keep.size:
            return SelectionPattern(indices=tuple(int(i) for i in keep), ambient=n)


def normalize_to_admissible(pattern: SelectionPattern) -> tuple[SelectionPattern, int]:
    """Shift indices down by ``k0 = min I`` so the pattern contains 0."""
    k0 = pattern.indices[0]
    if k0 == 0:
        return pattern, 0
    shifted = tuple(i - k0 for i in pattern.indices)
    return SelectionPattern(indices=shifted, ambient=pattern.ambient), k0


def phase_unshift(estimate, k0: int, f: float):
    """Undo the time shift of a normalized pattern on an estimate's amplitudes.

    A shift by ``k0`` samples leaves the spectral support unchanged and
    rotates each amplitude by ``e^{-i 2 pi (k0/f) xi_r}``.
    """
    if k0 == 0:
        return estimate
    rot = np.exp(-2j * np.pi * (k0 / f) * np.asarray(estimate.freqs, dtype=float))
    return dataclasses.replace(estimate, amps=np.asarray(estimate.amps) * rot)
