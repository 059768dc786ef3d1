"""Selection patterns, admissibility, and the skew-symmetric partition
that turns the Toeplitz constraint into independent block-sum equations.

A pattern is its sorted tuple of kept indices; the sub-sampling operator
``M`` picks those rows, in ascending index order. Every block index
downstream relies on that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, as_array, as_integer, as_real

_MAX_DRAWS = 1000  # empty draws before random_selection rejects its keep probability


@dataclass(frozen=True)
class SelectionPattern:
    """A sorted set of kept indices ``I`` inside an ambient range 0..n-1."""

    indices: tuple
    ambient: int

    def __post_init__(self):
        idx = as_array(self.indices, "indices", np.int64)
        object.__setattr__(self, "ambient", as_integer(self.ambient, "ambient length"))
        if idx.ndim != 1:
            raise InvalidInputError(f"indices must be 1-d, got shape {idx.shape}")
        if idx.size == 0:
            raise InvalidInputError("selection pattern must be nonempty")
        if np.any(idx[1:] <= idx[:-1]):
            raise InvalidInputError("indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= self.ambient:
            raise InvalidInputError(
                f"indices must lie in [0, {self.ambient - 1}], got {idx[0]}..{idx[-1]}"
            )
        object.__setattr__(self, "indices", tuple(idx.tolist()))

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
    ``indices`` holds the kept indices less the first, ``I[j] - I[0]``.
    """

    positive_lags: tuple
    rows: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    indices: np.ndarray

    @property
    def m(self) -> int:
        return self.indices.size

    @property
    def p(self) -> int:
        return len(self.positive_lags)

    @cached_property
    def delta(self) -> np.ndarray:
        """Right-hand sides of the block-sum equations: 1 at lag 0, else 0."""
        out = np.zeros(self.p, dtype=complex)
        out[0] = 1.0
        return out


def selection_matrix(pattern: SelectionPattern) -> np.ndarray:
    """Dense 0/1 matrix whose t-th row picks index ``pattern.indices[t]``."""
    c = np.zeros((pattern.m, pattern.ambient), dtype=complex)
    c[np.arange(pattern.m), list(pattern.indices)] = 1.0
    return c


def is_admissible_selection(pattern: SelectionPattern) -> bool:
    """A selection pattern supports the reduced dual program iff it keeps index 0."""
    return pattern.indices[0] == 0


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
        indices=idx - idx[0],
    )


def random_selection(n: int, p: float, seed: int) -> SelectionPattern:
    """Keep each index independently with probability ``p``.

    Empty draws are resampled from the same stream, so the result is
    nonempty and deterministic per seed; after ``_MAX_DRAWS`` empty draws
    in a row the probability is rejected.
    """
    n = as_integer(n, "ambient length", least=1)
    p = as_real(p, "keep probability", "(0, 1]")
    seed = as_integer(seed, "seed", least=0)
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_DRAWS):
        keep = np.flatnonzero(rng.random(n) < p)
        if keep.size:
            return SelectionPattern(indices=keep, ambient=n)
    raise InvalidInputError(
        f"keep probability {p} kept none of {n} indices in {_MAX_DRAWS} draws"
    )


def normalize_to_admissible(pattern: SelectionPattern) -> tuple[SelectionPattern, int]:
    """Shift indices down by ``k0 = min I`` so the pattern contains 0."""
    k0 = pattern.indices[0]
    if k0 == 0:
        return pattern, 0
    shifted = np.subtract(pattern.indices, k0)
    return SelectionPattern(indices=shifted, ambient=pattern.ambient), k0

