"""Selection patterns, admissibility, and the block partition."""

import time

import numpy as np
import pytest

from spectral_sdp import (
    InvalidInputError,
    SelectionPattern,
    compute_partition,
    is_admissible_selection,
    normalize_to_admissible,
    random_selection,
    selection_matrix,
)
from spectral_sdp.oracles import (
    apply_subsampling,
    blocks,
    brute_force_partition,
    is_admissible_general,
    r_op_adjoint,
)

from conftest import random_complex, random_hermitian, random_pattern


class TestSelectionMatrix:
    def test_full_pattern_is_identity(self):
        pat = SelectionPattern(indices=tuple(range(5)), ambient=5)
        assert np.array_equal(selection_matrix(pat), np.eye(5))

    def test_single_index(self):
        pat = SelectionPattern(indices=(0,), ambient=3)
        assert np.array_equal(selection_matrix(pat), [[1, 0, 0]])

    def test_rows_follow_ascending_order(self):
        pat = SelectionPattern(indices=(1, 3), ambient=4)
        c = selection_matrix(pat)
        assert np.array_equal(c[0], [0, 1, 0, 0])
        assert np.array_equal(c[1], [0, 0, 0, 1])

    def test_pattern_validation(self):
        with pytest.raises(InvalidInputError):
            SelectionPattern(indices=(), ambient=4)
        with pytest.raises(InvalidInputError):
            SelectionPattern(indices=(2, 1), ambient=4)
        with pytest.raises(InvalidInputError):
            SelectionPattern(indices=(0, 4), ambient=4)


class TestAdmissibility:
    def test_selection_with_zero(self):
        assert is_admissible_selection(SelectionPattern(indices=(0, 3, 5), ambient=8))

    def test_selection_without_zero(self):
        assert not is_admissible_selection(SelectionPattern(indices=(1, 2), ambient=4))

    def test_full_observation(self):
        assert is_admissible_selection(SelectionPattern(indices=tuple(range(6)), ambient=6))

    def test_general_identity(self):
        assert is_admissible_general(np.eye(4))

    def test_general_zero_row(self):
        m = np.eye(4)[:3].astype(complex)
        m[1] = 0.0
        assert not is_admissible_general(m)

    def test_general_agrees_with_selection_rule(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            pat = random_pattern(rng, int(rng.integers(4, 24)))
            c = selection_matrix(pat)
            assert is_admissible_general(c) == is_admissible_selection(pat)


class TestComputePartition:
    def test_two_adjacent_indices(self):
        part = compute_partition(SelectionPattern(indices=(0, 1), ambient=4))
        assert part.positive_lags == (0, 1)
        assert blocks(part)[0] == [(1, 1), (2, 2)]
        assert blocks(part)[1] == [(1, 2)]

    def test_full_pattern_gives_superdiagonals(self):
        n = 6
        part = compute_partition(SelectionPattern(indices=tuple(range(n)), ambient=n))
        assert part.p == n
        for k in part.positive_lags:
            assert blocks(part)[k] == [(i + 1, i + 1 + k) for i in range(n - k)]

    def test_reference_pattern_covers_half_square(self):
        pat = SelectionPattern(indices=(0, 1, 3, 5, 6, 7, 9, 11, 12), ambient=13)
        part = compute_partition(pat)
        assert sum(len(b) for b in blocks(part).values()) == 45

    def test_axioms_and_oracle_agreement(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            pat = random_pattern(rng, int(rng.integers(4, 48)))
            part = compute_partition(pat)
            oracle = brute_force_partition(pat)
            part_blocks, oracle_blocks = blocks(part), blocks(oracle)
            assert part.positive_lags == oracle.positive_lags
            for k in part.positive_lags:
                assert sorted(part_blocks[k]) == sorted(oracle_blocks[k])
            for name in ("rows", "cols", "starts", "sizes"):
                assert np.array_equal(getattr(part, name), getattr(oracle, name)), name
            m = pat.m
            seen = {}
            for k, pairs in part_blocks.items():
                for i, j in pairs:
                    assert (i, j) not in seen
                    seen[(i, j)] = k
            assert sum(len(b) for b in part_blocks.values()) == m * (m + 1) // 2
            for i in range(1, m + 1):
                assert (i, i) in seen
                for j in range(i + 1, m + 1):
                    assert ((i, j) in seen) != ((j, i) in seen)

    def test_block_sums_match_operator_adjoint(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pat = random_pattern(rng, int(rng.integers(3, 24)))
            part_blocks = blocks(compute_partition(pat))
            s = random_hermitian(rng, pat.m)
            out = r_op_adjoint(selection_matrix(pat), s)
            # supported on the positive lags, real at lag zero
            assert abs(out[0].imag) < 1e-12
            for k in range(pat.ambient):
                block_sum = sum(s[i - 1, j - 1] for i, j in part_blocks.get(k, []))
                assert abs(out[k] - block_sum) < 1e-12

    def test_indices_are_read_off_the_pairs_of_row_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pat = random_pattern(rng, int(rng.integers(1, 24)))
            expected = np.subtract(pat.indices, pat.indices[0])
            assert np.array_equal(compute_partition(pat).indices, expected)
            assert np.array_equal(brute_force_partition(pat).indices, expected)


class TestApplySubsampling:
    def test_identity(self):
        y = np.array([1.0, 2.0, 3.0 + 1j])
        assert np.array_equal(apply_subsampling(np.eye(3), y), y)

    def test_selection_picks_entries(self):
        pat = SelectionPattern(indices=(1, 3), ambient=4)
        y = np.array([10.0, 11.0, 12.0, 13.0])
        assert np.array_equal(apply_subsampling(selection_matrix(pat), y), [11.0, 13.0])

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(3)
        m_mat = random_complex(rng, 3, 5)
        y = random_complex(rng, 5)
        out = apply_subsampling(m_mat, y)
        naive = np.array(
            [sum(m_mat[i, j] * y[j] for j in range(5)) for i in range(3)]
        )
        assert np.allclose(out, naive)


class TestRandomSelection:
    def test_probability_one_keeps_everything(self):
        pat = random_selection(12, 1.0, seed=0)
        assert pat.indices == tuple(range(12))

    def test_deterministic(self):
        assert random_selection(50, 0.3, seed=9) == random_selection(50, 0.3, seed=9)

    def test_binomial_concentration(self):
        pat = random_selection(10**4, 0.3, seed=1)
        std = np.sqrt(10**4 * 0.3 * 0.7)
        assert abs(pat.m - 3000) <= 3 * std

    def test_empty_draws_are_redrawn_from_the_same_stream(self):
        # n = 8, p = 0.1 draws an empty pattern 43% of the time.
        for seed in range(30):
            rng = np.random.default_rng(seed)
            keep = np.flatnonzero(rng.random(8) < 0.1)
            while not keep.size:
                keep = np.flatnonzero(rng.random(8) < 0.1)
            assert random_selection(8, 0.1, seed=seed).indices == tuple(keep.tolist())

    def test_probability_keeping_nothing_raises_promptly(self):
        start = time.perf_counter()
        with pytest.raises(InvalidInputError, match="kept none"):
            random_selection(16, 1e-12, seed=3)
        assert time.perf_counter() - start < 1.0

    def test_rejects_bad_probability(self):
        with pytest.raises(InvalidInputError):
            random_selection(10, 0.0, seed=0)
        with pytest.raises(InvalidInputError):
            random_selection(10, 1.5, seed=0)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_empty_ambient_range(self, n):
        with pytest.raises(InvalidInputError):
            random_selection(n, 0.5, seed=0)


class TestNormalizeToAdmissible:
    def test_shifts_by_minimum(self):
        pat = SelectionPattern(indices=(3, 5, 9), ambient=12)
        shifted, k0 = normalize_to_admissible(pat)
        assert shifted.indices == (0, 2, 6)
        assert k0 == 3
        assert shifted.ambient == 12

    def test_admissible_unchanged(self):
        pat = SelectionPattern(indices=(0, 4), ambient=6)
        shifted, k0 = normalize_to_admissible(pat)
        assert shifted is pat and k0 == 0

    def test_result_always_admissible(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pat = random_pattern(rng, int(rng.integers(2, 64)))
            shifted, _ = normalize_to_admissible(pat)
            assert is_admissible_selection(shifted)
