"""The brute-force references themselves."""

from fractions import Fraction

import numpy as np
import pytest

from spectral_sdp import (
    Grid,
    InvalidInputError,
    MultirateSystem,
    SelectionPattern,
    common_grid,
)
from spectral_sdp.oracles import (
    SearchBudgetError,
    blocks,
    brute_force_common_grid,
    brute_force_partition,
    brute_force_sup_norm,
    finite_perturbation_check,
)

from conftest import random_complex


class TestBruteForceCommonGrid:
    def test_single_grid(self):
        sys1 = MultirateSystem(grids=(Grid(f=Fraction(3), gamma=Fraction(0), n=6),))
        cg = brute_force_common_grid(sys1, n_max=16)
        assert cg is not None
        assert (cg.f0, cg.gamma0, cg.n0) == (3, 0, 6)

    def test_reference_system(self, two_grid_system):
        cg = brute_force_common_grid(two_grid_system, n_max=32)
        assert cg is not None and cg.n0 == 13
        assert cg.observation_set.indices == (0, 1, 3, 5, 6, 7, 9, 11, 12)

    def test_fine_delay_offset_exceeds_budget(self):
        # The minimal grid needs 97x magnification, far beyond n_max, so the
        # bounded search proves absence without exhausting its candidate cap.
        system = MultirateSystem(
            grids=(
                Grid(f=Fraction(1), gamma=Fraction(0), n=2),
                Grid(f=Fraction(1), gamma=Fraction(1, 97), n=2),
            )
        )
        assert brute_force_common_grid(system, n_max=64) is None
        assert common_grid(system).n0 > 64

    def test_candidate_cap_raises(self):
        system = MultirateSystem(
            grids=(
                Grid(f=Fraction(1), gamma=Fraction(0), n=2),
                Grid(f=Fraction(1), gamma=Fraction(1, 97), n=2),
            )
        )
        with pytest.raises(SearchBudgetError):
            brute_force_common_grid(system, n_max=64, max_candidates=3)

    def test_rejects_oversized_budget(self):
        sys1 = MultirateSystem(grids=(Grid(f=Fraction(1), gamma=Fraction(0), n=2),))
        with pytest.raises(InvalidInputError):
            brute_force_common_grid(sys1, n_max=1000)


class TestBruteForcePartition:
    def test_full_pattern_superdiagonals(self):
        n = 5
        part = brute_force_partition(
            SelectionPattern(indices=tuple(range(n)), ambient=n)
        )
        for k in range(n):
            assert blocks(part)[k] == [(i + 1, i + 1 + k) for i in range(n - k)]

    def test_absent_lags_have_no_block(self):
        part = brute_force_partition(SelectionPattern(indices=(0, 3), ambient=6))
        assert part.positive_lags == (0, 3)
        assert 1 not in blocks(part) and 2 not in blocks(part)


class TestBruteForceSupNorm:
    def test_constant(self):
        q = np.zeros(4)
        q[0] = 1.0
        assert np.isclose(brute_force_sup_norm(q, 10**5), 1.0)

    def test_scaling(self):
        rng = np.random.default_rng(0)
        q = random_complex(rng, 5)
        assert np.isclose(
            brute_force_sup_norm(3.5 * q, 10**5),
            3.5 * brute_force_sup_norm(q, 10**5),
        )

    def test_rejects_coarse_reference_grid(self):
        with pytest.raises(InvalidInputError):
            brute_force_sup_norm(np.ones(3), 10**4)


class TestFinitePerturbationCheck:
    def test_quadratic_bowl_at_minimum(self):
        obj = lambda x: float(np.linalg.norm(x) ** 2)
        assert finite_perturbation_check(obj, np.zeros(4), directions=50, step=0.1)

    def test_quadratic_bowl_off_minimum(self):
        obj = lambda x: float(np.linalg.norm(x - 1.0) ** 2)
        assert not finite_perturbation_check(
            obj, np.zeros(4), directions=50, step=0.1
        )

    def test_complex_point_uses_complex_directions(self):
        obj = lambda x: float(np.linalg.norm(x) ** 2)
        point = np.zeros(3, dtype=complex)
        assert finite_perturbation_check(obj, point, directions=50, step=0.05)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(InvalidInputError):
            finite_perturbation_check(lambda x: 0.0, np.zeros(2), step=0.0)
