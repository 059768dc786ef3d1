"""Common supporting grids, alignment, and recoverability checkers."""

from fractions import Fraction
from math import log

import numpy as np
import pytest

from spectral_sdp import (
    EstimationConfig,
    Grid,
    InvalidInputError,
    MultirateSystem,
    SpikeSpectrum,
    align_measurements,
    check_strong_condition,
    check_weak_condition,
    common_grid,
    estimate,
    random_bound_report,
    synthesize_grid,
)
from spectral_sdp.oracles import brute_force_common_grid, sample_instants

from conftest import random_complex


class TestGridValidation:
    def test_rejects_float_rates(self):
        # Floats are inexact; "1/0" is no number at all.
        for f, gamma in ((2.5, Fraction(0)), ("1/0", 0), (1, "1/0")):
            with pytest.raises(InvalidInputError):
                Grid(f=f, gamma=gamma, n=4)

    def test_rejects_boolean_rates_and_delays(self):
        for f, gamma in ((True, 0), (1, True)):
            with pytest.raises(InvalidInputError, match="must be a number"):
                Grid(f=f, gamma=gamma, n=4)

    def test_rejects_values_beyond_float_range(self):
        # Exact fractions, but the sample times are computed in floats.
        for f, gamma in (("1e400", 0), (Fraction(10**400), 0), (1, "-1e400")):
            with pytest.raises(InvalidInputError, match="beyond float range"):
                Grid(f=f, gamma=gamma, n=4)

    @pytest.mark.parametrize("f, shown", [(0, "0.0"), ("-1/2", "-0.5")], ids=["zero", "negative"])
    def test_rejects_a_rate_out_of_range(self, f, shown):
        with pytest.raises(InvalidInputError) as info:
            Grid(f=f, gamma=0, n=4)
        assert str(info.value) == f"grid rate must be in (0, inf), got {shown}"

    def test_parses_rational_strings(self):
        g = Grid(f="3/2", gamma="-1/2", n=4)
        assert g.f == Fraction(3, 2) and g.gamma == Fraction(-1, 2)

    def test_rejects_empty_system(self):
        with pytest.raises(InvalidInputError):
            MultirateSystem(grids=())


class TestCommonGrid:
    def test_single_grid_is_its_own_common_grid(self):
        sys1 = MultirateSystem(grids=(Grid(f=Fraction(5), gamma=Fraction(0), n=7),))
        cg = common_grid(sys1)
        assert cg.f0 == 5 and cg.gamma0 == 0 and cg.n0 == 7
        assert cg.expansions == ((1, 0),)
        assert cg.observation_set.indices == tuple(range(7))

    def test_reference_two_grid_values(self, two_grid_system):
        cg = common_grid(two_grid_system)
        assert cg.n0 == 13
        assert two_grid_system.m_tilde == 11
        assert cg.m == 9
        assert cg.observation_set.indices == (0, 1, 3, 5, 6, 7, 9, 11, 12)
        assert cg.f0 == 6 and cg.gamma0 == 0
        assert cg.expansions == ((3, 0), (2, -1))

    def test_pairwise_coprime_synchronous_rates_multiply(self):
        f = Fraction(1, 2)
        for ks in [(2, 3), (3, 5, 7)]:
            grids = tuple(Grid(f=k * f, gamma=Fraction(0), n=4 * k) for k in ks)
            cg = common_grid(MultirateSystem(grids=grids))
            assert cg.f0 == f * int(np.prod(ks))

    def test_gcd_normalization_and_zero_index(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            system = _random_solvable_system(rng)
            cg = common_grid(system)
            from math import gcd

            values = [abs(a) for _, a in cg.expansions] + [l for l, _ in cg.expansions]
            assert gcd(*values) == 1
            assert cg.observation_set.indices[0] == 0

    def test_exact_inclusion_of_all_instants(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            system = _random_solvable_system(rng)
            cg = common_grid(system)
            net_instants = {
                (Fraction(q) - cg.gamma0) / cg.f0
                for q in cg.observation_set.indices
            }
            grid_instants = {
                t for g in system.grids for t in sample_instants(g)
            }
            assert grid_instants == net_instants

    def test_one_sample_grid_of_any_rate(self):
        # l_2 = 2**70 is beyond int64, but it only multiplies sample 0.
        system = MultirateSystem(
            grids=(Grid(f=1, gamma=0, n=5), Grid(f=Fraction(1, 2**70), gamma=0, n=1))
        )
        cg = common_grid(system)
        assert cg.expansions == ((1, 0), (2**70, 0))
        assert cg.observation_set.indices == tuple(range(5))
        assert cg.slots == (tuple(range(5)), (0,))

    def test_deterministic(self, two_grid_system):
        assert common_grid(two_grid_system) == common_grid(two_grid_system)

    def test_minimality_against_exhaustive_search(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            system = _random_solvable_system(rng)
            cg = common_grid(system)
            assert cg.n0 <= 64
            oracle = brute_force_common_grid(system, n_max=64)
            assert oracle is not None
            assert (oracle.f0, oracle.gamma0, oracle.n0) == (cg.f0, cg.gamma0, cg.n0)
            assert oracle.observation_set == cg.observation_set
            assert oracle.slots == cg.slots


def _random_solvable_system(rng) -> MultirateSystem:
    """System built from a hidden supporting grid with at most 64 points."""
    f0 = Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 5)))
    gamma0 = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
    p = int(rng.integers(1, 4))
    grids = []
    for _ in range(p):
        l = int(rng.integers(1, 5))
        a = -int(rng.integers(0, 4))
        n_max_j = (63 + a) // l + 1
        n = int(rng.integers(1, max(2, min(6, n_max_j) + 1)))
        grids.append(Grid(f=f0 / l, gamma=(gamma0 + a) / l, n=n))
    return MultirateSystem(grids=tuple(grids))


class TestObservationSet:
    def test_single_grid_has_no_duplicates(self):
        sys1 = MultirateSystem(grids=(Grid(f=Fraction(2), gamma=Fraction(0), n=5),))
        cg = common_grid(sys1)
        assert cg.observation_set.indices == tuple(range(5))
        assert cg.slots == (tuple(range(5)),)

    def test_reference_system_has_two_shared_instants(self, two_grid_system):
        cg = common_grid(two_grid_system)
        duplicated = np.flatnonzero(np.bincount(np.concatenate(cg.slots)) > 1)
        assert len(duplicated) == two_grid_system.m_tilde - cg.m == 2

    def test_identical_grids_fully_overlap(self):
        g = Grid(f=Fraction(3), gamma=Fraction(1, 2), n=6)
        cg = common_grid(MultirateSystem(grids=(g, g)))
        assert cg.slots == (tuple(range(6)),) * 2


class TestAlignMeasurements:
    def test_single_grid_passthrough(self):
        sys1 = MultirateSystem(grids=(Grid(f=Fraction(2), gamma=Fraction(0), n=4),))
        cg = common_grid(sys1)
        y = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        assert np.array_equal(align_measurements([y], cg), y)

    def test_noiseless_duplicates_average_to_either(self, two_grid_system):
        spec = SpikeSpectrum(
            freqs=np.array([0.4, 1.9]), amps=np.array([1.0 + 1j, -0.5])
        )
        ys = [synthesize_grid(spec, g) for g in two_grid_system.grids]
        cg = common_grid(two_grid_system)
        y = align_measurements(ys, cg)
        assert y.shape == (9,)
        for j, slots in enumerate(cg.slots):
            for k, t in enumerate(slots):
                assert np.isclose(y[t], ys[j][k])

    def test_matches_the_mean_of_each_instant(self):
        # The loop the index arrays replace, over the oracle's own slots: each
        # net instant is np.mean of its samples, taken grid by grid. With at
        # most three grids sharing an instant both sum in the same order.
        rng = np.random.default_rng(3)
        for _ in range(50):
            system = _random_solvable_system(rng)
            ys = [random_complex(rng, g.n) for g in system.grids]
            oracle = brute_force_common_grid(system, n_max=64)
            groups = [[] for _ in range(oracle.m)]
            for j, slots in enumerate(oracle.slots):
                for k, t in enumerate(slots):
                    groups[t].append(ys[j][k])
            expected = [np.mean(group) for group in groups]
            assert np.array_equal(align_measurements(ys, common_grid(system)), expected)

    def test_length_mismatch_rejected(self, two_grid_system):
        cg = common_grid(two_grid_system)
        with pytest.raises(InvalidInputError):
            align_measurements([np.zeros(5), np.zeros(7)], cg)

    def test_rate_with_a_system_rejected(self, two_grid_system):
        # The common grid sets the solving rate; a given f would go unread.
        ys = [np.ones(g.n) for g in two_grid_system.grids]
        with pytest.raises(InvalidInputError) as info:
            estimate(ys, two_grid_system, 123.0)
        assert str(info.value) == "f must be unset for a MultirateSystem, got 123.0"


class TestUnshiftSpectrum:
    def test_round_trip_reproduces_grid_samples(self):
        # The common grid's frame is 0.5 s off the original time origin, so
        # only amplitudes rotated back by the right sign re-synthesize the grids.
        spec = SpikeSpectrum(freqs=np.array([0.7, 2.3]), amps=np.array([1j, 2.0]))
        sys2 = MultirateSystem(
            grids=(
                Grid(f=Fraction(2), gamma=Fraction(1), n=5),
                Grid(f=Fraction(3), gamma=Fraction(1, 2), n=6),
            )
        )
        ys = [synthesize_grid(spec, g) for g in sys2.grids]
        est = estimate(
            ys, sys2, config=EstimationConfig(rho=30.0, tol_primal=1e-9)
        )
        assert est.diagnostics.converged and est.diagnostics.time_shift_s == 0.5
        rebuilt = SpikeSpectrum(freqs=est.freqs, amps=est.amps)
        for g, expected in zip(sys2.grids, ys):
            assert np.allclose(synthesize_grid(rebuilt, g), expected, atol=1e-8)


class TestConditionCheckers:
    def test_strong_fails_on_short_grids(self, two_grid_system):
        spec = SpikeSpectrum(freqs=np.array([0.1, 0.35]), amps=np.array([1.0, 1.0]))
        assert not check_strong_condition(two_grid_system, spec)

    def test_strong_holds_for_long_separated_case(self):
        sys1 = MultirateSystem(grids=(Grid(f=Fraction(1), gamma=Fraction(0), n=4001),))
        spec = SpikeSpectrum(freqs=np.array([0.1, 0.6]), amps=np.array([1.0, 1.0]))
        assert check_strong_condition(sys1, spec)

    def test_strong_fails_on_collision(self):
        sys1 = MultirateSystem(grids=(Grid(f=Fraction(1), gamma=Fraction(0), n=4001),))
        spec = SpikeSpectrum(freqs=np.array([0.1, 1.1]), amps=np.array([1.0, 1.0]))
        assert not check_strong_condition(sys1, spec)

    def test_weak_returns_first_passing_grid(self):
        system = MultirateSystem(
            grids=(
                Grid(f=Fraction(1), gamma=Fraction(0), n=2001),
                Grid(f=Fraction(2), gamma=Fraction(0), n=4001),
            )
        )
        cg = common_grid(system)
        spec = SpikeSpectrum(freqs=np.array([0.1, 0.35]), amps=np.array([1.0, 1.0]))
        assert check_weak_condition(system, spec, cg) == 0

    def test_weak_absent_when_measurements_scarce(self, two_grid_system):
        cg = common_grid(two_grid_system)
        spec = SpikeSpectrum(
            freqs=np.array([0.1, 0.3, 0.5, 0.7, 0.9]),
            amps=np.ones(5, dtype=complex),
        )
        # m = 9 < (l_j + 1) * 5 for every grid, so no branch can pass.
        assert check_weak_condition(two_grid_system, spec, cg) is None

    def test_weak_inequality_is_evaluated_literally(self, two_grid_system):
        # l_2 = 2 and s = 3 make m >= 9 hold exactly, but both grids are far
        # below the length threshold, so the answer stays absent.
        cg = common_grid(two_grid_system)
        spec = SpikeSpectrum(
            freqs=np.array([0.05, 0.4, 0.75]), amps=np.ones(3, dtype=complex)
        )
        assert cg.m == 9 >= (cg.expansions[1][0] + 1) * spec.s
        assert check_weak_condition(two_grid_system, spec, cg) is None


class TestRandomBoundReport:
    def test_zero_measurements_fail(self):
        assert not random_bound_report(64, 0, 2, 0.1, 1.0)

    def test_monotone_in_m(self):
        prev = False
        for m in range(0, 129, 8):
            cur = random_bound_report(128, m, 2, 0.1, 1.0)
            assert cur or not prev
            prev = cur

    def test_direct_evaluation_values(self):
        # ln(640)^2 = 41.75 <= 64 and ln(320)^2 = 33.27 > 32
        for n, m, expected in [(64, 64, True), (32, 32, False)]:
            bound = max(log(n / 0.1) ** 2, 1 * log(1 / 0.1) * log(n / 0.1))
            assert (m >= bound) is expected
            assert random_bound_report(n, m, 1, 0.1, 1.0) is expected

    def test_rejects_bad_delta(self):
        with pytest.raises(InvalidInputError):
            random_bound_report(8, 8, 1, 1.5, 1.0)

    @pytest.mark.parametrize(
        "args, name",
        [((0, 8, 1), "n"), ((64, 8, 0), "s"), ((True, 8, 1), "n"), ((64.5, 8, 1), "n")],
        ids=["n-zero", "s-zero", "n-bool", "n-fraction"],
    )
    def test_rejects_a_bad_integer_naming_it(self, args, name):
        # Not a bare "math domain error" from log, and True is no 1.
        with pytest.raises(InvalidInputError, match=rf"^{name} must"):
            random_bound_report(*args, 0.1, 1.0)


class TestComplexityReport:
    def test_single_grid_ratio_one(self):
        sys1 = MultirateSystem(grids=(Grid(f=Fraction(2), gamma=Fraction(0), n=9),))
        cg = common_grid(sys1)
        assert Fraction(cg.m, cg.n0) == 1

    def test_reference_system_ratio(self, two_grid_system):
        cg = common_grid(two_grid_system)
        assert Fraction(cg.m, cg.n0) == Fraction(9, 13)
        assert (cg.n0, two_grid_system.m_tilde, cg.m) == (13, 11, 9)

    def test_coprime_pair_counts(self):
        # Rates 2f and 3f over the window [0, 4): the gross count follows
        # the sum-over-product rule asymptotically; shared instants at whole
        # seconds make the net count smaller.
        f, L = Fraction(1), 4
        system = MultirateSystem(
            grids=(
                Grid(f=2 * f, gamma=Fraction(0), n=2 * L),
                Grid(f=3 * f, gamma=Fraction(0), n=3 * L),
            )
        )
        cg = common_grid(system)
        assert cg.n0 == 6 * L - 1
        assert system.m_tilde == 5 * L
        assert cg.m == 5 * L - L
        assert abs(system.m_tilde / cg.n0 - Fraction(5, 6)) < Fraction(1, L)
