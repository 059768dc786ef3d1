"""Selection patterns, admissibility, and the block partition."""

import time

import numpy as np
import pytest

from spectral_sdp import (
    EstimationConfig,
    Grid,
    InvalidInputError,
    MultirateSystem,
    NoiseSpec,
    ProblemSpec,
    SelectionPattern,
    SpikeSpectrum,
    add_noise,
    align_measurements,
    assemble_problem,
    common_grid,
    compute_partition,
    dual_polynomial,
    estimate,
    locate_frequencies,
    random_bound_report,
    random_selection,
    recover_amplitudes,
    synthesize_uniform,
    torus_separation,
    verify_certificate,
)
from spectral_sdp.errors import as_array
from spectral_sdp.oracles import (
    apply_subsampling,
    blocks,
    brute_force_partition,
    is_admissible_general,
    r_op_adjoint,
)
from spectral_sdp.sampling import (
    is_admissible_selection,
    normalize_to_admissible,
    selection_matrix,
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

    def test_indices_are_the_kept_indices_less_the_first(self):
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


_SPIKE = SpikeSpectrum(freqs=np.array([0.1]), amps=np.array([1.0]))
_FULL4 = SelectionPattern(indices=(0, 1, 2, 3), ambient=4)


class TestIntegerInputs:
    # One rule for every integer input: no bool, no fractional part, and a
    # seed of at least 0; numpy integers pass.
    @pytest.mark.parametrize(
        "make",
        [
            lambda: SelectionPattern(indices=(0, 1.5, 3), ambient=4),
            lambda: SelectionPattern(indices=(0, True), ambient=4),
            lambda: SelectionPattern(indices=(0, 1), ambient=2.5),
            lambda: synthesize_uniform(_SPIKE, 1.0, 2.5),
            lambda: estimate(np.ones(4), _FULL4, 1.0, EstimationConfig(max_iter=2.5)),
            lambda: estimate(np.ones(4), _FULL4, 1.0, EstimationConfig(max_iter=True)),
            lambda: Grid(f=1, gamma=0, n=2.5),
            lambda: random_selection(5.5, 0.5, seed=0),
            lambda: random_selection(8, 0.5, seed=-1),
            lambda: NoiseSpec(sigma=0.1, seed=-1),
            lambda: NoiseSpec(sigma=0.1, seed=0.5),
        ],
        ids=[
            "index-fraction",
            "index-bool",
            "ambient-fraction",
            "length-fraction",
            "max-iter-fraction",
            "max-iter-bool",
            "grid-length-fraction",
            "random-length-fraction",
            "random-seed-negative",
            "seed-negative",
            "seed-fraction",
        ],
    )
    def test_rejects_a_non_integer(self, make):
        with pytest.raises(InvalidInputError):
            make()

    def test_numpy_integers_pass(self):
        pat = SelectionPattern(indices=np.arange(3, dtype=np.int32), ambient=np.int64(3))
        assert pat.indices == (0, 1, 2) and type(pat.ambient) is int
        assert synthesize_uniform(_SPIKE, 1.0, np.int16(3)).size == 3
        assert Grid(f=1, gamma=0, n=np.uint8(4)).n == 4
        assert NoiseSpec(sigma=0.1, seed=np.uint64(2**63)).seed == 2**63


_Q = np.ones(4, dtype=complex) / 4

# Every public real input: (label, call with the value, the name it is
# reported under, the interval it must lie in). Each is read and
# range-checked by errors.as_real; the rates of localization by one rule.
_REAL_INPUTS = [
    *(
        (name, lambda v, name=name: ProblemSpec(np.zeros(4), compute_partition(_FULL4), **{name: v}), name, within)
        for name, within in (
            ("tau", "[0, inf)"),
            ("rho", "(0, inf)"),
            ("tol_primal", "[0, inf)"),
            ("tol_gap", "[0, 1)"),
        )
    ),
    ("assemble-sigma", lambda v: assemble_problem(np.zeros(4), _FULL4, sigma=v), "sigma", "[0, inf)"),
    ("noise-sigma", lambda v: NoiseSpec(sigma=v), "sigma", "[0, inf)"),
    ("keep-prob", lambda v: random_selection(10, v, 1), "keep probability", "(0, 1]"),
    ("synthesize-f", lambda v: synthesize_uniform(_SPIKE, v, 4), "sampling frequency", "(0, inf)"),
    ("estimate-f", lambda v: estimate(np.ones(4), _FULL4, v), "f", "(0, inf)"),
    ("amplitudes-f", lambda v: recover_amplitudes(np.ones(4), _FULL4, [0.1], v), "f", "(0, inf)"),
    ("locate-f", lambda v: locate_frequencies(_Q, v), "f", "(0, inf)"),
    ("certificate-f", lambda v: verify_certificate(_Q, _SPIKE, v), "f", "(0, inf)"),
    ("certificate-tol", lambda v: verify_certificate(_Q, _SPIKE, 1.0, tol=v), "tol", "[0, inf)"),
    ("bound-delta", lambda v: random_bound_report(64, 64, 1, v, 1.0), "delta", "(0, 1)"),
    ("bound-C", lambda v: random_bound_report(64, 64, 1, 0.1, v), "C", "(0, inf)"),
]
# Every public integer input with a lower bound: (label, call with the
# value, the name it is reported under, the least value it may take).
_INTEGER_INPUTS = [
    ("max_iter", lambda v: ProblemSpec(np.zeros(4), compute_partition(_FULL4), max_iter=v), "max_iter", 1),
    ("noise-seed", lambda v: NoiseSpec(sigma=0.1, seed=v), "noise seed", 0),
    ("synthesize-n", lambda v: synthesize_uniform(_SPIKE, 1.0, v), "n", 1),
    ("random-n", lambda v: random_selection(v, 0.5, 1), "ambient length", 1),
    ("random-seed", lambda v: random_selection(10, 0.5, v), "seed", 0),
    ("grid-n", lambda v: Grid(f=1, gamma=0, n=v), "grid length", 1),
    ("bound-n", lambda v: random_bound_report(v, 64, 1, 0.1, 1.0), "n", 1),
    ("bound-m", lambda v: random_bound_report(64, v, 1, 0.1, 1.0), "m", 0),
    ("bound-s", lambda v: random_bound_report(64, 64, v, 0.1, 1.0), "s", 1),
]


def _ends(within: str):
    """``((lo, closed), (hi, closed))`` of an interval like ``"[0, 1)"``."""
    lo, hi = (float(end) for end in within[1:-1].split(", "))
    return (lo, within[0] == "["), (hi, within[-1] == "]")


def _just_outside(within: str) -> list[float]:
    """Each finite end when open, the next float beyond it when closed."""
    return [
        float(np.nextafter(end, beyond)) if closed else end
        for (end, closed), beyond in zip(_ends(within), (-np.inf, np.inf))
        if np.isfinite(end)
    ]


_NOT_REALS = {"bool": True, "numpy-bool": np.True_, "string": "x", "none": None}
_REJECTED = [
    pytest.param(call, name, value, id=f"{label}-{kind}")
    for label, call, name, _ in _REAL_INPUTS
    for kind, value in _NOT_REALS.items()
    if (label, kind) != ("assemble-sigma", "none")  # None: no sigma given
]
_OUT_OF_RANGE = [
    pytest.param(call, name, value, id=f"{label}-{value}")
    for label, call, name, within in _REAL_INPUTS
    for value in [*_just_outside(within), np.nan, np.inf]
] + [
    pytest.param(call, name, value, id=f"{label}-{value}")
    for label, call, name, least in _INTEGER_INPUTS
    for value in (least - 1, np.nan, np.inf)
]
_CLOSED_ENDS = [
    pytest.param(call, end, id=f"{label}-{end}")
    for label, call, _, within in _REAL_INPUTS
    for end, closed in _ends(within)
    if closed
] + [pytest.param(call, least, id=f"{label}-{least}") for label, call, _, least in _INTEGER_INPUTS]


class TestRealInputs:
    # One rule for every real input, errors.as_real: a bool is no number
    # (True must not read as 1), and a value float() cannot read is an
    # InvalidInputError naming the argument, never a bare TypeError.
    @pytest.mark.parametrize("call, name, value", _REJECTED)
    def test_rejects_a_non_number_naming_the_argument(self, call, name, value):
        with pytest.raises(InvalidInputError, match=rf"\b{name}\b"):
            call(value)

    # The range is checked in the same read: just outside an end, NaN and
    # inf are rejected naming the argument, and a closed end is accepted.
    @pytest.mark.parametrize("call, name, value", _OUT_OF_RANGE)
    def test_rejects_a_value_out_of_range_naming_the_argument(self, call, name, value):
        with pytest.raises(InvalidInputError, match=rf"\b{name}\b"):
            call(value)

    @pytest.mark.parametrize("call, value", _CLOSED_ENDS)
    def test_accepts_a_closed_end(self, call, value):
        call(value)

    @pytest.mark.parametrize(
        "f", [0, -1.0, np.nan, np.inf, 10**400], ids=["zero", "negative", "nan", "inf", "beyond-float"]
    )
    def test_localization_rates_must_be_finite_and_positive(self, f):
        for call in (
            lambda: recover_amplitudes(np.ones(4), _FULL4, [0.1], f),
            lambda: locate_frequencies(_Q, f),
            lambda: verify_certificate(_Q, _SPIKE, f),
        ):
            with pytest.raises(InvalidInputError, match="^f must be"):
                call()

    def test_numbers_of_any_real_type_pass_as_floats(self):
        assert type(NoiseSpec(sigma=np.float32(0.5)).sigma) is float
        assert random_selection(10, np.float64(1.0), 1).m == 10
        assert np.array_equal(synthesize_uniform(_SPIKE, np.int64(4), 4), synthesize_uniform(_SPIKE, 4.0, 4))
        assert verify_certificate(_Q, _SPIKE, np.int64(1), tol=1).is_certificate == verify_certificate(
            _Q, _SPIKE, 1.0, tol=1.0
        ).is_certificate
        assert random_bound_report(64, 64, 1, np.float32(0.1), 1) is True


_GRID4 = common_grid(MultirateSystem(grids=(Grid(f=1, gamma=0, n=4),)))

# Every public array input: (label, call with an array holding the value
# last, the name it is reported under). Each is read by errors.as_array:
# no bool, and every entry finite.
_ARRAY_INPUTS = [
    ("spec-y", lambda v: ProblemSpec([1.0, 1.0, 1.0, v], compute_partition(_FULL4)), "y"),
    ("dual-c", lambda v: dual_polynomial([0.25, 0.25, 0.25, v], _FULL4), "c"),
    ("locate-q", lambda v: locate_frequencies([0.25, 0.25, 0.25, v], 1.0), "q"),
    ("amplitudes-y", lambda v: recover_amplitudes([1.0, 1.0, 1.0, v], _FULL4, [0.1], 1.0), "y"),
    ("amplitudes-freqs", lambda v: recover_amplitudes(np.ones(4), _FULL4, [0.1, v], 1.0), "freqs"),
    ("align-samples", lambda v: align_measurements([[1.0, 1.0, 1.0, v]], _GRID4), "grid 0 samples"),
    ("noise-y", lambda v: add_noise([1.0, 1.0, 1.0, v], NoiseSpec(sigma=0.1)), "y"),
    ("separation", lambda v: torus_separation([0.1, 0.5, v]), "reduced frequencies"),
]


class TestArrayInputs:
    # One rule for every outside array, errors.as_array: a bool entry is no
    # number ([0.1, True] must not read as [0.1, 1.0]), and a NaN or an
    # infinite entry is rejected naming the argument and the entry.
    @pytest.mark.parametrize(
        "call, value, message",
        [
            pytest.param(call, value, message, id=f"{label}-{kind}")
            for label, call, name in _ARRAY_INPUTS
            for kind, value, message in (
                ("bool", True, rf"^{name} must be an array of numbers, got "),
                ("nan", np.nan, rf"^{name} must have finite entries, got nan$"),
                ("inf", np.inf, rf"^{name} must have finite entries, got inf$"),
            )
        ],
    )
    def test_rejects_a_bool_or_non_finite_entry_naming_the_argument(self, call, value, message):
        with pytest.raises(InvalidInputError, match=message):
            call(value)

    def test_noise_takes_the_shape_of_the_samples(self):
        y = np.arange(6, dtype=complex).reshape(2, 3)
        noisy = add_noise(y, NoiseSpec(sigma=1.0, seed=3))
        assert noisy.shape == (2, 3)
        assert np.array_equal(noisy.ravel(), add_noise(y.ravel(), NoiseSpec(sigma=1.0, seed=3)))

    @pytest.mark.parametrize("max_peaks", [True, 2.5, -1])
    def test_max_peaks_is_a_nonnegative_integer(self, max_peaks):
        with pytest.raises(InvalidInputError, match="^max_peaks must be"):
            locate_frequencies(_Q, 1.0, max_peaks=max_peaks)

    def test_an_array_of_bools_is_rejected_by_its_dtype(self):
        with pytest.raises(InvalidInputError, match="^x must be an array of numbers"):
            as_array(np.zeros(3, dtype=bool), "x", float)

    def test_an_integer_read_takes_integral_floats_only(self):
        out = as_array(np.array([0.0, 2.0, 5.0]), "x", np.int64)
        assert out.dtype == np.int64 and out.tolist() == [0, 2, 5]
        with pytest.raises(InvalidInputError, match=r"^x must have integer entries, got 1.5$"):
            as_array([0.0, 1.5], "x", np.int64)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: SpikeSpectrum(freqs=np.array([0.1 + 0.5j]), amps=[1.0]),
            lambda: torus_separation(np.array([0.1, 0.5 + 0j])),
            lambda: SelectionPattern(indices=[0, 1 + 0j], ambient=4),
        ],
        ids=["spike-freqs", "separation", "indices"],
    )
    def test_a_complex_entry_is_no_real(self, call):
        # np.asarray would drop the imaginary part with only a warning.
        with pytest.raises(InvalidInputError, match="must be an array of numbers"):
            call()

    def test_a_numeric_array_of_the_dtype_is_not_copied(self):
        y = np.ones(4, dtype=complex)
        assert as_array(y, "y", complex) is y

    @pytest.mark.parametrize(
        "indices",
        [np.array([0, 2, 5], dtype=np.int32), (0, 2, 5), [0.0, 2.0, 5.0], np.array([0.0, 2.0, 5.0])],
        ids=["int32", "tuple", "float-list", "float-array"],
    )
    def test_a_pattern_holds_python_ints_however_its_indices_come(self, indices):
        pat = SelectionPattern(indices=indices, ambient=6)
        assert pat.indices == (0, 2, 5) and all(type(i) is int for i in pat.indices)
