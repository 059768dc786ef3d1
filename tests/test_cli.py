"""Command-line interface: file formats, exit codes, reproducibility."""

import argparse
import dataclasses
import inspect
import json
import os

import numpy as np
import pytest

from spectral_sdp import EstimationConfig, assemble_problem
from spectral_sdp.cli import _CONFIG_FIELDS, build_parser, main
from spectral_sdp.localization import EstimateDiagnostics
from spectral_sdp.solver import ProblemSpec


def _write_config(path, cfg):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return str(path)


def _full_config(tmp_path, n=24, sigma=0.0, freqs=(0.11, 0.38), rho=20.0, seed=5):
    amps = [{"re": 1.0, "im": 0.4}, {"re": -0.6, "im": 0.8}][: len(freqs)]
    cfg = {
        "schema": 1,
        "scenario": "full",
        "seed": seed,
        "signal": {"freqs_hz": list(freqs), "amps": amps},
        "noise": {"sigma": sigma},
        "sampling": {"f": "1", "n": n},
        "solver": {"rho": rho},
        "output": {"dir": str(tmp_path / "out"), "prefix": "run"},
    }
    return _write_config(tmp_path / "config.json", cfg), cfg


def _multirate_config(tmp_path, seed=3, sigma=0.0):
    cfg = {
        "schema": 1,
        "scenario": "multirate",
        "seed": seed,
        "signal": {
            "freqs_hz": [0.9, 2.3],
            "amps": [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 1.0}],
        },
        "noise": {"sigma": sigma},
        "sampling": {
            "grids": [
                {"f": "2", "gamma": "0", "n": 5},
                {"f": "3", "gamma": "-1/2", "n": 6},
            ]
        },
        "solver": {"rho": 10.0},
        "output": {"dir": str(tmp_path / "out"), "prefix": "mr"},
    }
    return _write_config(tmp_path / "mr.json", cfg), cfg


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_settings_are_the_config_fields():
    # The CLI reads every EstimationConfig field but sigma (from noise.sigma
    # or --sigma) from its solver section, and estimate() hands the config
    # to assemble_problem whole.
    names = [field.name for field in dataclasses.fields(EstimationConfig)]
    assert list(_CONFIG_FIELDS) == [n for n in names if n != "sigma"]
    keywords = set(inspect.signature(assemble_problem).parameters) - {"y", "pattern", "settings"}
    keywords |= {field.name for field in dataclasses.fields(ProblemSpec)} - {"y", "partition"}
    assert set(names) <= keywords


def test_no_flag_is_read_before_errors_reads_it():
    # argparse hands every flag on as typed, so errors reads each number
    # once, under the flag's name; a type= would read it first.
    parsers, typed = [build_parser()], []
    for parser in parsers:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
            elif action.type is not None:
                typed.append(f"{parser.prog} {'/'.join(action.option_strings)}")
    assert len(parsers) == 7  # the walk reaches every subcommand
    assert not typed, typed


class TestSynth:
    def test_full_scenario_writes_n_samples(self, tmp_path):
        cfg_path, _ = _full_config(tmp_path, n=24)
        assert main(["synth", "--config", cfg_path]) == 0
        lines = _read(tmp_path / "out" / "run_samples.csv").strip().splitlines()
        assert lines[0] == "index,re,im"
        assert len(lines) == 25
        assert os.path.exists(tmp_path / "out" / "run_truth.json")

    def test_multirate_writes_per_grid_files(self, tmp_path):
        cfg_path, _ = _multirate_config(tmp_path)
        assert main(["synth", "--config", cfg_path]) == 0
        g0 = _read(tmp_path / "out" / "mr_grid0.csv").strip().splitlines()
        g1 = _read(tmp_path / "out" / "mr_grid1.csv").strip().splitlines()
        assert len(g0) == 6 and len(g1) == 7

    def test_noisy_synthesis_is_byte_reproducible(self, tmp_path):
        cfg_path, _ = _full_config(tmp_path, sigma=0.3)
        assert main(["synth", "--config", cfg_path]) == 0
        first = _read(tmp_path / "out" / "run_samples.csv")
        assert main(["synth", "--config", cfg_path]) == 0
        assert _read(tmp_path / "out" / "run_samples.csv") == first

    @pytest.mark.parametrize(
        "signal",
        [
            {"freqs_hz": [float("nan")]},
            {"freqs_hz": [0.11, float("inf")]},
            {"amps": [{"re": float("nan"), "im": 0.4}, {"re": -0.6, "im": 0.8}]},
            {"amps": [{"re": 1.0, "im": 0.4}, {"re": -0.6, "im": float("-inf")}]},
        ],
    )
    def test_non_finite_spike_exits_one_without_outputs(self, tmp_path, signal):
        _, cfg = _full_config(tmp_path)
        cfg["signal"].update(signal)
        cfg["signal"]["amps"] = cfg["signal"]["amps"][: len(cfg["signal"]["freqs_hz"])]
        cfg_path = _write_config(tmp_path / "config.json", cfg)
        assert main(["synth", "--config", cfg_path]) == 1
        assert not os.path.exists(tmp_path / "out" / "run_samples.csv")
        assert not os.path.exists(tmp_path / "out" / "run_truth.json")

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg_path, _ = _full_config(tmp_path, sigma=0.5, seed=1)
        monkeypatch.setenv("SPECTRAL_SDP_SEED", "99")
        assert main(["synth", "--config", cfg_path]) == 0
        truth = json.loads(_read(tmp_path / "out" / "run_truth.json"))
        assert truth["seed"] == 99


class TestCheckGrid:
    def test_reference_system_report(self, tmp_path, capsys):
        cfg_path, _ = _multirate_config(tmp_path)
        assert main(["check-grid", "--config", cfg_path]) == 0
        report = json.loads(_read(tmp_path / "out" / "mr_grid_report.json"))
        assert report["n0"] == 13
        assert report["m"] == 9 and report["m_tilde"] == 11
        assert report["indices"] == [0, 1, 3, 5, 6, 7, 9, 11, 12]
        assert report["ratio"] == "9/13"
        assert "n0=13" in capsys.readouterr().out

    def test_single_grid_ratio_one(self, tmp_path):
        cfg = {
            "schema": 1,
            "scenario": "multirate",
            "signal": {"freqs_hz": [0.1], "amps": [{"re": 1.0, "im": 0.0}]},
            "sampling": {"grids": [{"f": "4", "gamma": "0", "n": 9}]},
            "output": {"dir": str(tmp_path / "out"), "prefix": "one"},
        }
        cfg_path = _write_config(tmp_path / "one.json", cfg)
        assert main(["check-grid", "--config", cfg_path]) == 0
        report = json.loads(_read(tmp_path / "out" / "one_grid_report.json"))
        assert report["ratio"] == "1"

    def test_non_multirate_config_rejected(self, tmp_path):
        cfg_path, _ = _full_config(tmp_path)
        assert main(["check-grid", "--config", cfg_path]) == 1


class TestSample:
    def test_full_scenario_passthrough(self, tmp_path):
        cfg_path, _ = _full_config(tmp_path, n=16)
        main(["synth", "--config", cfg_path])
        assert main(["sample", "--config", cfg_path]) == 0
        raw = _read(tmp_path / "out" / "run_samples.csv")
        net = _read(tmp_path / "out" / "run_net.csv")
        assert raw == net

    def test_multirate_alignment_length(self, tmp_path):
        cfg_path, _ = _multirate_config(tmp_path)
        main(["synth", "--config", cfg_path])
        assert main(["sample", "--config", cfg_path]) == 0
        net = _read(tmp_path / "out" / "mr_net.csv").strip().splitlines()
        assert len(net) == 10  # header + 9 net observations
        meta = json.loads(_read(tmp_path / "out" / "mr_pattern.json"))
        assert meta["indices"] == [0, 1, 3, 5, 6, 7, 9, 11, 12]


class TestEstimate:
    def test_round_trip_full_observation(self, tmp_path):
        cfg_path, cfg = _full_config(tmp_path, n=24)
        main(["synth", "--config", cfg_path])
        assert main(["estimate", "--config", cfg_path]) == 0
        record = json.loads(_read(tmp_path / "out" / "run_result.json"))
        got = sorted(record["estimate"]["freqs_hz"])
        for est, true in zip(got, cfg["signal"]["freqs_hz"]):
            assert abs(est - true) < 1e-4
        assert record["diagnostics"]["converged"] is True
        assert os.path.exists(tmp_path / "out" / "run_dualpoly.tsv")
        assert os.path.exists(tmp_path / "out" / "run_spikes.tsv")

    def test_result_counts_rejected_extrapolations(self, tmp_path):
        cfg_path, _ = _full_config(tmp_path, n=16)
        main(["synth", "--config", cfg_path])
        main(["estimate", "--config", cfg_path])
        diag = json.loads(_read(tmp_path / "out" / "run_result.json"))["diagnostics"]
        assert 0 <= diag["rejected_extrapolations"] < diag["iterations"]

    def test_result_reports_the_projection(self, tmp_path):
        cfg_path, cfg = _full_config(tmp_path, n=16)
        main(["synth", "--config", cfg_path])
        main(["estimate", "--config", cfg_path])
        diag = json.loads(_read(tmp_path / "out" / "run_result.json"))["diagnostics"]
        assert diag["converged"] is True
        assert 0 <= diag["full_eigh_iterations"] <= diag["iterations"]
        assert diag["rank_deficit"] == len(cfg["signal"]["freqs_hz"])
        assert diag["newton_fallbacks"] == 0
        assert diag["reliable"] is True

    def test_result_reports_the_history_depth(self, tmp_path):
        # 16 samples: order 17, where the budget would hold far more rows
        # than the cap of 40.
        cfg_path, _ = _full_config(tmp_path, n=16)
        main(["synth", "--config", cfg_path])
        main(["estimate", "--config", cfg_path])
        diag = json.loads(_read(tmp_path / "out" / "run_result.json"))["diagnostics"]
        assert diag["history_depth"] == 40
        keys = list(diag)
        assert keys.index("history_depth") == keys.index("full_eigh_iterations") + 1

    def test_result_reports_the_gap(self, tmp_path):
        cfg_path, cfg = _full_config(tmp_path, n=16)
        main(["synth", "--config", cfg_path])
        main(["estimate", "--config", cfg_path])
        diag = json.loads(_read(tmp_path / "out" / "run_result.json"))["diagnostics"]
        lower, upper = diag["duality_gap"]["lower"], diag["duality_gap"]["upper"]
        assert diag["stopped_on"] == "gap"
        assert lower == diag["dual_objective"]
        assert 0 <= upper - lower <= 1e-5 * upper
        cfg["solver"]["tol_gap"] = 0.0  # the residual rule alone
        _write_config(cfg_path, cfg)
        main(["estimate", "--config", cfg_path])
        diag = json.loads(_read(tmp_path / "out" / "run_result.json"))["diagnostics"]
        assert diag["stopped_on"] == "residuals"
        assert diag["duality_gap"]["lower"] <= diag["duality_gap"]["upper"]

    def test_result_writes_every_diagnostic(self, tmp_path):
        # A statistic added to EstimateDiagnostics without a key of its own
        # in the result fails here; these are the keys that differ.
        renamed = {
            "residual": "amplitude_residual",
            "final_residuals": "residuals",
            "gap_lower": "duality_gap",
            "gap_upper": "duality_gap",
        }
        names = [field.name for field in dataclasses.fields(EstimateDiagnostics)]
        properties = inspect.getmembers(EstimateDiagnostics, lambda v: isinstance(v, property))
        names += [name for name, _ in properties]
        cfg_path, _ = _full_config(tmp_path, n=16)
        main(["synth", "--config", cfg_path])
        assert main(["estimate", "--config", cfg_path]) == 0
        record = json.loads(_read(tmp_path / "out" / "run_result.json"))
        assert {"converged", "reliable"} <= set(names)
        written = {*record["diagnostics"], *record["frame"]}
        assert {renamed.get(name, name) for name in names} == written

    def test_missing_input_exits_one_without_outputs(self, tmp_path):
        cfg_path, _ = _full_config(tmp_path)
        assert main(["estimate", "--config", cfg_path]) == 1
        assert not os.path.exists(tmp_path / "out" / "run_result.json")

    def test_bad_noise_or_tau_exits_one_without_outputs(self, tmp_path):
        cfg_path, cfg = _full_config(tmp_path, n=16)
        main(["synth", "--config", cfg_path])
        assert main(["estimate", "--config", cfg_path, "--tau", "nan"]) == 1
        cfg["noise"]["sigma"] = -0.1
        _write_config(cfg_path, cfg)
        assert main(["estimate", "--config", cfg_path]) == 1
        for name in ("run_result.json", "run_dualpoly.tsv", "run_spikes.tsv"):
            assert not os.path.exists(tmp_path / "out" / name)

    def test_nonconvergence_exits_two_with_flagged_record(self, tmp_path):
        cfg_path, _ = _full_config(tmp_path, n=16)
        main(["synth", "--config", cfg_path])
        assert main(["estimate", "--config", cfg_path, "--max-iter", "4"]) == 2
        record = json.loads(_read(tmp_path / "out" / "run_result.json"))
        assert record["diagnostics"]["converged"] is False
        assert record["diagnostics"]["reliable"] is False
        assert record["diagnostics"]["stopped_on"] == "max_iter"
        assert record["diagnostics"]["duality_gap"]["lower"] is None

    def test_zero_max_iter_flag_exits_one_without_outputs(self, tmp_path):
        cfg_path, _ = _full_config(tmp_path, n=16)
        main(["synth", "--config", cfg_path])
        assert main(["estimate", "--config", cfg_path, "--max-iter", "0"]) == 1
        assert not os.path.exists(tmp_path / "out" / "run_result.json")

    def test_noise_rule_sets_tau(self, tmp_path):
        cfg_path, _ = _full_config(tmp_path, n=32, sigma=0.05)
        main(["synth", "--config", cfg_path])
        assert main(["estimate", "--config", cfg_path]) == 0
        record = json.loads(_read(tmp_path / "out" / "run_result.json"))
        expected = 1.5 * 0.05 * np.sqrt(32 * np.log(32))
        assert np.isclose(record["diagnostics"]["tau"], expected)

    def test_result_is_byte_reproducible(self, tmp_path):
        cfg_path, _ = _full_config(tmp_path, n=16, sigma=0.1)
        main(["synth", "--config", cfg_path])
        assert main(["estimate", "--config", cfg_path]) == 0
        first = _read(tmp_path / "out" / "run_result.json")
        assert main(["estimate", "--config", cfg_path]) == 0
        assert _read(tmp_path / "out" / "run_result.json") == first

    def test_multirate_estimate(self, tmp_path):
        cfg_path, cfg = _multirate_config(tmp_path)
        main(["synth", "--config", cfg_path])
        assert main(["estimate", "--config", cfg_path]) == 0
        record = json.loads(_read(tmp_path / "out" / "mr_result.json"))
        got = sorted(record["estimate"]["freqs_hz"])
        for est, true in zip(got, cfg["signal"]["freqs_hz"]):
            assert abs(est - true) < 1e-3


class TestVerify:
    def test_round_trip_certificate(self, tmp_path, capsys):
        cfg_path, _ = _full_config(tmp_path, n=24)
        main(["synth", "--config", cfg_path])
        main(["estimate", "--config", cfg_path])
        code = main(
            [
                "verify",
                "--result",
                str(tmp_path / "out" / "run_result.json"),
                "--truth",
                str(tmp_path / "out" / "run_truth.json"),
            ]
        )
        assert code == 0
        assert "certificate: True" in capsys.readouterr().out

    def test_shifted_selection_certificate(self, tmp_path, capsys):
        # The pattern misses index 0, so the solve runs on indices shifted
        # down by 3; the recorded time shift must put the truth in that frame.
        cfg_path, cfg = _full_config(tmp_path, n=24)
        cfg["scenario"] = "selection"
        cfg["sampling"]["indices"] = list(range(3, 24))
        _write_config(cfg_path, cfg)
        main(["synth", "--config", cfg_path])
        assert main(["estimate", "--config", cfg_path]) == 0
        record = json.loads(_read(tmp_path / "out" / "run_result.json"))
        assert record["frame"]["time_shift_s"] == -3.0
        code = main(
            [
                "verify",
                "--result",
                str(tmp_path / "out" / "run_result.json"),
                "--truth",
                str(tmp_path / "out" / "run_truth.json"),
            ]
        )
        assert code == 0
        assert "certificate: True" in capsys.readouterr().out


class TestBench:
    def test_small_sweep_writes_csv(self, tmp_path):
        cfg_path, _ = _full_config(tmp_path)
        code = main(
            ["bench", "--config", cfg_path, "--sizes", "8,12", "--iters", "5"]
        )
        assert code == 0
        lines = _read(tmp_path / "out" / "run_bench.csv").strip().splitlines()
        assert lines[0] == "m,iter_time_us,total_ms,iterations"
        assert len(lines) == 3
        assert [int(row.split(",")[0]) for row in lines[1:]] == [8, 12]

    def test_runs_every_iteration_asked_for(self, tmp_path):
        # Seed 2 draws an m = 3 problem whose duality gap closes after 26
        # iterations; the bench still times all 60.
        cfg_path, _ = _full_config(tmp_path)
        code = main(
            ["bench", "--config", cfg_path, "--sizes", "3", "--iters", "60", "--seed", "2"]
        )
        assert code == 0
        lines = _read(tmp_path / "out" / "run_bench.csv").strip().splitlines()
        assert int(lines[1].split(",")[3]) == 60


class TestErrors:
    def test_random_selection_without_length_exits_one(self, tmp_path, capsys):
        cfg_path, cfg = _full_config(tmp_path)
        assert main(["synth", "--config", cfg_path]) == 0
        cfg["scenario"] = "random-selection"
        cfg["sampling"] = {"f": "1", "keep_prob": 0.5}  # no sampling.n
        _write_config(cfg_path, cfg)
        assert main(["sample", "--config", cfg_path]) == 1
        assert capsys.readouterr().err.startswith("input error:")

    def test_random_selection_keeping_nothing_exits_one(self, tmp_path, capsys):
        cfg_path, cfg = _full_config(tmp_path)
        cfg["scenario"] = "random-selection"
        cfg["sampling"]["keep_prob"] = 1e-12  # keeps none of 24 indices, draw after draw
        _write_config(cfg_path, cfg)
        assert main(["sample", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "kept none" in err

    def test_unknown_scenario(self, tmp_path):
        cfg_path = _write_config(
            tmp_path / "bad.json",
            {"schema": 1, "scenario": "nope", "output": {"dir": str(tmp_path)}},
        )
        assert main(["synth", "--config", cfg_path]) == 1

    def test_missing_config(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "absent.json")]) == 1

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate"])
        assert exc.value.code == 1
        assert "--config" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_wrong_schema(self, tmp_path):
        cfg_path = _write_config(tmp_path / "v9.json", {"schema": 9, "scenario": "full"})
        assert main(["synth", "--config", cfg_path]) == 1

    def test_float_grid_rate_names_the_field(self, tmp_path, capsys):
        cfg = {
            "schema": 1,
            "scenario": "multirate",
            "signal": {"freqs_hz": [0.1], "amps": [{"re": 1.0, "im": 0.0}]},
            "sampling": {"grids": [{"f": 2.5, "gamma": "0", "n": 4}]},
            "output": {"dir": str(tmp_path / "out"), "prefix": "bad"},
        }
        cfg_path = _write_config(tmp_path / "bad.json", cfg)
        assert main(["check-grid", "--config", cfg_path]) == 1
        assert "sampling.grids[0].f" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["f", "gamma"])
    def test_grid_beyond_float_range_exits_one(self, tmp_path, capsys, key):
        cfg_path, cfg = _multirate_config(tmp_path)
        cfg["sampling"]["grids"][0][key] = "1e400"
        _write_config(cfg_path, cfg)
        for command in ("synth", "check-grid"):
            assert main([command, "--config", cfg_path]) == 1
            err = capsys.readouterr().err
            assert err.startswith("input error:") and "beyond float range" in err

    @pytest.mark.parametrize(
        "case, where",
        [
            ("csv-field", "run_samples.csv:3"),
            ("csv-nan", "run_samples.csv:3"),
            ("csv-index", "run_samples.csv:2"),
            ("sigma-nan", "sigma"),
            ("env-seed", "SPECTRAL_SDP_SEED"),
            ("seed-bool", "seed"),
            ("length-fraction", "sampling.n"),
            ("max-iter-fraction", "solver.max_iter"),
            ("rate", "sampling.f"),
            ("rate-overflow", "sampling.f"),
            ("grid-rate", "sampling.grids[1].f"),
            ("index", "sampling.indices[1]"),
            ("freq", "signal.freqs_hz[1]"),
            ("amp-re", "signal.amps[0].re"),
            ("amp-im", "signal.amps[1].im"),
            ("bench-size", "--sizes"),
            ("bench-size-zero", "--sizes"),
            ("bench-iters-zero", "--iters"),
            ("truth-freq", "run_truth.json: freqs_hz[1]"),
            ("solve-rate", "run_result.json: frame.solve_rate_hz"),
            ("time-shift", "run_result.json: frame.time_shift_s"),
            ("rho-bool", "solver.rho"),
            ("sigma-bool", "noise.sigma"),
            ("freq-bool", "signal.freqs_hz[1]"),
            ("seed-negative", "seed"),
            ("env-seed-negative", "SPECTRAL_SDP_SEED"),
            ("flag-seed-negative", "--seed"),
            ("rate-bool", "sampling.f"),
            ("grid-gamma-bool", "sampling.grids[1].gamma"),
            ("verify-tol", "tol"),
            ("verify-tol-negative", "--tol must be in [0, inf), got -1.0"),
            ("max-iter-zero", "solver.max_iter must be at least 1, got 0"),
            ("estimate-max-iter-zero", "--max-iter must be at least 1, got 0"),
            ("estimate-max-iter-fraction", "--max-iter must be an integer, got '2.5'"),
            ("estimate-tau-nan", "--tau must be in [0, inf), got nan"),
            ("estimate-tau-word", "--tau must be a real number, got 'x'"),
            ("estimate-sigma-negative", "--sigma must be in [0, inf), got -1.0"),
        ],
        ids=[
            "csv-field",
            "csv-nan",
            "csv-index",
            "sigma-nan",
            "env-seed",
            "seed-bool",
            "length-fraction",
            "max-iter-fraction",
            "rate",
            "rate-overflow",
            "grid-rate",
            "index",
            "freq",
            "amp-re",
            "amp-im",
            "bench-size",
            "bench-size-zero",
            "bench-iters-zero",
            "truth-freq",
            "solve-rate",
            "time-shift",
            "rho-bool",
            "sigma-bool",
            "freq-bool",
            "seed-negative",
            "env-seed-negative",
            "flag-seed-negative",
            "rate-bool",
            "grid-gamma-bool",
            "verify-tol",
            "verify-tol-negative",
            "max-iter-zero",
            "estimate-max-iter-zero",
            "estimate-max-iter-fraction",
            "estimate-tau-nan",
            "estimate-tau-word",
            "estimate-sigma-negative",
        ],
    )
    def test_malformed_number_exits_one(self, tmp_path, monkeypatch, capsys, case, where):
        if case.startswith("grid-"):
            cfg_path, cfg = _multirate_config(tmp_path)
            if case == "grid-rate":
                cfg["sampling"]["grids"][1]["f"] = "1/0x"
            else:
                cfg["sampling"]["grids"][1]["gamma"] = True  # must not read as 1
        else:
            cfg_path, cfg = _full_config(tmp_path)
            if case == "rate":
                cfg["sampling"]["f"] = "1/0x"
            elif case == "rate-overflow":
                cfg["sampling"]["f"] = "1e400"
            elif case == "index":
                cfg["scenario"] = "selection"
                cfg["sampling"]["indices"] = [0, "x", 5]
            elif case == "freq":
                cfg["signal"]["freqs_hz"][1] = "x"
            elif case == "amp-re":
                cfg["signal"]["amps"][0]["re"] = "x"
            elif case == "amp-im":
                cfg["signal"]["amps"][1]["im"] = None
            elif case == "seed-bool":
                cfg["seed"] = True
            elif case == "length-fraction":
                cfg["sampling"]["n"] = 32.7  # must not truncate to 32
            elif case == "max-iter-fraction":
                cfg["solver"]["max_iter"] = 3.9  # must not truncate to 3
            elif case == "max-iter-zero":
                cfg["solver"]["max_iter"] = 0
            elif case == "rho-bool":
                cfg["solver"]["rho"] = True  # must not read as 1
            elif case == "sigma-bool":
                cfg["noise"]["sigma"] = True
            elif case == "freq-bool":
                cfg["signal"]["freqs_hz"][1] = True
            elif case == "seed-negative":
                cfg["seed"] = -2
            elif case == "rate-bool":
                cfg["sampling"]["f"] = True  # must not read as 1 Hz
        _write_config(cfg_path, cfg)
        if case.startswith("env-seed"):
            monkeypatch.setenv("SPECTRAL_SDP_SEED", "-5" if case == "env-seed-negative" else "abc")
        command = ["synth", "--config", cfg_path]
        if case == "sigma-nan":
            command += ["--sigma", "nan"]
        if case == "flag-seed-negative":
            command += ["--seed", "-1"]
        # Each estimate flag is named as typed, not as the field it sets.
        command += {
            "estimate-max-iter-zero": ["--max-iter", "0"],
            "estimate-max-iter-fraction": ["--max-iter", "2.5"],
            "estimate-tau-nan": ["--tau", "nan"],
            "estimate-tau-word": ["--tau", "x"],
            "estimate-sigma-negative": ["--sigma", "-1"],
        }.get(case, [])
        if case.startswith(("csv-", "estimate-")) or case in (
            "index", "max-iter-fraction", "max-iter-zero", "rho-bool"
        ):
            assert main(["synth", "--config", cfg_path]) == 0
            command[0] = "sample" if case == "index" else "estimate"
        if case.startswith("csv-"):
            samples = tmp_path / "out" / "run_samples.csv"
            lines = _read(samples).splitlines()
            if case == "csv-index":  # the first row must be index 0
                lines[1] = "999" + lines[1][lines[1].index(","):]
            else:
                lines[2] = "1,abc,0.0" if case == "csv-field" else "1,nan,0.0"
            samples.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if case.startswith("bench-"):
            iters = "0" if case == "bench-iters-zero" else "2"
            sizes = {"bench-size": "8,x", "bench-size-zero": "8,0"}.get(case, "8")
            command = ["bench", "--config", cfg_path, "--iters", iters, "--sizes", sizes]
        if case in ("truth-freq", "solve-rate", "time-shift", "verify-tol", "verify-tol-negative"):
            assert main(command) == 0
            assert main(["estimate", "--config", cfg_path]) == 0
            result = tmp_path / "out" / "run_result.json"
            truth = tmp_path / "out" / "run_truth.json"
            path = truth if case == "truth-freq" else result
            record = json.loads(_read(path))
            if case == "truth-freq":
                record["freqs_hz"][1] = "x"
            elif not case.startswith("verify-tol"):
                record["frame"]["solve_rate_hz" if case == "solve-rate" else "time_shift_s"] = "x"
            path.write_text(json.dumps(record), encoding="utf-8")
            command = ["verify", "--result", str(result), "--truth", str(truth)]
            if case.startswith("verify-tol"):
                command += ["--tol", "nan" if case == "verify-tol" else "-1"]
        assert main(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and where in err

    def test_unknown_solver_key_exits_one(self, tmp_path, capsys):
        cfg_path, cfg = _full_config(tmp_path)
        cfg["solver"]["tau"] = None  # a null known key keeps its default
        _write_config(cfg_path, cfg)
        assert main(["synth", "--config", cfg_path]) == 0
        assert main(["estimate", "--config", cfg_path]) == 0
        # Settings that are gone, and a misspelt section.
        for section, key, where in (
            ("solver", "tol_dual", "solver.tol_dual"),
            ("solver", "gamma", "solver.gamma"),
            ("localization", "peak_tol", "'localization'"),
            ("solvr", "rho", "'solvr'"),
        ):
            bad = json.loads(json.dumps(cfg))
            bad.setdefault(section, {})[key] = 1.5
            _write_config(cfg_path, bad)
            capsys.readouterr()
            assert main(["estimate", "--config", cfg_path]) == 1
            err = capsys.readouterr().err
            assert err.startswith("input error:") and where in err

    @pytest.mark.parametrize(
        "case, where",
        [
            ("noise-key", "noise.sigam"),
            ("noise-number", "noise: expected an object"),
            ("sampling-key", "sampling.keep_porb"),
            ("output-key", "output.prefixx"),
            ("signal-key", "signal.freq_hz"),
            ("grid-key", "sampling.grids[0].gama"),
            ("grids-object", "sampling.grids: expected an array"),
        ],
        ids=[
            "noise-key",
            "noise-number",
            "sampling-key",
            "output-key",
            "signal-key",
            "grid-key",
            "grids-object",
        ],
    )
    def test_unknown_key_or_section_shape_exits_one(self, tmp_path, capsys, case, where):
        # Unchecked, each would run at a default without a word: no noise,
        # no delay, the default prefix.
        if case.startswith("grid"):
            cfg_path, cfg = _multirate_config(tmp_path)
            if case == "grid-key":
                cfg["sampling"]["grids"] = [{"f": "1", "gama": "1/2", "n": 24}]
            else:
                cfg["sampling"]["grids"] = {"f": "1", "n": 24}
        else:
            cfg_path, cfg = _full_config(tmp_path)
            if case == "noise-key":
                cfg["noise"] = {"sigam": 0.05}
            elif case == "noise-number":
                cfg["noise"] = 0.05
            elif case == "sampling-key":
                cfg["sampling"]["keep_porb"] = 0.5
            elif case == "output-key":
                cfg["output"]["prefixx"] = "other"
            else:
                cfg["signal"]["freq_hz"] = [0.2]
        _write_config(cfg_path, cfg)
        command = "check-grid" if case.startswith("grid") else "synth"
        assert main([command, "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and where in err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize(
        "case, where",
        [
            ("truth-freqs", "run_truth.json: freqs_hz"),
            ("config", "config.json"),
            ("grid", "sampling.grids[0]"),
            ("amps", "signal.amps"),
            ("signal", "signal"),
            ("indices", "sampling.indices"),
        ],
        ids=["truth-freqs", "config", "grid", "amps", "signal", "indices"],
    )
    def test_malformed_shape_exits_one(self, tmp_path, capsys, case, where):
        if case == "grid":
            cfg_path, cfg = _multirate_config(tmp_path)
            cfg["sampling"]["grids"] = ["x"]
        else:
            cfg_path, cfg = _full_config(tmp_path)
            if case == "config":
                cfg = []
            elif case == "amps":
                cfg["signal"]["amps"] = 3
            elif case == "signal":
                cfg["signal"] = [0.1]
            elif case == "indices":
                cfg["scenario"] = "selection"
                cfg["sampling"]["indices"] = 5
        _write_config(cfg_path, cfg)
        command = ["synth", "--config", cfg_path]
        if case == "indices":
            assert main(command) == 0
            command[0] = "sample"
        if case == "truth-freqs":
            assert main(command) == 0
            assert main(["estimate", "--config", cfg_path]) == 0
            truth = tmp_path / "out" / "run_truth.json"
            record = json.loads(_read(truth))
            record["freqs_hz"] = 5
            truth.write_text(json.dumps(record), encoding="utf-8")
            result = str(tmp_path / "out" / "run_result.json")
            command = ["verify", "--result", result, "--truth", str(truth)]
        assert main(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and where in err
