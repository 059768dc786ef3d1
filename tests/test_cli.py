"""Command-line interface: file formats, exit codes, reproducibility."""

import json
import os

import numpy as np
import pytest

from spectral_sdp.cli import main


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

    def test_missing_input_exits_one_without_outputs(self, tmp_path):
        cfg_path, _ = _full_config(tmp_path)
        assert main(["estimate", "--config", cfg_path]) == 1
        assert not os.path.exists(tmp_path / "out" / "run_result.json")

    def test_nonconvergence_exits_two_with_flagged_record(self, tmp_path):
        cfg_path, _ = _full_config(tmp_path, n=16)
        main(["synth", "--config", cfg_path])
        assert main(["estimate", "--config", cfg_path, "--max-iter", "4"]) == 2
        record = json.loads(_read(tmp_path / "out" / "run_result.json"))
        assert record["diagnostics"]["converged"] is False
        assert record["diagnostics"]["reliable"] is False

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

    def test_parallel_jobs(self, tmp_path):
        cfg_path, _ = _full_config(tmp_path)
        code = main(
            [
                "bench",
                "--config",
                cfg_path,
                "--sizes",
                "8,10",
                "--iters",
                "4",
                "--jobs",
                "2",
            ]
        )
        assert code == 0
        lines = _read(tmp_path / "out" / "run_bench.csv").strip().splitlines()
        assert len(lines) == 3


class TestErrors:
    def test_unknown_scenario(self, tmp_path):
        cfg_path = _write_config(
            tmp_path / "bad.json",
            {"schema": 1, "scenario": "nope", "output": {"dir": str(tmp_path)}},
        )
        assert main(["synth", "--config", cfg_path]) == 1

    def test_missing_config(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "absent.json")]) == 1

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
        assert "'f'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, where",
        [
            ("csv-field", "run_samples.csv:3"),
            ("env-seed", "SPECTRAL_SDP_SEED"),
            ("rate", "sampling.f"),
            ("grid-rate", "sampling.grids[1].f"),
        ],
        ids=["csv-field", "env-seed", "rate", "grid-rate"],
    )
    def test_malformed_number_exits_one(self, tmp_path, monkeypatch, capsys, case, where):
        if case == "grid-rate":
            cfg_path, cfg = _multirate_config(tmp_path)
            cfg["sampling"]["grids"][1]["f"] = "1/0x"
        else:
            cfg_path, cfg = _full_config(tmp_path)
            if case == "rate":
                cfg["sampling"]["f"] = "1/0x"
        _write_config(cfg_path, cfg)
        if case == "env-seed":
            monkeypatch.setenv("SPECTRAL_SDP_SEED", "abc")
        command = "synth"
        if case == "csv-field":
            assert main(["synth", "--config", cfg_path]) == 0
            samples = tmp_path / "out" / "run_samples.csv"
            lines = _read(samples).splitlines()
            lines[2] = "1,abc,0.0"
            samples.write_text("\n".join(lines) + "\n", encoding="utf-8")
            command = "estimate"
        assert main([command, "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and where in err
