"""Runs every workload of the benchmark on a tiny instance set.

Each run goes through the command line, as the benchmark is run for real.
The checks: every metric BENCHMARK.json names is printed with its unit, the
failure count agrees with the failure reasons, each traced call matches its
untraced twin bit for bit, and the exact counts repeat between two runs.
A long-sparse call takes several seconds, so the module takes about two
minutes:

    python -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402

# One call per shape.
CALLS = {"exact-small": 3, "ast-denoise": 1, "long-sparse": 1, "ast-criterion-11": 1}
EXACT_COUNTS = (
    "solver.iterations",
    "solver.eigh_calls",
    "trigops.poly_eval_calls",
    "trigops.phase_bytes",
    "sampling.pairs",
)
BENCHMARKED = {w["name"] for w in SPEC["workloads"]}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = SPEC["command"] + [
        "--workload", workload,
        "--seed", "3",
        "--seconds", "600",
        "--trace", str(trace),
        "--calls", str(CALLS[workload]),
    ]
    cmd[0] = sys.executable
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    *_, report, result = done.stdout.splitlines()
    return json.loads(report), json.loads(result)


def check_result(report: dict, result: dict, names: list, workload: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == CALLS[workload]
    assert result["failed"] == sum(report["failures_by_reason"].values())
    assert report["failed_frac"]["attempted"] == result["attempted"]
    assert report["failed_frac"]["failed"] == result["failed"]
    expected = {m["name"]: m["unit"] for m in names}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if workload in BENCHMARKED:
        assert result["correct"] and result["failed"] == 0


def test_workloads_match_benchmark_json():
    assert BENCHMARKED <= set(WORKLOADS)
    assert set(CALLS) == set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    report, result = run(workload, 0)
    check_result(report, result, SPEC["end_to_end"], workload)
    assert len(report["setup_s_samples"]) == 3


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_is_identical_and_counts_repeat(workload):
    first_report, first = run(workload, 1)
    second_report, second = run(workload, 1)
    for report, result in ((first_report, first), (second_report, second)):
        check_result(report, result, SPEC["per_layer"], workload)
        assert report["checks"] == {"bit_identical": True, "eigh_calls_equal_iterations": True}
        metrics = result["metrics"]
        assert metrics["solver.eigh_calls"]["value"] == metrics["solver.iterations"]["value"]
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
