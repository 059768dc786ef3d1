"""Closed-loop benchmark of ``spectral_sdp.estimate()``.

One process, one caller, one call at a time: the next call starts only
after the previous one returned, as in offline batch analysis. A run cycles
through a seeded pool of instances for ``--seconds`` seconds and checks
every returned estimate against the instance's ground truth.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` calls each
instance twice in a row, untraced and with the per-layer wrappers of
:mod:`perfbench.tracing` installed (in alternating order), checks that both
calls return bit-identical results, and reports the per-layer metrics.
Pairing the calls keeps a drift in machine speed out of the tracing
overhead.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the failure reasons, the tail latency, the correctness checks
and the environment.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

import spectral_sdp as ss

from .tracing import ROOT, Tracer, traced
from .workloads import WORKLOADS, Instance, gate, instances, warmup_instances

POOL = 64  # instances generated per run; a longer run cycles through them
WARMUP_ITERS = 25  # ADMM iterations of each warm-up call
SETUP_REPEATS = 3  # set-ups per untraced run (this process plus children)
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass(frozen=True)
class Call:
    index: int  # position in the instance pool
    seconds: float
    est: object  # SpectrumEstimate, or None when the call raised
    failure: str | None  # gate reason, ``raised:<ErrorClass>``, or None


def setup(workload: str, seed: int) -> list[Instance]:
    """Generate the run's instances and warm the library up.

    The warm-up calls run one fixed instance per shape, capped at
    ``WARMUP_ITERS`` iterations: enough to pay the first-call costs at the
    workload's sizes, while keeping set-up independent of the seed.
    """
    pool = instances(workload, seed, POOL)
    for inst in warmup_instances(workload):
        y, sampler, f, cfg = inst.args
        try:
            ss.estimate(y, sampler, f, replace(cfg, max_iter=WARMUP_ITERS))
        except ss.SpectralSDPError:
            pass  # a capped solve may certify nothing; only the warm-up counts
    return pool


def call(inst: Instance, index: int, estimate=None) -> Call:
    """Time one ``estimate()`` call and classify its outcome."""
    estimate = estimate or ss.estimate
    start = time.perf_counter()
    try:
        est = estimate(*inst.args)
    except Exception as exc:  # the run goes on; the failure is counted by class
        return Call(index, time.perf_counter() - start, None, f"raised:{type(exc).__name__}")
    elapsed = time.perf_counter() - start
    return Call(index, elapsed, est, gate(est, inst))


def closed_loop(pool: list[Instance], seconds: float, max_calls: int | None, step) -> tuple[list, float]:
    """Run ``step(i)`` on pool index ``i`` back to back, cycling through the
    pool, until ``seconds`` have passed (or ``max_calls`` steps ran)."""
    out = []
    start = time.perf_counter()
    while True:
        out.append(step(len(out) % len(pool)))
        if time.perf_counter() - start >= seconds:
            break
        if max_calls is not None and len(out) >= max_calls:
            break
    return out, time.perf_counter() - start


def tail(seconds: list[float]) -> dict | None:
    """Highest listed percentile with at least ten calls beyond it."""
    n = len(seconds)
    for pct in TAIL_PERCENTILES:
        beyond = int(n - np.ceil(n * pct / 100.0))
        if beyond >= 10:
            value = float(np.percentile(seconds, pct, method="higher"))
            return {"value": value, "unit": "s", "percentile": pct, "calls": n, "calls_beyond": beyond}
    return None


def _same(a: Call, b: Call) -> bool:
    """Bit-for-bit equality of frequencies, amplitudes and iterations."""
    if a.est is None or b.est is None:
        return a.est is None and b.est is None and a.failure == b.failure
    return (
        np.asarray(a.est.freqs).tobytes() == np.asarray(b.est.freqs).tobytes()
        and np.asarray(a.est.amps).tobytes() == np.asarray(b.est.amps).tobytes()
        and a.est.diagnostics.iterations == b.est.diagnostics.iterations
    )


def failure_summary(calls: list[Call], pool: list[Instance]) -> dict:
    """Failures by reason and, per shape, whether the share of calls that
    passed meets the shape's acceptance criterion."""
    failed = [c for c in calls if c.failure]
    by_shape: dict[str, dict] = {}
    for c in calls:
        inst = pool[c.index]
        entry = by_shape.setdefault(
            inst.shape, {"attempted": 0, "failed": 0, "pass_rate_needed": inst.pass_rate}
        )
        entry["attempted"] += 1
        entry["failed"] += bool(c.failure)
    for entry in by_shape.values():
        passed = 1.0 - entry["failed"] / entry["attempted"]
        entry["meets_criterion"] = passed >= entry["pass_rate_needed"]
    return {
        "failed_frac": {
            "value": len(failed) / len(calls),
            "unit": "ratio",
            "failed": len(failed),
            "attempted": len(calls),
        },
        "failures_by_reason": dict(Counter(c.failure for c in failed)),
        "calls_by_shape": by_shape,
    }


def untraced_metrics(calls: list[Call], wall: float, setup_s: float) -> dict:
    times = [c.seconds for c in calls]
    return {
        "estimates_per_s": (len(calls) / wall, "1/s"),
        "estimate_s.p50": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def traced_run(pool: list[Instance], seconds: float, max_calls: int | None) -> tuple[dict, dict, list[Call]]:
    """Closed loop of (untraced, traced) call pairs on the same instance:
    per-layer metrics, the checks on the pairs, and the traced calls."""
    tracer = Tracer()
    eigh_mismatch = 0

    def traced_call(i: int) -> Call:
        nonlocal eigh_mismatch
        before = tracer.calls["solver.eigh"]
        with traced(tracer):
            r = call(pool[i], i, lambda *a: tracer.call(ROOT, ss.estimate, *a))
        if r.est is not None and tracer.calls["solver.eigh"] - before != r.est.diagnostics.iterations:
            eigh_mismatch += 1
        return r

    def step(i: int) -> tuple[Call, Call]:
        # Alternate which call goes first, so the order does not bias the
        # overhead.
        if i % 2:
            r = traced_call(i)
            return call(pool[i], i), r
        plain = call(pool[i], i)
        return plain, traced_call(i)

    pairs, _ = closed_loop(pool, seconds, max_calls, step)
    traced_calls = [t for _, t in pairs]

    n = len(traced_calls)
    ests = [r.est for r in traced_calls if r.est is not None]
    iterations = sum(e.diagnostics.iterations for e in ests)
    total, own, count = tracer.total, tracer.self_time, tracer.calls
    metrics = {
        "solver.eigh_s": (total["solver.eigh"] / n, "s"),
        "solver.other_s": (own["solver.solve"] / n, "s"),
        "solver.solve_s": (total["solver.solve"] / n, "s"),
        "solver.iterations": (iterations / n, "count"),
        "solver.iter_s": (total["solver.solve"] / iterations if iterations else 0.0, "s"),
        "solver.converged_frac": (sum(e.diagnostics.converged for e in ests) / n, "ratio"),
        "solver.eigh_calls": (count["solver.eigh"] / n, "count"),
        "trigops.poly_eval_s": (total["trigops.poly_eval"] / n, "s"),
        "trigops.poly_eval_calls": (count["trigops.poly_eval"] / n, "count"),
        "trigops.phase_bytes": (tracer.phase_bytes / n, "bytes"),
        "trigops.sup_norm_s": (own["trigops.sup_norm"] / n, "s"),
        "localization.locate_s": (own["localization.locate"] / n, "s"),
        "localization.peaks_found": (sum(e.freqs.size for e in ests) / n, "count"),
        "localization.newton_fallbacks": (
            sum(e.diagnostics.newton_fallbacks for e in ests) / n,
            "count",
        ),
        "localization.amplitude_s": (total["localization.amplitude"] / n, "s"),
        "localization.dual_poly_s": (total["localization.dual_poly"] / n, "s"),
        "localization.glue_s": (own[ROOT] / n, "s"),
        "sampling.partition_s": (total["sampling.partition"] / n, "s"),
        "sampling.pairs": (tracer.pairs / n, "count"),
        "multirate.common_grid_s": (total["multirate.common_grid"] / n, "s"),
        "multirate.align_s": (total["multirate.align"] / n, "s"),
        "trace.overhead_s": (
            statistics.median(t.seconds - u.seconds for u, t in pairs),
            "s",
        ),
    }
    checks = {
        "bit_identical": all(_same(u, t) for u, t in pairs),
        "eigh_calls_equal_iterations": eigh_mismatch == 0,
    }
    return metrics, checks, traced_calls


def environment() -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
    }


def _child_setups(args, count: int) -> list[float]:
    """Set-up time of ``count`` fresh processes, run one after another."""
    cmd = [
        sys.executable,
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--trace", "0",
        "--setup-only",
    ]
    out = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        out.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return out


def parse_args(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--calls", type=int, default=None, help="stop after this many calls")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv, started: float) -> int:
    """``started`` is the perf_counter reading taken before any import of
    the library, so set-up time includes importing it."""
    args = parse_args(argv)
    pool = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
    }
    if args.trace:
        metrics, report["checks"], calls = traced_run(pool, args.seconds, args.calls)
    else:
        setups = [setup_s] + _child_setups(args, SETUP_REPEATS - 1)
        calls, wall = closed_loop(pool, args.seconds, args.calls, lambda i: call(pool[i], i))
        metrics = untraced_metrics(calls, wall, statistics.median(setups))
        report["setup_s_samples"] = setups
        report["estimate_s.tail"] = tail([c.seconds for c in calls])
        # ADMM iterations done: tells a slower machine from costlier instances
        report["iterations_per_call"] = statistics.fmean(
            c.est.diagnostics.iterations if c.est is not None else 0 for c in calls
        )
    summary = failure_summary(calls, pool)
    report.update(summary)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    # A call that misses the ground truth counts as failed; the run is
    # correct when every shape meets its criterion's pass rate and, traced,
    # every traced call reproduced its untraced twin.
    correct = all(e["meets_criterion"] for e in summary["calls_by_shape"].values())
    correct = correct and all(report.get("checks", {}).values())
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(calls),
                "failed": summary["failed_frac"]["failed"],
                "metrics": report["metrics"],
            }
        )
    )
    return 0
