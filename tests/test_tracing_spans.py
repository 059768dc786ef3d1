"""The traced benchmark finds every library attribute it wraps.

``perfbench.tracing`` swaps module attributes of ``spectral_sdp`` for timing
wrappers by name, so renaming or removing one of them breaks the benchmark's
traced runs. Its own tests take minutes and sit outside the default test
paths; this check is immediate.
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracing import SPANS, Tracer, traced  # noqa: E402
from spectral_sdp import (  # noqa: E402
    EstimationConfig,
    SelectionPattern,
    SpikeSpectrum,
    estimate,
    synthesize_grid,
    synthesize_uniform,
)


def test_every_span_resolves_to_a_callable():
    for module_name, attr in SPANS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_sized_spans_keep_the_signature_the_tracer_unpacks():
    # The tracer reads poly_eval(q, nu) and compute_partition(pattern).
    poly_eval = importlib.import_module("spectral_sdp.trigops").poly_eval
    assert list(inspect.signature(poly_eval).parameters)[:2] == ["q", "nu"]
    partition = importlib.import_module("spectral_sdp.solver").compute_partition
    assert list(inspect.signature(partition).parameters) == ["pattern"]


def test_estimate_reaches_every_traced_span(two_grid_system):
    # A span whose call moved off its wrapped attribute would read 0 in the
    # benchmark without any error.
    sig = SpikeSpectrum(freqs=np.array([0.11, 0.38]), amps=np.array([1 + 0.4j, -0.6 + 0.8j]))
    shifted = SelectionPattern(indices=tuple(range(3, 24)), ambient=24)
    y = synthesize_uniform(sig, 1.0, 24)[list(shifted.indices)]
    mr_sig = SpikeSpectrum(freqs=np.array([0.9, 2.3]), amps=np.array([1.0, 1j]))
    per_grid = [synthesize_grid(mr_sig, g) for g in two_grid_system.grids]
    with traced(Tracer()) as tracer:
        ests = [
            estimate(y, shifted, 1.0, EstimationConfig(rho=20.0)),
            estimate(per_grid, two_grid_system, config=EstimationConfig(rho=10.0)),
        ]
    for name in (
        "sampling.partition",
        "solver.solve",
        "trigops.sup_norm",
        "localization.locate",
        "localization.amplitude",
        "localization.dual_poly",
    ):
        assert tracer.calls[name] == len(ests), name
    assert tracer.calls["multirate.align"] == 1
    # One projection per iteration, through the module attribute.
    assert tracer.calls["solver.eigh"] == sum(e.diagnostics.iterations for e in ests)
