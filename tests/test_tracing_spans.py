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

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracing import SPANS  # noqa: E402


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
