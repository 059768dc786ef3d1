"""Per-layer timing of ``estimate()`` from outside the library.

:func:`traced` swaps the module attributes that ``estimate()`` looks up at
call time for thin wrappers and restores them on exit. Every wrapper opens a
span on a stack, so a span's self time is its duration minus the time of the
spans opened inside it. The wrappers only time and count; arguments and
return values pass through untouched.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute) -> span name. poly_eval is reached both from
# localization (grid and peak evaluation) and from inside trigops
# (dense_sup_norm and its golden-section refinement).
SPANS = {
    ("spectral_sdp.localization", "solve"): "solver.solve",
    ("spectral_sdp.solver", "psd_project"): "solver.eigh",
    ("spectral_sdp.solver", "compute_partition"): "sampling.partition",
    ("spectral_sdp.localization", "locate_frequencies"): "localization.locate",
    ("spectral_sdp.localization", "recover_amplitudes"): "localization.amplitude",
    ("spectral_sdp.localization", "selection_matrix"): "localization.dual_poly",
    ("spectral_sdp.localization", "dual_polynomial"): "localization.dual_poly",
    ("spectral_sdp.localization", "dense_sup_norm"): "trigops.sup_norm",
    ("spectral_sdp.localization", "poly_eval"): "trigops.poly_eval",
    ("spectral_sdp.trigops", "poly_eval"): "trigops.poly_eval",
    ("spectral_sdp.multirate", "common_grid"): "multirate.common_grid",
    ("spectral_sdp.multirate", "align_measurements"): "multirate.align",
}

ROOT = "estimate"


def _phase_bytes(q, nu) -> int:
    """Size of ``poly_eval``'s complex128 phase matrix, points x coefficients."""
    return 16 * np.size(nu) * np.size(q)


def _pairs(pattern) -> int:
    """Index pairs ``compute_partition`` groups: m(m+1)/2."""
    return pattern.m * (pattern.m + 1) // 2


class Tracer:
    """Accumulates total time, self time and call counts per span name, plus
    the computed bytes of the dense phase matrices ``poly_eval`` builds and
    the pair count of every partition built."""

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.phase_bytes = 0
        self.pairs = 0
        self._child_time: list[float] = []  # one entry per open span

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            children = self._child_time.pop()
            self.total[name] += elapsed
            self.self_time[name] += elapsed - children
            self.calls[name] += 1
            if self._child_time:
                self._child_time[-1] += elapsed

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if name == "trigops.poly_eval":
                self.phase_bytes += _phase_bytes(*args, **kwargs)
            elif name == "sampling.partition":
                self.pairs += _pairs(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block."""
    saved = []
    try:
        for (module_name, attr), name in SPANS.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
