"""Seeded problem instances for the benchmark and the per-call correctness gate.

Each workload is a list of *shapes*; a shape turns a random generator and
three uniforms for the amplitude magnitudes into one :class:`Instance`: the
arguments ``estimate()`` receives (samples, pattern or multirate system,
rate, ``EstimationConfig``) plus the ground truth, frequency tolerance and
pass rate the gate checks against. The truth never reaches the program. The shapes and tolerances are those of the library's
acceptance criteria 5, 6, 7 and 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import spectral_sdp as ss


@dataclass(frozen=True)
class Instance:
    shape: str
    args: tuple  # positional arguments of ``estimate()``
    truth: np.ndarray  # true frequencies, Hz
    rate: float  # frequencies are identifiable modulo this rate, Hz
    tol: float  # largest accepted wrap-around frequency error, Hz
    pass_rate: float  # share of the shape's calls its criterion needs to pass


def _separated(rng: np.random.Generator, s: int, min_sep: float) -> np.ndarray:
    while True:
        fr = np.sort(rng.random(s))
        if s < 2 or ss.torus_separation(fr) >= min_sep:
            return fr


def _spikes(rng: np.random.Generator, u: np.ndarray, s: int, min_sep: float) -> ss.SpikeSpectrum:
    """``s`` separated spikes with magnitudes ``0.5 + u``, random phases."""
    freqs = _separated(rng, s, min_sep)
    amps = (0.5 + u[:s]) * np.exp(2j * np.pi * rng.random(s))
    return ss.SpikeSpectrum(freqs=freqs, amps=amps)


def _full(n: int) -> ss.SelectionPattern:
    return ss.SelectionPattern(indices=tuple(range(n)), ambient=n)


def full_noiseless(rng: np.random.Generator, u: np.ndarray) -> Instance:
    """Criterion 5: full observation, n=64, s=3; every call must pass."""
    n = 64
    sig = _spikes(rng, u, 3, 4 / (n - 1))
    y = ss.synthesize_uniform(sig, 1.0, n)
    cfg = ss.EstimationConfig(rho=30.0)
    return Instance("full-64", (y, _full(n), 1.0, cfg), sig.freqs, 1.0, 1e-4, 1.0)


def _random_selection(
    rng: np.random.Generator, u: np.ndarray, n: int, m: int, label: str
) -> Instance:
    # m indices drawn without replacement rather than each kept with
    # probability m/n: an ADMM step costs O(m^3), so a varying m would make
    # the timing vary from instance to instance for no algorithmic reason.
    pattern = ss.SelectionPattern(
        indices=tuple(int(i) for i in np.sort(rng.choice(n, size=m, replace=False))),
        ambient=n,
    )
    sig = _spikes(rng, u, 2, 4 / (n - 1))
    y = ss.synthesize_uniform(sig, 1.0, n)[list(pattern.indices)]
    cfg = ss.EstimationConfig(rho=15.0, tol_primal=5e-9)
    return Instance(label, (y, pattern, 1.0, cfg), sig.freqs, 1.0, 1e-3, 0.9)


def random_selection_128(rng: np.random.Generator, u: np.ndarray) -> Instance:
    """Criterion 6: m=48 of n=128 samples (p=0.375), s=2; 18 of 20 calls
    must pass."""
    return _random_selection(rng, u, 128, 48, "random-128")


def random_selection_2048(rng: np.random.Generator, u: np.ndarray) -> Instance:
    """Criterion 6's settings at m=61 of n=2048 samples (p=0.03)."""
    return _random_selection(rng, u, 2048, 61, "random-2048")


_TWO_GRID = ss.MultirateSystem(
    grids=(
        ss.Grid(f=Fraction(1), gamma=Fraction(0), n=24),
        ss.Grid(f=Fraction(1), gamma=Fraction(1, 2), n=24),
    )
)


def two_grid(rng: np.random.Generator, u: np.ndarray) -> Instance:
    """Criterion 7: two rate-1 samplers half a sample apart, one spike at
    0.7 Hz, above either sampler's Nyquist rate but below the joint one;
    every call must pass."""
    amp = (0.5 + u[0]) * np.exp(2j * np.pi * rng.random())
    sig = ss.SpikeSpectrum(freqs=np.array([0.7]), amps=np.array([amp]))
    ys = [ss.synthesize_grid(sig, g) for g in _TWO_GRID.grids]
    cfg = ss.EstimationConfig(rho=30.0, tol_primal=5e-9)
    return Instance("two-grid-2x24", (ys, _TWO_GRID, None, cfg), sig.freqs, 2.0, 1e-3, 1.0)


def _ast(rng: np.random.Generator, tau_factor: float, label: str) -> Instance:
    """Criterion 11's signals: full observation n=128, s=3 unit-modulus
    spikes at 10 dB SNR, denoised with ``tau = tau_factor sigma sqrt(n log n)``.
    The criterion bounds the median error, so a call passes within that
    bound and half must pass."""
    n, s = 128, 3
    freqs = _separated(rng, s, 4 / (n - 1))
    amps = np.exp(2j * np.pi * rng.random(s))
    clean = ss.synthesize_uniform(ss.SpikeSpectrum(freqs=freqs, amps=amps), 1.0, n)
    sigma = float(np.sqrt((np.abs(amps) ** 2).sum() / 10.0))
    y = ss.add_noise(clean, ss.NoiseSpec(sigma=sigma, seed=int(rng.integers(2**63 - 1))))
    cfg = ss.EstimationConfig(tau=tau_factor * sigma * np.sqrt(n * np.log(n)), rho=100.0)
    return Instance(label, (y, _full(n), 1.0, cfg), freqs, 1.0, 5e-3, 0.5)


def ast_denoise(rng: np.random.Generator, u: np.ndarray) -> Instance:
    """Criterion 11's signals with twice its regularization, ``tau_factor=3``.
    At criterion 11's 1.5, about one call in a hundred returns an extra
    low-amplitude peak (a count mismatch); at 3 none did in 720 seeded
    calls. The amplitudes have unit modulus, so ``u`` is unused."""
    return _ast(rng, 3.0, "ast-128")


def ast_criterion_11(rng: np.random.Generator, u: np.ndarray) -> Instance:
    """Criterion 11 exactly, ``tau_factor=1.5``; ``u`` is unused."""
    return _ast(rng, 1.5, "ast-128-c11")


# Workload -> shapes, interleaved in this order. Why each workload exists
# is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "exact-small": (full_noiseless, random_selection_128, two_grid),
    "ast-denoise": (ast_denoise,),
    "long-sparse": (random_selection_2048,),
    "ast-criterion-11": (ast_criterion_11,),
}

# Generator stream for the warm-up instances, kept apart from every seed's
# stream so set-up work does not depend on --seed.
_WARMUP_KEY = 0x5EED


def instances(workload: str, seed: int, count: int) -> list[Instance]:
    """The first ``count`` instances of a workload; instance ``i`` depends
    only on ``(workload, seed, i)``, not on ``count``.

    Amplitude magnitudes are uniform on [0.5, 1.5] as in the acceptance
    tests, drawn antithetically: the k-th and (k+1)-th instance of a shape
    (k even) use ``u`` and ``1 - u``. The solver's stopping rule is absolute,
    so its iteration count grows with the data scale; with independent
    draws the mean cost of a run swung with the seed. Each pair keeps one
    large and one small scale, so the scale dependence still shows.
    """
    shapes = WORKLOADS[workload]
    key = list(WORKLOADS).index(workload)
    children = np.random.SeedSequence([seed, key]).spawn(count)
    out = []
    for i, child in enumerate(children):
        j, k = i % len(shapes), i // len(shapes)
        u = np.random.default_rng([seed, key, j, k // 2]).random(3)
        out.append(shapes[j](np.random.default_rng(child), 1.0 - u if k % 2 else u))
    return out


def warmup_instances(workload: str) -> list[Instance]:
    """One fixed instance of each of the workload's shapes."""
    key = list(WORKLOADS).index(workload)
    children = np.random.SeedSequence([_WARMUP_KEY, key]).spawn(len(WORKLOADS[workload]))
    return [
        shape(np.random.default_rng(child), np.full(3, 0.5))
        for shape, child in zip(WORKLOADS[workload], children)
    ]


def wrap_error(est_freqs: np.ndarray, inst: Instance) -> float:
    """Worst wrap-around distance (Hz) from a true frequency to its nearest
    estimate, modulo the rate the frequencies are identifiable at."""
    r = inst.rate
    d = ((est_freqs[None, :] - inst.truth[:, None]) / r + 0.5) % 1.0 - 0.5
    return float(np.max(np.min(np.abs(d), axis=1)) * r)


def gate(est, inst: Instance) -> str | None:
    """Failure reason of one returned estimate, or None when it passes.

    Reasons, in the order checked: ``not-converged``, ``count-mismatch``
    (located count differs from the true count) and ``frequency-error``
    (worst wrap-around error above the instance's tolerance). A call that
    raised is classified by the caller as ``raised:<ErrorClass>``.
    """
    if not est.diagnostics.converged:
        return "not-converged"
    if est.freqs.size != inst.truth.size:
        return "count-mismatch"
    if wrap_error(np.asarray(est.freqs, dtype=float), inst) > inst.tol:
        return "frequency-error"
    return None
