"""Multirate sampling systems in exact rational arithmetic.

A system is a set of uniform samplers (rate, delay, length). When every
rate ratio is rational and the scaled delays differ by integers, all
samplers can be aligned on a single finer grid; the minimal such grid,
its per-sampler expansion pairs, and the merged observation set are
computed here exactly.

Rates and delays are :class:`fractions.Fraction`; floating-point grid
specs are rejected rather than rounded, because grid existence is an
exact integrality condition that rounding would make ill-defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log

import numpy as np

from .errors import InvalidInputError, InvariantViolationError, as_fraction, as_integer, as_real
from .sampling import SelectionPattern
from .signal_model import SpikeSpectrum, torus_separation


@dataclass(frozen=True)
class Grid:
    """One uniform sampler: rate ``f`` (Hz), delay ``gamma`` (in sample
    units), and sample count ``n``."""

    f: Fraction
    gamma: Fraction
    n: int

    def __post_init__(self):
        object.__setattr__(self, "f", as_fraction(self.f, "grid rate"))
        object.__setattr__(self, "gamma", as_fraction(self.gamma, "grid delay"))
        object.__setattr__(self, "n", as_integer(self.n, "grid length", least=1))
        if self.f <= 0:
            raise InvalidInputError("grid rate must be positive")


@dataclass(frozen=True)
class MultirateSystem:
    grids: tuple

    def __post_init__(self):
        grids = tuple(self.grids)
        if not grids:
            raise InvalidInputError("a multirate system needs at least one grid")
        object.__setattr__(self, "grids", grids)

    @property
    def p(self) -> int:
        return len(self.grids)

    @property
    def m_tilde(self) -> int:
        return sum(g.n for g in self.grids)


@dataclass(frozen=True)
class CommonGrid:
    """The minimal uniform grid supporting every sampler of a system.

    ``expansions[j] = (l_j, a_j)`` with ``f0 = l_j f_j`` and
    ``gamma0 = l_j gamma_j - a_j``; sampler j's k-th sample lands on net
    index ``l_j k - a_j``. ``duplicate_groups`` records, for each kept
    index, which (grid, sample) pairs acquired that instant.
    """

    f0: Fraction
    gamma0: Fraction
    n0: int
    expansions: tuple
    observation_set: SelectionPattern
    duplicate_groups: tuple

    @property
    def m(self) -> int:
        return self.observation_set.m


def _rational_lcm(values: list[Fraction]) -> Fraction:
    """Least positive rational that is an integer multiple of every value."""
    out = values[0]
    for v in values[1:]:
        out = Fraction(
            math.lcm(out.numerator, v.numerator), gcd(out.denominator, v.denominator)
        )
    return out


def common_grid(system: MultirateSystem) -> CommonGrid:
    """Compute the minimal common supporting grid of a system.

    The construction takes the rational lcm of the rates, then the
    smallest integer magnification making all scaled delays differ by
    integers. For exact rational inputs both steps always succeed.
    """
    rates = [g.f for g in system.grids]
    f_base = _rational_lcm(rates)
    l_base = [f_base / f for f in rates]
    if any(l.denominator != 1 for l in l_base):
        raise InvariantViolationError("rational lcm failed to clear rate ratios")
    scaled = [l * g.gamma for l, g in zip(l_base, system.grids)]
    diffs = [d - scaled[0] for d in scaled]
    t0 = math.lcm(*(d.denominator for d in diffs)) if diffs else 1

    l_all = [t0 * int(l) for l in l_base]
    f0 = t0 * f_base
    vals = [t0 * d for d in scaled]
    gamma0 = max(vals)
    a_all = [v - gamma0 for v in vals]
    if any(a.denominator != 1 for a in a_all):
        raise InvariantViolationError("scaled delays failed to differ by integers")
    a_all = [int(a) for a in a_all]
    if gcd(*(abs(a) for a in a_all), *l_all) != 1:
        raise InvariantViolationError("minimal grid violates gcd normalization")

    # Last representable sample index is max over grids; sizing is index+1.
    n0 = max(l * (g.n - 1) - a for l, a, g in zip(l_all, a_all, system.grids)) + 1
    expansions = tuple(zip(l_all, a_all))
    # The net indices and the (grid, sample) pairs merged onto each.
    groups: dict[int, list[tuple[int, int]]] = {}
    for j, (grid, (l_j, a_j)) in enumerate(zip(system.grids, expansions)):
        for k in range(grid.n):
            q = l_j * k - a_j
            if not 0 <= q < n0:
                raise InvariantViolationError(
                    f"grid {j} sample {k} maps to index {q} outside [0, {n0 - 1}]"
                )
            groups.setdefault(q, []).append((j, k))
    indices = tuple(sorted(groups))
    if indices[0] != 0:
        raise InvariantViolationError("minimal common grid must start on a sample")
    return CommonGrid(
        f0=f0,
        gamma0=gamma0,
        n0=n0,
        expansions=expansions,
        observation_set=SelectionPattern(indices=indices, ambient=n0),
        duplicate_groups=tuple(tuple(groups[q]) for q in indices),
    )


def align_measurements(
    system: MultirateSystem, per_grid_samples, cg: CommonGrid
) -> np.ndarray:
    """Merge per-grid sample vectors into the net observation vector.

    Entries follow ascending net-index order; instants acquired several
    times are averaged (identical when noiseless, variance-reducing under
    noise).
    """
    if len(per_grid_samples) != system.p:
        raise InvalidInputError(
            f"expected {system.p} sample vectors, got {len(per_grid_samples)}"
        )
    samples = [np.asarray(v, dtype=complex) for v in per_grid_samples]
    for j, (grid, v) in enumerate(zip(system.grids, samples)):
        if v.shape != (grid.n,):
            raise InvalidInputError(
                f"grid {j} expects {grid.n} samples, got shape {v.shape}"
            )
    y = np.empty(cg.m, dtype=complex)
    for t, group in enumerate(cg.duplicate_groups):
        y[t] = np.mean([samples[j][k] for j, k in group])
    return y


def _separation_ok(spec: SpikeSpectrum, f: Fraction, n: int) -> bool:
    """Reduced-frequency separation at one sampler: 2.52 / (n - 1).

    A single spike has no separation constraint. Colliding spikes
    (equal frequencies modulo the rate) give separation 0 and fail.
    """
    if spec.s < 2:
        return True
    if n < 2:
        return False
    reduced = np.mod(spec.freqs / float(f), 1.0)
    return torus_separation(reduced) >= 2.52 / (n - 1)


def check_strong_condition(system: MultirateSystem, spec: SpikeSpectrum) -> bool:
    """Every sampler individually satisfies the separation bound and n > 2000."""
    return all(
        g.n > 2000 and _separation_ok(spec, g.f, g.n) for g in system.grids
    )


def check_weak_condition(
    system: MultirateSystem, spec: SpikeSpectrum, cg: CommonGrid
) -> int | None:
    """First grid index satisfying the one-sampler recoverability branch.

    Requires separation and n > 2000 at that sampler plus enough net
    measurements on the common grid: ``cg.m >= (l_j + 1) s``. Returns the
    0-based grid index or ``None``.
    """
    for j, (grid, (l_j, _)) in enumerate(zip(system.grids, cg.expansions)):
        if (
            grid.n > 2000
            and _separation_ok(spec, grid.f, grid.n)
            and cg.m >= (l_j + 1) * spec.s
        ):
            return j
    return None


def random_bound_report(n: int, m: int, s: int, delta: float, C: float) -> bool:
    """Literal check of ``m >= C max{log^2(n/d), s log(s/d) log(n/d)}``.

    Natural logarithms; any base change is absorbed by the caller-supplied
    constant ``C``, which the underlying theory leaves unspecified.
    """
    n, m, s = as_integer(n, "n", least=1), as_integer(m, "m", least=0), as_integer(s, "s", least=1)
    delta, C = as_real(delta, "delta", "(0, 1)"), as_real(C, "C", "(0, inf)")
    bound = C * max(log(n / delta) ** 2, s * log(s / delta) * log(n / delta))
    return m >= bound

