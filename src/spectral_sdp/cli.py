"""Command-line front end: synthesis, sub-sampling, grid analysis,
estimation, benchmarking, and certificate verification.

One JSON config file (``"schema": 1``) drives every subcommand; command
line flags override config fields, and the environment variable
``SPECTRAL_SDP_SEED`` overrides the config seed (precedence:
flag > env > config > default). Grid rates and delays are exact strings
("num/den"), complex numbers are {re, im} objects, and sample files are
CSV with header ``index,re,im``. All writes are atomic (temp + rename).
Every number is read once, by :mod:`spectral_sdp.errors`, under the name
it was given by: ``--max-iter`` for a flag, ``solver.max_iter`` for a
config key.

Exit codes: 0 success, 1 usage/input error, 2 numerical non-convergence,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import (
    InvalidInputError,
    InvariantViolationError,
    NumericalError,
    SpectralSDPError,
    as_fraction,
    as_integer,
    as_real,
)
from .localization import EstimationConfig, estimate, verify_certificate
from .multirate import Grid, MultirateSystem, align_measurements, common_grid
from .sampling import SelectionPattern, random_selection
from .signal_model import (
    RNG_ALGORITHM,
    NoiseSpec,
    SpikeSpectrum,
    add_noise,
    synthesize_grid,
    synthesize_uniform,
)
from .solver import assemble_problem, solve
from .trigops import grid_modulus, grid_size

SCHEMA_VERSION = 1
ENV_SEED = "SPECTRAL_SDP_SEED"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOCONV = 2
EXIT_INVARIANT = 3


# ---------- small IO helpers ----------

def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _shaped(kind: type, value, what: str):
    """``value`` when it is a JSON array (``kind`` list) or object (dict);
    otherwise an input error naming ``what``."""
    if not isinstance(value, kind):
        expected = "an array" if kind is list else "an object"
        raise InvalidInputError(f"{what}: expected {expected}, got {value!r}")
    return value


def _write_samples_csv(path: str, y: np.ndarray) -> None:
    lines = ["index,re,im"]
    lines += [f"{k},{float(v.real)!r},{float(v.imag)!r}" for k, v in enumerate(y)]
    _atomic_write(path, "\n".join(lines) + "\n")


def _read_samples_csv(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "index,re,im":
            raise InvalidInputError(f"{path}: expected header 'index,re,im'")
        values = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise InvalidInputError(f"{path}:{lineno}: expected 3 fields")
            if as_integer(parts[0], f"{path}:{lineno}") != len(values):
                raise InvalidInputError(f"{path}:{lineno}: expected index {len(values)}")
            re, im = (as_real(v, f"{path}:{lineno}", "(-inf, inf)") for v in parts[1:])
            values.append(complex(re, im))
    return np.array(values, dtype=complex)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return _shaped(dict, json.load(fh), path)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: invalid JSON ({exc})") from exc


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _complex_list(values) -> list:
    return [{"re": float(v.real), "im": float(v.imag)} for v in values]


def _parse_list(read, items, what: str) -> list:
    """``read`` (an :mod:`~spectral_sdp.errors` reader) of every entry of the
    array ``items``, entry ``j`` named ``what[j]``."""
    return [read(x, f"{what}[{j}]") for j, x in enumerate(_shaped(list, items, what))]


def _parse_complex_list(items, what: str) -> np.ndarray:
    out = []
    for j, d in enumerate(_shaped(list, items, what)):
        d = _shaped(dict, d, f"{what}[{j}]")
        out.append(complex(*(as_real(d[k], f"{what}[{j}].{k}") for k in ("re", "im"))))
    return np.array(out, dtype=complex)


# ---------- config handling ----------

def _get(cfg: dict, path: str, default=None):
    node = cfg
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return default
        node = node[key]
    return node


# The EstimationConfig fields of the solver section, and their readers with
# the ranges ProblemSpec applies; sigma comes from noise.sigma or --sigma.
_CONFIG_FIELDS = {
    "tau": lambda value, what: as_real(value, what, "[0, inf)"),
    "rho": lambda value, what: as_real(value, what, "(0, inf)"),
    "max_iter": lambda value, what: as_integer(value, what, least=1),
    "tol_primal": lambda value, what: as_real(value, what, "[0, inf)"),
    "tol_gap": lambda value, what: as_real(value, what, "[0, 1)"),
}

# The keys each config section, an object, may hold.
_SECTION_KEYS = {
    "signal": {"freqs_hz", "amps"},
    "noise": {"sigma"},
    "sampling": {"f", "n", "indices", "keep_prob", "grids"},
    "solver": _CONFIG_FIELDS.keys(),
    "output": {"dir", "prefix"},
}
_GRID_KEYS = {"f", "gamma", "n"}  # of each entry of sampling.grids


def _load_config(args) -> dict:
    """The config file; an unknown key, or a section or grid that is not an
    object, is an input error naming it."""
    cfg = _load_json(args.config)
    for key in sorted(cfg.keys() - {"schema", "scenario", "seed", *_SECTION_KEYS}):
        raise InvalidInputError(f"{args.config}: unknown top-level key {key!r}")
    grids = _shaped(list, _get(cfg, "sampling.grids") or [], "sampling.grids")
    objects = [(name, cfg[name], _SECTION_KEYS[name]) for name in sorted(cfg.keys() & _SECTION_KEYS)]
    objects += [(f"sampling.grids[{j}]", g, _GRID_KEYS) for j, g in enumerate(grids)]
    for name, node, keys in objects:
        for key in sorted(_shaped(dict, node, name).keys() - keys):
            raise InvalidInputError(f"{name}.{key}: unknown key")
    if cfg.get("schema") != SCHEMA_VERSION:
        raise InvalidInputError(
            f"{args.config}: unsupported schema {cfg.get('schema')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    if cfg.get("scenario") not in ("full", "selection", "random-selection", "multirate"):
        raise InvalidInputError(f"unknown scenario {cfg.get('scenario')!r}")
    return cfg


def _resolve_seed(cfg: dict, args) -> int:
    source, value = "seed", cfg.get("seed", 0)
    if os.environ.get(ENV_SEED) is not None:
        source, value = ENV_SEED, os.environ[ENV_SEED]
    if getattr(args, "seed", None) is not None:
        source, value = "--seed", args.seed
    return as_integer(value, source, least=0)


def _resolve_sigma(cfg: dict, args) -> float:
    source, value = "noise.sigma", _get(cfg, "noise.sigma", 0.0)
    if getattr(args, "sigma", None) is not None:
        source, value = "--sigma", args.sigma
    return as_real(value, source, "[0, inf)")


def _out_paths(cfg: dict, args):
    out_dir = getattr(args, "out_dir", None) or _get(cfg, "output.dir", ".")
    prefix = getattr(args, "prefix", None) or _get(cfg, "output.prefix", "run")
    os.makedirs(out_dir, exist_ok=True)
    return out_dir, prefix


def _signal_from_config(cfg: dict) -> SpikeSpectrum:
    sig = cfg.get("signal")
    if not sig:
        raise InvalidInputError("config has no 'signal' section")
    freqs = np.array(_parse_list(as_real, sig["freqs_hz"], "signal.freqs_hz"))
    amps = _parse_complex_list(sig["amps"], "signal.amps")
    return SpikeSpectrum(freqs=freqs, amps=amps)


def _system_from_config(cfg: dict) -> MultirateSystem:
    grids_cfg = _get(cfg, "sampling.grids")
    if not grids_cfg:
        raise InvalidInputError("multirate scenario needs sampling.grids")
    grids = tuple(
        Grid(
            f=as_fraction(g["f"], f"sampling.grids[{j}].f"),
            gamma=as_fraction(g.get("gamma", 0), f"sampling.grids[{j}].gamma"),
            n=as_integer(g["n"], f"sampling.grids[{j}].n"),
        )
        for j, g in enumerate(grids_cfg)
    )
    return MultirateSystem(grids=grids)


def _rate_from_config(cfg: dict) -> float:
    """``sampling.f``: a JSON number, or an exact ``"num/den"`` string."""
    f = _get(cfg, "sampling.f")
    if f is None:
        raise InvalidInputError("config needs sampling.f")
    return as_real(as_fraction(f, "sampling.f") if isinstance(f, str) else f, "sampling.f")


def _child_seed(seed: int, key: int) -> int:
    child = np.random.SeedSequence(seed, spawn_key=(key,))
    return int(child.generate_state(1, dtype=np.uint64)[0])


def _pattern_from_config(cfg: dict, seed: int) -> SelectionPattern:
    scenario = cfg["scenario"]
    n = as_integer(_get(cfg, "sampling.n", 0), "sampling.n")
    if scenario == "full":
        return SelectionPattern(indices=tuple(range(n)), ambient=n)
    if scenario == "selection":
        idx = _get(cfg, "sampling.indices")
        if not idx:
            raise InvalidInputError("selection scenario needs sampling.indices")
        return SelectionPattern(
            indices=tuple(_parse_list(as_integer, idx, "sampling.indices")),
            ambient=n,
        )
    if scenario == "random-selection":
        p = _get(cfg, "sampling.keep_prob")
        if p is None:
            raise InvalidInputError("random-selection scenario needs sampling.keep_prob")
        return random_selection(n, as_real(p, "sampling.keep_prob"), _child_seed(seed, 0))
    raise InvalidInputError(f"no selection pattern for scenario {scenario!r}")


def _sampler(cfg: dict, seed: int):
    """``(sampler, f)``: the config's :class:`MultirateSystem` with no rate,
    or its :class:`SelectionPattern` with ``sampling.f``."""
    if cfg["scenario"] == "multirate":
        return _system_from_config(cfg), None
    return _pattern_from_config(cfg, seed), _rate_from_config(cfg)


def _estimation_config(cfg: dict, args, sigma: float) -> EstimationConfig:
    """``sigma`` as read, and only the fields a flag or the solver section
    sets (the flag wins), each read under the name it was given by, like
    ``--max-iter`` or ``solver.max_iter``; ``EstimationConfig`` holds the
    defaults of the rest."""
    solver = cfg.get("solver", {})
    fields = {}
    for name, read in _CONFIG_FIELDS.items():
        source, value = f"solver.{name}", solver.get(name)
        if getattr(args, name, None) is not None:
            source, value = "--" + name.replace("_", "-"), getattr(args, name)
        if value is not None:
            fields[name] = read(value, source)
    return EstimationConfig(sigma=sigma, **fields)


# ---------- synthesis ----------

def _synthesize(cfg: dict, seed: int, sigma: float):
    """Returns (per-grid sample vectors, truth dict). Non-multirate
    scenarios produce one raw uniform vector."""
    spec = _signal_from_config(cfg)
    scenario = cfg["scenario"]
    truth = {
        "schema": SCHEMA_VERSION,
        "scenario": scenario,
        "freqs_hz": [float(x) for x in spec.freqs],
        "amps": _complex_list(spec.amps),
        "sigma": sigma,
        "seed": seed,
        "rng": RNG_ALGORITHM,
    }
    if scenario == "multirate":
        system = _system_from_config(cfg)
        outs = []
        for j, grid in enumerate(system.grids):
            y = synthesize_grid(spec, grid)
            y = add_noise(y, NoiseSpec(sigma=sigma, seed=_child_seed(seed, 1 + j)))
            outs.append(y)
        truth["grids"] = [
            {"f": str(g.f), "gamma": str(g.gamma), "n": g.n} for g in system.grids
        ]
        return outs, truth
    f = _rate_from_config(cfg)
    n = as_integer(_get(cfg, "sampling.n", 0), "sampling.n")
    y = synthesize_uniform(spec, f, n)
    y = add_noise(y, NoiseSpec(sigma=sigma, seed=_child_seed(seed, 1)))
    truth["f_hz"] = f
    truth["n"] = n
    return [y], truth


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    seed = _resolve_seed(cfg, args)
    sigma = _resolve_sigma(cfg, args)
    out_dir, prefix = _out_paths(cfg, args)
    vectors, truth = _synthesize(cfg, seed, sigma)
    if cfg["scenario"] == "multirate":
        for j, y in enumerate(vectors):
            _write_samples_csv(os.path.join(out_dir, f"{prefix}_grid{j}.csv"), y)
    else:
        _write_samples_csv(os.path.join(out_dir, f"{prefix}_samples.csv"), vectors[0])
    truth["config_sha256"] = _config_hash(cfg)
    _atomic_write(os.path.join(out_dir, f"{prefix}_truth.json"), _dump_json(truth))
    print(f"wrote {len(vectors)} sample file(s) under {out_dir}/{prefix}_*")
    return EXIT_OK


# ---------- sub-sampling ----------

def _load_inputs(args, sampler, out_dir: str, prefix: str):
    """The samples ``estimate()`` takes with ``sampler``: the per-grid vectors
    of a multirate system, or the samples a pattern keeps from the raw
    uniform acquisition."""
    in_prefix = getattr(args, "input_prefix", None) or prefix
    multirate = isinstance(sampler, MultirateSystem)
    if multirate:
        names = [f"{in_prefix}_grid{j}.csv" for j in range(sampler.p)]
    else:
        names = [f"{in_prefix}_samples.csv"]
    paths = [os.path.join(out_dir, name) for name in names]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise InvalidInputError(f"missing input file(s): {', '.join(missing)}")
    vectors = [_read_samples_csv(p) for p in paths]
    if multirate:
        return vectors
    raw = vectors[0]
    if raw.size != sampler.ambient:
        raise InvalidInputError(
            f"raw file has {raw.size} samples, config expects {sampler.ambient}"
        )
    return raw[list(sampler.indices)]


def cmd_sample(args) -> int:
    cfg = _load_config(args)
    seed = _resolve_seed(cfg, args)
    out_dir, prefix = _out_paths(cfg, args)
    sampler, _ = _sampler(cfg, seed)
    y = _load_inputs(args, sampler, out_dir, prefix)
    meta = {"schema": SCHEMA_VERSION, "scenario": cfg["scenario"], "seed": seed}
    pattern = sampler
    if isinstance(sampler, MultirateSystem):
        cg = common_grid(sampler)
        y = align_measurements(sampler, y, cg)
        pattern = cg.observation_set
        meta["f0"] = str(cg.f0)
        meta["gamma0"] = str(cg.gamma0)
    meta["ambient_n"] = pattern.ambient
    meta["indices"] = list(pattern.indices)
    _write_samples_csv(os.path.join(out_dir, f"{prefix}_net.csv"), y)
    _atomic_write(os.path.join(out_dir, f"{prefix}_pattern.json"), _dump_json(meta))
    print(f"net observation vector of length {y.size} written")
    return EXIT_OK


# ---------- grid report ----------

def cmd_check_grid(args) -> int:
    cfg = _load_config(args)
    if cfg["scenario"] != "multirate":
        raise InvalidInputError("check-grid needs a multirate scenario config")
    system = _system_from_config(cfg)
    cg = common_grid(system)
    ratio = Fraction(cg.m, cg.n0)
    out = {
        "schema": SCHEMA_VERSION,
        "exists": True,
        "f0": str(cg.f0),
        "gamma0": str(cg.gamma0),
        "n0": cg.n0,
        "expansions": [{"l": l, "a": a} for l, a in cg.expansions],
        "indices": list(cg.observation_set.indices),
        "m": cg.m,
        "m_tilde": system.m_tilde,
        "ratio": str(ratio),
        "ratio_float": float(ratio),
    }
    print(
        f"common grid: f0={out['f0']} Hz, gamma0={out['gamma0']}, n0={cg.n0}, "
        f"m={cg.m}, m_tilde={system.m_tilde}, ratio={ratio}"
    )
    out_dir, prefix = _out_paths(cfg, args)
    _atomic_write(os.path.join(out_dir, f"{prefix}_grid_report.json"), _dump_json(out))
    return EXIT_OK


# ---------- estimation ----------

def _dual_poly_tsv(q: np.ndarray) -> str:
    """``|Q|`` on the grid localization reads it on."""
    points = grid_size(q.size)
    nu = np.arange(points) / points
    mags = grid_modulus(q, points)
    lines = ["nu\tabs_q"] + [
        f"{float(x)!r}\t{float(v)!r}" for x, v in zip(nu, mags)
    ]
    return "\n".join(lines) + "\n"


def cmd_estimate(args) -> int:
    cfg = _load_config(args)
    seed = _resolve_seed(cfg, args)
    sigma = _resolve_sigma(cfg, args)
    out_dir, prefix = _out_paths(cfg, args)
    sampler, f = _sampler(cfg, seed)
    y = _load_inputs(args, sampler, out_dir, prefix)
    result = estimate(y, sampler, f, config=_estimation_config(cfg, args, sigma))
    diag = result.diagnostics
    record = {
        "schema": SCHEMA_VERSION,
        "estimate": {
            "freqs_hz": [float(x) for x in result.freqs],
            "amps": _complex_list(result.amps),
        },
        "dual_poly": _complex_list(result.dual_poly),
        "diagnostics": {
            "iterations": diag.iterations,
            "rejected_extrapolations": diag.rejected_extrapolations,
            "full_eigh_iterations": diag.full_eigh_iterations,
            "history_depth": diag.history_depth,
            "rank_deficit": diag.rank_deficit,
            "newton_fallbacks": diag.newton_fallbacks,
            "residuals": dict(zip(("primal", "constraint"), diag.final_residuals)),
            "sup_norm": diag.sup_norm,
            "peak_moduli": [float(x) for x in diag.peak_moduli],
            "amplitude_residual": diag.residual,
            "converged": diag.converged,
            "reliable": diag.reliable,
            "tau": diag.tau,
            "dual_objective": diag.dual_objective,
            "stopped_on": diag.stopped_on,
            "duality_gap": {  # null after max_iter
                "lower": diag.gap_lower if np.isfinite(diag.gap_lower) else None,
                "upper": diag.gap_upper if np.isfinite(diag.gap_upper) else None,
            },
        },
        "frame": {
            "solve_rate_hz": diag.solve_rate_hz,
            "time_shift_s": diag.time_shift_s,
        },
        "provenance": {
            "config_sha256": _config_hash(cfg),
            "seed": seed,
            "package": f"spectral-sdp {__version__}",
            "rng": RNG_ALGORITHM,
        },
    }
    _atomic_write(os.path.join(out_dir, f"{prefix}_result.json"), _dump_json(record))
    _atomic_write(
        os.path.join(out_dir, f"{prefix}_dualpoly.tsv"), _dual_poly_tsv(result.dual_poly)
    )
    spike_lines = ["freq_hz\tre\tim\tmodulus"]
    for x, a, mod in zip(result.freqs, result.amps, diag.peak_moduli):
        spike_lines.append(f"{float(x)!r}\t{a.real!r}\t{a.imag!r}\t{float(mod)!r}")
    _atomic_write(
        os.path.join(out_dir, f"{prefix}_spikes.tsv"), "\n".join(spike_lines) + "\n"
    )
    print(
        f"estimated {result.freqs.size} spike(s); converged={diag.converged}, "
        f"sup|Q|={diag.sup_norm:.6f}"
    )
    if not diag.converged:
        print("solver did not converge; record flagged unreliable", file=sys.stderr)
        return EXIT_NOCONV
    return EXIT_OK


# ---------- benchmark ----------

def _bench_one(m: int, n: int, iters: int, seed: int) -> tuple:
    """Time ``iters`` iterations of one solve: every stopping rule is off."""
    rng = np.random.default_rng(seed)
    others = rng.choice(np.arange(1, n), size=m - 1, replace=False)
    pattern = SelectionPattern(
        indices=tuple(sorted([0] + [int(i) for i in others])), ambient=n
    )
    y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    spec = assemble_problem(y, pattern, max_iter=iters, tol_primal=0.0, tol_gap=0.0)
    start = time.perf_counter()
    report = solve(spec)
    total = time.perf_counter() - start
    return m, 1e6 * total / report.iterations, 1e3 * total, report.iterations


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    seed = _resolve_seed(cfg, args)
    out_dir, prefix = _out_paths(cfg, args)
    sizes = [as_integer(s, "--sizes", least=1) for s in args.sizes.split(",")]
    iters = as_integer(args.iters, "--iters", least=1)
    rows = [_bench_one(m, 2 * m, iters, seed + i) for i, m in enumerate(sizes)]
    lines = ["m,iter_time_us,total_ms,iterations"]
    for m, it_us, tot_ms, nit in rows:
        lines.append(f"{m},{it_us:.3f},{tot_ms:.3f},{nit}")
        print(f"m={m}: {it_us:.1f} us/iteration over {nit} iterations")
    _atomic_write(os.path.join(out_dir, f"{prefix}_bench.csv"), "\n".join(lines) + "\n")
    return EXIT_OK


# ---------- certificate verification ----------

def cmd_verify(args) -> int:
    record = _load_json(args.result)
    truth = _load_json(args.truth)
    q = _parse_complex_list(record["dual_poly"], f"{args.result}: dual_poly")
    frame = _shaped(dict, record["frame"], f"{args.result}: frame")
    f_solve = as_real(frame["solve_rate_hz"], f"{args.result}: frame.solve_rate_hz")
    shift = as_real(frame["time_shift_s"], f"{args.result}: frame.time_shift_s")
    freqs = np.array(_parse_list(as_real, truth["freqs_hz"], f"{args.truth}: freqs_hz"))
    amps = _parse_complex_list(truth["amps"], f"{args.truth}: amps")
    surrogate = SpikeSpectrum(
        freqs=freqs, amps=amps * np.exp(-2j * np.pi * freqs * shift)
    )
    tol = as_real(args.tol, "--tol", "[0, inf)")
    report = verify_certificate(q, surrogate, f_solve, tol=tol)
    print(
        f"certificate: {report.is_certificate} "
        f"(max interpolation error {report.interp_errors.max():.3e}, "
        f"strict margin {report.strict_margin:.3e})"
    )
    return EXIT_OK


# ---------- entry point ----------

class _Parser(argparse.ArgumentParser):
    """Exits with :data:`EXIT_INPUT` on a usage error, where argparse exits
    with 2, the code of numerical non-convergence; subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spectral-sdp",
        description="Sparse line spectral estimation from partial measurements",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", default=None)
        p.add_argument("--out-dir", dest="out_dir", default=None)
        p.add_argument("--prefix", default=None)

    p = sub.add_parser("synth", help="synthesize sample files from a spike model")
    add_common(p)
    p.add_argument("--sigma", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sample", help="reduce raw acquisitions to the net observation vector")
    add_common(p)
    p.add_argument("--input-prefix", dest="input_prefix", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("check-grid", help="analyze a multirate system's common grid")
    add_common(p)
    p.set_defaults(func=cmd_check_grid)

    p = sub.add_parser("estimate", help="run the full estimation pipeline")
    add_common(p)
    p.add_argument("--input-prefix", dest="input_prefix", default=None)
    p.add_argument("--sigma", default=None)
    p.add_argument("--tau", default=None)
    p.add_argument("--max-iter", dest="max_iter", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bench", help="time solver iterations across problem sizes")
    add_common(p)
    p.add_argument("--sizes", default="50,100,200", help="comma-separated m values")
    p.add_argument("--iters", default=300)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="check a result's dual certificate against ground truth")
    p.add_argument("--result", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--tol", default=1e-3)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolationError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except (InvalidInputError, FileNotFoundError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SpectralSDPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
