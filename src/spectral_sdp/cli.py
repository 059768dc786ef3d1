"""Command-line front end: synthesis, sub-sampling, grid analysis,
estimation, benchmarking, and certificate verification.

One JSON config file (``"schema": 1``) drives every subcommand; command
line flags override config fields, and the environment variable
``SPECTRAL_SDP_SEED`` overrides the config seed (precedence:
flag > env > config > default). Grid rates and delays are exact strings
("num/den"), complex numbers are {re, im} objects, and sample files are
CSV with header ``index,re,im``. All writes are atomic (temp + rename).
Every config key is read once, at load, whichever subcommand runs, and a
null key is unset. Every number is read once, by
:mod:`spectral_sdp.errors`, under the name it was given by:
``--max-iter`` for a flag, ``solver.max_iter`` for a config key.

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


def _shaped(value, what: str, kind: type = dict):
    """``value`` when it is a JSON object (``kind`` dict), array (list) or
    string (str); otherwise an input error naming ``what``."""
    if not isinstance(value, kind):
        expected = {dict: "an object", list: "an array", str: "a string"}[kind]
        raise InvalidInputError(f"{what}: expected {expected}, got {value!r}")
    return value


def _need(node: dict, key: str, where: str = "", read=None):
    """``node[key]``, read by ``read`` under the name ``where + key`` when
    one is given; an absent or null key is an input error that names it,
    like ``signal.amps[0].im is missing``."""
    if node.get(key) is None:
        raise InvalidInputError(f"{where}{key} is missing")
    return node[key] if read is None else read(node[key], where + key)


def _finite(value, what: str) -> float:
    """A finite real number: NaN and infinities are named input errors."""
    return as_real(value, what, "(-inf, inf)")


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
            re, im = (_finite(v, f"{path}:{lineno}") for v in parts[1:])
            values.append(complex(re, im))
    return np.array(values, dtype=complex)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return _shaped(json.load(fh), path)
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
    return [read(x, f"{what}[{j}]") for j, x in enumerate(_shaped(items, what, list))]


def _parse_complex_list(items, what: str) -> np.ndarray:
    """The array ``items`` of ``{re, im}`` objects, as finite complex numbers."""
    out = []
    for j, d in enumerate(_shaped(items, what, list)):
        d = _shaped(d, f"{what}[{j}]")
        out.append(complex(*(_need(d, k, f"{what}[{j}].", _finite) for k in ("re", "im"))))
    return np.array(out, dtype=complex)


# ---------- config handling ----------

def _schema(value, what: str) -> int:
    if as_integer(value, what) != SCHEMA_VERSION:
        raise InvalidInputError(f"unsupported {what} {value!r}, expected {SCHEMA_VERSION}")
    return SCHEMA_VERSION


def _scenario(value, what: str) -> str:
    if value not in ("full", "selection", "random-selection", "multirate"):
        raise InvalidInputError(f"unknown {what} {value!r}")
    return value


def _rate(value, what: str) -> float:
    """A JSON number, or an exact ``"num/den"`` string."""
    return as_real(as_fraction(value, what) if isinstance(value, str) else value, what, "(0, inf)")


def _grids(items, what: str) -> MultirateSystem:
    """The system of the array ``items`` of grid objects: each an exact
    rate ``f`` and length ``n``, and a delay ``gamma`` (0 when unset)."""
    if not _shaped(items, what, list):
        raise InvalidInputError(f"{what}: expected at least one grid, got []")
    grids = []
    for j, grid in enumerate(items):
        name = f"{what}[{j}]"
        for key in sorted(_shaped(grid, name).keys() - {"f", "gamma", "n"}):
            raise InvalidInputError(f"unknown key '{name}.{key}'")
        f = _need(grid, "f", name + ".", as_fraction)
        as_real(f, name + ".f", "(0, inf)")  # the range Grid checks again
        gamma = as_fraction(0 if grid.get("gamma") is None else grid["gamma"], name + ".gamma")
        n = _need(grid, "n", name + ".", lambda value, what: as_integer(value, what, least=1))
        grids.append(Grid(f=f, gamma=gamma, n=n))
    return MultirateSystem(grids=tuple(grids))


# Every config key, as written, with its reader: the range each checks is
# the one the library checks again. A section is the part before the dot.
_READERS = {
    "schema": _schema,
    "scenario": _scenario,
    "seed": lambda value, what: as_integer(value, what, least=0),
    "signal.freqs_hz": lambda value, what: np.array(_parse_list(_finite, value, what)),
    "signal.amps": _parse_complex_list,
    "noise.sigma": lambda value, what: as_real(value, what, "[0, inf)"),
    "sampling.f": _rate,
    "sampling.n": lambda value, what: as_integer(value, what, least=1),
    "sampling.indices": lambda value, what: tuple(_parse_list(as_integer, value, what)),
    "sampling.keep_prob": lambda value, what: as_real(value, what, "(0, 1]"),
    "sampling.grids": _grids,
    # The EstimationConfig fields but sigma, with the ranges ProblemSpec applies.
    "solver.tau": lambda value, what: as_real(value, what, "[0, inf)"),
    "solver.rho": lambda value, what: as_real(value, what, "(0, inf)"),
    "solver.max_iter": lambda value, what: as_integer(value, what, least=1),
    "solver.tol_primal": lambda value, what: as_real(value, what, "[0, inf)"),
    "solver.tol_gap": lambda value, what: as_real(value, what, "[0, 1)"),
    "output.dir": lambda value, what: _shaped(value, what, str),
    "output.prefix": lambda value, what: _shaped(value, what, str),
}


def _load_config(args) -> tuple[dict, dict]:
    """The config file as written, and its settings: each key as written,
    like ``sampling.n``, to its value as read. Every non-null key is read
    once, by its reader in ``_READERS``; then ``SPECTRAL_SDP_SEED``
    overrides ``seed``, and each flag the key that ends in its name
    (``--out-dir`` sets ``output.dir``), read under the flag as typed. An
    unknown key, or a section that is not an object, is an input error."""
    cfg = _load_json(args.config)
    settings = {"seed": 0, "noise.sigma": 0.0, "output.dir": ".", "output.prefix": "run"}
    nodes = [("", cfg)]  # (prefix, object): the file, then each section
    for prefix, node in nodes:
        for key, value in node.items():
            name = prefix + key
            if value is None:
                continue
            if name in _READERS:
                settings[name] = _READERS[name](value, name)
            elif not prefix and any(k.startswith(name + ".") for k in _READERS):
                nodes.append((name + ".", _shaped(value, name)))
            else:
                raise InvalidInputError(f"unknown key {name!r}")
    if os.environ.get(ENV_SEED) is not None:
        settings["seed"] = _READERS["seed"](os.environ[ENV_SEED], ENV_SEED)
    for key, read in _READERS.items():
        flag = "out_dir" if key == "output.dir" else key.rpartition(".")[2]
        if getattr(args, flag, None) is not None:
            settings[key] = read(getattr(args, flag), "--" + flag.replace("_", "-"))
    for key in ("schema", "scenario"):
        _need(settings, key)
    return cfg, settings


def _out_paths(settings: dict):
    os.makedirs(settings["output.dir"], exist_ok=True)
    return settings["output.dir"], settings["output.prefix"]


def _child_seed(seed: int, key: int) -> int:
    child = np.random.SeedSequence(seed, spawn_key=(key,))
    return int(child.generate_state(1, dtype=np.uint64)[0])


def _sampler(settings: dict):
    """``(sampler, f)``: the config's :class:`MultirateSystem` with no rate,
    or its :class:`SelectionPattern` with ``sampling.f``."""
    scenario = settings["scenario"]
    if scenario == "multirate":
        return _need(settings, "sampling.grids"), None
    n = _need(settings, "sampling.n")
    if scenario == "full":
        pattern = SelectionPattern(indices=tuple(range(n)), ambient=n)
    elif scenario == "selection":
        pattern = SelectionPattern(indices=_need(settings, "sampling.indices"), ambient=n)
    else:
        p = _need(settings, "sampling.keep_prob")
        pattern = random_selection(n, p, _child_seed(settings["seed"], 0))
    return pattern, _need(settings, "sampling.f")


def _estimation_config(settings: dict) -> EstimationConfig:
    """``noise.sigma``, and the ``solver`` keys that are set;
    ``EstimationConfig`` holds the defaults of the rest."""
    fields = {
        key.removeprefix("solver."): value
        for key, value in settings.items()
        if key.startswith("solver.")
    }
    return EstimationConfig(sigma=settings["noise.sigma"], **fields)


# ---------- synthesis ----------

def cmd_synth(args) -> int:
    cfg, settings = _load_config(args)
    seed, sigma = settings["seed"], settings["noise.sigma"]
    out_dir, prefix = _out_paths(settings)
    freqs, amps = _need(settings, "signal.freqs_hz"), _need(settings, "signal.amps")
    spec = SpikeSpectrum(freqs=freqs, amps=amps)
    truth = {
        "schema": SCHEMA_VERSION,
        "scenario": settings["scenario"],
        "freqs_hz": [float(x) for x in spec.freqs],
        "amps": _complex_list(spec.amps),
        "sigma": sigma,
        "seed": seed,
        "rng": RNG_ALGORITHM,
    }
    # Non-multirate scenarios synthesize one raw uniform vector.
    if settings["scenario"] == "multirate":
        grids = _need(settings, "sampling.grids").grids
        raw = {f"{prefix}_grid{j}.csv": synthesize_grid(spec, g) for j, g in enumerate(grids)}
        truth["grids"] = [{"f": str(g.f), "gamma": str(g.gamma), "n": g.n} for g in grids]
    else:
        f, n = _need(settings, "sampling.f"), _need(settings, "sampling.n")
        raw = {f"{prefix}_samples.csv": synthesize_uniform(spec, f, n)}
        truth["f_hz"], truth["n"] = f, n
    # Vector j draws its noise from child seed 1 + j.
    for j, (name, y) in enumerate(raw.items()):
        y = add_noise(y, NoiseSpec(sigma=sigma, seed=_child_seed(seed, 1 + j)))
        _write_samples_csv(os.path.join(out_dir, name), y)
    truth["config_sha256"] = _config_hash(cfg)
    _atomic_write(os.path.join(out_dir, f"{prefix}_truth.json"), _dump_json(truth))
    print(f"wrote {len(raw)} sample file(s) under {out_dir}/{prefix}_*")
    return EXIT_OK


# ---------- sub-sampling ----------

def _load_inputs(args, sampler, out_dir: str, prefix: str):
    """The samples ``estimate()`` takes with ``sampler``: the per-grid vectors
    of a multirate system, or the samples a pattern keeps from the raw
    uniform acquisition."""
    in_prefix = prefix if args.input_prefix is None else args.input_prefix
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
    _, settings = _load_config(args)
    out_dir, prefix = _out_paths(settings)
    sampler, _ = _sampler(settings)
    y = _load_inputs(args, sampler, out_dir, prefix)
    meta = {"schema": SCHEMA_VERSION, "scenario": settings["scenario"], "seed": settings["seed"]}
    pattern = sampler
    if isinstance(sampler, MultirateSystem):
        cg = common_grid(sampler)
        y = align_measurements(y, cg)
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
    _, settings = _load_config(args)
    if settings["scenario"] != "multirate":
        raise InvalidInputError("check-grid needs a multirate scenario config")
    system = _need(settings, "sampling.grids")
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
    out_dir, prefix = _out_paths(settings)
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
    cfg, settings = _load_config(args)
    out_dir, prefix = _out_paths(settings)
    sampler, f = _sampler(settings)
    y = _load_inputs(args, sampler, out_dir, prefix)
    result = estimate(y, sampler, f, config=_estimation_config(settings))
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
            "seed": settings["seed"],
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
    _, settings = _load_config(args)
    seed = settings["seed"]
    out_dir, prefix = _out_paths(settings)
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
    record, truth = _load_json(args.result), _load_json(args.truth)
    at_result, at_truth = f"{args.result}: ", f"{args.truth}: "
    q = _need(record, "dual_poly", at_result, _parse_complex_list)
    frame = _need(record, "frame", at_result, _shaped)
    f_solve = _need(frame, "solve_rate_hz", at_result + "frame.", as_real)
    shift = _need(frame, "time_shift_s", at_result + "frame.", as_real)
    freqs = _need(truth, "freqs_hz", at_truth, _READERS["signal.freqs_hz"])
    amps = _need(truth, "amps", at_truth, _parse_complex_list)
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
    except (InvalidInputError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SpectralSDPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
