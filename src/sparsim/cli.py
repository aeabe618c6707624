"""Command-line experiment runner.

Verbs: run (one scheme on one trace), gen-trace (synthetic trace to a binary
file), sweep (density/gamma grid with best-throughput-under-error-budget
summaries), calibrate-allocation (density-allocation pipeline: grid sweep,
Pareto front, logit-linear fit, concrete allocations), gamma-sweep
(cache-aware re-weighting ablation).

Configs are JSON, and _fields reads each config object through a schema of
typed converters, one per key.  The hardware, geometry, scheme and
synthetic-trace objects build their dataclasses, which hold the defaults, and
reports echo every dataclass field.  A scheme key that the named scheme never
reads (hwsim.Scheme.reads) is rejected.  run, sweep and gamma-sweep read
their keys (_read), check them and build their points before _setup builds
the trace and the weights, so a verb's own config error exits before either
is built.  Reports are JSON written atomically
(temp file + rename) with sorted keys, so re-running an identical config and
seed reproduces the report byte-for-byte except the timestamp field.

Exit codes: 0 success, 1 validation error (including a usage error, and a
config that nests too deeply to parse, or whose arrays exceed
MAX_ARRAY_BYTES or do not fit in memory), 2 simulation error (including a
modelled latency that overflows the float range), 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from datetime import datetime, timezone
from typing import List, NamedTuple, Optional

import numpy as np

from . import calibration, hwsim, traces
from .cache import POLICY_NAMES
from .hwsim import SCHEMES, HardwareConfig, ModelGeometry, SchemeConfig, SimulationError
from .mlp import MlpWeights
from .presets import GEOMETRY_PRESETS, HARDWARE_PRESETS
from .traces import atomic_write

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SIMULATION = 2
EXIT_IO = 3

SCHEMA_VERSION = 1


# The largest array a config may ask for: a trace (tokens x layers x d_model),
# MLP weights (3 x layers x d_model x d_ff) or calibration inputs
# (num_inputs x d_model), in bytes of float64.  It is checked before anything
# is allocated; a trace file is bounded by its own size.
MAX_ARRAY_BYTES = 1 << 30


class ConfigError(ValueError):
    pass


def _check_bytes(what: str, *dims: int) -> None:
    nbytes = 8 * math.prod(dims)
    if nbytes > MAX_ARRAY_BYTES:
        raise ConfigError(f"{what} would take {nbytes} bytes, over the limit of "
                          f"{MAX_ARRAY_BYTES} bytes")


def _load_config(args) -> dict:
    with open(args.config, "r") as f:
        try:
            cfg = json.load(f)
        except RecursionError:
            raise ConfigError("config nests too deeply to parse") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    # --seed overrides the config's seed
    return cfg if args.seed is None else dict(cfg, seed=args.seed)


# Typed reads: each converter takes a JSON value and the key path it came
# from, and raises ConfigError naming both when the type is wrong.

def _json_type(v) -> str:
    names = {bool: "a boolean", int: "a number", float: "a number", str: "a string",
             list: "a list", dict: "an object", type(None): "null"}
    return names.get(type(v), type(v).__name__)


def _float(v, what: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{what} must be a number, got {_json_type(v)}")
    try:
        out = float(v)
    except OverflowError:
        raise ConfigError(f"{what} is out of range") from None
    if not math.isfinite(out):
        raise ConfigError(f"{what} must be finite")
    return out


def _int(v, what: str) -> int:
    if not _float(v, what).is_integer():
        raise ConfigError(f"{what} must be an integer")
    return int(v)


def _seed(v, what: str) -> int:
    if _int(v, what) < 0:
        raise ConfigError(f"{what} must be >= 0")
    return int(v)


def _bool(v, what: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{what} must be true or false, got {_json_type(v)}")
    return v


def _str(v, what: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"{what} must be a string, got {_json_type(v)}")
    return v


def _floats(v, what: str) -> List[float]:
    if not isinstance(v, list):
        raise ConfigError(f"{what} must be a list of numbers, got {_json_type(v)}")
    return [_float(x, f"{what}[{i}]") for i, x in enumerate(v)]


def _nonempty_floats(v, what: str) -> List[float]:
    out = _floats(v, what)
    if not out:
        raise ConfigError(f"{what} must be non-empty")
    return out


def _float_or_floats(v, what: str):
    return _floats(v, what) if isinstance(v, list) else _float(v, what)


def _optional_number(v, what: str):
    # checked but kept as given (1 stays 1, not 1.0): the report echoes it
    if v is not None:
        _float(v, what)
    return v


def _policy(v, what: str) -> str:
    if _str(v, what) not in POLICY_NAMES:
        raise ConfigError(f"unknown policy {v!r}; known: {POLICY_NAMES}")
    return v


def _raw(v, what: str):
    # a key read later, once the keys it depends on are read
    return v


def _fields(d, what: str, schema: dict, required=()) -> dict:
    """The keys of the config object d, each through its schema converter in
    schema order.  what is the path of d in the config ("" for the top
    level).  A key that schema does not name, or a missing required key, is
    a ConfigError."""
    name = what or "config"
    if not isinstance(d, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = set(d) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ConfigError(f"missing keys in {name}: {missing}")
    return {k: conv(d[k], f"{what}.{k}" if what else k)
            for k, conv in schema.items() if k in d}


def _build(cls, d, what: str, schema: dict, **given):
    """A cls dataclass from the config object d read through schema, over
    the values given.  The fields of cls without a default are required,
    apart from the given ones."""
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.name not in given]
    return cls(**{**given, **_fields(d, what, schema, required)})


# The dimensions a geometry shares with a synthetic trace.
_DIMS = {"num_layers": _int, "d_model": _int, "d_ff": _int}
_SYNTHETIC = {"num_tokens": _int, **_DIMS, "mu": _float_or_floats,
              "sigma": _float_or_floats, "seed": _seed}
_SCHEME = {"name": _str, "density_mid": _optional_number, "density_in": _optional_number,
           "gamma": _float, "reweight_input": _bool, "reweight_intermediate": _bool,
           "predictor_hidden": _int}


def _preset_or_object(cls, presets: dict, schema: dict):
    """The converter of a config value that is either a preset name or an
    object of cls fields.  It returns the cls and its echo: every field,
    after the preset name if there is one."""
    def convert(spec, what: str):
        if isinstance(spec, str):
            if spec not in presets:
                raise ConfigError(f"unknown {what} preset {spec!r}; "
                                  f"known: {sorted(presets)}")
            obj, echo = presets[spec], {"preset": spec}
        else:
            obj, echo = _build(cls, spec, what, schema), {}
        return obj, {**echo, **dataclasses.asdict(obj)}
    return convert


_geometry = _preset_or_object(ModelGeometry, GEOMETRY_PRESETS, {
    **_DIMS, "bytes_per_weight": _float, "static_bytes": _float})
_hardware = _preset_or_object(HardwareConfig, HARDWARE_PRESETS, {
    "dram_capacity_bytes": _float, "dram_bandwidth": _float, "flash_bandwidth": _float})


def _scheme(spec, what: str, **given) -> tuple[SchemeConfig, dict]:
    scheme = _build(SchemeConfig, spec, what, _SCHEME, **given)
    unread = sorted(set(spec) - SCHEMES[scheme.name].reads)
    if unread:
        raise ConfigError(f"scheme {scheme.name!r} does not read "
                          + ", ".join(f"{what}.{k}" for k in unread))
    return scheme, dataclasses.asdict(scheme)


def _sweep_scheme(spec, what: str) -> tuple[SchemeConfig, dict]:
    # Every point sets density_mid and density_in.  A sweep therefore needs
    # no density_mid: 1.0 stands in for an absent one, echoed as null.
    scheme, echo = _scheme(spec, what, density_mid=1.0)
    if spec.get("density_in") is not None:
        raise ConfigError(f"{what}.density_in cannot be set in a sweep: "
                          "each point's density_in follows sweep.densities")
    if SCHEMES[scheme.name].rows is None:
        raise ConfigError(f"a sweep of {scheme.name!r} repeats one run: "
                          "it keeps every unit at any density")
    if "density_mid" not in spec:
        echo.update(density_mid=None, density_in=None)
    return scheme, echo


def _resolve_trace(spec, geo: ModelGeometry, seed: int,
                   state: tuple) -> tuple[traces.Trace, dict]:
    """The trace and its echo; the engine's state, tokens x state words, is
    checked before a synthetic trace is made or once a file is read."""
    spec = _fields(spec, "trace", {"file": _raw, "synthetic": _raw})
    if len(spec) != 1:
        raise ConfigError("trace needs exactly one of 'file' or 'synthetic'")
    if "file" in spec:
        trace = traces.read_trace(_str(spec["file"], "trace.file"))
        if any(getattr(trace, k) != getattr(geo, k) for k in _DIMS):
            raise SimulationError(
                f"trace dims (layers={trace.num_layers}, d_model={trace.d_model}, "
                f"d_ff={trace.d_ff}) do not match geometry")
        _check_bytes("the engine's per-token state", trace.num_tokens, *state)
        return trace, {"file": spec["file"]}
    # the trace takes its dimensions from the geometry, and the run's seed
    # unless it names its own
    tspec = _build(traces.SyntheticTraceSpec, spec["synthetic"], "trace.synthetic",
                   {k: c for k, c in _SYNTHETIC.items() if k not in _DIMS},
                   seed=seed, **{k: getattr(geo, k) for k in _DIMS})
    _check_bytes("the trace", tspec.num_tokens, tspec.num_layers, tspec.d_model)
    _check_bytes("the engine's per-token state", tspec.num_tokens, *state)
    echo = {k: v for k, v in dataclasses.asdict(tspec).items() if k not in _DIMS}
    return traces.generate_synthetic_trace(tspec), {"synthetic": echo}


class _Setup(NamedTuple):
    geo: ModelGeometry
    hw: HardwareConfig
    trace: traces.Trace
    weights: Optional[MlpWeights]  # the layers' stack; None unless the scheme has row masks
    config: dict  # the echo of seed, trace, geometry and hardware


def _read(args, schema: dict, required: tuple) -> dict:
    """The config of run, sweep or gamma-sweep: the keys they share (seed,
    geometry, hardware, trace) and the verb's own schema and required
    keys.  The trace is read by _setup."""
    return _fields(_load_config(args), "", {
        "seed": _seed, "geometry": _geometry, "hardware": _hardware, **schema,
        "trace": _raw}, ("trace", "geometry", "hardware") + required)


def _setup(fields: dict, scheme: str, policy: str, points: int, records=False) -> _Setup:
    """The trace and the weights of a verb's config fields (_read), once the
    verb has checked its own keys, for points runs of the scheme under
    policy.  The caches and per-token state (with per-token records if
    records) are checked before the trace is built, and the synthetic layer
    weights are built when the engine reads them: for row masks.  A scheme
    without them is the dense block, whose kernel error is 0 without a
    forward."""
    seed = fields.get("seed", 0)
    (geo, geo_echo), (hw, hw_echo) = fields["geometry"], fields["hardware"]
    _check_bytes("the MLP weights", 3, geo.num_layers, geo.d_model, geo.d_ff)
    groups = hwsim.scheme_groups(scheme, geo)
    units = sum(g.universe for g in groups)  # the units of one layer's caches
    # 16 words per unit of every (point, layer)'s caches: 26 B of CacheState, an
    # 8 B flat id per active unit, and the stream's and replay's per-token arrays
    # (68-106 B per unit in all, measured as tracemalloc peak slopes)
    _check_bytes("the engine's caches", points, geo.num_layers, units, 16)
    # 8-byte words per token and point: per layer, each group's hit, miss and
    # bypass counts, the kernel error and with belady the stream and next uses;
    # 64 (0.35-0.55 kB measured, mostly a TokenCost), 256 per record (~2 kB)
    stream = 2 * units if policy == "belady" else 0
    words = geo.num_layers * (3 * len(groups) + 1 + stream) + 64 + 256 * records
    trace, trace_echo = _resolve_trace(fields["trace"], geo, seed, (points, words))
    weights = (traces.synthetic_layer_weights(geo.num_layers, geo.d_model, geo.d_ff, seed=seed)
               if SCHEMES[scheme].rows is not None else None)
    return _Setup(geo, hw, trace, weights, {
        "seed": seed, "trace": trace_echo, "geometry": geo_echo, "hardware": hw_echo})


def _write_report(path: str, report: dict) -> None:
    payload = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    atomic_write(path, payload.encode("utf-8"))


def _report_skeleton(command: str, config: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "config": config,
    }


def _metrics(report: hwsim.RunReport) -> dict:
    return {
        "num_tokens": report.num_tokens,
        "throughput_tok_per_s": report.throughput,
        "steady_state_throughput_tok_per_s": report.steady_state_throughput,
        "hit_rate": report.hit_rate,
        "flash_bytes": report.flash_bytes,
        "dram_bytes": report.dram_bytes,
        "mean_error": report.mean_error,
    }


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_run(args) -> None:
    f = _read(args, {"scheme": _scheme, "policy": _policy, "kernel_eval": _bool},
              ("scheme", "policy"))
    (scheme, scheme_echo), policy = f["scheme"], f["policy"]
    kernel_eval = f.get("kernel_eval", False)
    s = _setup(f, scheme.name, policy, 1, args.per_token)
    report = hwsim.simulate_run(s.trace, s.weights, scheme, policy, s.hw, s.geo,
                                kernel_eval=kernel_eval)
    out = _report_skeleton("run", {**s.config, "scheme": scheme_echo, "policy": policy,
                                   "kernel_eval": kernel_eval})
    out["metrics"] = _metrics(report)
    out["per_layer"] = [{**dataclasses.asdict(ls), "hit_rate": ls.hit_rate}
                        for ls in report.per_layer]
    if args.per_token:
        out["per_token"] = [dataclasses.asdict(tc) for tc in report.tokens]
    _write_report(args.out, out)


def _cmd_gen_trace(args) -> None:
    spec = _build(traces.SyntheticTraceSpec, _load_config(args), "", _SYNTHETIC)
    _check_bytes("the trace", spec.num_tokens, spec.num_layers, spec.d_model)
    trace = traces.generate_synthetic_trace(spec)
    traces.write_trace(args.out, trace)


def _sweep_rows(fields: dict, scheme: SchemeConfig, points, policy: str, kernel_eval: bool,
                error_key: str) -> tuple[_Setup, List[dict]]:
    """The setup of a sweep verb's config fields (_read) and one report row
    per (density, gamma) point of one hwsim.sweep_runs pass; the row names
    the point's gamma when it sets one, and its mean kernel error under
    error_key.  A point out of range exits before the trace is built."""
    hwsim.sweep_configs(scheme, points)
    s = _setup(fields, scheme.name, policy, len(points))
    reports = hwsim.sweep_runs(s.trace, s.weights, scheme, points, policy, s.hw, s.geo,
                               kernel_eval=kernel_eval)
    return s, [{"density": density, "throughput": rep.throughput,
                "steady_state_throughput": rep.steady_state_throughput,
                error_key: rep.mean_error, "hit_rate": rep.hit_rate,
                **({} if gamma is None else {"gamma": gamma})}
               for (density, gamma), rep in zip(points, reports)]


_GRID = {"densities": _nonempty_floats, "gammas": _nonempty_floats, "error_budgets": _floats}


def _cmd_sweep(args) -> None:
    f = _read(args, {"scheme": _sweep_scheme, "policy": _policy,
                     "sweep": lambda v, what: _fields(v, what, _GRID, ("densities",))},
              ("scheme", "policy", "sweep"))
    (base_scheme, scheme_echo), policy, grid = f["scheme"], f["policy"], f["sweep"]
    densities, gammas = grid["densities"], grid.get("gammas")
    budgets = grid.get("error_budgets", [])
    if gammas is not None and not SCHEMES[base_scheme.name].cache_aware:
        raise ConfigError("sweep.gammas only applies to cache-aware schemes (dip_ca)")
    points = [(d, g) for d in densities for g in (gammas if gammas is not None else [None])]
    # error budgets need the kernel error, so the sweep always evaluates it
    s, rows = _sweep_rows(f, base_scheme, points, policy, True, "error")

    summaries = []
    for budget in budgets:
        try:
            tput, density = hwsim.throughput_at_error(
                [(r["density"], r["throughput"], r["error"]) for r in rows], budget)
        except SimulationError:  # no row fits the budget
            tput, density = None, None
        summaries.append({"error_budget": budget, "best_throughput": tput,
                          "best_density": density})

    out = _report_skeleton("sweep", {
        **s.config, "scheme": scheme_echo, "policy": policy,
        "sweep": {"densities": densities, "gammas": gammas, "error_budgets": budgets}})
    out["rows"] = rows
    out["summaries"] = summaries
    _write_report(args.out, out)


def _cmd_calibrate_allocation(args) -> None:
    cfg = _fields(_load_config(args), "", {
        "seed": _seed, "block": _raw, "calibration": _raw, "grid": _raw, "targets": _raw},
        ("block", "grid", "targets"))
    seed = cfg.get("seed", 0)
    block = {"seed": seed, **_fields(cfg["block"], "block", {
        "d_model": _int, "d_ff": _int, "seed": _seed}, ("d_model", "d_ff"))}
    d_model, d_ff = block["d_model"], block["d_ff"]
    calib = {"num_inputs": 32, "sigma": 1.5, "seed": seed,
             **_fields(cfg.get("calibration", {}), "calibration", {
                 "num_inputs": _int, "sigma": _float, "seed": _seed})}
    if calib["num_inputs"] < 1:
        raise ConfigError("calibration.num_inputs must be >= 1")
    if calib["sigma"] <= 0:
        raise ConfigError("calibration.sigma must be > 0")
    _check_bytes("the MLP weights", 3, d_model, d_ff)
    _check_bytes("the calibration inputs", calib["num_inputs"], d_model)
    w = MlpWeights.random(d_model, d_ff, seed=block["seed"])
    rng = np.random.default_rng(calib["seed"])
    inputs = traces.signed_lognormal(rng, (calib["num_inputs"], d_model), 0.0, calib["sigma"])
    if not np.isfinite(inputs).all():
        raise ConfigError("calibration.sigma gives inputs beyond the float range")
    grid = _fields(cfg["grid"], "grid", {"densities_in": _floats, "densities_mid": _floats},
                   ("densities_in", "densities_mid"))
    targets = _floats(cfg["targets"], "targets")

    try:
        points = calibration.sweep_density_allocation(w, inputs, grid["densities_in"],
                                                      grid["densities_mid"])
    except calibration.InputOverflowError as e:
        raise ConfigError(f"calibration.sigma is too large: {e}") from None
    front = calibration.pareto_front(points)
    model = calibration.fit_logit_linear(front)
    allocations = []
    for t in targets:
        alloc = calibration.optimal_allocation(model, t, d_model, d_ff)
        allocations.append({"target_density": t, **dataclasses.asdict(alloc),
                            "relative_gap": abs(alloc.memory_fraction - t) / t})

    out = _report_skeleton("calibrate-allocation", {
        "seed": seed, "block": block, "calibration": calib, "grid": grid,
        "targets": targets})
    out["points"] = [dataclasses.asdict(p) for p in points]
    out["pareto_front"] = [dataclasses.asdict(p) for p in front]
    out["model"] = {"coef_in": list(model.coef_in), "coef_mid": list(model.coef_mid)}
    out["allocations"] = allocations
    _write_report(args.out, out)


def _cmd_gamma_sweep(args) -> None:
    f = _read(args, {"policy": _policy, "kernel_eval": _bool, "gammas": _nonempty_floats,
                     "densities": _nonempty_floats}, ("gammas", "densities"))
    policy, kernel_eval = f.get("policy", "lfu"), f.get("kernel_eval", True)
    # dip_ca, gamma by gamma (gamma = 1 rows equal dip); belady is rejected
    # by hwsim._simulate, since dip_ca masks depend on the cache
    scheme = SchemeConfig(name="dip_ca", density_mid=1.0)
    points = [(density, gamma) for gamma in f["gammas"] for density in f["densities"]]
    s, rows = _sweep_rows(f, scheme, points, policy, kernel_eval, "mean_error")
    out = _report_skeleton("gamma-sweep", {
        **s.config, "policy": policy, "gammas": f["gammas"], "densities": f["densities"],
        "kernel_eval": kernel_eval})
    out["rows"] = rows
    _write_report(args.out, out)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors: one stderr
    line and exit 1, like every other bad input.  --help still exits 0."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache  # one tree per process: main reuses it on every call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsim",
        description="Trace-driven simulator for dynamic activation sparsity "
                    "under flash/DRAM memory constraints.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "run": _cmd_run,
        "gen-trace": _cmd_gen_trace,
        "sweep": _cmd_sweep,
        "calibrate-allocation": _cmd_calibrate_allocation,
        "gamma-sweep": _cmd_gamma_sweep,
    }
    for name, fn in specs.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if name == "run":
            p.add_argument("--per-token", action="store_true",
                           help="include per-token cost records in the report")
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.fn(args)
        return EXIT_OK
    except SimulationError as e:
        print(f"simulation error: {e}", file=sys.stderr)
        return EXIT_SIMULATION
    except (ConfigError, ValueError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as e:
        # arrays within MAX_ARRAY_BYTES can still outgrow the memory at
        # hand; a config too large to allocate is a config error, not a crash
        print(f"validation error: config needs more memory than is available: {e}",
              file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
