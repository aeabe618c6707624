"""Command-line experiment runner.

Verbs: run (one scheme on one trace), gen-trace (synthetic trace to a binary
file), sweep (density/gamma grid with best-throughput-under-error-budget
summaries), calibrate-allocation (density-allocation pipeline: grid sweep,
Pareto front, logit-linear fit, concrete allocations), gamma-sweep
(cache-aware re-weighting ablation).

Configs are JSON; reports are JSON written atomically (temp file + rename)
with sorted keys, so re-running an identical config and seed reproduces the
report byte-for-byte except the timestamp field.  Reports embed the fully
resolved configuration with presets expanded.

Exit codes: 0 success, 1 validation error, 2 simulation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from typing import List, Optional

import numpy as np

from . import calibration, hwsim, traces
from .hwsim import HardwareConfig, ModelGeometry, SchemeConfig, SimulationError
from .masking import DEFAULT_GAMMA
from .mlp import MlpWeights
from .presets import GEOMETRY_PRESETS, HARDWARE_PRESETS
from .traces import atomic_write

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SIMULATION = 2
EXIT_IO = 3

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    with open(path, "r") as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _take(d: dict, what: str, required=(), optional=()) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be an object")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown keys in {what}: {sorted(unknown)}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ConfigError(f"missing keys in {what}: {missing}")
    return d


# Typed reads: each converter takes a JSON value and the key path it came
# from, and raises ConfigError naming both when the type is wrong.

_ABSENT = object()


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


def _float_or_floats(v, what: str):
    return _floats(v, what) if isinstance(v, list) else _float(v, what)


def _optional_number(v, what: str):
    # checked but kept as given (1 stays 1, not 1.0): the report echoes it
    if v is not None:
        _float(v, what)
    return v


def _get(d: dict, key: str, what: str, conv, default=_ABSENT):
    """d[key] through conv, or default when the key is absent; what is the
    path of d in the config ("" for the top level)."""
    path = f"{what}.{key}" if what else key
    if key not in d:
        if default is _ABSENT:
            raise ConfigError(f"missing key {path}")
        return default
    return conv(d[key], path)


def _seed(args, cfg: dict) -> int:
    return args.seed if args.seed is not None else _get(cfg, "seed", "", _int, 0)


def _resolve_hardware(spec) -> tuple[HardwareConfig, dict]:
    if isinstance(spec, str):
        if spec not in HARDWARE_PRESETS:
            raise ConfigError(f"unknown hardware preset {spec!r}; "
                              f"known: {sorted(HARDWARE_PRESETS)}")
        hw = HARDWARE_PRESETS[spec]
        resolved = {"preset": spec}
    else:
        _take(spec, "hardware",
              required=("dram_capacity_bytes", "dram_bandwidth", "flash_bandwidth"))
        hw = HardwareConfig(*(_get(spec, k, "hardware", _float) for k in (
            "dram_capacity_bytes", "dram_bandwidth", "flash_bandwidth")))
        resolved = {}
    resolved.update({"dram_capacity_bytes": hw.dram_capacity_bytes,
                     "dram_bandwidth": hw.dram_bandwidth,
                     "flash_bandwidth": hw.flash_bandwidth})
    return hw, resolved


def _resolve_geometry(spec) -> tuple[ModelGeometry, dict]:
    if isinstance(spec, str):
        if spec not in GEOMETRY_PRESETS:
            raise ConfigError(f"unknown geometry preset {spec!r}; "
                              f"known: {sorted(GEOMETRY_PRESETS)}")
        geo = GEOMETRY_PRESETS[spec]
        resolved = {"preset": spec}
    else:
        _take(spec, "geometry",
              required=("num_layers", "d_model", "d_ff", "bytes_per_weight"),
              optional=("static_bytes",))
        geo = ModelGeometry(_get(spec, "num_layers", "geometry", _int),
                            _get(spec, "d_model", "geometry", _int),
                            _get(spec, "d_ff", "geometry", _int),
                            _get(spec, "bytes_per_weight", "geometry", _float),
                            _get(spec, "static_bytes", "geometry", _float, 0.0))
        resolved = {}
    resolved.update({"num_layers": geo.num_layers, "d_model": geo.d_model,
                     "d_ff": geo.d_ff, "bytes_per_weight": geo.bytes_per_weight,
                     "static_bytes": geo.static_bytes})
    return geo, resolved


def _resolve_scheme(spec) -> tuple[SchemeConfig, dict]:
    _take(spec, "scheme", required=("name",),
          optional=("density_mid", "density_in", "gamma", "reweight_input",
                    "reweight_intermediate", "predictor_hidden"))
    cfg = SchemeConfig(
        name=_get(spec, "name", "scheme", _str),
        density_mid=_get(spec, "density_mid", "scheme", _optional_number, None),
        density_in=_get(spec, "density_in", "scheme", _optional_number, None),
        gamma=_get(spec, "gamma", "scheme", _float, DEFAULT_GAMMA),
        reweight_input=_get(spec, "reweight_input", "scheme", _bool, True),
        reweight_intermediate=_get(spec, "reweight_intermediate", "scheme", _bool, True),
        predictor_hidden=_get(spec, "predictor_hidden", "scheme", _int, 0),
    )
    resolved = {"name": cfg.name, "density_mid": cfg.density_mid,
                "density_in": cfg.density_in, "gamma": cfg.gamma,
                "reweight_input": cfg.reweight_input,
                "reweight_intermediate": cfg.reweight_intermediate,
                "predictor_hidden": cfg.predictor_hidden}
    return cfg, resolved


def _resolve_trace(spec, geo: ModelGeometry, seed: int) -> tuple[traces.Trace, dict]:
    _take(spec, "trace", optional=("file", "synthetic"))
    if ("file" in spec) == ("synthetic" in spec):
        raise ConfigError("trace needs exactly one of 'file' or 'synthetic'")
    if "file" in spec:
        trace = traces.read_trace(_get(spec, "file", "trace", _str))
        if (trace.num_layers, trace.d_model, trace.d_ff) != (
                geo.num_layers, geo.d_model, geo.d_ff):
            raise SimulationError(
                f"trace dims (layers={trace.num_layers}, d_model={trace.d_model}, "
                f"d_ff={trace.d_ff}) do not match geometry")
        return trace, {"file": spec["file"]}
    syn = _take(spec["synthetic"], "trace.synthetic", required=("num_tokens",),
                optional=("mu", "sigma", "seed"))
    tspec = traces.SyntheticTraceSpec(
        num_tokens=_get(syn, "num_tokens", "trace.synthetic", _int),
        num_layers=geo.num_layers, d_model=geo.d_model, d_ff=geo.d_ff,
        mu=_get(syn, "mu", "trace.synthetic", _float_or_floats, 0.0),
        sigma=_get(syn, "sigma", "trace.synthetic", _float_or_floats, 1.0),
        seed=_get(syn, "seed", "trace.synthetic", _int, seed))
    resolved = {"synthetic": {"num_tokens": tspec.num_tokens, "mu": list(tspec.mu),
                              "sigma": list(tspec.sigma), "seed": tspec.seed}}
    return traces.generate_synthetic_trace(tspec), resolved


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


def _token_record(tc: hwsim.TokenCost) -> dict:
    return {"flash_bytes": tc.flash_bytes, "dram_bytes": tc.dram_bytes,
            "latency_s": tc.latency_s, "hits": tc.hits, "misses": tc.misses,
            "bypassed": tc.bypassed}


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


def _layer_records(report: hwsim.RunReport) -> List[dict]:
    return [{"layer": ls.layer, "hits": ls.hits, "misses": ls.misses,
             "bypassed": ls.bypassed, "flash_bytes": ls.flash_bytes,
             "dram_bytes": ls.dram_bytes, "hit_rate": ls.hit_rate}
            for ls in report.per_layer]


def _policy(cfg: dict, default=_ABSENT) -> str:
    policy = _get(cfg, "policy", "", _str, default)
    if policy not in hwsim.POLICY_NAMES:
        raise ConfigError(f"unknown policy {policy!r}; known: {hwsim.POLICY_NAMES}")
    return policy


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    _take(cfg, "config", required=("trace", "geometry", "hardware", "scheme", "policy"),
          optional=("seed", "kernel_eval"))
    seed = _seed(args, cfg)
    geo, geo_resolved = _resolve_geometry(cfg["geometry"])
    hw, hw_resolved = _resolve_hardware(cfg["hardware"])
    scheme, scheme_resolved = _resolve_scheme(cfg["scheme"])
    policy = _policy(cfg)
    kernel_eval = _get(cfg, "kernel_eval", "", _bool, False)
    trace, trace_resolved = _resolve_trace(cfg["trace"], geo, seed)
    weights = traces.synthetic_layer_weights(geo.num_layers, geo.d_model, geo.d_ff,
                                             seed=seed)
    report = hwsim.simulate_run(trace, weights, scheme, policy, hw, geo,
                                kernel_eval=kernel_eval)
    out = _report_skeleton("run", {
        "seed": seed, "trace": trace_resolved, "geometry": geo_resolved,
        "hardware": hw_resolved, "scheme": scheme_resolved, "policy": policy,
        "kernel_eval": kernel_eval})
    out["metrics"] = _metrics(report)
    out["per_layer"] = _layer_records(report)
    if args.per_token:
        out["per_token"] = [_token_record(tc) for tc in report.tokens]
    _write_report(args.out, out)
    return EXIT_OK


def _cmd_gen_trace(args) -> int:
    cfg = _load_config(args.config)
    _take(cfg, "config", required=("num_tokens", "num_layers", "d_model", "d_ff"),
          optional=("mu", "sigma", "seed"))
    spec = traces.SyntheticTraceSpec(
        *(_get(cfg, k, "", _int) for k in ("num_tokens", "num_layers", "d_model", "d_ff")),
        mu=_get(cfg, "mu", "", _float_or_floats, 0.0),
        sigma=_get(cfg, "sigma", "", _float_or_floats, 1.0), seed=_seed(args, cfg))
    trace = traces.generate_synthetic_trace(spec)
    traces.write_trace(args.out, trace)
    return EXIT_OK


def _sweep_grid(cfg_sweep: dict, scheme_resolved: dict):
    _take(cfg_sweep, "sweep", required=("densities",),
          optional=("gammas", "error_budgets"))
    densities = _get(cfg_sweep, "densities", "sweep", _floats)
    if not densities:
        raise ConfigError("sweep.densities must be non-empty")
    gammas = _get(cfg_sweep, "gammas", "sweep", _floats, None)
    if gammas is not None and scheme_resolved["name"] != "dip_ca":
        raise ConfigError("sweep.gammas only applies to the dip_ca scheme")
    budgets = _get(cfg_sweep, "error_budgets", "sweep", _floats, [])
    return densities, gammas, budgets


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    _take(cfg, "config",
          required=("trace", "geometry", "hardware", "scheme", "policy", "sweep"),
          optional=("seed",))
    seed = _seed(args, cfg)
    geo, geo_resolved = _resolve_geometry(cfg["geometry"])
    hw, hw_resolved = _resolve_hardware(cfg["hardware"])
    base_scheme, scheme_resolved = _resolve_scheme(cfg["scheme"])
    policy = _policy(cfg)
    trace, trace_resolved = _resolve_trace(cfg["trace"], geo, seed)
    weights = traces.synthetic_layer_weights(geo.num_layers, geo.d_model, geo.d_ff,
                                             seed=seed)
    densities, gammas, budgets = _sweep_grid(cfg["sweep"], scheme_resolved)

    grid = [(d, g) for d in densities for g in (gammas if gammas is not None else [None])]

    def run_point(point):
        density, gamma = point
        # density_in defaults to density_mid for the input-pruning schemes
        cfg_point = SchemeConfig(
            name=base_scheme.name, density_mid=density,
            gamma=base_scheme.gamma if gamma is None else gamma,
            reweight_input=base_scheme.reweight_input,
            reweight_intermediate=base_scheme.reweight_intermediate,
            predictor_hidden=base_scheme.predictor_hidden)
        # error budgets need the kernel error, so the sweep always evaluates it
        rep = hwsim.simulate_run(trace, weights, cfg_point, policy, hw, geo,
                                 kernel_eval=True)
        row = {"density": density, "throughput": rep.throughput,
               "steady_state_throughput": rep.steady_state_throughput,
               "error": rep.mean_error, "hit_rate": rep.hit_rate}
        if gamma is not None:
            row["gamma"] = gamma
        return row

    rows = [run_point(p) for p in grid]

    summaries = []
    for budget in budgets:
        try:
            tput, density = hwsim.throughput_at_error(
                [(r["density"], r["throughput"], r["error"]) for r in rows], budget)
            summaries.append({"error_budget": budget, "best_throughput": tput,
                              "best_density": density})
        except SimulationError:
            summaries.append({"error_budget": budget, "best_throughput": None,
                              "best_density": None})

    out = _report_skeleton("sweep", {
        "seed": seed, "trace": trace_resolved, "geometry": geo_resolved,
        "hardware": hw_resolved, "scheme": scheme_resolved, "policy": policy,
        "sweep": {"densities": densities, "gammas": gammas, "error_budgets": budgets}})
    out["rows"] = rows
    out["summaries"] = summaries
    _write_report(args.out, out)
    return EXIT_OK


def _signed_heavy_tailed(rng: np.random.Generator, n: int, dim: int,
                         sigma: float) -> np.ndarray:
    mags = rng.lognormal(mean=0.0, sigma=sigma, size=(n, dim))
    signs = rng.integers(0, 2, size=(n, dim)) * 2 - 1
    return mags * signs


def _cmd_calibrate_allocation(args) -> int:
    cfg = _load_config(args.config)
    _take(cfg, "config", required=("block", "grid", "targets"),
          optional=("seed", "calibration"))
    seed = _seed(args, cfg)
    block = _take(cfg["block"], "block", required=("d_model", "d_ff"), optional=("seed",))
    d_model = _get(block, "d_model", "block", _int)
    d_ff = _get(block, "d_ff", "block", _int)
    block_seed = _get(block, "seed", "block", _int, seed)
    w = MlpWeights.random(d_model, d_ff, seed=block_seed)
    calib = _take(cfg.get("calibration", {}), "calibration",
                  optional=("num_inputs", "sigma", "seed"))
    num_inputs = _get(calib, "num_inputs", "calibration", _int, 32)
    sigma = _get(calib, "sigma", "calibration", _float, 1.5)
    calib_seed = _get(calib, "seed", "calibration", _int, seed)
    if num_inputs < 1:
        raise ConfigError("calibration.num_inputs must be >= 1")
    rng = np.random.default_rng(calib_seed)
    inputs = _signed_heavy_tailed(rng, num_inputs, d_model, sigma)
    grid = _take(cfg["grid"], "grid", required=("densities_in", "densities_mid"))
    densities_in = _get(grid, "densities_in", "grid", _floats)
    densities_mid = _get(grid, "densities_mid", "grid", _floats)
    targets = _get(cfg, "targets", "", _floats)

    points = calibration.sweep_density_allocation(w, inputs, densities_in, densities_mid)
    front = calibration.pareto_front(points)
    model = calibration.fit_logit_linear(front)
    allocations = []
    for t in targets:
        alloc = calibration.optimal_allocation(model, t, d_model, d_ff)
        allocations.append({
            "target_density": t, "k_in": alloc.k_in, "k_mid": alloc.k_mid,
            "density_in": alloc.density_in, "density_mid": alloc.density_mid,
            "memory_fraction": alloc.memory_fraction,
            "relative_gap": abs(alloc.memory_fraction - t) / t})

    def point_record(p):
        return {"density_in": p.density_in, "density_mid": p.density_mid,
                "k_in": p.k_in, "k_mid": p.k_mid,
                "memory_fraction": p.memory_fraction, "error": p.error}

    out = _report_skeleton("calibrate-allocation", {
        "seed": seed,
        "block": {"d_model": d_model, "d_ff": d_ff, "seed": block_seed},
        "calibration": {"num_inputs": num_inputs, "sigma": sigma, "seed": calib_seed},
        "grid": {"densities_in": densities_in, "densities_mid": densities_mid},
        "targets": targets})
    out["points"] = [point_record(p) for p in points]
    out["pareto_front"] = [point_record(p) for p in front]
    out["model"] = {"coef_in": list(model.coef_in), "coef_mid": list(model.coef_mid)}
    out["allocations"] = allocations
    _write_report(args.out, out)
    return EXIT_OK


def _cmd_gamma_sweep(args) -> int:
    cfg = _load_config(args.config)
    _take(cfg, "config", required=("trace", "geometry", "hardware", "gammas",
                                   "densities"),
          optional=("seed", "policy", "kernel_eval"))
    seed = _seed(args, cfg)
    geo, geo_resolved = _resolve_geometry(cfg["geometry"])
    hw, hw_resolved = _resolve_hardware(cfg["hardware"])
    policy = _policy(cfg, "lfu")
    kernel_eval = _get(cfg, "kernel_eval", "", _bool, True)
    gammas = _get(cfg, "gammas", "", _floats)
    densities = _get(cfg, "densities", "", _floats)
    if not gammas or not densities:
        raise ConfigError("gammas and densities must be non-empty")
    trace, trace_resolved = _resolve_trace(cfg["trace"], geo, seed)
    weights = traces.synthetic_layer_weights(geo.num_layers, geo.d_model, geo.d_ff,
                                             seed=seed)
    # belady is rejected by simulate_run: dip_ca masks depend on the cache
    rows = calibration.gamma_sweep(trace, weights, hw, geo, gammas, densities,
                                   policy=policy, kernel_eval=kernel_eval)
    out = _report_skeleton("gamma-sweep", {
        "seed": seed, "trace": trace_resolved, "geometry": geo_resolved,
        "hardware": hw_resolved, "policy": policy, "gammas": gammas,
        "densities": densities, "kernel_eval": kernel_eval})
    out["rows"] = rows
    _write_report(args.out, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--per-token", action="store_true",
                       help="include per-token cost records in the report")
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SimulationError as e:
        print(f"simulation error: {e}", file=sys.stderr)
        return EXIT_SIMULATION
    except (ConfigError, ValueError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
