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
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from typing import List, Optional

import numpy as np

from . import calibration, hwsim, traces
from .hwsim import HardwareConfig, ModelGeometry, SchemeConfig, SimulationError
from .masking import DEFAULT_GAMMA
from .mlp import MlpWeights
from .presets import GEOMETRY_PRESETS, HARDWARE_PRESETS

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
        hw = HardwareConfig(float(spec["dram_capacity_bytes"]),
                            float(spec["dram_bandwidth"]),
                            float(spec["flash_bandwidth"]))
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
        geo = ModelGeometry(int(spec["num_layers"]), int(spec["d_model"]),
                            int(spec["d_ff"]), float(spec["bytes_per_weight"]),
                            float(spec.get("static_bytes", 0.0)))
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
        name=spec["name"],
        density_mid=spec.get("density_mid"),
        density_in=spec.get("density_in"),
        gamma=float(spec.get("gamma", DEFAULT_GAMMA)),
        reweight_input=bool(spec.get("reweight_input", True)),
        reweight_intermediate=bool(spec.get("reweight_intermediate", True)),
        predictor_hidden=int(spec.get("predictor_hidden", 0)),
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
        trace = traces.read_trace(spec["file"])
        if (trace.num_layers, trace.d_model, trace.d_ff) != (
                geo.num_layers, geo.d_model, geo.d_ff):
            raise SimulationError(
                f"trace dims (layers={trace.num_layers}, d_model={trace.d_model}, "
                f"d_ff={trace.d_ff}) do not match geometry")
        return trace, {"file": spec["file"]}
    syn = _take(dict(spec["synthetic"]), "trace.synthetic", required=("num_tokens",),
                optional=("mu", "sigma", "seed"))
    tspec = traces.SyntheticTraceSpec(
        num_tokens=int(syn["num_tokens"]), num_layers=geo.num_layers,
        d_model=geo.d_model, d_ff=geo.d_ff, mu=syn.get("mu", 0.0),
        sigma=syn.get("sigma", 1.0), seed=int(syn.get("seed", seed)))
    resolved = {"synthetic": {"num_tokens": tspec.num_tokens, "mu": list(tspec.mu),
                              "sigma": list(tspec.sigma), "seed": tspec.seed}}
    return traces.generate_synthetic_trace(tspec), resolved


def _write_report(path: str, report: dict) -> None:
    payload = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    _take(cfg, "config", required=("trace", "geometry", "hardware", "scheme", "policy"),
          optional=("seed", "kernel_eval"))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    geo, geo_resolved = _resolve_geometry(cfg["geometry"])
    hw, hw_resolved = _resolve_hardware(cfg["hardware"])
    scheme, scheme_resolved = _resolve_scheme(cfg["scheme"])
    policy = cfg["policy"]
    if policy not in hwsim.POLICY_NAMES:
        raise ConfigError(f"unknown policy {policy!r}; known: {hwsim.POLICY_NAMES}")
    kernel_eval = bool(cfg.get("kernel_eval", False))
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
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    spec = traces.SyntheticTraceSpec(
        num_tokens=int(cfg["num_tokens"]), num_layers=int(cfg["num_layers"]),
        d_model=int(cfg["d_model"]), d_ff=int(cfg["d_ff"]),
        mu=cfg.get("mu", 0.0), sigma=cfg.get("sigma", 1.0), seed=seed)
    trace = traces.generate_synthetic_trace(spec)
    traces.write_trace(args.out, trace)
    return EXIT_OK


def _sweep_grid(cfg_sweep: dict, scheme_resolved: dict):
    _take(cfg_sweep, "sweep", required=("densities",),
          optional=("gammas", "error_budgets"))
    densities = [float(d) for d in cfg_sweep["densities"]]
    if not densities:
        raise ConfigError("sweep.densities must be non-empty")
    gammas = cfg_sweep.get("gammas")
    if gammas is not None and scheme_resolved["name"] != "dip_ca":
        raise ConfigError("sweep.gammas only applies to the dip_ca scheme")
    budgets = [float(b) for b in cfg_sweep.get("error_budgets", [])]
    return densities, ([float(g) for g in gammas] if gammas is not None else None), budgets


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    _take(cfg, "config",
          required=("trace", "geometry", "hardware", "scheme", "policy", "sweep"),
          optional=("seed",))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    geo, geo_resolved = _resolve_geometry(cfg["geometry"])
    hw, hw_resolved = _resolve_hardware(cfg["hardware"])
    base_scheme, scheme_resolved = _resolve_scheme(cfg["scheme"])
    policy = cfg["policy"]
    if policy not in hwsim.POLICY_NAMES:
        raise ConfigError(f"unknown policy {policy!r}; known: {hwsim.POLICY_NAMES}")
    trace, trace_resolved = _resolve_trace(cfg["trace"], geo, seed)
    weights = traces.synthetic_layer_weights(geo.num_layers, geo.d_model, geo.d_ff,
                                             seed=seed)
    densities, gammas, budgets = _sweep_grid(dict(cfg["sweep"]), scheme_resolved)

    grid = [(d, g) for d in densities for g in (gammas if gammas is not None else [None])]

    def run_point(point):
        density, gamma = point
        cfg_point = SchemeConfig(
            name=base_scheme.name, density_mid=density,
            density_in=density if base_scheme.name in ("dip", "dip_ca") else None,
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

    if args.threads and args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(run_point, grid))
    else:
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
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    block = _take(dict(cfg["block"]), "block", required=("d_model", "d_ff"),
                  optional=("seed",))
    d_model, d_ff = int(block["d_model"]), int(block["d_ff"])
    w = MlpWeights.random(d_model, d_ff, seed=int(block.get("seed", seed)))
    calib = _take(dict(cfg.get("calibration", {})), "calibration",
                  optional=("num_inputs", "sigma", "seed"))
    num_inputs = int(calib.get("num_inputs", 32))
    sigma = float(calib.get("sigma", 1.5))
    if num_inputs < 1:
        raise ConfigError("calibration.num_inputs must be >= 1")
    rng = np.random.default_rng(int(calib.get("seed", seed)))
    inputs = _signed_heavy_tailed(rng, num_inputs, d_model, sigma)
    grid = _take(dict(cfg["grid"]), "grid", required=("densities_in", "densities_mid"))
    targets = [float(t) for t in cfg["targets"]]

    points = calibration.sweep_density_allocation(
        w, inputs, [float(d) for d in grid["densities_in"]],
        [float(d) for d in grid["densities_mid"]])
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
        "block": {"d_model": d_model, "d_ff": d_ff, "seed": int(block.get("seed", seed))},
        "calibration": {"num_inputs": num_inputs, "sigma": sigma,
                        "seed": int(calib.get("seed", seed))},
        "grid": {"densities_in": [float(d) for d in grid["densities_in"]],
                 "densities_mid": [float(d) for d in grid["densities_mid"]]},
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
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    geo, geo_resolved = _resolve_geometry(cfg["geometry"])
    hw, hw_resolved = _resolve_hardware(cfg["hardware"])
    policy = cfg.get("policy", "lfu")
    if policy == "belady":
        raise SimulationError("belady eviction is ill-defined for cache-aware masking")
    if policy not in hwsim.POLICY_NAMES:
        raise ConfigError(f"unknown policy {policy!r}; known: {hwsim.POLICY_NAMES}")
    trace, trace_resolved = _resolve_trace(cfg["trace"], geo, seed)
    weights = traces.synthetic_layer_weights(geo.num_layers, geo.d_model, geo.d_ff,
                                             seed=seed)
    gammas = [float(g) for g in cfg["gammas"]]
    densities = [float(d) for d in cfg["densities"]]
    if not gammas or not densities:
        raise ConfigError("gammas and densities must be non-empty")
    rows = calibration.gamma_sweep(trace, weights, hw, geo, gammas, densities,
                                   policy=policy,
                                   kernel_eval=bool(cfg.get("kernel_eval", True)))
    out = _report_skeleton("gamma-sweep", {
        "seed": seed, "trace": trace_resolved, "geometry": geo_resolved,
        "hardware": hw_resolved, "policy": policy, "gammas": gammas,
        "densities": densities, "kernel_eval": bool(cfg.get("kernel_eval", True))})
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
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for grid sweeps")
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
