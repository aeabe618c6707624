"""Command-line experiment runner: every verb, report schema, determinism,
and exit-code mapping."""
import builtins
import contextlib
import io
import json
import math
import os
import re
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsim import MlpWeights, Trace, cache, hwsim, read_trace, traces, write_trace
from sparsim.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_SIMULATION,
    EXIT_VALIDATION,
    MAX_ARRAY_BYTES,
    ConfigError,
    _build_parser,
    _check_bytes,
    _write_report,
    main,
)


GEOMETRY = {"num_layers": 2, "d_model": 16, "d_ff": 48, "bytes_per_weight": 2.0}
HARDWARE = {"dram_capacity_bytes": 3000.0, "dram_bandwidth": 60e9,
            "flash_bandwidth": 1e9}


def _write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run_config(**overrides):
    cfg = {
        "trace": {"synthetic": {"num_tokens": 6, "sigma": 1.0}},
        "geometry": dict(GEOMETRY),
        "hardware": dict(HARDWARE),
        "scheme": {"name": "dip", "density_mid": 0.5},
        "policy": "lfu",
    }
    cfg.update(overrides)
    return cfg


def _load(path):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_writes_report(tmp_path):
    cfg = _write_config(tmp_path, "c.json", _run_config())
    out = tmp_path / "report.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = _load(out)
    assert report["schema_version"] == 1
    assert report["command"] == "run"
    assert report["config"]["policy"] == "lfu"
    assert report["config"]["scheme"]["name"] == "dip"
    m = report["metrics"]
    assert m["num_tokens"] == 6
    assert m["throughput_tok_per_s"] > 0
    assert 0.0 <= m["hit_rate"] <= 1.0
    assert len(report["per_layer"]) == 2
    assert "per_token" not in report


def test_run_per_token_flag(tmp_path):
    cfg = _write_config(tmp_path, "c.json", _run_config())
    out = tmp_path / "report.json"
    assert main(["run", "--config", cfg, "--out", str(out), "--per-token"]) == EXIT_OK
    report = _load(out)
    assert len(report["per_token"]) == 6
    assert {"flash_bytes", "dram_bytes", "latency_s", "hits", "misses",
            "bypassed"} <= set(report["per_token"][0])


def test_run_kernel_eval_and_presets(tmp_path):
    cfg = _write_config(tmp_path, "c.json", _run_config(
        geometry="desk-small", hardware="phone-4gb", kernel_eval=True))
    out = tmp_path / "report.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = _load(out)
    assert report["metrics"]["mean_error"] > 0
    assert report["config"]["geometry"]["preset"] == "desk-small"
    assert report["config"]["hardware"]["preset"] == "phone-4gb"


def test_run_builds_the_weights_only_when_it_reads_them(tmp_path, monkeypatch):
    # dense has no row masks and is the dense block itself, so its kernel
    # error is 0 without a forward pass; only a pruning scheme reads weights
    built = []
    real = traces.synthetic_layer_weights
    monkeypatch.setattr(traces, "synthetic_layer_weights",
                        lambda *a, **k: built.append(a) or real(*a, **k))
    for scheme, kernel_eval, reads in (({"name": "dense"}, False, False),
                                       ({"name": "dense"}, True, False),
                                       ({"name": "glu", "density_mid": 0.5}, False, True)):
        cfg = _write_config(tmp_path, "c.json", _run_config(scheme=scheme,
                                                            kernel_eval=kernel_eval))
        out = tmp_path / "report.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert bool(built) == reads, (scheme, kernel_eval)
        assert _load(out)["metrics"]["mean_error"] == (0.0 if kernel_eval else None)
        built.clear()


def test_run_reports_are_deterministic_modulo_timestamp(tmp_path):
    cfg = _write_config(tmp_path, "c.json", _run_config(kernel_eval=True))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["run", "--config", cfg, "--out", str(out1), "--seed", "7"]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(out2), "--seed", "7"]) == EXIT_OK
    strip = lambda p: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null',
                             p.read_text())
    assert strip(out1) == strip(out2)


def test_report_totals_do_not_depend_on_the_builtin_sum(tmp_path, monkeypatch):
    # a report's float totals add up in token order, as its per-token and
    # per-layer sums do; the builtin sum's float path is compensated from
    # Python 3.12, so a total that used it would change with the Python
    # version.  Shadowing it in hwsim with a compensated sum changes no byte
    def compensated(values, start=0):
        values = list(values)
        if any(isinstance(v, float) for v in values):
            return math.fsum([start, *values])
        return builtins.sum(values, start)

    cfg = _write_config(tmp_path, "c.json", _run_config(
        trace={"synthetic": {"num_tokens": 40, "sigma": 2.0}}))
    out = tmp_path / "r.json"

    def report():
        assert main(["run", "--config", cfg, "--out", str(out), "--per-token"]) == EXIT_OK
        return re.sub(rb'"timestamp": "[^"]*"', b"", out.read_bytes())

    want = report()
    monkeypatch.setattr(hwsim, "sum", compensated, raising=False)
    assert report() == want


def test_run_config_echo(tmp_path):
    # the report echoes every field of each config object, defaults filled in
    cfg = _write_config(tmp_path, "c.json", _run_config(
        scheme={"name": "dip_ca", "density_mid": 0.5}))
    out = tmp_path / "report.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    config = _load(out)["config"]
    assert config == {
        "seed": 0, "policy": "lfu", "kernel_eval": False,
        "trace": {"synthetic": {"num_tokens": 6, "mu": [0.0, 0.0], "sigma": [1.0, 1.0],
                                "seed": 0}},
        "geometry": {"num_layers": 2, "d_model": 16, "d_ff": 48, "bytes_per_weight": 2.0,
                     "static_bytes": 0.0},
        "hardware": {"dram_capacity_bytes": 3000.0, "dram_bandwidth": 60e9,
                     "flash_bandwidth": 1e9},
        "scheme": {"name": "dip_ca", "density_mid": 0.5, "density_in": 0.5, "gamma": 0.2,
                   "reweight_input": True, "reweight_intermediate": True,
                   "predictor_hidden": 0}}
    cfg = _write_config(tmp_path, "p.json", _run_config(
        geometry="desk-small", hardware="phone-2gb", scheme={"name": "dense"}))
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    config = _load(out)["config"]
    assert config["geometry"] == {"preset": "desk-small", "num_layers": 2, "d_model": 48,
                                  "d_ff": 144, "bytes_per_weight": 0.5,
                                  "static_bytes": 0.0}
    assert config["hardware"] == {"preset": "phone-2gb", "dram_capacity_bytes": 2e9,
                                  "dram_bandwidth": 60e9, "flash_bandwidth": 1e9}
    assert config["scheme"] == {"name": "dense", "density_mid": None, "density_in": None,
                                "gamma": 0.2, "reweight_input": True,
                                "reweight_intermediate": True, "predictor_hidden": 0}


def test_run_seed_changes_synthetic_trace(tmp_path):
    cfg = _write_config(tmp_path, "c.json", _run_config())
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["run", "--config", cfg, "--out", str(out1), "--seed", "1"])
    main(["run", "--config", cfg, "--out", str(out2), "--seed", "2"])
    assert _load(out1)["metrics"]["flash_bytes"] != \
        _load(out2)["metrics"]["flash_bytes"]


def test_run_from_trace_file(tmp_path):
    trace_path = tmp_path / "trace.bin"
    gen_cfg = _write_config(tmp_path, "g.json", {
        "num_tokens": 5, "num_layers": 2, "d_model": 16, "d_ff": 48,
        "sigma": 1.0, "seed": 3})
    assert main(["gen-trace", "--config", gen_cfg, "--out", str(trace_path)]) == EXIT_OK
    cfg = _write_config(tmp_path, "c.json", _run_config(
        trace={"file": str(trace_path)}))
    out = tmp_path / "report.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert _load(out)["metrics"]["num_tokens"] == 5
    assert _load(out)["config"]["trace"]["file"] == str(trace_path)


# ---------------------------------------------------------------------------
# gen-trace
# ---------------------------------------------------------------------------

def test_gen_trace_round_trip(tmp_path):
    cfg = _write_config(tmp_path, "g.json", {
        "num_tokens": 4, "num_layers": 3, "d_model": 8, "d_ff": 24,
        "mu": [0.0, 1.0, 2.0], "sigma": 0.8, "seed": 11})
    out = tmp_path / "trace.bin"
    assert main(["gen-trace", "--config", cfg, "--out", str(out)]) == EXIT_OK
    tr = read_trace(out)
    assert tr.activations.shape == (4, 3, 8)
    assert tr.d_ff == 24


def test_gen_trace_empty(tmp_path):
    cfg = _write_config(tmp_path, "g.json", {
        "num_tokens": 0, "num_layers": 1, "d_model": 4, "d_ff": 8})
    out = tmp_path / "trace.bin"
    assert main(["gen-trace", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert read_trace(out).num_tokens == 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_rows_and_budget_summaries(tmp_path):
    cfg = _write_config(tmp_path, "s.json", _run_config(
        sweep={"densities": [0.25, 0.5, 0.75], "error_budgets": [0.6, 1e-9]}))
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = _load(out)
    assert len(report["rows"]) == 3
    for row in report["rows"]:
        assert row["error"] is not None and row["throughput"] > 0
    ok, impossible = report["summaries"]
    assert ok["error_budget"] == 0.6 and ok["best_throughput"] > 0
    # an unachievable budget reports null rather than failing the sweep
    assert impossible["best_throughput"] is None


def test_sweep_gamma_grid_for_cache_aware_scheme(tmp_path):
    cfg = _write_config(tmp_path, "s.json", _run_config(
        scheme={"name": "dip_ca", "density_mid": 0.5},
        sweep={"densities": [0.25, 0.5], "gammas": [0.2, 1.0]}))
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = _load(out)["rows"]
    assert len(rows) == 4
    assert {(r["density"], r["gamma"]) for r in rows} == \
        {(0.25, 0.2), (0.25, 1.0), (0.5, 0.2), (0.5, 1.0)}


@pytest.mark.parametrize("scheme,grid", [
    ("dip_ca", {"densities": [0.25, 0.5], "gammas": [0.2, 1.0]}),
    ("dip", {"densities": [0.25, 0.5, 0.25]}),
    ("glu", {"densities": [0.75, 0.5]}),
])
@pytest.mark.parametrize("policy", ["lru", "lfu"])
def test_sweep_rows_equal_the_run_of_their_point(tmp_path, scheme, grid, policy):
    # a sweep runs its points in lockstep; each row must still equal, bit
    # for bit, the run report of its point with kernel_eval on
    cfg = _write_config(tmp_path, "s.json", _run_config(
        scheme={"name": scheme}, policy=policy, sweep=grid))
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = _load(out)["rows"]
    assert len(rows) == len(grid["densities"]) * len(grid.get("gammas", [None]))
    for i, row in enumerate(rows):
        scheme_cfg = {"name": scheme, "density_mid": row["density"]}
        if "gamma" in row:
            scheme_cfg["gamma"] = row["gamma"]
        run_cfg = _write_config(tmp_path, f"r{i}.json", _run_config(
            scheme=scheme_cfg, policy=policy, kernel_eval=True))
        run_out = tmp_path / f"r{i}.out.json"
        assert main(["run", "--config", run_cfg, "--out", str(run_out)]) == EXIT_OK
        m = _load(run_out)["metrics"]
        assert (row["throughput"], row["steady_state_throughput"], row["error"],
                row["hit_rate"]) == (m["throughput_tok_per_s"],
                                     m["steady_state_throughput_tok_per_s"],
                                     m["mean_error"], m["hit_rate"])


def test_sweep_gammas_rejected_for_oblivious_scheme(tmp_path):
    cfg = _write_config(tmp_path, "s.json", _run_config(
        sweep={"densities": [0.5], "gammas": [0.2]}))
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION


def test_sweep_rejects_scheme_density_in(tmp_path, capsys):
    # each point's density_in follows sweep.densities; a scheme.density_in
    # would be echoed in the report without being used
    cfg = _write_config(tmp_path, "s.json", _run_config(
        scheme={"name": "dip", "density_mid": 0.5, "density_in": 0.125},
        sweep={"densities": [0.5]}))
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error") and "density_in" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("verb,cfg,what", [
    ("sweep", _run_config(sweep={"densities": [0.5], "gammas": [0.2]}),
     "sweep.gammas only applies to cache-aware schemes"),
    ("sweep", _run_config(sweep={"densities": [2.0]}), "densities must be in (0, 1]"),
    ("gamma-sweep", {**_run_config(gammas=[1.5], densities=[0.5]), "scheme": None},
     "gamma must be in [0, 1]"),
], ids=["gammas-on-dip", "density-2", "gamma-1.5"])
def test_sweep_point_errors_exit_before_the_trace_is_built(tmp_path, capsys, monkeypatch,
                                                           verb, cfg, what):
    # a verb checks its own points before it draws the trace or the weights
    built = []
    for name in ("generate_synthetic_trace", "synthetic_layer_weights"):
        monkeypatch.setattr(traces, name, lambda *a, _name=name, **k: built.append(_name))
    cfg = {k: v for k, v in cfg.items() if v is not None}
    out = tmp_path / "out"
    assert main([verb, "--config", _write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error") and what in err
    assert err.count("\n") == 1
    assert built == []
    assert not out.exists()


def test_sweep_single_point_grid(tmp_path):
    cfg = _write_config(tmp_path, "s.json", _run_config(
        sweep={"densities": [0.5]}))
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert len(_load(out)["rows"]) == 1


def test_sweep_rejects_empty_gammas(tmp_path, capsys):
    cfg = _write_config(tmp_path, "s.json", _run_config(
        scheme={"name": "dip_ca", "density_mid": 0.5},
        sweep={"densities": [0.5], "gammas": [], "error_budgets": [0.5]}))
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "validation error: sweep.gammas must be non-empty\n"
    assert not out.exists()


def test_sweep_density_mid_is_optional(tmp_path):
    # every point sets density_mid, so the scheme's own is not needed; an
    # absent one is echoed as null, a given one as given
    reports = {}
    for name, scheme in (("absent", {"name": "dip"}),
                         ("given", {"name": "dip", "density_mid": 0.5})):
        cfg = _write_config(tmp_path, f"{name}.json", _run_config(
            scheme=scheme, sweep={"densities": [0.25, 0.75], "error_budgets": [0.6]}))
        out = tmp_path / f"{name}.out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        reports[name] = _load(out)
    assert reports["absent"]["rows"] == reports["given"]["rows"]
    assert reports["absent"]["summaries"] == reports["given"]["summaries"]
    echo = {name: r["config"]["scheme"] for name, r in reports.items()}
    assert (echo["absent"]["density_mid"], echo["absent"]["density_in"]) == (None, None)
    assert (echo["given"]["density_mid"], echo["given"]["density_in"]) == (0.5, 0.5)


# ---------------------------------------------------------------------------
# calibrate-allocation
# ---------------------------------------------------------------------------

def test_calibrate_allocation_end_to_end(tmp_path):
    cfg = _write_config(tmp_path, "cal.json", {
        "block": {"d_model": 32, "d_ff": 96, "seed": 9},
        "grid": {"densities_in": [0.2, 0.4, 0.6, 0.8, 0.95],
                 "densities_mid": [0.2, 0.4, 0.6, 0.8, 0.95]},
        "targets": [0.4, 0.6],
        "calibration": {"num_inputs": 16, "sigma": 1.5, "seed": 5},
    })
    out = tmp_path / "cal_report.json"
    assert main(["calibrate-allocation", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = _load(out)
    assert len(report["points"]) == 25
    assert 0 < len(report["pareto_front"]) <= 25
    assert len(report["model"]["coef_in"]) == 2
    for alloc in report["allocations"]:
        assert alloc["relative_gap"] < 0.1
        assert 1 <= alloc["k_in"] <= 32 and 1 <= alloc["k_mid"] <= 96


# ---------------------------------------------------------------------------
# gamma-sweep
# ---------------------------------------------------------------------------

def test_gamma_sweep_verb(tmp_path):
    cfg = _write_config(tmp_path, "gs.json", {
        "trace": {"synthetic": {"num_tokens": 6, "sigma": 1.5}},
        "geometry": dict(GEOMETRY),
        "hardware": dict(HARDWARE),
        "gammas": [0.2, 1.0],
        "densities": [0.5],
    })
    out = tmp_path / "gs.json.out"
    assert main(["gamma-sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = _load(out)["rows"]
    assert len(rows) == 2
    assert {r["gamma"] for r in rows} == {0.2, 1.0}


def test_gamma_sweep_rejects_belady(tmp_path):
    cfg = _write_config(tmp_path, "gs.json", {
        "trace": {"synthetic": {"num_tokens": 4}},
        "geometry": dict(GEOMETRY),
        "hardware": dict(HARDWARE),
        "gammas": [0.2],
        "densities": [0.5],
        "policy": "belady",
    })
    out = tmp_path / "gs.json.out"
    assert main(["gamma-sweep", "--config", cfg, "--out", str(out)]) == EXIT_SIMULATION


# ---------------------------------------------------------------------------
# exit codes and diagnostics
# ---------------------------------------------------------------------------

def test_validation_error_for_bad_density(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", _run_config(
        scheme={"name": "dip", "density_mid": 2.0}))
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb,cfg", [
    ("run", _run_config(policy="fifo")),
    ("sweep", _run_config(policy="fifo", sweep={"densities": [0.5]})),
    ("gamma-sweep", {**_run_config(policy="fifo"), "scheme": None, "gammas": [0.5],
                     "densities": [0.5]}),
])
def test_validation_error_for_an_unknown_policy_is_the_cache_states(tmp_path, capsys,
                                                                    monkeypatch, verb, cfg):
    # the config read checks the name with the cache state's own check,
    # before any trace or weights are built
    for mod, name in ((traces, "generate_synthetic_trace"),
                      (traces, "synthetic_layer_weights"), (MlpWeights, "random")):
        monkeypatch.setattr(mod, name, _never_called)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    out = tmp_path / "out"
    assert main([verb, "--config", _write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == EXIT_VALIDATION
    with pytest.raises(ValueError) as e:
        cache.CacheState(0, 0, "fifo")
    assert capsys.readouterr().err == f"validation error: {e.value}\n"
    assert "unknown policy 'fifo'; expected one of" in str(e.value)
    assert not out.exists()


def test_validation_error_for_unknown_config_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", _run_config(bogus_key=1))
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    assert "bogus_key" in capsys.readouterr().err


def test_simulation_error_for_belady_with_cache_aware_masks(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", _run_config(
        scheme={"name": "dip_ca", "density_mid": 0.5}, policy="belady"))
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_SIMULATION
    assert "simulation error" in capsys.readouterr().err


def test_simulation_error_for_static_exceeding_dram(tmp_path, capsys):
    geo = dict(GEOMETRY, static_bytes=5000.0)
    cfg = _write_config(tmp_path, "c.json", _run_config(geometry=geo))
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_SIMULATION


@pytest.mark.parametrize("verb,scheme", [
    ("run", {"name": "glu", "density_mid": 0.5, "density_in": 0.125}),
    ("run", {"name": "glu", "density_mid": 0.5, "reweight_input": False}),
    ("run", {"name": "dip", "density_mid": 0.5, "gamma": 0.2}),
    ("run", {"name": "dip", "density_mid": 0.5, "predictor_hidden": 0}),
    ("run", {"name": "dense", "density_mid": 0.5}),
    ("run", {"name": "predictive", "density_mid": 0.5, "reweight_intermediate": True}),
    ("sweep", {"name": "dense", "predictor_hidden": 64, "gamma": 0.5}),
    # a dense sweep repeats one run at every density
    ("sweep", {"name": "dense"}),
])
def test_validation_error_for_scheme_keys_the_scheme_never_reads(tmp_path, capsys, verb,
                                                                  scheme):
    cfg = _write_config(tmp_path, "c.json", _run_config(
        scheme=scheme, sweep={"densities": [0.25, 0.5]}) if verb == "sweep"
        else _run_config(scheme=scheme))
    out = tmp_path / "r.json"
    assert main([verb, "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("per_token", [False, True])
def test_simulation_error_for_latency_overflow(tmp_path, capsys, per_token):
    # a denormal DRAM bandwidth: without the check, a run reported a
    # throughput of 0.0, and --per-token failed to write inf latencies
    cfg = _write_config(tmp_path, "c.json", _run_config(
        geometry="desk-small", trace={"synthetic": {"num_tokens": 3}},
        hardware={"dram_capacity_bytes": 1e3, "dram_bandwidth": 1e-320,
                  "flash_bandwidth": 1e9}))
    out = tmp_path / "r.json"
    argv = ["run", "--config", cfg, "--out", str(out)] + ["--per-token"] * per_token
    assert main(argv) == EXIT_SIMULATION
    err = capsys.readouterr().err
    assert err.startswith("simulation error: ") and "overflows" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("per_token", [False, True])
def test_simulation_error_for_latency_underflow(tmp_path, capsys, per_token):
    # 1e-320 B weights at GB/s: every token's latency underflows to 0, which
    # reported throughputs of 0.0 tok/s as if the run had stalled
    cfg = _write_config(tmp_path, "c.json", _run_config(geometry={
        "num_layers": 2, "d_model": 8, "d_ff": 16, "bytes_per_weight": 1e-320}))
    out = tmp_path / "r.json"
    argv = ["run", "--config", cfg, "--out", str(out)] + ["--per-token"] * per_token
    assert main(argv) == EXIT_SIMULATION
    err = capsys.readouterr().err
    assert err.startswith("simulation error: ") and "underflows" in err
    assert err.count("\n") == 1
    assert not out.exists()
    # no tokens, no latency: throughput stays 0.0
    cfg = _write_config(tmp_path, "c.json", {**_load(cfg), "trace": {
        "synthetic": {"num_tokens": 0}}})
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    metrics = _load(out)["metrics"]
    assert metrics["throughput_tok_per_s"] == metrics["steady_state_throughput_tok_per_s"] == 0.0
    # nor traffic: the totals are float sums, as the per-layer ones are
    assert [type(metrics[k]) for k in ("flash_bytes", "dram_bytes")] == [float, float]


@pytest.mark.parametrize("per_token", [False, True])
def test_simulation_error_for_throughput_overflow(tmp_path, capsys, per_token):
    # 1e-320 B weights at 1 B/s: each token's latency is a tiny subnormal,
    # not 0, so tokens / latency overflowed to inf and the JSON writer
    # failed with exit 1
    cfg = _write_config(tmp_path, "c.json", _run_config(
        geometry={**GEOMETRY, "bytes_per_weight": 1e-320},
        hardware={"dram_capacity_bytes": 3000.0, "dram_bandwidth": 1.0,
                  "flash_bandwidth": 1.0}))
    out = tmp_path / "r.json"
    argv = ["run", "--config", cfg, "--out", str(out)] + ["--per-token"] * per_token
    assert main(argv) == EXIT_SIMULATION
    err = capsys.readouterr().err
    assert err.startswith("simulation error: ") and "throughput overflows" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("geometry,dram", [
    ({"num_layers": 2, "d_model": 8, "d_ff": 16, "bytes_per_weight": 1e-12}, 1e300),
    ({**GEOMETRY, "bytes_per_weight": 1e-320}, HARDWARE["dram_capacity_bytes"]),
])
def test_run_caches_every_unit_when_the_unit_count_overflows(tmp_path, capsys, monkeypatch,
                                                            geometry, dram):
    # DRAM over the unit bytes by more than the float range: inf units per
    # cache were an OverflowError traceback, and now cap at the universe
    allocated = []
    real = hwsim.allocate_dram

    def spy(hw, geo, groups, **kwargs):
        capacities = real(hw, geo, groups, **kwargs)
        allocated.append((capacities, tuple(g.universe for g in groups)))
        return capacities

    monkeypatch.setattr(hwsim, "allocate_dram", spy)
    # bandwidths of 1e-300 B/s keep the latency of 1e-320 B weights a normal
    # float: at HARDWARE's it underflows to 0, which is exit 2
    cfg = _write_config(tmp_path, "c.json", _run_config(geometry=geometry, hardware={
        "dram_capacity_bytes": dram, "dram_bandwidth": 1e-300, "flash_bandwidth": 1e-300}))
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    capacities, universes = allocated[-1]
    assert capacities == universes


def test_simulation_error_for_trace_geometry_mismatch(tmp_path, capsys):
    gen_cfg = _write_config(tmp_path, "g.json", {
        "num_tokens": 4, "num_layers": 1, "d_model": 8, "d_ff": 24})
    trace_path = tmp_path / "t.bin"
    main(["gen-trace", "--config", gen_cfg, "--out", str(trace_path)])
    cfg = _write_config(tmp_path, "c.json", _run_config(
        trace={"file": str(trace_path)}))
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_SIMULATION


def test_validation_error_for_nan_in_trace_file(tmp_path, capsys):
    # a trace file in gen-trace format with one NaN activation: rejected on
    # read with one stderr line and no report, never written as bare NaN
    trace_path = tmp_path / "t.bin"
    gen_cfg = _write_config(tmp_path, "g.json", {
        "num_tokens": 4, "num_layers": 2, "d_model": 16, "d_ff": 48, "seed": 3})
    assert main(["gen-trace", "--config", gen_cfg, "--out", str(trace_path)]) == EXIT_OK
    acts = read_trace(trace_path).activations.copy()
    acts[1, 0, 3] = np.nan
    write_trace(trace_path, Trace(num_layers=2, d_model=16, d_ff=48, activations=acts))
    capsys.readouterr()
    cfg = _write_config(tmp_path, "c.json", _run_config(
        trace={"file": str(trace_path)}, kernel_eval=True))
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error") and "non-finite" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_validation_error_for_unit_access_trace_file(tmp_path, capsys):
    # a file of the old unit-access payload (kind 1), which is no longer read
    trace_path = tmp_path / "u.bin"
    header = traces.TRACE_MAGIC + struct.pack("<IB", traces.TRACE_VERSION, 1)
    trace_path.write_bytes(header + struct.pack("<IIII", 2, 8, 24, 1) + bytes([1, 5, 0]))
    cfg = _write_config(tmp_path, "c.json", _run_config(
        trace={"file": str(trace_path)},
        geometry={"num_layers": 2, "d_model": 8, "d_ff": 24, "bytes_per_weight": 2.0}))
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error") and "payload kind 1" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_reports_are_strict_json(tmp_path):
    out = tmp_path / "r.json"
    with pytest.raises(ValueError):
        _write_report(str(out), {"mean_error": float("nan")})
    assert list(tmp_path.iterdir()) == []


def test_io_error_for_missing_config(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["run", "--config", str(tmp_path / "absent.json"),
                 "--out", str(out)])
    assert code == EXIT_IO
    assert "io error" in capsys.readouterr().err


def test_validation_error_for_malformed_json(tmp_path, capsys):
    # the last input nests deeper than the JSON parser can recurse
    for text in ("{not json", "[" * 100000):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "r.json"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["run", "--config", "c.json"], "the following arguments are required: --out"),
    (["run", "--config", "c.json", "--out", "r.json", "--seed", "abc"],
     "argument --seed: invalid int value: 'abc'"),
    ([], "the following arguments are required: command"),
    (["simulate", "--config", "c.json", "--out", "r.json"], "invalid choice: 'simulate'"),
], ids=["no-out", "seed-not-an-int", "no-verb", "unknown-verb"])
def test_usage_errors_are_validation_errors(capsys, argv, message):
    # one stderr line and exit 1, as for a bad config; no usage block
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error: ") and message in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--per-token" in capsys.readouterr().out


@pytest.mark.parametrize("verb", ["gen-trace", "sweep", "calibrate-allocation",
                                  "gamma-sweep"])
def test_per_token_is_a_run_flag_only(tmp_path, capsys, verb):
    # only run writes per-token records; other verbs reject the flag
    cfg = _write_config(tmp_path, "c.json", _FUZZ_CONFIGS[verb])
    out = tmp_path / "out"
    assert main([verb, "--config", cfg, "--out", str(out), "--per-token"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "validation error: unrecognized arguments: --per-token\n"
    assert not out.exists()


def test_calls_in_one_process_equal_separate_calls(tmp_path, capsys):
    # main builds the parser once per process: a run, a usage error and a
    # gen-trace in a row give the exit codes, stderr lines and report bytes
    # (timestamp aside) of the same calls each with a parser of its own
    run_cfg = _write_config(tmp_path, "run.json", _run_config(kernel_eval=True))
    sweep_cfg = _write_config(tmp_path, "sweep.json", _FUZZ_CONFIGS["sweep"])
    gen_cfg = _write_config(tmp_path, "gen.json", _FUZZ_CONFIGS["gen-trace"])
    calls = [("run", run_cfg, []), ("sweep", sweep_cfg, ["--per-token"]),
             ("gen-trace", gen_cfg, [])]

    def outcomes(tag, fresh):
        got = []
        for verb, cfg, extra in calls:
            if fresh:
                _build_parser.cache_clear()
            out = tmp_path / f"{tag}-{verb}.out"
            code = main([verb, "--config", cfg, "--out", str(out), *extra])
            report = re.sub(rb'"timestamp": "[^"]*"', b"", out.read_bytes()) \
                if out.exists() else None
            got.append((code, capsys.readouterr().err, report))
        return got
    separate = outcomes("separate", fresh=True)
    assert _build_parser() is _build_parser()
    assert outcomes("shared", fresh=False) == separate
    assert [code for code, *_ in separate] == [EXIT_OK, EXIT_VALIDATION, EXIT_OK]
    assert separate[1][1] == "validation error: unrecognized arguments: --per-token\n"
    assert [err for _, err, _ in separate[::2]] == ["", ""]


def test_validation_error_for_unknown_preset(tmp_path):
    cfg = _write_config(tmp_path, "c.json", _run_config(geometry="no-such-preset"))
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION


def test_trace_requires_exactly_one_source(tmp_path):
    cfg = _write_config(tmp_path, "c.json", _run_config(trace={}))
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    cfg2 = _write_config(tmp_path, "c2.json", _run_config(
        trace={"file": "x.bin", "synthetic": {"num_tokens": 2}}))
    assert main(["run", "--config", cfg2, "--out", str(out)]) == EXIT_VALIDATION


# ---------------------------------------------------------------------------
# typed config reads: wrong-typed values anywhere in a config
# ---------------------------------------------------------------------------

def test_validation_error_for_string_density(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", _run_config(
        scheme={"name": "dip", "density_mid": "0.5"}))
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "scheme.density_mid must be a number" in err
    assert not out.exists()


def test_validation_error_for_scalar_sweep_densities(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", _run_config(sweep={"densities": 0.5}))
    out = tmp_path / "r.json"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "sweep.densities must be a list" in err


def test_validation_error_when_config_exceeds_memory(tmp_path, capsys, monkeypatch):
    # a trace too large to allocate is exit 1 with one stderr line; the
    # allocation failure is simulated, nothing that large is asked for
    def too_large(spec):
        raise MemoryError(f"Unable to allocate an array for {spec.num_tokens} tokens")

    monkeypatch.setattr(traces, "generate_synthetic_trace", too_large)
    # within MAX_ARRAY_BYTES, so the allocator is reached
    cfg = _write_config(tmp_path, "g.json", {
        "num_tokens": 1000000, "num_layers": 2, "d_model": 8, "d_ff": 24})
    out = tmp_path / "t.bin"
    assert main(["gen-trace", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(
        "validation error: config needs more memory than is available: Unable to allocate")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("verb,cfg,what", [
    ("gen-trace", {"num_tokens": 3, "num_layers": 2, "d_model": 8, "d_ff": 24, "mu": 1e12},
     "float32 range"),
    ("run", _run_config(trace={"synthetic": {"num_tokens": 3, "sigma": 1e12}}),
     "float32 range"),
    ("calibrate-allocation", {"block": {"d_model": 8, "d_ff": 24},
                              "calibration": {"sigma": 1e12},
                              "grid": {"densities_in": [0.5], "densities_mid": [0.5]},
                              "targets": [0.5]}, "calibration.sigma"),
    # 3e310 bytes per layer: inf unit bytes once gave "cannot convert float
    # NaN to integer"
    ("run", _run_config(geometry={"num_layers": 2, "d_model": 100, "d_ff": 100,
                                  "bytes_per_weight": 1e306}), "bytes_per_weight"),
    # exp(700) is a finite float64 draw that overflows float32
    ("gen-trace", {"num_tokens": 2, "num_layers": 1, "d_model": 2, "d_ff": 2, "mu": 700},
     "float32 range"),
    ("run", _run_config(trace={"synthetic": {"num_tokens": 2, "mu": 700}}), "float32 range"),
    # finite inputs whose forward overflows
    ("calibrate-allocation", {"block": {"d_model": 8, "d_ff": 24},
                              "calibration": {"sigma": 60},
                              "grid": {"densities_in": [0.5], "densities_mid": [0.5]},
                              "targets": [0.5]}, "calibration.sigma"),
])
def test_validation_error_for_inputs_that_overflow(tmp_path, capsys, verb, cfg, what):
    # a huge mu or sigma overflows the generated data or the forward, and a
    # huge bytes_per_weight the model's bytes: rejected where they are made,
    # with one stderr line and no numpy warning
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([verb, "--config", _write_config(tmp_path, "c.json", cfg),
                     "--out", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error") and what in err
    assert err.count("\n") == 1
    assert not out.exists()


_CALIBRATE = {"block": {"d_model": 8, "d_ff": 24},
              "grid": {"densities_in": [0.25, 0.75], "densities_mid": [0.25, 0.75]},
              "targets": [0.5]}


@pytest.mark.parametrize("verb,cfg,what", [
    ("calibrate-allocation", {**_CALIBRATE, "calibration": {"sigma": 0}},
     "calibration.sigma must be > 0"),
    ("calibrate-allocation", {**_CALIBRATE, "calibration": {"sigma": -1}},
     "calibration.sigma must be > 0"),
    ("gen-trace", {"num_tokens": 3, "num_layers": 2, "d_model": 8, "d_ff": 24, "sigma": 0},
     "sigma must be > 0"),
    ("run", _run_config(trace={"synthetic": {"num_tokens": 3, "sigma": 0}}),
     "sigma must be > 0"),
], ids=["calibration-sigma-0", "calibration-sigma-negative", "gen-trace", "run"])
def test_validation_error_for_a_sigma_not_above_zero(tmp_path, capsys, verb, cfg, what):
    # every verb that draws lognormal data rejects sigma <= 0 in one line;
    # calibrate-allocation once ran sigma 0 as exit 0 and passed -1 to numpy
    out = tmp_path / "out"
    assert main([verb, "--config", _write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error") and what in err
    assert err.count("\n") == 1
    assert not out.exists()


_GEN_TRACE = {"num_tokens": 3, "num_layers": 2, "d_model": 8, "d_ff": 24}


@pytest.mark.parametrize("verb,cfg,argv,what", [
    ("run", _run_config(seed=-1), [], "seed"),
    ("run", _run_config(), ["--seed", "-1"], "seed"),
    ("run", _run_config(trace={"synthetic": {"num_tokens": 3, "seed": -1}}), [],
     "trace.synthetic.seed"),
    ("calibrate-allocation", {**_CALIBRATE, "block": {"d_model": 8, "d_ff": 24, "seed": -1}},
     [], "block.seed"),
    ("calibrate-allocation", {**_CALIBRATE, "calibration": {"seed": -1}}, [],
     "calibration.seed"),
    ("gen-trace", {**_GEN_TRACE, "seed": -1}, [], "seed"),
], ids=["seed", "seed-flag", "trace-synthetic-seed", "block-seed", "calibration-seed",
        "gen-trace-seed"])
def test_validation_error_for_a_negative_seed_names_its_key(tmp_path, capsys, verb, cfg,
                                                             argv, what):
    # numpy's own message for a negative seed names no key
    out = tmp_path / "out"
    assert main([verb, "--config", _write_config(tmp_path, "c.json", cfg),
                 "--out", str(out), *argv]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation error: {what} must be >= 0\n"
    assert not out.exists()


def test_seeds_beyond_64_bits_stay_valid(tmp_path):
    out = tmp_path / "out"
    assert main(["gen-trace", "--config", _write_config(tmp_path, "c.json", _GEN_TRACE),
                 "--out", str(out), "--seed", str(2**70)]) == EXIT_OK
    assert read_trace(out).num_tokens == 3


def _never_called(*args, **kwargs):
    raise AssertionError("allocated despite the size limit")


@pytest.mark.parametrize("verb,cfg,what", [
    ("gen-trace", {"num_tokens": 10**12, "num_layers": 2, "d_model": 8, "d_ff": 24},
     "the trace"),
    ("run", _run_config(trace={"synthetic": {"num_tokens": 10**12}}), "the trace"),
    ("run", _run_config(geometry={**GEOMETRY, "d_model": 10**5, "d_ff": 10**5}),
     "the MLP weights"),
    ("sweep", _run_config(geometry={**GEOMETRY, "num_layers": 10**9},
                          sweep={"densities": [0.5]}), "the MLP weights"),
    ("gamma-sweep", {**_run_config(trace={"synthetic": {"num_tokens": 2**27}}),
                     "scheme": None, "gammas": [0.5], "densities": [0.5]}, "the trace"),
    ("calibrate-allocation", {"block": {"d_model": 10**5, "d_ff": 10**5},
                              "grid": {"densities_in": [0.5], "densities_mid": [0.5]},
                              "targets": [0.5]}, "the MLP weights"),
    ("calibrate-allocation", {"block": {"d_model": 8, "d_ff": 24},
                              "calibration": {"num_inputs": 2**25},
                              "grid": {"densities_in": [0.5], "densities_mid": [0.5]},
                              "targets": [0.5]}, "the calibration inputs"),
    # a 512 MiB trace of 2**26 one-unit tokens fits, but the engine keeps
    # hundreds of bytes per token: its counts, kernel errors and TokenCosts
    ("run", _run_config(trace={"synthetic": {"num_tokens": 2**26}},
                        geometry={**GEOMETRY, "num_layers": 1, "d_model": 1, "d_ff": 1}),
     "the engine's per-token state"),
    # a small trace, but a grid of 4096 points, each with its own state
    ("gamma-sweep", {**_run_config(trace={"synthetic": {"num_tokens": 2**15}}),
                     "scheme": None, "gammas": [0.5] * 64, "densities": [0.5] * 64},
     "the engine's per-token state"),
    ("sweep", _run_config(trace={"synthetic": {"num_tokens": 2**15}},
                          sweep={"densities": [0.5] * 4096}), "the engine's per-token state"),
    # one token, but 120 x 120 points, each with a cache per layer and group
    # of the 512 units of a medium-7.4gb layer
    ("gamma-sweep", {**_run_config(trace={"synthetic": {"num_tokens": 1}}),
                     "geometry": "medium-7.4gb", "hardware": "phone-4gb", "scheme": None,
                     "gammas": [0.5] * 120, "densities": [0.5] * 120}, "the engine's caches"),
])
def test_validation_error_when_config_exceeds_the_size_limit(tmp_path, capsys, monkeypatch,
                                                              verb, cfg, what):
    # arrays over MAX_ARRAY_BYTES are exit 1 before anything is allocated:
    # every allocator of a trace, weights or inputs fails the test if reached
    for mod, name in ((traces, "generate_synthetic_trace"),
                      (traces, "synthetic_layer_weights"), (MlpWeights, "random"),
                      (traces, "signed_lognormal")):
        monkeypatch.setattr(mod, name, _never_called)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    out = tmp_path / "out"
    assert main([verb, "--config", _write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {what} would take ")
    assert err.endswith(f"over the limit of {MAX_ARRAY_BYTES} bytes\n")
    assert err.count("\n") == 1
    assert not out.exists()


def test_engine_state_limit_counts_the_tokens_of_a_trace_file(tmp_path, capsys,
                                                               monkeypatch):
    # a trace file's token count is known once it is read: a grid too large
    # for it is exit 1 before the weights are made
    trace_path = tmp_path / "t.bin"
    gen_cfg = _write_config(tmp_path, "g.json", {
        "num_tokens": 2**10, "num_layers": 2, "d_model": 16, "d_ff": 48})
    assert main(["gen-trace", "--config", gen_cfg, "--out", str(trace_path)]) == EXIT_OK
    monkeypatch.setattr(traces, "synthetic_layer_weights", _never_called)
    cfg = _write_config(tmp_path, "c.json", _run_config(
        trace={"file": str(trace_path)}, sweep={"densities": [0.5] * 2**14}))
    out = tmp_path / "r.json"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: the engine's per-token state would take ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_size_limit_is_inclusive():
    _check_bytes("x", MAX_ARRAY_BYTES // 8)
    with pytest.raises(ConfigError):
        _check_bytes("x", MAX_ARRAY_BYTES // 8 + 1)
    _check_bytes("x", 0, 10**30)  # an empty array takes nothing


_SMALL_GEOMETRY = {"num_layers": 2, "d_model": 8, "d_ff": 24, "bytes_per_weight": 2.0,
                   "static_bytes": 0.0}
_SMALL_HARDWARE = {"dram_capacity_bytes": 1500.0, "dram_bandwidth": 60e9,
                   "flash_bandwidth": 1e9}
_FUZZ_CONFIGS = {
    "run": {
        "trace": {"synthetic": {"num_tokens": 3, "mu": 0.0, "sigma": [1.0, 1.5], "seed": 1}},
        "geometry": _SMALL_GEOMETRY, "hardware": _SMALL_HARDWARE,
        # every key is one that dip_ca reads
        "scheme": {"name": "dip_ca", "density_mid": 0.5, "density_in": 0.5, "gamma": 0.2,
                   "reweight_input": True, "reweight_intermediate": True},
        "policy": "lfu", "seed": 1, "kernel_eval": True},
    "sweep": {
        "trace": {"synthetic": {"num_tokens": 3}},
        "geometry": _SMALL_GEOMETRY, "hardware": _SMALL_HARDWARE,
        "scheme": {"name": "dip_ca", "density_mid": 0.5}, "policy": "lru", "seed": 2,
        "sweep": {"densities": [0.5], "gammas": [0.2, 1.0], "error_budgets": [0.5]}},
    "calibrate-allocation": {
        "block": {"d_model": 8, "d_ff": 24, "seed": 1},
        "grid": {"densities_in": [0.3, 0.6, 0.9], "densities_mid": [0.3, 0.6, 0.9]},
        "targets": [0.5], "calibration": {"num_inputs": 4, "sigma": 1.5, "seed": 2},
        "seed": 3},
    "gamma-sweep": {
        "trace": {"synthetic": {"num_tokens": 3}},
        "geometry": _SMALL_GEOMETRY, "hardware": "phone-4gb",
        "gammas": [0.2, 1.0], "densities": [0.5], "policy": "lfu", "kernel_eval": True,
        "seed": 4},
    "gen-trace": {"num_tokens": 3, "num_layers": 2, "d_model": 8, "d_ff": 24,
                  "mu": [0.0, 0.5], "sigma": 1.0, "seed": 5},
}
# wrong types for every kind of leaf, and small in-range-or-not numbers
_WRONG_VALUES = ["0.5", "", "lfu", [], [0.5], ["x"], [[1]], {}, {"a": 1}, None, True,
                 False, 0, 1, -1, 2, 0.5, 1.5, -0.5, 10**12]


def _paths(node, prefix=()):
    """Key paths to every value below the root, containers included."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")
    return json.loads(text, parse_constant=reject)


@given(st.sampled_from(sorted(_FUZZ_CONFIGS)), st.data())
@settings(max_examples=150, deadline=None)
def test_wrong_typed_config_values_keep_the_cli_contract(verb, data):
    cfg = _FUZZ_CONFIGS[verb]
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(cfg))))
        cfg = _replaced(cfg, path, data.draw(st.sampled_from(_WRONG_VALUES)))
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "c.json")
        out = os.path.join(tmp, "out")
        with open(cfg_path, "w") as f:
            json.dump(cfg, f)
        err = io.StringIO()
        # a numpy warning would be a second stderr line outside the test
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([verb, "--config", cfg_path, "--out", out])
        err = err.getvalue()
        assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_SIMULATION, EXIT_IO)
        assert "Traceback" not in err
        if rc == EXIT_OK:
            assert err == ""
            if verb != "gen-trace":
                with open(out) as f:
                    _strict_json(f.read())
        else:
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert not os.path.exists(out)
