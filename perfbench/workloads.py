"""The benchmark's workloads: the configs each one writes at set-up, the
cycle of CLI verb calls it repeats, and the checks on every report.

Every workload runs the ``medium-7.4gb`` geometry (4 layers, d_model 128,
d_ff 384, 7.4 GB of modelled MLP bytes).  All inputs derive from the
workload seed, and one cycle repeats the same inputs every time, so the
reports of cycle c must equal those of cycle 0 byte for byte (apart from
the timestamp).

* ``simulate-matrix``: every verb that replays tokens through the caches.
  - The policy matrix: ``run --per-token`` with ``kernel_eval`` on
    phone-4gb for the 15 valid {dense, glu, dip, dip_ca} x {lfu, lru,
    nocache, belady} pairs at density 0.5, on a trace file written by
    ``gen-trace`` at set-up.  DRAM holds about 54 % of the MLP bytes, so
    pruned tokens evict every token: LFU/LRU victim scans and Belady
    next-use lookups dominate.
  - The cache-aware sweep: dip_ca/lfu through ``gamma-sweep`` on phone-6gb
    (most bytes fit, few evictions) and ``sweep`` with gammas and error
    budgets on phone-2gb (the active set overflows the cache and misses
    are bypassed), each next to a plain ``dip`` run that the gamma = 1.0
    rows must equal.  Masks read cache residency every token.
* ``allocation-calibration``: ``calibrate-allocation`` on a 128 x 384
  block, block seed varied per op.  Never reaches ``cache`` or ``hwsim``.
"""

from __future__ import annotations

import json
import os
from typing import Callable, List, NamedTuple

GEOMETRY = "medium-7.4gb"
D_MODEL, D_FF, NUM_LAYERS = 128, 384, 4
SIGMA = 1.5
DENSITY = 0.5

# Short traces keep one simulate-matrix cycle near 4.5 s on a 2-core host, so
# a 55 s run completes at least 11 cycles (see MIN_CYCLES in run.py).
PM_TOKENS = 12
PM_SCHEMES = ("dense", "glu", "dip", "dip_ca")
PM_POLICIES = ("lfu", "lru", "nocache", "belady")  # belady last: it is checked against lfu/lru

CAS_TOKENS = 24
CAS_GAMMAS = (0.2, 0.5, 1.0)
CAS_DENSITIES = (0.4, 0.5)
CAS_BUDGETS = (0.1, 0.15)

CAL_OPS = 4
CAL_GRID = (0.25, 0.5, 0.75, 1.0)
CAL_INPUTS = 32
CAL_TARGETS = (0.3, 0.5, 0.7)

REL_TOL = 1e-9


class Op(NamedTuple):
    name: str
    argv: List[str]
    out: str
    check: Callable  # (report, reports of earlier ops in this cycle) -> [problem]


def _strict_constant(name):
    raise ValueError(f"non-finite number {name} in report")


def parse_report(text: str) -> dict:
    """Strict JSON: NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_strict_constant)


def _write_json(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _in_unit(x) -> bool:
    return isinstance(x, (int, float)) and 0.0 <= x <= 1.0


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_run_report(rep: dict) -> List[str]:
    """Totals of a ``run`` report against its per-layer and per-token records."""
    bad = []
    m, layers = rep["metrics"], rep["per_layer"]
    hits = sum(ls["hits"] for ls in layers)
    misses = sum(ls["misses"] for ls in layers)
    static = rep["config"]["geometry"]["static_bytes"] * m["num_tokens"]
    if not _in_unit(m["hit_rate"]):
        bad.append(f"hit_rate {m['hit_rate']} outside [0, 1]")
    if hits + misses and not _close(m["hit_rate"], hits / (hits + misses)):
        bad.append("hit_rate differs from per-layer hits / accesses")
    if not _close(m["flash_bytes"], sum(ls["flash_bytes"] for ls in layers)):
        bad.append("flash_bytes differs from the per-layer sum")
    if not _close(m["dram_bytes"], static + sum(ls["dram_bytes"] for ls in layers)):
        bad.append("dram_bytes differs from static plus the per-layer sum")
    for ls in layers:
        if not _in_unit(ls["hit_rate"]):
            bad.append(f"layer {ls['layer']} hit_rate outside [0, 1]")
    tokens = rep.get("per_token")
    if tokens is not None:
        if len(tokens) != m["num_tokens"]:
            bad.append("per_token length differs from num_tokens")
        for key in ("flash_bytes", "dram_bytes"):
            if not _close(m[key], sum(t[key] for t in tokens)):
                bad.append(f"{key} differs from the per-token sum")
        if sum(t["hits"] for t in tokens) != hits:
            bad.append("per-token hits differ from per-layer hits")
        if sum(t["misses"] for t in tokens) != misses:
            bad.append("per-token misses differ from per-layer misses")
    if rep["config"]["policy"] == "nocache" and (hits or m["hit_rate"] != 0):
        bad.append("nocache run reports hits")
    return bad


def _check_rows(rows: List[dict]) -> List[str]:
    bad = []
    for r in rows:
        if not _in_unit(r["hit_rate"]):
            bad.append(f"row hit_rate {r['hit_rate']} outside [0, 1]")
        if not r["throughput"] > 0:
            bad.append(f"row throughput {r['throughput']} not positive")
    return bad


def _gamma_one_equals_dip(rows, dip: dict, error_key: str) -> List[str]:
    m = dip["metrics"]
    want = (m["throughput_tok_per_s"], m["steady_state_throughput_tok_per_s"],
            m["hit_rate"], m["mean_error"])
    row = [r for r in rows if r["gamma"] == 1.0 and r["density"] == DENSITY]
    if len(row) != 1:
        return ["no gamma = 1.0 row at the reference density"]
    r = row[0]
    got = (r["throughput"], r["steady_state_throughput"], r["hit_rate"], r[error_key])
    return [] if got == want else [f"dip_ca gamma = 1.0 row {got} differs from dip {want}"]


def _check_summaries(rep: dict) -> List[str]:
    bad = []
    for s in rep["summaries"]:
        fits = [r for r in rep["rows"] if r["error"] <= s["error_budget"]]
        best = max((r["throughput"] for r in fits), default=None)
        if s["best_throughput"] != best:
            bad.append(f"budget {s['error_budget']}: best_throughput "
                       f"{s['best_throughput']} != {best}")
    return bad


def _dominates(p, q) -> bool:
    return (p["memory_fraction"] <= q["memory_fraction"] and p["error"] <= q["error"]
            and (p["memory_fraction"] < q["memory_fraction"] or p["error"] < q["error"]))


def check_calibration_report(rep: dict) -> List[str]:
    bad = []
    front, points = rep["pareto_front"], rep["points"]
    for p in front:
        if p not in points:
            bad.append(f"front point {p} is not among the points")
        if any(_dominates(q, p) for q in front):
            bad.append(f"front point {p} is dominated by another front point")
    for a in rep["allocations"]:
        if not (1 <= a["k_in"] <= D_MODEL and 1 <= a["k_mid"] <= D_FF
                and 0 < a["memory_fraction"] <= 1):
            bad.append(f"allocation {a} out of range")
    return bad


# ---------------------------------------------------------------------------
# set-up: configs, trace files and the op cycle
# ---------------------------------------------------------------------------

def _run_op(workdir: str, name: str, cfg: dict, check, verb: str = "run",
            extra=()) -> Op:
    cfg_path = os.path.join(workdir, f"{name}.json")
    out = os.path.join(workdir, f"{name}.out.json")
    _write_json(cfg_path, cfg)
    return Op(name, [verb, "--config", cfg_path, "--out", out, *extra], out, check)


def setup_policy_matrix(cli, seed: int, workdir: str) -> List[Op]:
    trace_path = os.path.join(workdir, "trace.bin")
    gen_cfg = os.path.join(workdir, "gen-trace.json")
    _write_json(gen_cfg, {"num_tokens": PM_TOKENS, "num_layers": NUM_LAYERS,
                          "d_model": D_MODEL, "d_ff": D_FF, "sigma": SIGMA, "seed": seed})
    if cli.main(["gen-trace", "--config", gen_cfg, "--out", trace_path]) != 0:
        raise RuntimeError("gen-trace failed during set-up")

    def check_pair(rep, done):
        bad = check_run_report(rep)
        scheme, policy = rep["config"]["scheme"]["name"], rep["config"]["policy"]
        if policy == "belady":
            hits = sum(ls["hits"] for ls in rep["per_layer"])
            for other in ("lfu", "lru"):
                ref = done[f"{scheme}-{other}"]
                ref_hits = sum(ls["hits"] for ls in ref["per_layer"])
                if hits < ref_hits:
                    bad.append(f"{scheme}: belady hits {hits} < {other} hits {ref_hits}")
        return bad

    ops = []
    for scheme in PM_SCHEMES:
        for policy in PM_POLICIES:
            if scheme == "dip_ca" and policy == "belady":
                continue  # rejected by the simulator: masks depend on the cache
            scheme_cfg = {"name": scheme}
            if scheme != "dense":
                scheme_cfg["density_mid"] = DENSITY
            cfg = {"trace": {"file": trace_path}, "geometry": GEOMETRY,
                   "hardware": "phone-4gb", "scheme": scheme_cfg, "policy": policy,
                   "kernel_eval": True, "seed": seed}
            ops.append(_run_op(workdir, f"{scheme}-{policy}", cfg, check_pair,
                               extra=("--per-token",)))
    return ops


def setup_cache_aware_sweep(cli, seed: int, workdir: str) -> List[Op]:
    trace = {"synthetic": {"num_tokens": CAS_TOKENS, "sigma": SIGMA, "seed": seed}}
    base = {"trace": trace, "geometry": GEOMETRY, "seed": seed}

    def dip_cfg(hw):
        return {**base, "hardware": hw, "policy": "lfu", "kernel_eval": True,
                "scheme": {"name": "dip", "density_mid": DENSITY}}

    def check_run(rep, done):
        return check_run_report(rep)

    def check_gamma_sweep(rep, done):
        return _check_rows(rep["rows"]) + _gamma_one_equals_dip(
            rep["rows"], done["dip-6gb"], "mean_error")

    def check_sweep(rep, done):
        return (_check_rows(rep["rows"]) + _check_summaries(rep)
                + _gamma_one_equals_dip(rep["rows"], done["dip-2gb"], "error"))

    return [
        _run_op(workdir, "dip-6gb", dip_cfg("phone-6gb"), check_run),
        _run_op(workdir, "gamma-sweep-6gb",
                {**base, "hardware": "phone-6gb", "policy": "lfu", "kernel_eval": True,
                 "gammas": list(CAS_GAMMAS), "densities": [DENSITY]},
                check_gamma_sweep, verb="gamma-sweep"),
        _run_op(workdir, "dip-2gb", dip_cfg("phone-2gb"), check_run),
        _run_op(workdir, "sweep-2gb",
                {**base, "hardware": "phone-2gb", "policy": "lfu",
                 "scheme": {"name": "dip_ca", "density_mid": DENSITY},
                 "sweep": {"densities": list(CAS_DENSITIES), "gammas": list(CAS_GAMMAS),
                           "error_budgets": list(CAS_BUDGETS)}},
                check_sweep, verb="sweep"),
    ]


def setup_allocation_calibration(cli, seed: int, workdir: str) -> List[Op]:
    def check(rep, done):
        return check_calibration_report(rep)

    return [
        _run_op(workdir, f"calibrate-{i}",
                {"block": {"d_model": D_MODEL, "d_ff": D_FF, "seed": seed * CAL_OPS + i},
                 "grid": {"densities_in": list(CAL_GRID), "densities_mid": list(CAL_GRID)},
                 "targets": list(CAL_TARGETS),
                 "calibration": {"num_inputs": CAL_INPUTS, "sigma": SIGMA, "seed": seed},
                 "seed": seed},
                check, verb="calibrate-allocation")
        for i in range(CAL_OPS)]


def setup_simulate_matrix(cli, seed: int, workdir: str) -> List[Op]:
    return (setup_policy_matrix(cli, seed, workdir)
            + setup_cache_aware_sweep(cli, seed, workdir))


WORKLOADS = {
    "simulate-matrix": setup_simulate_matrix,
    "allocation-calibration": setup_allocation_calibration,
}
