"""Acceptance suite: nine end-to-end criteria covering throughput arithmetic,
eviction optimality, score algebra, kernel exactness, gradient checks, the
cache-aware benefit, thresholding behaviour, the allocation pipeline, and
report determinism.

Each criterion is one test named test_criterion_<n>_*; `pytest -v` therefore
prints one pass/fail line per criterion, and each test additionally prints an
`ACCEPTANCE <n> ...` detail line (shown with -s or on failure).
"""
import json
import re

import numpy as np
import pytest

import sparsim
from sparsim import (
    CacheState,
    GEOMETRY_PRESETS,
    HARDWARE_PRESETS,
    HardwareConfig,
    MlpAdapters,
    MlpWeights,
    ModelGeometry,
    PerTokenTopK,
    Predictor,
    SchemeConfig,
    SyntheticTraceSpec,
    approx_error,
    belady_precompute,
    dip_ca_rows,
    dip_ca_scores,
    dip_rows,
    generate_synthetic_trace,
    glu_activations,
    global_threshold_for_density,
    layer_densities,
    mlp_dense_forward,
    mlp_sparse_forward,
    replay,
    scheme_groups,
    silu,
    simulate_run,
    synthetic_layer_weights,
)
from sparsim.calibration import (
    fit_logit_linear,
    optimal_allocation,
    pareto_front,
)
from sparsim.cli import main as cli_main
from sparsim.masking import topk_rows
from sparsim.mlp import (
    distill_loss_and_grads,
    predictor_loss_and_grads,
)

from oracles import brute_force_best_hits, fd_worst_rel_err


def _report(n, verdict, detail):
    print(f"ACCEPTANCE {n} {verdict} — {detail}")


# ---------------------------------------------------------------------------
# 1. dense-throughput arithmetic across hardware presets
# ---------------------------------------------------------------------------

def test_criterion_1_dense_throughput_bands():
    geo = GEOMETRY_PRESETS["medium-7.4gb"]
    trace = generate_synthetic_trace(SyntheticTraceSpec(
        num_tokens=3, num_layers=geo.num_layers, d_model=geo.d_model,
        d_ff=geo.d_ff, seed=0))
    bands = {
        "phone-4gb": (0.26, 0.32),
        "phone-2gb": (0.17, 0.21),
        "phone-6gb": (0.60, 0.78),
        "phone-4gb-slowflash": (0.13, 0.17),
        "phone-4gb-fastflash": (0.50, 0.65),
    }
    got = {}
    for preset, (lo, hi) in bands.items():
        hw = HARDWARE_PRESETS[preset]
        report = simulate_run(trace, None, SchemeConfig(name="dense"), "lfu",
                              hw, geo)
        tput = report.steady_state_throughput
        got[preset] = tput
        assert lo <= tput <= hi, (
            f"dense steady-state throughput {tput:.4f} tok/s outside "
            f"[{lo}, {hi}] for {preset}")
    _report(1, "PASS", "dense throughput " + ", ".join(
        f"{k}={v:.3f}" for k, v in got.items()))


# ---------------------------------------------------------------------------
# 2. offline eviction matches exhaustive search
# ---------------------------------------------------------------------------

def test_criterion_2_belady_optimality():
    rng = np.random.default_rng(20240)
    n_traces = 1000
    for trial in range(n_traces):
        n_units = int(rng.integers(2, 6))       # universe <= 5
        capacity = int(rng.integers(1, 4))      # capacity <= 3
        steps = int(rng.integers(1, 13))        # <= 12 accesses
        trace = [[int(rng.integers(n_units))] for _ in range(steps)]

        def run(kind):
            state = CacheState(capacity_units=capacity, universe=n_units, policy=kind)
            next_use = (belady_precompute(trace) if kind == "belady"
                        else [None] * len(trace))
            return sum(int(replay(state, active, upcoming)[0].sum())
                       for active, upcoming in zip(trace, next_use))

        optimal = brute_force_best_hits(trace, capacity)
        belady = run("belady")
        assert belady == optimal, f"trace {trial}: {belady} != optimum {optimal}"
        assert belady >= run("lfu"), f"trace {trial}: below lfu"
        assert belady >= run("lru"), f"trace {trial}: below lru"
    _report(2, "PASS", f"offline policy == exhaustive optimum on {n_traces} traces, "
            ">= lfu/lru everywhere")


# ---------------------------------------------------------------------------
# 3. cache-aware score algebra
# ---------------------------------------------------------------------------

def test_criterion_3_cache_aware_score_algebra():
    # (a) exact toy instance
    s = dip_ca_scores(np.array([0.5, -1.0, 0.25]), np.array([1, 0, 1]), gamma=0.2)
    np.testing.assert_allclose(s, [0.5, 0.2, 0.25], atol=1e-15)
    assert set(np.flatnonzero(topk_rows(s[None], 2)[1][0])) == {0, 2}

    # (b) gamma=1 reduces to plain magnitude ranking on 100 random instances
    rng = np.random.default_rng(3)
    for _ in range(100):
        w = MlpWeights.random(6, 18, seed=int(rng.integers(1 << 30)))
        x = rng.standard_normal(6)
        c_in = rng.integers(0, 2, 6)
        c_mid = rng.integers(0, 2, 18)
        ca = dip_ca_rows(w, x[None], c_in, c_mid, k_in=3, k_mid=6, gamma=1.0)
        plain = dip_rows(w, x[None], k_in=3, k_mid=6)
        assert np.array_equal(ca.input_mask, plain.input_mask)
        assert np.array_equal(ca.intermediate_mask, plain.intermediate_mask)

    # (c) top-k of scores invariant under positive scaling, 100 instances
    x = rng.standard_normal(12)
    c = rng.integers(0, 2, 12)
    base = topk_rows(dip_ca_scores(x, c)[None], 5)[1]
    for _ in range(100):
        alpha = float(rng.uniform(1e-3, 1e3))
        assert np.array_equal(topk_rows(dip_ca_scores(alpha * x, c)[None], 5)[1], base)
    _report(3, "PASS", "toy scores exact; gamma=1 == plain selection x100; "
            "scale-invariant x100")


# ---------------------------------------------------------------------------
# 4. kernel exactness
# ---------------------------------------------------------------------------

def test_criterion_4_kernel_exactness():
    # full density == dense on 100 random instances
    rng = np.random.default_rng(4)
    worst_full = 0.0
    for seed in range(100):
        w = MlpWeights.random(8, 24, seed=seed)
        x = rng.standard_normal(8)
        y_ref = mlp_dense_forward(w, x)
        y = mlp_sparse_forward(w, x,
                               input_mask=np.ones(8, bool),
                               intermediate_mask=np.ones(24, bool))
        worst_full = max(worst_full, approx_error(y_ref, y).rel_l2)
    assert worst_full < 1e-6

    # pruning exact zeros of the gated activation loses nothing
    worst_zero = 0.0
    for seed in range(20):
        w = MlpWeights.random(6, 18, seed=seed)
        up = w.up.copy()
        up[::3, :] = 0.0  # exact zeros in one third of the rows
        w = MlpWeights(up=up, gate=w.gate, down=w.down)
        x = rng.standard_normal(6)
        h = glu_activations(w, x)
        y = mlp_sparse_forward(w, x, intermediate_mask=h != 0.0)
        worst_zero = max(worst_zero, approx_error(mlp_dense_forward(w, x), y).rel_l2)
    assert worst_zero < 1e-9

    # toy block reproduces the hand-computed output
    toy = MlpWeights(up=np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 1.0]]),
                     gate=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                     down=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    np.testing.assert_allclose(mlp_dense_forward(toy, np.array([1.0, -1.0])),
                               [0.0, -0.537883], atol=1e-6)
    _report(4, "PASS", f"full-density rel err {worst_full:.2e} < 1e-6; "
            f"zero-pruning rel err {worst_zero:.2e} < 1e-9; toy output exact")


# ---------------------------------------------------------------------------
# 5. gradient checks
# ---------------------------------------------------------------------------

def test_criterion_5_gradient_checks():
    rng = np.random.default_rng(5)
    w = MlpWeights.random(3, 5, seed=50)
    ad = MlpAdapters.init(w, rank=2, rng=rng)
    for m in (ad.up, ad.gate, ad.down):
        m.b[:] = 0.05 * rng.standard_normal(m.b.shape)
    x_batch = rng.standard_normal((2, 3))
    in_masks = (rng.random((2, 3)) < 0.7).astype(float)
    in_masks[:, 0] = 1.0  # keep at least one input per row
    mid_masks = (rng.random((2, 5)) < 0.7).astype(float)
    mid_masks[:, 0] = 1.0
    teacher = (x_batch @ w.up.T * silu(x_batch @ w.gate.T)) @ w.down.T
    _, grads = distill_loss_and_grads(w, ad, in_masks, mid_masks, x_batch, teacher)
    err_distill = fd_worst_rel_err(
        lambda: distill_loss_and_grads(w, ad, in_masks, mid_masks, x_batch,
                                       teacher)[0],
        {"up_a": ad.up.a, "up_b": ad.up.b, "gate_a": ad.gate.a,
         "gate_b": ad.gate.b, "down_a": ad.down.a, "down_b": ad.down.b},
        grads)
    assert err_distill < 1e-4

    p = Predictor.create(3, 7, hidden=4, seed=5)
    targets = (rng.random((3, 7)) < 0.3).astype(float)
    xs = rng.standard_normal((3, 3))
    _, pgrads = predictor_loss_and_grads(p, xs, targets)
    err_pred = fd_worst_rel_err(
        lambda: predictor_loss_and_grads(p, xs, targets)[0],
        {"w1": p.w1, "b1": p.b1, "w2": p.w2, "b2": p.b2}, pgrads)
    assert err_pred < 1e-4
    _report(5, "PASS", f"distillation grad rel err {err_distill:.2e}, "
            f"predictor grad rel err {err_pred:.2e} (< 1e-4)")


# ---------------------------------------------------------------------------
# 6. cache-aware masking beats the oblivious scheme under memory pressure
# ---------------------------------------------------------------------------

def test_criterion_6_cache_aware_benefit():
    geo = ModelGeometry(num_layers=2, d_model=48, d_ff=144, bytes_per_weight=1.0)
    density = 0.5
    k_in, k_mid = 24, 72
    input_bundle, intermediate_bundle = scheme_groups("dip", geo)
    active_bytes_per_layer = (
        k_in * input_bundle.unit_bytes + k_mid * intermediate_bundle.unit_bytes)
    hw = HardwareConfig(
        dram_capacity_bytes=geo.num_layers * 0.5 * active_bytes_per_layer,
        dram_bandwidth=60e6, flash_bandwidth=1e6)

    # (a) gamma=0.2 yields strictly higher mean hit rate than gamma=1.0
    tr = generate_synthetic_trace(SyntheticTraceSpec(
        num_tokens=150, num_layers=2, d_model=48, d_ff=144, sigma=2.0, seed=42))
    ws = synthetic_layer_weights(2, 48, 144, seed=42)
    hr = {}
    for gamma in (0.2, 1.0):
        cfg = SchemeConfig(name="dip_ca", density_mid=density, gamma=gamma)
        hr[gamma] = simulate_run(tr, ws, cfg, "lfu", hw, geo).hit_rate
    assert hr[0.2] > hr[1.0], f"hit rates {hr}"

    # (b) cache-aware + lfu vs oblivious + offline-optimal eviction across
    # 50 seeded trials (statistical, reported with counts)
    wins = 0
    trials = 50
    for seed in range(trials):
        tr = generate_synthetic_trace(SyntheticTraceSpec(
            num_tokens=120, num_layers=2, d_model=48, d_ff=144, sigma=2.0,
            seed=1000 + seed))
        ws = synthetic_layer_weights(2, 48, 144, seed=seed)
        ca = simulate_run(tr, ws, SchemeConfig(name="dip_ca", density_mid=density),
                          "lfu", hw, geo)
        plain = simulate_run(tr, ws, SchemeConfig(name="dip", density_mid=density),
                             "belady", hw, geo)
        if ca.steady_state_throughput >= plain.steady_state_throughput:
            wins += 1
    assert wins >= 0.8 * trials, f"cache-aware won only {wins}/{trials} trials"
    _report(6, "PASS", f"hit rate {hr[0.2]:.3f} (gamma=0.2) > {hr[1.0]:.3f} "
            f"(gamma=1.0); cache-aware+lfu >= oblivious+offline in "
            f"{wins}/{trials} trials")


# ---------------------------------------------------------------------------
# 7. thresholding strategies
# ---------------------------------------------------------------------------

def test_criterion_7_threshold_density_variance():
    # two layers whose activation scales differ by e^2
    tr = generate_synthetic_trace(SyntheticTraceSpec(
        num_tokens=64, num_layers=2, d_model=48, d_ff=96, mu=[0.0, 2.0],
        sigma=1.0, seed=11))
    per_token = layer_densities(tr, PerTokenTopK(density=0.5))
    assert np.std(per_token) == 0.0
    global_spec = global_threshold_for_density(tr, 0.5)
    spread = float(np.std(layer_densities(tr, global_spec)))
    assert spread > 0.05
    _report(7, "PASS", f"per-token density std 0.0; global-threshold std "
            f"{spread:.3f} > 0.05")


# ---------------------------------------------------------------------------
# 8. allocation-calibration pipeline
# ---------------------------------------------------------------------------

def test_criterion_8_allocation_pipeline(tmp_path):
    # (a) exact recovery of synthetic affine-logit coefficients
    def expit(v):
        return 1.0 / (1.0 + np.exp(-v))

    def logit(p):
        return np.log(p / (1.0 - p))

    coef_in, coef_mid = (0.3, 1.1), (-0.2, 0.9)
    pts = []
    for t in np.linspace(0.15, 0.85, 9):
        pts.append(sparsim.AllocationPoint(
            density_in=expit(coef_in[0] + coef_in[1] * logit(t)),
            density_mid=expit(coef_mid[0] + coef_mid[1] * logit(t)),
            k_in=1, k_mid=1, memory_fraction=float(t), error=float(1 - t)))
    model = fit_logit_linear(pts)
    assert np.allclose(model.coef_in, coef_in, atol=1e-6)
    assert np.allclose(model.coef_mid, coef_mid, atol=1e-6)

    # (b) non-dominance verified by brute force on grids up to 100 points
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 101))
        grid = list({(float(a), float(b))
                     for a, b in zip(rng.integers(0, 12, n), rng.integers(0, 12, n))})
        front = set(pareto_front(grid, key=lambda p: p))
        for p in grid:
            dominated = any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in grid)
            assert (p in front) == (not dominated)

    # (c) the end-to-end verb lands within 5% of each target fraction
    cfg_path = tmp_path / "cal.json"
    cfg_path.write_text(json.dumps({
        "block": {"d_model": 64, "d_ff": 192, "seed": 9},
        "grid": {"densities_in": [0.2, 0.35, 0.5, 0.65, 0.8, 0.95],
                 "densities_mid": [0.2, 0.35, 0.5, 0.65, 0.8, 0.95]},
        "targets": [0.3, 0.5, 0.7],
        "calibration": {"num_inputs": 24, "sigma": 1.5, "seed": 5},
    }))
    out = tmp_path / "cal_report.json"
    assert cli_main(["calibrate-allocation", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    gaps = {a["target_density"]: a["relative_gap"] for a in report["allocations"]}
    assert all(g < 0.05 for g in gaps.values()), f"relative gaps {gaps}"
    _report(8, "PASS", "coefficients recovered to 1e-6; fronts non-dominated; "
            "realized memory gaps " + ", ".join(
                f"{t}:{g:.1%}" for t, g in sorted(gaps.items())))


# ---------------------------------------------------------------------------
# 9. determinism of reports
# ---------------------------------------------------------------------------

def test_criterion_9_report_determinism(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "trace": {"synthetic": {"num_tokens": 8, "sigma": 1.5, "seed": 21}},
        "geometry": {"num_layers": 2, "d_model": 16, "d_ff": 48,
                     "bytes_per_weight": 2.0},
        "hardware": {"dram_capacity_bytes": 4000.0, "dram_bandwidth": 60e9,
                     "flash_bandwidth": 1e9},
        "scheme": {"name": "dip_ca", "density_mid": 0.5},
        "policy": "lfu",
        "kernel_eval": True,
    }))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out1),
                     "--per-token"]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out2),
                     "--per-token"]) == 0

    def strip_ts(text):
        return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)

    b1 = strip_ts(out1.read_text())
    b2 = strip_ts(out2.read_text())
    assert b1 == b2, "reports differ beyond the timestamp"
    _report(9, "PASS", "two runs byte-identical modulo timestamp")
