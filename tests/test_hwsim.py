"""Flash/DRAM timing model: unit-group byte accounting, DRAM allocation,
per-token costs, and full-trace simulation."""
import dataclasses
import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import ReferenceCache
from sparsim import (
    GEOMETRY_PRESETS,
    HARDWARE_PRESETS,
    Group,
    GroupSpec,
    SCHEMES,
    HardwareConfig,
    MlpWeights,
    ModelGeometry,
    SchemeConfig,
    SimulationError,
    SyntheticTraceSpec,
    TokenCost,
    allocate_dram,
    approx_error,
    density_to_k,
    generate_synthetic_trace,
    predictor_static_bytes,
    scheme_groups,
    simulate_run,
    sweep_runs,
    synthetic_layer_weights,
    throughput_at_error,
)
from sparsim import cache, hwsim, masking, mlp
from sparsim.cache import POLICY_NAMES


GEO = ModelGeometry(num_layers=2, d_model=8, d_ff=24, bytes_per_weight=2.0)
ROOMY = HardwareConfig(dram_capacity_bytes=1e9, dram_bandwidth=60e9,
                       flash_bandwidth=1e9)


def _trace(num_tokens=4, geo=GEO, seed=0, sigma=1.0):
    return generate_synthetic_trace(SyntheticTraceSpec(
        num_tokens=num_tokens, num_layers=geo.num_layers, d_model=geo.d_model,
        d_ff=geo.d_ff, sigma=sigma, seed=seed))


def _weights(geo=GEO, seed=0):
    return synthetic_layer_weights(geo.num_layers, geo.d_model, geo.d_ff, seed=seed)


def _layer(w, l):
    """Layer l of a stack of layers, as one block."""
    return MlpWeights(w.up[l], w.gate[l], w.down[l])


# ---------------------------------------------------------------------------
# geometry and unit groups
# ---------------------------------------------------------------------------

def test_geometry_byte_totals():
    assert GEO.mlp_bytes_per_layer == 3 * 8 * 24 * 2.0
    assert GEO.total_mlp_bytes == 2 * 3 * 8 * 24 * 2.0
    geo2 = ModelGeometry(2, 8, 24, 2.0, static_bytes=100.0)
    assert geo2.total_bytes == geo2.total_mlp_bytes + 100.0


def test_geometry_validation():
    with pytest.raises(ValueError):
        ModelGeometry(0, 8, 24, 2.0)
    with pytest.raises(ValueError):
        ModelGeometry(2, 8, 24, -1.0)
    with pytest.raises(ValueError, match="bytes_per_weight"):
        ModelGeometry(2, 100, 100, 1e306)  # 3e310 bytes per layer: inf


def test_unit_bytes_canonical_groups():
    # an input unit carries one column of up and gate; an intermediate unit
    # carries one row of the down projection's input side; a dense chunk is
    # one column of a d_ff-tall matrix
    input_bundle, intermediate_bundle = scheme_groups("dip", GEO)
    assert input_bundle.unit_bytes == 2 * 24 * 2.0
    assert intermediate_bundle.unit_bytes == 8 * 2.0
    assert scheme_groups("glu", GEO)[0].unit_bytes == 24 * 2.0


@pytest.mark.parametrize("scheme", SCHEMES)
def test_groups_partition_all_mlp_bytes(scheme):
    groups = scheme_groups(scheme, GEO)
    assert sum(g.total_bytes for g in groups) == pytest.approx(GEO.mlp_bytes_per_layer)


def test_scheme_groups_shapes():
    by_kind = {g.kind: g for g in scheme_groups("dip", GEO)}
    assert by_kind[Group.INPUT_BUNDLE].universe == 8
    assert by_kind[Group.INTERMEDIATE_BUNDLE].universe == 24
    glu = {g.kind: g for g in scheme_groups("glu", GEO)}
    assert glu[Group.DENSE_CHUNK].always_active
    assert glu[Group.DENSE_CHUNK].universe == 2 * 8  # up and gate stay dense
    pred = scheme_groups("predictive", GEO)
    assert len(pred) == 1 and pred[0].kind == Group.INTERMEDIATE_BUNDLE
    assert pred[0].unit_bytes == 3 * 8 * 2.0  # all three matrices pruned
    with pytest.raises(ValueError):
        scheme_groups("bogus", GEO)


def test_predictor_static_bytes_formula():
    geo = ModelGeometry(3, 10, 40, 2.0)
    expect = 3 * (16 * (10 + 1) + 40 * (16 + 1)) * 2.0
    assert predictor_static_bytes(geo, 16) == expect


# ---------------------------------------------------------------------------
# DRAM allocation
# ---------------------------------------------------------------------------

def test_allocate_dram_equal_layer_split():
    geo = ModelGeometry(2, 8, 24, 2.0)
    groups = [GroupSpec(Group.INTERMEDIATE_BUNDLE, universe=10, unit_bytes=100.0)]
    hw = HardwareConfig(dram_capacity_bytes=1000.0, dram_bandwidth=1.0,
                        flash_bandwidth=1.0)
    caps = allocate_dram(hw, geo, groups)
    # 1000 B over 2 layers -> 500 B/layer -> 5 units of 100 B in every layer
    assert caps == (5,)


def test_allocate_dram_proportional_group_split():
    geo = ModelGeometry(1, 8, 24, 2.0)
    groups = [
        GroupSpec(Group.INPUT_BUNDLE, universe=8, unit_bytes=100.0),   # 800 B
        GroupSpec(Group.INTERMEDIATE_BUNDLE, universe=40, unit_bytes=10.0),  # 400 B
    ]
    hw = HardwareConfig(dram_capacity_bytes=600.0, dram_bandwidth=1.0,
                        flash_bandwidth=1.0)
    caps = allocate_dram(hw, geo, groups)
    # shares 2/3 and 1/3 of 600 B -> 400 B and 200 B -> 4 and 20 units
    assert caps == (4, 20)


def test_allocate_dram_caps_at_universe():
    geo = ModelGeometry(1, 8, 24, 2.0)
    groups = [GroupSpec(Group.INTERMEDIATE_BUNDLE, universe=3, unit_bytes=10.0)]
    hw = HardwareConfig(dram_capacity_bytes=1e6, dram_bandwidth=1.0,
                        flash_bandwidth=1.0)
    assert allocate_dram(hw, geo, groups) == (3,)
    # shares whose unit count overflows to inf cap at the universe too
    for dram, bytes_per_weight in ((1e300, 1e-12), (1e6, 1e-320)):
        geo = ModelGeometry(2, 8, 16, bytes_per_weight)
        groups = scheme_groups("dip", geo)
        hw = HardwareConfig(dram_capacity_bytes=dram, dram_bandwidth=1.0,
                            flash_bandwidth=1.0)
        assert allocate_dram(hw, geo, groups) == tuple(g.universe for g in groups)


def test_allocate_dram_subtracts_static_and_rejects_overflow():
    geo = ModelGeometry(1, 8, 24, 2.0, static_bytes=400.0)
    groups = [GroupSpec(Group.INTERMEDIATE_BUNDLE, universe=10, unit_bytes=100.0)]
    hw = HardwareConfig(dram_capacity_bytes=1000.0, dram_bandwidth=1.0,
                        flash_bandwidth=1.0)
    assert allocate_dram(hw, geo, groups) == (6,)
    small = HardwareConfig(dram_capacity_bytes=300.0, dram_bandwidth=1.0,
                           flash_bandwidth=1.0)
    with pytest.raises(SimulationError):
        allocate_dram(small, geo, groups)


def test_hardware_config_validation():
    with pytest.raises(ValueError):
        HardwareConfig(dram_capacity_bytes=-1.0, dram_bandwidth=1.0,
                       flash_bandwidth=1.0)
    with pytest.raises(ValueError):
        HardwareConfig(dram_capacity_bytes=1.0, dram_bandwidth=0.0,
                       flash_bandwidth=1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("config,field", [
    (ROOMY, "dram_capacity_bytes"), (ROOMY, "dram_bandwidth"), (ROOMY, "flash_bandwidth"),
    (GEO, "bytes_per_weight"), (GEO, "static_bytes")])
def test_non_finite_config_fields_are_rejected_by_name(config, field, bad):
    # NaN passes every < and <= check, so without the finiteness check it
    # surfaced deep inside a run as "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        dataclasses.replace(config, **{field: bad})


# ---------------------------------------------------------------------------
# scheme configuration
# ---------------------------------------------------------------------------

def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(name="bogus")
    with pytest.raises(ValueError):
        SchemeConfig(name="dip", density_mid=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(name="dip", density_mid=1.5)
    with pytest.raises(ValueError):
        SchemeConfig(name="dip_ca", density_mid=0.5, gamma=-0.2)
    with pytest.raises(ValueError):
        SchemeConfig(name="glu")  # pruning schemes need a density


def test_scheme_config_k_values():
    cfg = SchemeConfig(name="dip", density_mid=0.5)
    assert cfg.k_values(GEO) == (density_to_k(0.5, 8), density_to_k(0.5, 24))
    # density_in defaults to density_mid, can differ
    cfg2 = SchemeConfig(name="dip", density_mid=0.5, density_in=0.25)
    assert cfg2.k_values(GEO) == (density_to_k(0.25, 8), density_to_k(0.5, 24))
    dense = SchemeConfig(name="dense")
    assert dense.k_values(GEO) == (8, 24)


# ---------------------------------------------------------------------------
# simulation: byte accounting
# ---------------------------------------------------------------------------

def test_dense_warm_cache_serves_entirely_from_dram():
    geo = ModelGeometry(2, 8, 24, 2.0, static_bytes=64.0)
    report = simulate_run(_trace(num_tokens=3, geo=geo), None,
                          SchemeConfig(name="dense"), "lfu", ROOMY, geo)
    warm = report.tokens[-1]
    assert warm.flash_bytes == 0.0
    assert warm.dram_bytes == pytest.approx(geo.total_bytes)
    assert warm.latency_s == pytest.approx(geo.total_bytes / ROOMY.dram_bandwidth)
    # cold first token misses everything
    cold = report.tokens[0]
    assert cold.flash_bytes == pytest.approx(geo.total_mlp_bytes)


def test_dense_no_dram_streams_everything_from_flash():
    geo = ModelGeometry(2, 8, 24, 2.0)
    hw = HardwareConfig(dram_capacity_bytes=0.0, dram_bandwidth=60e9,
                        flash_bandwidth=1e9)
    report = simulate_run(_trace(num_tokens=2, geo=geo), None,
                          SchemeConfig(name="dense"), "lfu", hw, geo)
    for tc in report.tokens:
        assert tc.dram_bytes == 0.0
        assert tc.flash_bytes == pytest.approx(geo.total_mlp_bytes)
        assert tc.latency_s == pytest.approx(geo.total_mlp_bytes / hw.flash_bandwidth)
        assert tc.bypassed == tc.misses


def test_dense_steady_state_closed_form():
    # partial cache: warm latency = (M - C_eff)/flash + C_eff/dram where
    # C_eff = static + bytes of the units the allocator pinned in DRAM
    geo = ModelGeometry(2, 8, 24, 2.0, static_bytes=64.0)
    hw = HardwareConfig(dram_capacity_bytes=float(64 + 1000), dram_bandwidth=60e9,
                        flash_bandwidth=1e9)
    groups = scheme_groups("dense", geo)
    caps = allocate_dram(hw, geo, groups, static_bytes=geo.static_bytes)
    cached = geo.num_layers * sum(n * g.unit_bytes for n, g in zip(caps, groups))
    c_eff = geo.static_bytes + cached
    report = simulate_run(_trace(num_tokens=4, geo=geo), None,
                          SchemeConfig(name="dense"), "lfu", hw, geo)
    expect = ((geo.total_bytes - c_eff) / hw.flash_bandwidth
              + c_eff / hw.dram_bandwidth)
    assert report.tokens[-1].latency_s == pytest.approx(expect)
    assert report.steady_state_throughput == pytest.approx(1.0 / expect)


@pytest.mark.parametrize("scheme_kwargs", [
    dict(name="dense"),
    dict(name="dip", density_mid=0.5),
    dict(name="dip", density_mid=0.5, density_in=0.25),
    dict(name="glu", density_mid=0.5),
    dict(name="gate", density_mid=0.5),
    dict(name="up", density_mid=0.5),
    dict(name="predictive", density_mid=0.5, predictor_hidden=4),
    dict(name="dip_ca", density_mid=0.5),
])
@pytest.mark.parametrize("policy", ["lfu", "lru", "nocache"])
def test_byte_conservation_every_token(scheme_kwargs, policy):
    # moved bytes must equal accessed bytes regardless of hit/miss split:
    # flash + (dram - static) = sum over groups of accesses * unit bytes
    geo = ModelGeometry(2, 8, 24, 2.0, static_bytes=32.0)
    hw = HardwareConfig(dram_capacity_bytes=2500.0, dram_bandwidth=60e9,
                        flash_bandwidth=1e9)
    cfg = SchemeConfig(**scheme_kwargs)
    report = simulate_run(_trace(num_tokens=4, geo=geo), _weights(geo),
                          cfg, policy, hw, geo)
    static = geo.static_bytes
    if cfg.name == "predictive":
        static += predictor_static_bytes(geo, cfg.predictor_hidden)
    k_in, k_mid = cfg.k_values(geo)
    expected = 0.0
    for g in scheme_groups(cfg.name, geo):
        if g.always_active:
            accesses = g.universe
        elif g.kind == Group.INPUT_BUNDLE:
            accesses = k_in
        else:
            accesses = k_mid
        expected += accesses * g.unit_bytes * geo.num_layers
    for tc in report.tokens:
        assert tc.flash_bytes + (tc.dram_bytes - static) == pytest.approx(expected)
        assert tc.hits + tc.misses == sum(
            (g.universe if g.always_active else (k_in if g.kind == Group.INPUT_BUNDLE else k_mid))
            for g in scheme_groups(cfg.name, geo)) * geo.num_layers


def test_sparse_warm_cache_with_constant_input():
    # identical tokens touch identical units, so a covering cache eliminates
    # flash traffic after the first token
    geo = ModelGeometry(1, 8, 24, 2.0)
    acts = np.tile(np.linspace(1.0, 2.0, 8), (4, 1, 1))
    report = simulate_run(acts, _weights(geo), SchemeConfig(name="dip", density_mid=0.5),
                          "lfu", ROOMY, geo)
    assert report.tokens[0].flash_bytes > 0
    for tc in report.tokens[1:]:
        assert tc.flash_bytes == 0.0
        assert tc.misses == 0


def test_predictive_run_pays_predictor_static_bytes():
    geo = ModelGeometry(2, 8, 24, 2.0)
    pred_bytes = predictor_static_bytes(geo, 4)
    report = simulate_run(_trace(geo=geo), _weights(geo),
                          SchemeConfig(name="predictive", density_mid=0.5,
                                       predictor_hidden=4),
                          "lfu", ROOMY, geo)
    base = simulate_run(_trace(geo=geo), _weights(geo),
                        SchemeConfig(name="glu", density_mid=0.5), "lfu", ROOMY, geo)
    # roomy DRAM: both schemes hit fully when warm; the predictive run's DRAM
    # traffic additionally carries the predictor weights every token
    warm_pred = report.tokens[-1]
    assert warm_pred.dram_bytes >= pred_bytes
    assert base.tokens[-1].dram_bytes >= 0


# ---------------------------------------------------------------------------
# simulation: reports and validation
# ---------------------------------------------------------------------------

def test_run_report_aggregates_match_tokens():
    report = simulate_run(_trace(num_tokens=5), _weights(),
                          SchemeConfig(name="dip", density_mid=0.5), "lfu",
                          ROOMY, GEO)
    assert report.num_tokens == 5 and len(report.tokens) == 5
    assert report.flash_bytes == pytest.approx(sum(t.flash_bytes for t in report.tokens))
    assert report.dram_bytes == pytest.approx(sum(t.dram_bytes for t in report.tokens))
    total_latency = sum(t.latency_s for t in report.tokens)
    assert report.throughput == pytest.approx(5 / total_latency)
    tail = sum(t.latency_s for t in report.tokens[1:])
    assert report.steady_state_throughput == pytest.approx(4 / tail)
    hits = sum(t.hits for t in report.tokens)
    accesses = sum(t.hits + t.misses for t in report.tokens)
    assert report.hit_rate == pytest.approx(hits / accesses)
    # per-layer stats cover the same events
    assert sum(ls.hits for ls in report.per_layer) == hits
    assert sum(ls.misses for ls in report.per_layer) == accesses - hits


def test_steady_state_excludes_cold_start():
    report = simulate_run(_trace(num_tokens=6), _weights(),
                          SchemeConfig(name="dip", density_mid=0.5), "lfu",
                          ROOMY, GEO)
    assert report.steady_state_throughput > report.throughput


def test_kernel_eval_reports_mean_error():
    report = simulate_run(_trace(), _weights(),
                          SchemeConfig(name="dip", density_mid=0.5), "lfu",
                          ROOMY, GEO, kernel_eval=True)
    assert report.mean_error is not None and report.mean_error > 0
    dense = simulate_run(_trace(), _weights(), SchemeConfig(name="dense"), "lfu",
                         ROOMY, GEO, kernel_eval=True)
    assert dense.mean_error == pytest.approx(0.0, abs=1e-12)
    no_eval = simulate_run(_trace(), _weights(),
                           SchemeConfig(name="dip", density_mid=0.5), "lfu",
                           ROOMY, GEO)
    assert no_eval.mean_error is None


@pytest.mark.parametrize("scheme,gemvs", [("dense", 0), ("glu", 4)])
def test_kernel_eval_computes_each_dense_forward_once(scheme, gemvs, monkeypatch):
    # dense is the reference itself and runs no forward; glu computes the
    # reference's gate, up and down products, scores on its GLU and adds
    # one down projection under its mask
    rows = []
    matvec = mlp._matvec

    def counted(m, x):
        rows.append(len(x))
        return matvec(m, x)

    monkeypatch.setattr(mlp, "_matvec", counted)
    monkeypatch.setattr(masking, "_matvec", counted)
    tr = _trace(num_tokens=5)
    simulate_run(tr, _weights(), SchemeConfig(name=scheme, density_mid=0.5), "lfu",
                 ROOMY, GEO, kernel_eval=True)
    assert sum(rows) == gemvs * tr.num_tokens * GEO.num_layers


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_dense_kernel_eval_reads_no_weights(policy):
    # dense is the dense block: error 0 without weights, and the run with
    # weights is the same report bit for bit
    dense = SchemeConfig(name="dense")
    without = simulate_run(_trace(), None, dense, policy, ROOMY, GEO, kernel_eval=True)
    with_weights = simulate_run(_trace(), _weights(), dense, policy, ROOMY, GEO,
                                kernel_eval=True)
    assert without == with_weights
    assert without.mean_error == 0.0


def test_simulate_run_validation_errors():
    with pytest.raises(SimulationError):
        simulate_run(np.zeros((2, 3, 8)), _weights(),
                     SchemeConfig(name="dense"), "lfu", ROOMY, GEO)  # wrong layers
    with pytest.raises(SimulationError):
        simulate_run(_trace(), None, SchemeConfig(name="dip", density_mid=0.5),
                     "lfu", ROOMY, GEO)  # pruning needs weights
    with pytest.raises(SimulationError):
        bad_w = synthetic_layer_weights(2, 8, 16, seed=0)
        simulate_run(_trace(), bad_w, SchemeConfig(name="dip", density_mid=0.5),
                     "lfu", ROOMY, GEO)
    # the weights must be one stack of GEO's layers: not a stack of another
    # depth, nor one block, nor a list of the layers' blocks
    w = _weights()
    for bad_w in (synthetic_layer_weights(3, 8, 24, seed=0),
                  synthetic_layer_weights(1, 8, 24, seed=0), _layer(w, 0),
                  synthetic_layer_weights(2, 24, 8, seed=0),
                  [_layer(w, l) for l in range(GEO.num_layers)]):
        for scheme in ("dip", "dip_ca", "glu"):
            with pytest.raises(SimulationError, match="stacked"):
                sweep_runs(_trace(), bad_w, SchemeConfig(name=scheme, density_mid=0.5),
                           [(0.5, None)], "lfu", ROOMY, GEO, kernel_eval=True)
    with pytest.raises(ValueError):
        simulate_run(_trace(), _weights(), SchemeConfig(name="dense"),
                     "fifo", ROOMY, GEO)
    nan_acts = _trace().activations.copy()
    nan_acts[0, 1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        simulate_run(nan_acts, _weights(), SchemeConfig(name="dense"),
                     "lfu", ROOMY, GEO)


def test_belady_rejected_for_cache_aware_masking():
    with pytest.raises(SimulationError):
        simulate_run(_trace(), _weights(),
                     SchemeConfig(name="dip_ca", density_mid=0.5), "belady",
                     ROOMY, GEO)


def test_belady_and_lfu_agree_on_deterministic_full_hits():
    # covering cache: no evictions ever happen, so all policies coincide
    r1 = simulate_run(_trace(), _weights(),
                      SchemeConfig(name="dip", density_mid=0.5), "belady",
                      ROOMY, GEO)
    r2 = simulate_run(_trace(), _weights(),
                      SchemeConfig(name="dip", density_mid=0.5), "lfu",
                      ROOMY, GEO)
    assert r1.hit_rate == r2.hit_rate
    assert r1.flash_bytes == r2.flash_bytes


def test_belady_not_worse_than_lfu_lru_under_pressure():
    geo = ModelGeometry(2, 8, 24, 2.0)
    hw = HardwareConfig(dram_capacity_bytes=geo.total_mlp_bytes * 0.25,
                        dram_bandwidth=60e9, flash_bandwidth=1e9)
    cfg = SchemeConfig(name="dip", density_mid=0.5)
    tr = _trace(num_tokens=24, geo=geo, sigma=2.0)
    w = _weights(geo)
    belady = simulate_run(tr, w, cfg, "belady", hw, geo)
    lfu = simulate_run(tr, w, cfg, "lfu", hw, geo)
    lru = simulate_run(tr, w, cfg, "lru", hw, geo)
    assert belady.hit_rate >= lfu.hit_rate - 1e-12
    assert belady.hit_rate >= lru.hit_rate - 1e-12


def test_hit_rate_monotone_in_dram_capacity():
    # the offline policy is provably monotone; recency/frequency policies are
    # checked statistically with anomalies reported, not asserted
    geo = ModelGeometry(2, 8, 24, 2.0)
    cfg = SchemeConfig(name="dip", density_mid=0.5)
    caps = [geo.total_mlp_bytes * f for f in (0.1, 0.3, 0.5, 0.8)]
    anomalies = {"lfu": 0, "lru": 0}
    n_seeds = 20
    for seed in range(n_seeds):
        tr = _trace(num_tokens=12, geo=geo, seed=seed, sigma=1.5)
        w = _weights(geo, seed=seed)
        rates = {}
        for kind in ("belady", "lfu", "lru"):
            rates[kind] = [
                simulate_run(tr, w, cfg, kind,
                             HardwareConfig(c, 60e9, 1e9), geo).hit_rate
                for c in caps]
        assert all(a <= b + 1e-12 for a, b in zip(rates["belady"], rates["belady"][1:]))
        for kind in anomalies:
            if any(a > b + 1e-12 for a, b in zip(rates[kind], rates[kind][1:])):
                anomalies[kind] += 1
    print(f"DRAM-capacity monotonicity anomalies over {n_seeds} seeds: {anomalies}")


def test_trace_object_and_bare_array_agree():
    tr = _trace()
    r1 = simulate_run(tr, _weights(), SchemeConfig(name="dip", density_mid=0.5),
                      "lfu", ROOMY, GEO)
    r2 = simulate_run(tr.activations, _weights(),
                      SchemeConfig(name="dip", density_mid=0.5), "lfu", ROOMY, GEO)
    assert r1.flash_bytes == r2.flash_bytes
    assert r1.hit_rate == r2.hit_rate


def test_dip_ca_run_feeds_residency_back_into_masks():
    # under memory pressure the cache-aware scheme must shift selections
    # toward resident units, raising hit rate over the oblivious scheme
    geo = ModelGeometry(2, 16, 48, 2.0)
    hw = HardwareConfig(dram_capacity_bytes=geo.total_mlp_bytes * 0.25,
                        dram_bandwidth=60e9, flash_bandwidth=1e9)
    tr = _trace(num_tokens=40, geo=geo, sigma=2.0, seed=3)
    w = _weights(geo, seed=3)
    ca = simulate_run(tr, w, SchemeConfig(name="dip_ca", density_mid=0.5),
                      "lfu", hw, geo)
    plain = simulate_run(tr, w, SchemeConfig(name="dip", density_mid=0.5),
                         "lfu", hw, geo)
    assert ca.hit_rate > plain.hit_rate


def test_dip_ca_gamma_one_equals_plain_dip_run():
    geo = ModelGeometry(2, 8, 24, 2.0)
    hw = HardwareConfig(dram_capacity_bytes=geo.total_mlp_bytes * 0.3,
                        dram_bandwidth=60e9, flash_bandwidth=1e9)
    tr = _trace(num_tokens=10, geo=geo)
    w = _weights(geo)
    ca = simulate_run(tr, w, SchemeConfig(name="dip_ca", density_mid=0.5, gamma=1.0),
                      "lfu", hw, geo)
    plain = simulate_run(tr, w, SchemeConfig(name="dip", density_mid=0.5),
                         "lfu", hw, geo)
    assert ca.flash_bytes == pytest.approx(plain.flash_bytes)
    assert ca.hit_rate == pytest.approx(plain.hit_rate)


# ---------------------------------------------------------------------------
# batch cache replay against the per-unit oracle, end to end
# ---------------------------------------------------------------------------

def _token_orders(scheme, weights, x, geo, k_in, k_mid, caches=None):
    """One token's (input order, intermediate order) per layer from the
    per-vector oracles; dip_ca reads the residency of the given reference
    caches.  A scheme without an oracle here fails with a KeyError."""
    def dip_ca(w, x, l):
        c_in, c_mid = np.zeros(geo.d_model), np.zeros(geo.d_ff)
        c_in[list(caches[l][Group.INPUT_BUNDLE].resident)] = 1
        c_mid[list(caches[l][Group.INTERMEDIATE_BUNDLE].resident)] = 1
        return oracles.dip_ca_orders(w, x, c_in, c_mid, k_in, k_mid, scheme.gamma,
                                     scheme.reweight_input, scheme.reweight_intermediate)
    one = {
        "dense": lambda w, x, l: oracles.dense_orders(geo.d_model, geo.d_ff),
        "glu": lambda w, x, l: oracles.glu_orders(w, x, k_mid),
        "gate": lambda w, x, l: oracles.gate_orders(w, x, k_mid),
        "up": lambda w, x, l: oracles.up_orders(w, x, k_mid),
        "predictive": lambda w, x, l: oracles.predictive_oracle_orders(w, x, k_mid),
        "dip": lambda w, x, l: oracles.dip_orders(w, x, k_in, k_mid),
        "dip_ca": dip_ca,
    }[scheme.name]
    return [one(_layer(weights, l), x[l], l) for l in range(geo.num_layers)]


def _token_units(orders, groups):
    return [list(range(g.universe)) if g.always_active
            else orders[0] if g.kind == Group.INPUT_BUNDLE else orders[1]
            for g in groups]


def _oracle_run(trace, weights, scheme, policy, hw, geo):
    """(TokenCosts, mean kernel error) of simulate_run recomputed token by
    token and layer by layer: per-vector masks, one ReferenceCache per
    (layer, group), and approx_error of each (token, layer) forward."""
    acts = trace.activations
    groups = scheme_groups(scheme.name, geo)
    static = geo.static_bytes + (predictor_static_bytes(geo, scheme.predictor_hidden)
                                 if scheme.name == "predictive" else 0.0)
    capacities = allocate_dram(hw, geo, groups, static_bytes=static)
    caches = [{g.kind: ReferenceCache(cap) for g, cap in zip(groups, capacities)}
              for _ in range(geo.num_layers)]
    k_in, k_mid = scheme.k_values(geo)

    def orders_for(t):
        return _token_orders(scheme, weights, acts[t], geo, k_in, k_mid, caches)

    preorders = None if scheme.name == "dip_ca" else [orders_for(t) for t in range(len(acts))]
    accesses = {}  # (layer, group) -> the cache's full access trace, for belady
    if preorders is not None:
        for orders in preorders:
            for l in range(geo.num_layers):
                for g, units in zip(groups, _token_units(orders[l], groups)):
                    accesses.setdefault((l, g.kind), []).append(set(units))
    costs, errors = [], []
    for t in range(len(acts)):
        orders = preorders[t] if preorders is not None else orders_for(t)
        flash, dram = 0.0, static
        hits = misses = bypassed = 0
        for l in range(geo.num_layers):
            for g, units in zip(groups, _token_units(orders[l], groups)):
                h, m, b = caches[l][g.kind].update(
                    units, policy, trace=accesses.get((l, g.kind)), position=t)
                flash += m * g.unit_bytes
                dram += h * g.unit_bytes
                hits, misses, bypassed = hits + h, misses + m, bypassed + b
            in_keep = oracles.keep_mask(geo.d_model, orders[l][0])
            mid_keep = oracles.keep_mask(geo.d_ff, orders[l][1])
            y_ref = oracles.sparse_forward(_layer(weights, l), acts[t, l])
            y = oracles.sparse_forward(_layer(weights, l), acts[t, l], in_keep, mid_keep)
            errors.append(approx_error(y_ref, y).rel_l2)
        costs.append(TokenCost(flash_bytes=flash, dram_bytes=dram,
                               latency_s=flash / hw.flash_bandwidth + dram / hw.dram_bandwidth,
                               hits=hits, misses=misses, bypassed=bypassed))
    return costs, float(np.mean(errors))


@pytest.mark.parametrize("scheme,policy", [
    (s, p) for s in SCHEMES for p in POLICY_NAMES
    if not (SCHEMES[s].cache_aware and p == "belady")])  # the pairs simulate_run rejects
def test_simulate_run_matches_per_unit_oracle(scheme, policy, monkeypatch):
    geo = GEOMETRY_PRESETS["desk-small"]
    cfg = SchemeConfig(name=scheme, density_mid=0.5, predictor_hidden=4)
    static = geo.static_bytes + (predictor_static_bytes(geo, 4) if scheme == "predictive"
                                 else 0.0)
    groups = scheme_groups(scheme, geo)
    tr = _trace(num_tokens=10, geo=geo, seed=5)
    w = _weights(geo, seed=5)
    # DRAM for: a third of the MLP bytes, so the caches evict and bypass;
    # the static bytes alone, so every capacity is 0; 4 d_model weights a
    # layer, so the input bundles get 0 units and the intermediate bundles 1;
    # and more than the model, so every unit fits
    drams = (geo.total_mlp_bytes / 3, static,
             static + 4 * geo.num_layers * geo.d_model * geo.bytes_per_weight,
             2 * geo.total_bytes + static)
    for dram in drams:
        hw = HardwareConfig(dram_capacity_bytes=dram, dram_bandwidth=60e9, flash_bandwidth=1e9)
        capacities = allocate_dram(hw, geo, groups, static_bytes=static)
        if dram == static:
            assert capacities == (0,) * len(groups)
        if dram > geo.total_bytes:
            assert capacities == tuple(g.universe for g in groups)
        expected, mean_error = _oracle_run(tr, w, cfg, policy, hw, geo)
        # the default _ROW_BLOCK streams all tokens as one block; 3 and 1 make
        # one-token blocks, whose kernel errors are scored token by token
        for row_block in (hwsim._ROW_BLOCK, 3, 1):
            monkeypatch.setattr(hwsim, "_ROW_BLOCK", row_block)
            report = simulate_run(tr, w, cfg, policy, hw, geo, kernel_eval=True)
            case = (dram, row_block)
            for t, (got, want) in enumerate(zip(report.tokens, expected)):
                assert got == want, (t, *case)
            assert len(report.tokens) == len(expected)
            # bit for bit, same summation order
            assert report.mean_error == mean_error, case
            monkeypatch.undo()
        if dram == drams[0] and policy != "nocache" and scheme != "dense":
            assert any(tc.misses > tc.bypassed for tc in report.tokens[1:])
    # the mixed case has a cache of each kind where the scheme streams both
    mixed = allocate_dram(HardwareConfig(drams[2], 60e9, 1e9), geo, groups, static_bytes=static)
    if SCHEMES[scheme].input_bundles:
        assert mixed == (0, 1)


def test_nocache_equals_every_policy_at_capacity_zero():
    # nocache is the zero-capacity case: at DRAM equal to the static bytes
    # every capacity is 0, and lfu, lru and belady give the nocache report
    geo = GEOMETRY_PRESETS["medium-7.4gb"]
    hw = HARDWARE_PRESETS["phone-4gb"]
    tr = _trace(num_tokens=50, geo=geo, seed=1, sigma=1.5)
    w = _weights(geo, seed=1)
    for scheme in SCHEMES:
        cfg = SchemeConfig(name=scheme, density_mid=0.5, predictor_hidden=8)
        static = geo.static_bytes + (predictor_static_bytes(geo, 8) if scheme == "predictive"
                                     else 0.0)
        at_static = dataclasses.replace(hw, dram_capacity_bytes=static)
        assert allocate_dram(at_static, geo, scheme_groups(scheme, geo),
                             static_bytes=static) == (0,) * len(scheme_groups(scheme, geo))
        want = simulate_run(tr, w, cfg, "nocache", hw, geo, kernel_eval=True)
        assert want.hit_rate == 0.0 and want.mean_error is not None
        for policy in ("lfu", "lru", "belady"):
            if SCHEMES[scheme].cache_aware and policy == "belady":
                continue
            got = simulate_run(tr, w, cfg, policy, at_static, geo, kernel_eval=True)
            assert got == want, (scheme, policy)


def test_static_caches_run_no_replay(monkeypatch):
    # a run whose caches are all static (nocache, or dense at any DRAM)
    # replays nothing and precomputes no next uses; without kernel_eval it
    # lays out no stream and builds no masks either, and dip_ca's masks
    # under nocache, whose residency is always zero, go one entry.rows call
    # per block of tokens
    calls = {"replay": 0, "belady_precompute": 0, "dip_ca_rows": 0, "_layout": 0}
    for name, module in (("replay", hwsim), ("belady_precompute", hwsim),
                         ("dip_ca_rows", masking), ("_layout", hwsim)):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    tr, w = _trace(num_tokens=10), _weights()
    hw = HardwareConfig(GEO.total_mlp_bytes / 3, 60e9, 1e9)
    dip_ca = SchemeConfig(name="dip_ca", density_mid=0.5, gamma=0.3)
    for scheme, policy in (("dense", "lfu"), ("dense", "belady"), ("dip", "nocache"),
                           ("dip", "belady"), ("dip_ca", "nocache")):
        if (scheme, policy) == ("dip", "belady"):
            hw_run = dataclasses.replace(hw, dram_capacity_bytes=0.0)  # every capacity 0
        else:
            hw_run = hw
        simulate_run(tr, w, SchemeConfig(name=scheme, density_mid=0.5), policy, hw_run, GEO)
    # dense under every policy, scored or not, and nocache unscored
    for policy in POLICY_NAMES:
        for kernel_eval in (False, True):
            simulate_run(tr, w, SchemeConfig(name="dense"), policy, hw, GEO, kernel_eval)
    for scheme in SCHEMES:
        simulate_run(tr, w, SchemeConfig(name=scheme, density_mid=0.5), "nocache", hw, GEO)
    assert calls == {"replay": 0, "belady_precompute": 0, "dip_ca_rows": 0, "_layout": 0}

    want, default = [], hwsim._ROW_BLOCK
    for row_block, blocks in ((default, 1), (4, 5), (1, 10)):
        # a block is _ROW_BLOCK // layers tokens: 128, 2 and 1 here
        monkeypatch.setattr(hwsim, "_ROW_BLOCK", row_block)
        calls["dip_ca_rows"] = 0
        want.append(simulate_run(tr, w, dip_ca, "nocache", hw, GEO, kernel_eval=True))
        assert calls["dip_ca_rows"] == blocks, row_block
        assert want[-1] == want[0], row_block
    monkeypatch.setattr(hwsim, "_ROW_BLOCK", default)
    assert calls["replay"] == 0
    # with live caches, dip_ca's masks follow each token's replay
    calls["dip_ca_rows"] = 0
    simulate_run(tr, w, dip_ca, "lfu", hw, GEO, kernel_eval=True)
    assert calls["dip_ca_rows"] == calls["replay"] == tr.num_tokens


@pytest.mark.parametrize("scheme", SCHEMES)
def test_prunes_input_flag_matches_k_in(scheme):
    k_in, _ = SchemeConfig(name=scheme, density_mid=0.5).k_values(GEO)
    assert SCHEMES[scheme].prunes_input == (k_in < GEO.d_model)


def test_every_row_function_takes_one_signature():
    # _unit_stream calls every scheme's rows the same way; prunes_input
    # follows from the entry's other fields
    for name, entry in SCHEMES.items():
        if entry.rows is not None:
            assert list(inspect.signature(entry.rows).parameters) == [
                "cfg", "w", "x", "k_in", "k_mid", "residency", "gamma", "glu"], name
        assert entry.prunes_input == (entry.input_bundles and entry.rows is not None), name
    assert "prunes_input" not in {f.name for f in dataclasses.fields(hwsim.Scheme)}


def test_every_run_builds_one_cache_state(monkeypatch):
    # _simulate builds each run's one CacheState, also when no cache is
    # live (dense, and nocache without kernel_eval): then it holds no cache
    built, real = [], hwsim.CacheState
    monkeypatch.setattr(hwsim, "CacheState", lambda *a: built.append(real(*a)) or built[-1])
    tr, w = _trace(num_tokens=4), _weights()
    hw = HardwareConfig(GEO.total_mlp_bytes / 3, 60e9, 1e9)
    for scheme, policy in (("dense", "lfu"), ("glu", "nocache"), ("dip", "lfu")):
        built.clear()
        simulate_run(tr, w, SchemeConfig(name=scheme, density_mid=0.5), policy, hw, GEO)
        assert [(c.policy, c.num_caches > 0) for c in built] == [(policy, scheme == "dip")]
    built.clear()
    sweep_runs(tr, w, SchemeConfig(name="dip_ca", density_mid=0.5),
               [(0.25, 0.3), (0.5, None), (0.75, 1.0)], "lru", hw, GEO, kernel_eval=True)
    groups = len(scheme_groups("dip_ca", GEO))
    assert [(c.policy, c.num_caches) for c in built] == [("lru", 3 * GEO.num_layers * groups)]


def test_unknown_policy_is_the_cache_states_error():
    # the cache state is the engine's one check of the policy name, also in
    # a run without a live cache and in a sweep of no points
    tr, w = _trace(), _weights()
    for run in (lambda: simulate_run(tr, None, SchemeConfig(name="dense"), "fifo", ROOMY, GEO),
                lambda: sweep_runs(tr, w, SchemeConfig(name="dip", density_mid=0.5), [],
                                   "fifo", ROOMY, GEO)):
        with pytest.raises(ValueError, match="unknown policy 'fifo'; expected one of") as e:
            run()
        assert e.traceback[-1].frame.code.raw is cache.CacheState.__init__.__code__


@pytest.mark.parametrize("scheme", SCHEMES)
def test_cache_aware_flag_matches_belady_rejection(scheme):
    cfg = SchemeConfig(name=scheme, density_mid=0.5)
    try:
        simulate_run(_trace(), _weights(), cfg, "belady", ROOMY, GEO)
        rejected = False
    except SimulationError:
        rejected = True
    assert SCHEMES[scheme].cache_aware == rejected


# a value for every SchemeConfig field other than name, away from its default
_OTHER_VALUES = dict(density_mid=0.25, density_in=0.125, gamma=0.7, reweight_input=False,
                     reweight_intermediate=False, predictor_hidden=16)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_fields_outside_reads_never_change_a_run(scheme):
    # Scheme.reads is what the CLI accepts in a scheme object: every other
    # field must leave the run unchanged
    tr, w = _trace(num_tokens=5), _weights()
    hw = HardwareConfig(GEO.total_mlp_bytes / 3, 60e9, 1e9)
    base = SchemeConfig(name=scheme, density_mid=0.5)
    want = simulate_run(tr, w, base, "lru", hw, GEO, kernel_eval=True)
    for key in set(_OTHER_VALUES) - SCHEMES[scheme].reads:
        cfg = SchemeConfig(**{"name": scheme, "density_mid": 0.5, key: _OTHER_VALUES[key]})
        got = simulate_run(tr, w, cfg, "lru", hw, GEO, kernel_eval=True)
        assert (got.tokens, got.mean_error) == (want.tokens, want.mean_error), key


def test_scheme_reads_per_scheme():
    reads = {name: SCHEMES[name].reads - {"name"} for name in SCHEMES}
    assert reads["dense"] == set()
    assert reads["glu"] == reads["gate"] == reads["up"] == {"density_mid"}
    assert reads["predictive"] == {"density_mid", "predictor_hidden"}
    assert reads["dip"] == {"density_mid", "density_in"}
    assert reads["dip_ca"] == {"density_mid", "density_in", "gamma", "reweight_input",
                               "reweight_intermediate"}


@pytest.mark.parametrize("geo,hw", [
    # a denormal DRAM bandwidth: every token's latency is inf
    (GEO, HardwareConfig(1e3, 1e-320, 1e9)),
    # 1e308 static bytes a token: finite tokens, but their sums overflow
    (ModelGeometry(2, 8, 24, 2.0, static_bytes=1e308), HardwareConfig(1.7e308, 1.0, 1e9)),
])
def test_latency_overflow_is_a_simulation_error(geo, hw):
    tr, w = _trace(num_tokens=3), _weights()
    with pytest.raises(SimulationError, match="overflows"):
        simulate_run(tr, w, SchemeConfig(name="dip", density_mid=0.5), "lfu", hw, geo)


def test_sweep_runs_equal_one_run_per_point(monkeypatch):
    # each point is the base config with its density (density_in follows
    # it) and its gamma, or the base gamma when the point's is None.  Every
    # scheme under every policy it accepts; the points hold two
    # (k_in, k_mid) pairs and a repeated point; a small _ROW_BLOCK splits the
    # mask rows into several batches and the tokens into several blocks
    trs = (_trace(num_tokens=6), np.zeros((0, GEO.num_layers, GEO.d_model)))
    w = _weights()
    hw = HardwareConfig(GEO.total_mlp_bytes / 3, 60e9, 1e9)
    points = [(0.25, None), (0.5, 1.0), (0.25, 0.0), (0.5, 1.0)]
    for scheme, policy in [(s, p) for s in SCHEMES for p in POLICY_NAMES
                           if not (SCHEMES[s].cache_aware and p == "belady")]:
        base = SchemeConfig(name=scheme, density_mid=0.5, density_in=0.125, gamma=0.3,
                            reweight_input=False, predictor_hidden=4)
        wants = [[simulate_run(tr, w, SchemeConfig(
            name=scheme, density_mid=density, reweight_input=False,
            gamma=0.3 if gamma is None else gamma, predictor_hidden=4), policy, hw, GEO,
            kernel_eval=True) for density, gamma in points] for tr in trs]
        for row_block in (hwsim._ROW_BLOCK, 3):
            monkeypatch.setattr(hwsim, "_ROW_BLOCK", row_block)
            for tr, want in zip(trs, wants):
                case = (scheme, policy, row_block, len(want[0].tokens))
                got = sweep_runs(tr, w, base, points, policy, hw, GEO, kernel_eval=True)
                assert len(got) == len(points), case
                for rep, one in zip(got, want):
                    assert rep.tokens == one.tokens, case
                    assert rep.per_layer == one.per_layer, case
                    assert rep.mean_error == one.mean_error, case
                    assert (rep.throughput, rep.steady_state_throughput) == \
                        (one.throughput, one.steady_state_throughput), case
                    assert rep == one, case
            monkeypatch.undo()
        if scheme != "dense" and policy != "nocache":
            # the points differ, so the test can tell them apart
            assert wants[0][0].tokens != wants[0][1].tokens, scheme


# densities that round to one (k_in, k_mid) on GEO: 0.25 and 0.26 keep 2 of
# 8 inputs and 6 of 24 units, 0.5 and 0.51 keep 4 and 12
_SHARED_K = (0.25, 0.26, 0.5, 0.51, 0.75)


@given(scheme=st.sampled_from([s for s in SCHEMES if SCHEMES[s].rows is not None]),
       policy=st.sampled_from(POLICY_NAMES), data=st.data())
@settings(max_examples=40, deadline=None)
def test_sweeps_with_repeated_points_equal_their_own_runs(scheme, policy, data):
    # repeated densities, densities that round to one k and, under dip_ca,
    # repeated (density, gamma) points: every sweep row equals its own run
    # bit for bit.  _layout lays out every point, and a scheme that does not
    # read the caches puts each in a chunk of its own, whatever its k
    cache_aware = SCHEMES[scheme].cache_aware
    if cache_aware and policy == "belady":
        policy = "lfu"
    drawn = data.draw(st.lists(st.tuples(st.sampled_from(_SHARED_K),
                                         st.sampled_from((None, 0.0, 0.3, 1.0))),
                               min_size=1, max_size=4))
    repeats = data.draw(st.lists(st.sampled_from(drawn), min_size=1, max_size=4))
    points = data.draw(st.permutations(drawn + repeats))
    tr, w = _trace(num_tokens=4), _weights()
    hw = HardwareConfig(GEO.total_mlp_bytes / 3, 60e9, 1e9)
    base = SchemeConfig(name=scheme, density_mid=0.5, gamma=0.3)
    configs = [dataclasses.replace(base, density_mid=d, density_in=None,
                                   gamma=0.3 if g is None else g)
               for d, g in points]
    layout, layouts = hwsim._layout, []  # each call's ks with its result
    with mock.patch.object(hwsim, "_layout",
                           lambda *a: layouts.append((a[1], layout(*a))) or layouts[-1][1]):
        got = sweep_runs(tr, w, base, points, policy, hw, GEO, kernel_eval=True)
    (ks, (batches, _, _, _)), = layouts
    assert ks == [cfg.k_values(GEO) for cfg in configs]
    if not cache_aware:
        assert [b.per_layer for b in batches] == [1] * len(points)
    for cfg, rep in zip(configs, got):
        assert rep == simulate_run(tr, w, cfg, policy, hw, GEO, kernel_eval=True), cfg


def test_cache_aware_sweep_chunks_points_of_every_k(monkeypatch):
    # the one layout rule (hwsim._layout), for every scheme with row masks
    # under lfu and lru with live caches: a batch's rows are exactly its
    # chunk's (layer, point) pairs.  3 densities x 3 gammas give three
    # points of each k, and all nine are laid out.  A scheme that does not
    # read the caches puts one point in a chunk, each chunk one call of one
    # k per block of tokens.  dip_ca's chunks hold at most _ROW_BLOCK //
    # layers points in config order whatever their k, each chunk one
    # dip_ca_rows call per token with a k per row.  Every point still
    # equals its own run.  _ROW_BLOCK 14 leaves dip_ca chunks of 7 and 2
    # points, the last of two k; _ROW_BLOCK 4 leaves chunks of at most 2
    # points
    tr, w = _trace(num_tokens=5), _weights()
    hw = HardwareConfig(GEO.total_mlp_bytes / 3, 60e9, 1e9)
    points = [(d, g) for g in (0.0, 0.3, 1.0) for d in (0.25, 0.5, 0.75)]
    calls, layouts, default = [], [], hwsim._ROW_BLOCK

    def counted(fn, at):  # args[at] is the call's k_mid
        def call(w, x, *args):
            calls.append(len(set(np.atleast_1d(args[at]).tolist())))
            return fn(w, x, *args)
        return call
    for name, at in (("glu_pruning_rows", 0), ("gate_pruning_rows", 0),
                     ("up_pruning_rows", 0), ("dip_rows", 1), ("dip_ca_rows", 3)):
        monkeypatch.setattr(masking, name, counted(getattr(masking, name), at))
    layout = hwsim._layout  # records the ks and the state it lays out with its result
    monkeypatch.setattr(hwsim, "_layout",
                        lambda *a: layouts.append((a[1], a[6], layout(*a))) or layouts[-1][2])
    for scheme in [s for s in SCHEMES if SCHEMES[s].rows is not None]:
        base = SchemeConfig(name=scheme, density_mid=0.5)
        configs = [dataclasses.replace(base, density_mid=d, density_in=None, gamma=g)
                   for d, g in points]
        ks = [cfg.k_values(GEO) for cfg in configs]
        assert len(set(ks)) == 3
        for policy in ("lfu", "lru"):
            wants = [simulate_run(tr, w, cfg, policy, hw, GEO, kernel_eval=True)
                     for cfg in configs]
            for row_block, ca_sizes in ((default, [9]), (14, [7, 2]), (4, [2, 2, 2, 2, 1])):
                monkeypatch.setattr(hwsim, "_ROW_BLOCK", row_block)
                calls.clear(), layouts.clear()
                got = sweep_runs(tr, w, base, points, policy, hw, GEO, kernel_eval=True)
                assert got == wants, (scheme, policy, row_block)
                (laid_ks, caches, (batches, block, span, _)), = layouts
                assert laid_ks == ks
                assert caches.num_caches > 0
                for b in batches:
                    assert len(b.point) == GEO.num_layers * b.per_layer
                    assert b.per_layer <= row_block // GEO.num_layers
                    assert np.array_equal(b.point[:b.per_layer], b.point[-b.per_layer:])
                if scheme == "dip_ca":
                    # one call per token and chunk, its rows of every k of
                    # the chunk; kernel_eval scores spans of tokens
                    assert block == 1
                    assert span == max(1, row_block // (len(points) * GEO.num_layers))
                    assert [b.per_layer for b in batches] == ca_sizes
                    assert calls == [len({ks[p] for p in b.point})
                                     for _ in range(tr.num_tokens) for b in batches]
                else:
                    # one point a chunk, one call of one k per chunk and
                    # block of tokens
                    assert [b.per_layer for b in batches] == [1] * len(points)
                    assert block == max(1, row_block // max(len(points), GEO.num_layers))
                    assert span == block  # kernel_eval scores a block at a time
                    blocks = -(-tr.num_tokens // block)
                    assert calls == [1] * (len(points) * blocks), (scheme, row_block)
            monkeypatch.setattr(hwsim, "_ROW_BLOCK", default)
            assert len({rep.hit_rate for rep in wants}) > 2, (scheme, policy)  # the points differ

    # the benchmark's dip_ca sweep shape, 2 densities x 3 gammas on
    # medium-7.4gb and phone-2gb: one call per token, not one per density
    geo = GEOMETRY_PRESETS["medium-7.4gb"]
    calls.clear()
    sweep_runs(_trace(num_tokens=3, geo=geo), _weights(geo),
               SchemeConfig(name="dip_ca", density_mid=0.5),
               [(d, g) for d in (0.4, 0.5) for g in (0.2, 0.5, 1.0)], "lfu",
               HARDWARE_PRESETS["phone-2gb"], geo)
    assert calls == [2] * 3


def test_layout_gives_cache_aware_batches_views_of_their_caches(monkeypatch):
    # _layout lays out each cache-aware batch's residency once: per group,
    # a view of the batch's own caches in CacheState.is_resident, row by
    # row, so it follows every replay without a read per token; a static
    # group (here every group under nocache) gets a view of one zero vector.
    # Masks that do not read the caches get none
    tr, w = _trace(num_tokens=3), _weights()
    hw = HardwareConfig(GEO.total_mlp_bytes / 3, 60e9, 1e9)
    layout, layouts = hwsim._layout, []  # each call's state with its result
    monkeypatch.setattr(hwsim, "_layout",
                        lambda *a: layouts.append((a[6], layout(*a))) or layouts[-1][1])
    for scheme, policy in (("dip_ca", "lfu"), ("dip_ca", "nocache"), ("dip", "lfu")):
        layouts.clear()
        sweep_runs(tr, w, SchemeConfig(name=scheme, density_mid=0.5),
                   [(0.25, 0.3), (0.5, 1.0), (0.75, 0.0)], policy, hw, GEO, kernel_eval=True)
        (caches, (batches, _, _, _)), = layouts
        universes = [g.universe for g in scheme_groups(scheme, GEO)]
        for b in batches:
            if not SCHEMES[scheme].cache_aware:
                assert b.residency == []
                continue
            assert [r.shape[-1] for r in b.residency] == universes
            if policy == "nocache":
                assert all(r.ndim == 1 and not r.any() for r in b.residency)
                assert np.shares_memory(*b.residency)
                continue
            assert [r.shape for r in b.residency] == [(len(b.point), u) for u in universes]
            for r, offset, u in zip(b.residency, b.offset.T, universes):
                assert np.shares_memory(r, caches.is_resident)
                for row, start in zip(r, offset):  # the caches' state after the run
                    assert np.array_equal(row, caches.is_resident[start:start + u])
            assert any(r.any() for r in b.residency)


def test_simulate_run_blocks_of_tokens_match_one_block(monkeypatch):
    # a trace longer than one mask block gives the same run as one big block;
    # dip_ca scores its kernel errors per block, after the block's last token
    geo = GEOMETRY_PRESETS["desk-small"]
    hw = HardwareConfig(dram_capacity_bytes=geo.total_mlp_bytes / 3,
                        dram_bandwidth=60e9, flash_bandwidth=1e9)
    tr, w = _trace(num_tokens=11, geo=geo, seed=6), _weights(geo, seed=6)
    for name, policy in (("dip", "lfu"), ("dip", "belady"), ("dip_ca", "lfu"),
                         ("dip_ca", "lru")):
        cfg = SchemeConfig(name=name, density_mid=0.4)
        whole = simulate_run(tr, w, cfg, policy, hw, geo, kernel_eval=True)
        monkeypatch.setattr(hwsim, "_ROW_BLOCK", 4)
        blocked = simulate_run(tr, w, cfg, policy, hw, geo, kernel_eval=True)
        monkeypatch.undo()
        assert blocked.tokens == whole.tokens
        assert blocked.mean_error == whole.mean_error


# ---------------------------------------------------------------------------
# throughput_at_error
# ---------------------------------------------------------------------------

def test_throughput_at_error_selects_best_feasible():
    rows = [(0.2, 5.0, 0.5), (0.5, 3.0, 0.2), (0.8, 2.0, 0.05)]
    assert throughput_at_error(rows, 0.3) == (3.0, 0.5)
    assert throughput_at_error(rows, 1.0) == (5.0, 0.2)
    assert throughput_at_error(rows, 0.05) == (2.0, 0.8)


def test_throughput_at_error_edge_cases():
    with pytest.raises(ValueError):
        throughput_at_error([], 0.5)
    with pytest.raises(SimulationError):
        throughput_at_error([(0.2, 5.0, 0.5)], 0.1)
    # an empty trace measures no error, so its rows never fit a budget
    with pytest.raises(SimulationError):
        throughput_at_error([(0.2, 0.0, None)], 0.5)


def test_exported_name_lists():
    assert set(POLICY_NAMES) == {"lfu", "lru", "belady", "nocache"}
    assert POLICY_NAMES is cache.POLICY_NAMES  # one tuple, kept in cache
    assert set(SCHEMES) == {"dense", "glu", "gate", "up", "predictive", "dip", "dip_ca"}
