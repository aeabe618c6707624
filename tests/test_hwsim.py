"""Flash/DRAM timing model: unit-group byte accounting, DRAM allocation,
per-token costs, and full-trace simulation."""
import dataclasses

import numpy as np
import pytest

import oracles
from oracles import ReferenceCache
from sparsim import (
    GEOMETRY_PRESETS,
    Group,
    GroupSpec,
    SCHEMES,
    HardwareConfig,
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
from sparsim import cache, hwsim
from sparsim.hwsim import POLICY_NAMES


GEO = ModelGeometry(num_layers=2, d_model=8, d_ff=24, bytes_per_weight=2.0)
ROOMY = HardwareConfig(dram_capacity_bytes=1e9, dram_bandwidth=60e9,
                       flash_bandwidth=1e9)


def _trace(num_tokens=4, geo=GEO, seed=0, sigma=1.0):
    return generate_synthetic_trace(SyntheticTraceSpec(
        num_tokens=num_tokens, num_layers=geo.num_layers, d_model=geo.d_model,
        d_ff=geo.d_ff, sigma=sigma, seed=seed))


def _weights(geo=GEO, seed=0):
    return synthetic_layer_weights(geo.num_layers, geo.d_model, geo.d_ff, seed=seed)


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
    return [one(weights[l], x[l], l) for l in range(geo.num_layers)]


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
            y_ref = oracles.sparse_forward(weights[l], acts[t, l])
            y = oracles.sparse_forward(weights[l], acts[t, l], in_keep, mid_keep)
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
    # a third of the MLP bytes fits, so the caches evict and bypass
    hw = HardwareConfig(dram_capacity_bytes=geo.total_mlp_bytes / 3,
                        dram_bandwidth=60e9, flash_bandwidth=1e9)
    tr = _trace(num_tokens=10, geo=geo, seed=5)
    w = _weights(geo, seed=5)
    cfg = SchemeConfig(name=scheme, density_mid=0.5, predictor_hidden=4)
    expected, mean_error = _oracle_run(tr, w, cfg, policy, hw, geo)
    # the default _ROW_BLOCK streams all tokens as one block; 3 makes
    # one-token blocks, and 1 also puts each layer's masks in its own batch
    for row_block in (hwsim._ROW_BLOCK, 3, 1):
        monkeypatch.setattr(hwsim, "_ROW_BLOCK", row_block)
        report = simulate_run(tr, w, cfg, policy, hw, geo, kernel_eval=True)
        for t, (got, want) in enumerate(zip(report.tokens, expected)):
            assert got == want, f"token {t}, _ROW_BLOCK {row_block}"
        assert len(report.tokens) == len(expected)
        # bit for bit, same summation order
        assert report.mean_error == mean_error, row_block
        monkeypatch.undo()
    if policy != "nocache" and scheme != "dense":
        assert any(tc.misses > tc.bypassed for tc in report.tokens[1:])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_prunes_input_flag_matches_k_in(scheme):
    k_in, _ = SchemeConfig(name=scheme, density_mid=0.5).k_values(GEO)
    assert SCHEMES[scheme].prunes_input == (k_in < GEO.d_model)


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
