"""Threshold calibration, density-allocation sweeps, Pareto filtering, the
logit-space linear allocation model, and the re-weighting strength sweep
that the gamma-sweep verb and script run through hwsim.sweep_runs."""
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsim import (
    AllocationModel,
    AllocationPoint,
    HardwareConfig,
    InputOverflowError,
    MlpWeights,
    ModelGeometry,
    PerLayerThreshold,
    PerTokenTopK,
    SchemeConfig,
    SyntheticTraceSpec,
    calibrate_per_layer_thresholds,
    fit_logit_linear,
    generate_synthetic_trace,
    global_threshold_for_density,
    layer_densities,
    memory_fraction,
    optimal_allocation,
    pareto_front,
    simulate_run,
    sweep_density_allocation,
    sweep_runs,
    synthetic_layer_weights,
)


def _trace(num_tokens=64, num_layers=2, d_model=48, mu=0.0, sigma=1.0, seed=0):
    return generate_synthetic_trace(SyntheticTraceSpec(
        num_tokens=num_tokens, num_layers=num_layers, d_model=d_model, d_ff=96,
        mu=mu, sigma=sigma, seed=seed))


# ---------------------------------------------------------------------------
# threshold calibration
# ---------------------------------------------------------------------------

def test_per_layer_calibration_hits_target_density():
    tr = _trace()
    for target in (0.25, 0.5, 0.75):
        spec = calibrate_per_layer_thresholds(tr, target)
        dens = layer_densities(tr, spec)
        np.testing.assert_allclose(dens, target, atol=0.02)


def test_density_one_gives_zero_threshold():
    tr = _trace()
    spec = calibrate_per_layer_thresholds(tr, 1.0)
    assert all(t == 0.0 for t in spec.thresholds)
    assert global_threshold_for_density(tr, 1.0).threshold == 0.0


def test_global_threshold_matches_overall_density_but_not_per_layer():
    # layers whose scales differ by e^2: one global cutoff starves the small
    # layer and saturates the large one, while per-token selection is exact
    tr = _trace(mu=[0.0, 2.0])
    g = global_threshold_for_density(tr, 0.5)
    dens = layer_densities(tr, g)
    assert np.mean(dens) == pytest.approx(0.5, abs=0.02)
    assert np.std(dens) > 0.05
    per_token = layer_densities(tr, PerTokenTopK(density=0.5))
    assert np.std(per_token) == 0.0


def test_calibration_validation():
    tr = _trace()
    with pytest.raises(ValueError):
        calibrate_per_layer_thresholds(tr, 0.0)
    with pytest.raises(ValueError):
        calibrate_per_layer_thresholds(tr, 1.5)
    empty = generate_synthetic_trace(SyntheticTraceSpec(
        num_tokens=0, num_layers=2, d_model=8, d_ff=24))
    with pytest.raises(ValueError):
        calibrate_per_layer_thresholds(empty, 0.5)
    # the trace is checked before density 1.0 short-cuts to threshold 0
    for target in (0.5, 1.0):
        with pytest.raises(ValueError):
            global_threshold_for_density(empty, target)
        with pytest.raises(ValueError):
            global_threshold_for_density(np.ones((4, 8)), target)


def test_layer_densities_needs_one_threshold_per_layer():
    tr = _trace(num_layers=3)
    for count in (2, 4):
        with pytest.raises(ValueError):
            layer_densities(tr, PerLayerThreshold((0.5,) * count))
    assert layer_densities(tr, PerLayerThreshold((0.5,) * 3)).shape == (3,)


# ---------------------------------------------------------------------------
# memory fraction and density sweep
# ---------------------------------------------------------------------------

def test_memory_fraction_formula():
    # input units carry up+gate columns (2 d_ff each), intermediate units one
    # down column (d_model each), out of 3 d_model d_ff total weights
    assert memory_fraction(8, 24, 8, 24) == pytest.approx(1.0)
    assert memory_fraction(4, 12, 8, 24) == pytest.approx(0.5)
    k_in, k_mid, dm, dff = 3, 10, 8, 24
    expect = (2 * k_in * dff + k_mid * dm) / (3 * dm * dff)
    assert memory_fraction(k_in, k_mid, dm, dff) == pytest.approx(expect)


def test_sweep_density_allocation_grid():
    w = MlpWeights.random(8, 24, seed=0)
    rng = np.random.default_rng(1)
    inputs = rng.standard_normal((5, 8))
    pts = sweep_density_allocation(w, inputs, [0.25, 0.5], [0.5, 0.75, 1.0])
    assert len(pts) == 6
    one = next(p for p in pts if p.density_in == 0.25 and p.density_mid == 0.5)
    assert one.k_in == 2 and one.k_mid == 12
    assert one.memory_fraction == pytest.approx(memory_fraction(2, 12, 8, 24))
    assert one.error > 0
    full = next(p for p in pts if p.density_in == 0.5 and p.density_mid == 1.0)
    assert full.error >= 0


@pytest.mark.parametrize("num_inputs", [2, 3])
def test_sweep_density_allocation_rejects_a_stack_of_layers(num_inputs):
    # the sweep scores one block: a stack would pair input i with layer i,
    # or fail when the inputs do not split over the layers
    from sparsim.traces import synthetic_layer_weights
    w = synthetic_layer_weights(2, 8, 24, seed=0)
    inputs = np.random.default_rng(1).standard_normal((num_inputs, 8))
    with pytest.raises(ValueError, match="one block"):
        sweep_density_allocation(w, inputs, [0.5], [0.5])


def test_sweep_density_allocation_rejects_a_forward_that_overflows():
    # finite inputs whose forward overflows give no NaN error: a ValueError
    # names the first grid point, and numpy warns nothing on the way
    w = MlpWeights.random(8, 24, seed=0)
    inputs = 1e200 * np.random.default_rng(1).standard_normal((5, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="density_in 0.25, density_mid 0.5 is not finite"):
            sweep_density_allocation(w, inputs, [0.25, 0.5], [0.5, 1.0])
        with pytest.raises(InputOverflowError):
            sweep_density_allocation(w, inputs, [1.0], [1.0])


def test_error_shrinks_with_density_statistically():
    # not monotone instance-by-instance (dropped terms can cancel), but the
    # diagonal ordering holds for essentially every random block
    wins = 0
    means = {0.35: [], 0.65: [], 0.95: []}
    for seed in range(60):
        w = MlpWeights.random(8, 24, seed=seed)
        rng = np.random.default_rng(seed + 500)
        xs = rng.standard_normal((6, 8))
        pts = sweep_density_allocation(w, xs, [0.35, 0.65, 0.95], [0.35, 0.65, 0.95])
        err = {(p.density_in, p.density_mid): p.error for p in pts}
        for d in means:
            means[d].append(err[(d, d)])
        if err[(0.35, 0.35)] >= err[(0.95, 0.95)]:
            wins += 1
    assert wins >= 54  # >= 90% of seeds
    assert np.mean(means[0.35]) > np.mean(means[0.65]) > np.mean(means[0.95])


# ---------------------------------------------------------------------------
# Pareto front
# ---------------------------------------------------------------------------

def _point(mem, err):
    return AllocationPoint(density_in=0.5, density_mid=0.5, k_in=1, k_mid=1,
                           memory_fraction=mem, error=err)


def test_pareto_front_hand_example():
    pts = [_point(1.0, 1.0), _point(2.0, 0.5), _point(1.5, 0.8),
           _point(3.0, 0.6), _point(1.0, 1.2)]
    front = pareto_front(pts)
    got = {(p.memory_fraction, p.error) for p in front}
    assert got == {(1.0, 1.0), (1.5, 0.8), (2.0, 0.5)}
    # sorted by memory then error
    assert [p.memory_fraction for p in front] == sorted(p.memory_fraction for p in front)


def test_pareto_front_accepts_plain_tuples_via_key():
    pts = [(1.0, 1.0), (2.0, 0.5), (3.0, 0.6)]
    front = pareto_front(pts, key=lambda p: p)
    assert set(front) == {(1.0, 1.0), (2.0, 0.5)}


def _brute_force_front(pts):
    front = []
    for p in pts:
        dominated = any(
            (q[0] <= p[0] and q[1] <= p[1] and q != p) for q in pts)
        if not dominated:
            front.append(p)
    return set(front)


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                min_size=1, max_size=30))
@settings(max_examples=80, deadline=None)
def test_pareto_front_matches_brute_force(pts):
    pts = list(set(pts))  # distinct points keep weak-dominance unambiguous
    front = set(pareto_front(pts, key=lambda p: p))
    assert front == _brute_force_front(pts)


@given(st.permutations(range(8)))
@settings(max_examples=40, deadline=None)
def test_pareto_front_is_order_independent(perm):
    base = [(1.0, 5.0), (2.0, 3.0), (2.5, 3.5), (4.0, 1.0), (5.0, 2.0),
            (0.5, 9.0), (3.0, 2.0), (6.0, 0.5)]
    shuffled = [base[i] for i in perm]
    assert set(pareto_front(shuffled, key=lambda p: p)) == \
        set(pareto_front(base, key=lambda p: p))


# ---------------------------------------------------------------------------
# logit-linear allocation model
# ---------------------------------------------------------------------------

def _affine_points(coef_in, coef_mid, targets):
    def expit(v):
        return 1.0 / (1.0 + np.exp(-v))

    def logit(p):
        return np.log(p / (1 - p))

    pts = []
    for t in targets:
        di = expit(coef_in[0] + coef_in[1] * logit(t))
        dm = expit(coef_mid[0] + coef_mid[1] * logit(t))
        pts.append(AllocationPoint(
            density_in=di, density_mid=dm, k_in=1, k_mid=1,
            memory_fraction=t, error=1.0 - t))
    return pts


def test_fit_logit_linear_recovers_affine_coefficients():
    coef_in, coef_mid = (0.3, 1.1), (-0.2, 0.9)
    pts = _affine_points(coef_in, coef_mid, np.linspace(0.15, 0.85, 9))
    model = fit_logit_linear(pts)
    np.testing.assert_allclose(model.coef_in, coef_in, atol=1e-6)
    np.testing.assert_allclose(model.coef_mid, coef_mid, atol=1e-6)
    # prediction at a fitted target reproduces the generating densities
    di, dm = model.predict(0.5)
    assert di == pytest.approx(1 / (1 + np.exp(-0.3)), abs=1e-9)
    assert dm == pytest.approx(1 / (1 + np.exp(0.2)), abs=1e-9)


def test_fit_logit_linear_needs_spread_points():
    with pytest.raises(ValueError):
        fit_logit_linear(_affine_points((0.0, 1.0), (0.0, 1.0), [0.5]))
    same = _affine_points((0.0, 1.0), (0.0, 1.0), [0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        fit_logit_linear(same)


def test_model_predictions_stay_in_unit_interval():
    model = AllocationModel(coef_in=(5.0, 3.0), coef_mid=(-5.0, 3.0))
    for t in (0.05, 0.5, 0.95):
        di, dm = model.predict(t)
        assert 0.0 < di < 1.0 and 0.0 < dm < 1.0


def test_optimal_allocation_bounds_and_validation():
    model = AllocationModel(coef_in=(0.0, 1.0), coef_mid=(0.0, 1.0))
    alloc = optimal_allocation(model, 0.5, d_model=8, d_ff=24)
    assert 1 <= alloc.k_in <= 8 and 1 <= alloc.k_mid <= 24
    assert alloc.memory_fraction == pytest.approx(
        memory_fraction(alloc.k_in, alloc.k_mid, 8, 24))
    with pytest.raises(ValueError):
        optimal_allocation(model, 0.0, 8, 24)
    with pytest.raises(ValueError):
        optimal_allocation(model, 1.0, 8, 24)


def test_end_to_end_allocation_tracks_target():
    w = MlpWeights.random(64, 192, seed=9)
    rng = np.random.default_rng(5)
    inputs = np.sign(rng.standard_normal((24, 64))) * rng.lognormal(
        0.0, 1.5, (24, 64))
    grid = [0.2, 0.35, 0.5, 0.65, 0.8, 0.95]
    pts = sweep_density_allocation(w, inputs, grid, grid)
    model = fit_logit_linear(pareto_front(pts))
    for target in (0.3, 0.5, 0.7):
        alloc = optimal_allocation(model, target, 64, 192)
        assert abs(alloc.memory_fraction - target) / target < 0.05


# ---------------------------------------------------------------------------
# gamma sweep
# ---------------------------------------------------------------------------

def test_gamma_sweep_rows_and_dip_equivalence():
    geo = ModelGeometry(num_layers=2, d_model=16, d_ff=48, bytes_per_weight=2.0)
    hw = HardwareConfig(dram_capacity_bytes=geo.total_mlp_bytes * 0.3,
                        dram_bandwidth=60e9, flash_bandwidth=1e9)
    tr = generate_synthetic_trace(SyntheticTraceSpec(
        num_tokens=12, num_layers=2, d_model=16, d_ff=48, sigma=1.5, seed=2))
    ws = synthetic_layer_weights(2, 16, 48, seed=2)
    points = [(density, gamma) for gamma in (0.2, 1.0) for density in (0.25, 0.5)]
    reports = sweep_runs(tr, ws, SchemeConfig(name="dip_ca", density_mid=1.0), points,
                         "lfu", hw, geo, kernel_eval=True)
    assert len(reports) == 4
    for r in reports:
        assert r.throughput > 0
        assert 0.0 <= r.hit_rate <= 1.0
        assert r.mean_error is not None
    # gamma=1 rows coincide with the cache-oblivious scheme
    row = reports[points.index((0.5, 1.0))]
    plain = simulate_run(tr, ws, SchemeConfig(name="dip", density_mid=0.5),
                         "lfu", hw, geo, kernel_eval=True)
    assert row.throughput == pytest.approx(plain.throughput)
    assert row.hit_rate == pytest.approx(plain.hit_rate)
    assert row.mean_error == pytest.approx(plain.mean_error)