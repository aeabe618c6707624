"""Top-k selection, thresholding strategies, pruning schemes, and cache-aware
score re-weighting."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsim import (
    DEFAULT_GAMMA,
    GlobalThreshold,
    MlpWeights,
    PerLayerThreshold,
    PerTokenTopK,
    Predictor,
    apply_threshold,
    density_to_k,
    dip_ca_rows,
    dip_ca_scores,
    dip_rows,
    glu_activations,
    mlp_dense_forward,
    mlp_sparse_forward,
    silu,
)
from sparsim.masking import (
    gate_pruning_rows,
    glu_pruning_rows,
    predictive_rows,
    topk_rows,
    up_pruning_rows,
)


def active(mask):
    """The kept units of one bool mask, as a sorted tuple."""
    return tuple(np.flatnonzero(mask).tolist())


def topk_active(values, k, magnitude=True):
    """Sorted kept units of the top-k of one vector (by |value| unless
    magnitude=False), through topk_rows on the one-row batch."""
    v = np.asarray(values, dtype=float)
    return active(topk_rows((np.abs(v) if magnitude else v)[None], k)[1][0])


# ---------------------------------------------------------------------------
# density_to_k
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("density,dim,expected", [
    (1.0, 10, 10),
    (0.5, 10, 5),
    (0.5, 3, 2),      # 1.5 rounds half-up to 2
    (0.25, 10, 3),    # 2.5 rounds half-up to 3
    (0.1, 4, 1),      # floor(0.9) = 0 but at least one unit stays
    (0.001, 1000, 1),
])
def test_density_to_k(density, dim, expected):
    assert density_to_k(density, dim) == expected


# ---------------------------------------------------------------------------
# top-k selection
# ---------------------------------------------------------------------------

def test_topk_magnitude_and_raw_value():
    v = np.array([0.5, -2.0, 1.0])
    assert topk_active(v, 2) == (1, 2)          # by |value|
    assert topk_active(v, 2, magnitude=False) == (0, 2)  # by value
    assert topk_active(v, 0) == ()
    assert topk_active(v, 3) == (0, 1, 2)


def test_topk_ties_resolve_to_lower_index():
    v = np.array([1.0, -1.0, 1.0, 1.0])
    assert topk_active(v, 2) == (0, 1)
    zeros = np.zeros(5)
    assert topk_active(zeros, 3) == (0, 1, 2)


def test_topk_k_out_of_range():
    with pytest.raises(ValueError):
        topk_rows(np.ones((1, 3)), 4)
    with pytest.raises(ValueError):
        topk_rows(np.ones((1, 3)), -1)


@given(st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_topk_invariant_under_positive_scaling(seed, alpha):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(12)
    k = int(rng.integers(1, 12))
    assert topk_active(v, k) == topk_active(alpha * v, k)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_topk_selected_dominate_unselected(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(10)
    k = int(rng.integers(1, 10))
    kept = list(topk_active(v, k))
    chosen = np.abs(v)[kept]
    rest = np.abs(np.delete(v, kept))
    if rest.size:
        assert chosen.min() >= rest.max() - 1e-12


# ---------------------------------------------------------------------------
# thresholding strategies
# ---------------------------------------------------------------------------

def test_global_threshold():
    v = np.array([[0.1, -0.5, 0.3, 0.05]])
    m = apply_threshold(v, GlobalThreshold(0.2))
    np.testing.assert_array_equal(m, [[False, True, True, False]])


def test_per_layer_threshold_and_layer_index():
    spec = PerLayerThreshold(thresholds=(0.2, 0.4))
    v = np.array([[0.1, -0.5, 0.3, 0.05]])
    np.testing.assert_array_equal(apply_threshold(v, spec, layer=0),
                                  [[False, True, True, False]])
    np.testing.assert_array_equal(apply_threshold(v, spec, layer=1),
                                  [[False, True, False, False]])
    with pytest.raises(IndexError):
        apply_threshold(v, spec, layer=2)


def test_per_token_topk_exact_count():
    spec = PerTokenTopK(density=0.5)
    v = np.array([[0.1, -0.5, 0.3, 0.05]])
    m = apply_threshold(v, spec)
    assert m.dtype == bool and m.sum() == 2 and active(m[0]) == (1, 2)


def test_threshold_spec_validation():
    with pytest.raises(ValueError):
        GlobalThreshold(-0.1)
    with pytest.raises(ValueError):
        PerTokenTopK(density=0.0)
    with pytest.raises(ValueError):
        PerTokenTopK(density=1.5)
    # thresholds apply to a batch of rows; one vector goes as v[None]
    with pytest.raises(ValueError):
        apply_threshold(np.ones(3), GlobalThreshold(0.1))


# ---------------------------------------------------------------------------
# pruning schemes on the toy block
# ---------------------------------------------------------------------------

def sparse_forward(w, rows, x):
    """The block forward of one vector x under one-row RowMasks."""
    return mlp_sparse_forward(w, x, rows.input_mask[0], rows.intermediate_mask[0])


def test_scheme_dense_keeps_everything(toy_weights, toy_x):
    # all-ones masks keep every unit: the forward is the dense block's
    y = mlp_sparse_forward(toy_weights, toy_x, np.ones(2, dtype=bool), np.ones(3, dtype=bool))
    np.testing.assert_allclose(y, mlp_dense_forward(toy_weights, toy_x), atol=0)


def test_scheme_glu_pruning_toy(toy_weights, toy_x):
    # |GLU| = [0, 0.5379, 0] -> keep intermediate 1; output matches dense
    ms = glu_pruning_rows(toy_weights, toy_x[None], 1)
    assert active(ms.intermediate_mask[0]) == (1,)
    assert ms.input_mask.sum() == 2  # input stays dense for this scheme
    y = sparse_forward(toy_weights, ms, toy_x)
    np.testing.assert_allclose(y, [0.0, -0.5378828427399902], atol=1e-9)


def test_scheme_gate_pruning_toy(toy_weights, toy_x):
    # |silu(gate x)| = [0.731, 0.269, 0] -> keep 0, whose up product is 0
    ms = gate_pruning_rows(toy_weights, toy_x[None], 1)
    assert active(ms.intermediate_mask[0]) == (0,)
    y = sparse_forward(toy_weights, ms, toy_x)
    np.testing.assert_allclose(y, [0.0, 0.0], atol=1e-12)


def test_scheme_up_pruning_toy(toy_weights, toy_x):
    # |up x| = [0, 2, 1] -> keep 1; matches dense on this instance
    ms = up_pruning_rows(toy_weights, toy_x[None], 1)
    assert active(ms.intermediate_mask[0]) == (1,)
    y = sparse_forward(toy_weights, ms, toy_x)
    np.testing.assert_allclose(y, [0.0, -0.5378828427399902], atol=1e-9)


def test_scheme_dip_toy(toy_weights, toy_x):
    # input |x| ties -> keep index 0; GLU with masked input = [0.731, 0, 0]
    ms = dip_rows(toy_weights, toy_x[None], k_in=1, k_mid=1)
    assert active(ms.input_mask[0]) == (0,)
    assert active(ms.intermediate_mask[0]) == (0,)
    y = sparse_forward(toy_weights, ms, toy_x)
    np.testing.assert_allclose(y, [0.7310585786300049, 0.0], atol=1e-9)


def test_scheme_predictive_ranks_raw_logits():
    # logits [-5, 2, 1]: raw-value ranking keeps {1}; magnitude would keep {0}
    p = Predictor.create(2, 3, hidden=2, seed=0)
    p.w2[:] = 0.0
    p.b2[:] = np.array([-5.0, 2.0, 1.0])
    ms = predictive_rows(p, np.zeros((1, 2)), 1)
    assert active(ms.intermediate_mask[0]) == (1,)


# ---------------------------------------------------------------------------
# cache-aware re-weighting
# ---------------------------------------------------------------------------

def test_dip_ca_scores_toy_exact():
    x = np.array([0.5, -1.0, 0.25])
    c = np.array([1, 0, 1])
    s = dip_ca_scores(x, c, gamma=0.2)
    np.testing.assert_allclose(s, [0.5, 0.2, 0.25], atol=1e-15)
    assert topk_active(s, 2) == (0, 2)


def test_dip_ca_scores_zero_input_gives_zero_scores():
    s = dip_ca_scores(np.zeros(4), np.ones(4), gamma=0.2)
    np.testing.assert_array_equal(s, np.zeros(4))
    assert topk_active(s, 2) == (0, 1)  # tie rule: lowest indices


def test_dip_ca_gamma_validation():
    with pytest.raises(ValueError):
        dip_ca_scores(np.ones(2), np.ones(2), gamma=-0.1)
    with pytest.raises(ValueError):
        dip_ca_scores(np.ones(2), np.ones(2), gamma=1.5)
    with pytest.raises(ValueError):
        dip_ca_scores(np.ones(3), np.ones(2))
    # one gamma per row: any row's outside [0, 1] rejects the batch
    x, c = np.ones((3, 2)), np.ones(2)
    for gammas in ([0.2, 1.0, 1.5], [-0.1, 0.2, 0.2], [0.2, float("nan"), 0.2]):
        with pytest.raises(ValueError, match="gamma"):
            dip_ca_scores(x, c, gamma=np.array(gammas))
        with pytest.raises(ValueError, match="gamma"):
            dip_ca_rows(MlpWeights.random(2, 4), x, c, np.ones(4), 1, 2, gamma=np.array(gammas))
    with pytest.raises(ValueError, match="one per row"):
        dip_ca_scores(x, c, gamma=np.array([0.2, 0.5]))
    with pytest.raises(ValueError, match="one per row"):
        dip_ca_scores(np.ones(2), c, gamma=np.array([0.2]))


def test_dip_ca_residency_must_be_zero_or_one():
    # a residency of 2 would score a unit above a resident one
    w = MlpWeights.random(2, 4)
    for bad in ([1, 2], [0.5, 1], [-1, 0], [float("nan"), 1]):
        with pytest.raises(ValueError, match="0 or 1"):
            dip_ca_scores([2.0, 0.0], bad, 0.5)
        with pytest.raises(ValueError, match="0 or 1"):
            dip_ca_rows(w, np.ones((1, 2)), bad, np.ones(4), 1, 2)
        with pytest.raises(ValueError, match="0 or 1"):
            dip_ca_rows(w, np.ones((1, 2)), np.ones(2), bad * 2, 1, 2)
    for x in (2.0, np.ones((1, 1, 2))):  # neither one vector nor a batch of rows
        with pytest.raises(ValueError, match="x must be"):
            dip_ca_scores(x, np.ones(2), 0.5)
    # 0 and 1 of any type are taken, bool and float included
    for good in ([1, 0], [True, False], np.array([1.0, 0.0]), np.array([1, 0], dtype=np.int8)):
        np.testing.assert_array_equal(dip_ca_scores([2.0, 1.0], good, 0.5), [1.0, 0.25])


def test_dip_ca_gamma_one_equals_plain_dip():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d_model, d_ff = 6, 15
        w = MlpWeights.random(d_model, d_ff, seed=int(rng.integers(1 << 30)))
        x = rng.standard_normal(d_model)
        c_in = rng.integers(0, 2, d_model)
        c_mid = rng.integers(0, 2, d_ff)
        plain = dip_rows(w, x[None], k_in=3, k_mid=5)
        ca = dip_ca_rows(w, x[None], c_in, c_mid, k_in=3, k_mid=5, gamma=1.0)
        np.testing.assert_array_equal(ca.input_mask, plain.input_mask)
        np.testing.assert_array_equal(ca.intermediate_mask, plain.intermediate_mask)


def test_dip_ca_default_gamma_matches_module_default():
    assert DEFAULT_GAMMA == pytest.approx(0.2)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_dip_ca_marking_resident_never_drops_it(seed):
    # raising one unit's residency only raises its own score, so a selected
    # unit stays selected after it becomes resident
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(8)
    c = rng.integers(0, 2, 8)
    k = int(rng.integers(1, 8))
    before = set(topk_active(dip_ca_scores(x, c), k))
    for i in np.flatnonzero(c == 0):
        c2 = c.copy()
        c2[i] = 1
        after = set(topk_active(dip_ca_scores(x, c2), k))
        if i in before:
            assert i in after


def test_dip_ca_reweight_switches(toy_weights):
    x = np.array([0.5, -1.0])
    c_in = np.array([1, 0])
    c_mid = np.zeros(3)
    # with re-weighting, the resident input wins despite smaller magnitude
    ca = dip_ca_rows(toy_weights, x[None], c_in, c_mid, k_in=1, k_mid=1, gamma=0.2)
    assert active(ca.input_mask[0]) == (0,)
    # switched off, selection falls back to plain magnitude
    off = dip_ca_rows(toy_weights, x[None], c_in, c_mid, k_in=1, k_mid=1, gamma=0.2,
                      reweight_input=False)
    assert active(off.input_mask[0]) == (1,)


def test_dip_ca_positive_scale_invariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(10)
    c = rng.integers(0, 2, 10)
    base = topk_active(dip_ca_scores(x, c), 4)
    for _ in range(100):
        alpha = float(rng.uniform(1e-3, 1e3))
        assert topk_active(dip_ca_scores(alpha * x, c), 4) == base


# ---------------------------------------------------------------------------
# the block forward under a scheme's masks
# ---------------------------------------------------------------------------

def test_sparse_forward_glu_like_schemes_zero_only_down(toy_weights, toy_x):
    # gate/up/glu schemes keep the input dense: the intermediate value at a
    # kept index must equal its dense value
    ms = up_pruning_rows(toy_weights, toy_x[None], 2)
    y = sparse_forward(toy_weights, ms, toy_x)
    h = glu_activations(toy_weights, toy_x)
    keep = ms.intermediate_mask[0].astype(float)
    np.testing.assert_allclose(y, toy_weights.down @ (h * keep), atol=1e-12)


def test_sparse_forward_rejects_wrong_dims(toy_weights):
    # all-ones masks of the wrong dims for the 2/3 toy block
    with pytest.raises(ValueError):
        mlp_sparse_forward(toy_weights, np.ones(2), np.ones(3, dtype=bool),
                           np.ones(4, dtype=bool))
