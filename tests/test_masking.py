"""Top-k selection, thresholding strategies, pruning schemes, and cache-aware
score re-weighting."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsim import (
    DEFAULT_GAMMA,
    GlobalThreshold,
    MaskSet,
    MlpWeights,
    PerLayerThreshold,
    PerTokenTopK,
    Predictor,
    SparsityMask,
    apply_threshold,
    density_to_k,
    dip_ca_scores,
    glu_activations,
    mlp_dense_forward,
    mlp_sparse_forward,
    scheme_dip,
    scheme_dip_ca,
    silu,
    topk_indices,
)
from sparsim.masking import (
    dense_rows,
    gate_pruning_rows,
    glu_pruning_rows,
    predictive_oracle_rows,
    predictive_rows,
    up_pruning_rows,
)


# ---------------------------------------------------------------------------
# density_to_k and SparsityMask
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


def test_sparsity_mask_normalizes_and_validates():
    m = SparsityMask(dim=5, active=(3, 1, 0))
    assert m.active == (0, 1, 3)
    assert m.count == 3
    assert m.density == pytest.approx(0.6)
    np.testing.assert_array_equal(m.as_bool(), [True, True, False, True, False])
    assert SparsityMask.full(4).count == 4
    with pytest.raises(ValueError):
        SparsityMask(dim=3, active=(3,))
    with pytest.raises(ValueError):
        SparsityMask(dim=3, active=(-1,))
    with pytest.raises(ValueError):
        SparsityMask(dim=3, active=(1, 1))


def test_mask_set_holds_scheme_and_masks():
    ms = MaskSet(scheme="dip",
                 input_mask=SparsityMask(dim=2, active=(0,)),
                 intermediate_mask=SparsityMask(dim=3, active=(1,)))
    assert ms.scheme == "dip"
    assert ms.input_mask.active == (0,)


# ---------------------------------------------------------------------------
# topk_indices
# ---------------------------------------------------------------------------

def test_topk_magnitude_and_raw_value():
    v = np.array([0.5, -2.0, 1.0])
    assert topk_indices(v, 2).active == (1, 2)          # by |value|
    assert topk_indices(v, 2, magnitude=False).active == (0, 2)  # by value
    assert topk_indices(v, 0).active == ()
    assert topk_indices(v, 3).active == (0, 1, 2)


def test_topk_ties_resolve_to_lower_index():
    v = np.array([1.0, -1.0, 1.0, 1.0])
    assert topk_indices(v, 2).active == (0, 1)
    zeros = np.zeros(5)
    assert topk_indices(zeros, 3).active == (0, 1, 2)


def test_topk_k_out_of_range():
    with pytest.raises(ValueError):
        topk_indices(np.ones(3), 4)
    with pytest.raises(ValueError):
        topk_indices(np.ones(3), -1)


@given(st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_topk_invariant_under_positive_scaling(seed, alpha):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(12)
    k = int(rng.integers(1, 12))
    assert topk_indices(v, k).active == topk_indices(alpha * v, k).active


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_topk_selected_dominate_unselected(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(10)
    k = int(rng.integers(1, 10))
    mask = topk_indices(v, k)
    chosen = np.abs(v)[list(mask.active)]
    rest = np.abs(np.delete(v, list(mask.active)))
    if rest.size:
        assert chosen.min() >= rest.max() - 1e-12


# ---------------------------------------------------------------------------
# thresholding strategies
# ---------------------------------------------------------------------------

def test_global_threshold():
    v = np.array([0.1, -0.5, 0.3, 0.05])
    m = apply_threshold(v, GlobalThreshold(0.2))
    assert m.active == (1, 2)


def test_per_layer_threshold_and_layer_index():
    spec = PerLayerThreshold(thresholds=(0.2, 0.4))
    v = np.array([0.1, -0.5, 0.3, 0.05])
    assert apply_threshold(v, spec, layer=0).active == (1, 2)
    assert apply_threshold(v, spec, layer=1).active == (1,)
    with pytest.raises(IndexError):
        apply_threshold(v, spec, layer=2)


def test_per_token_topk_exact_count():
    spec = PerTokenTopK(density=0.5)
    v = np.array([0.1, -0.5, 0.3, 0.05])
    m = apply_threshold(v, spec)
    assert m.count == 2 and m.active == (1, 2)


def test_threshold_spec_validation():
    with pytest.raises(ValueError):
        GlobalThreshold(-0.1)
    with pytest.raises(ValueError):
        PerTokenTopK(density=0.0)
    with pytest.raises(ValueError):
        PerTokenTopK(density=1.5)


# ---------------------------------------------------------------------------
# pruning schemes on the toy block
# ---------------------------------------------------------------------------

def sparse_forward(w, ms, x):
    """The block forward under one MaskSet."""
    return mlp_sparse_forward(w, x, ms.input_mask, ms.intermediate_mask)


def test_scheme_dense_keeps_everything(toy_weights, toy_x):
    ms = dense_rows(1, 2, 3).mask_set(0)
    assert ms.input_mask.count == 2 and ms.intermediate_mask.count == 3
    y = sparse_forward(toy_weights, ms, toy_x)
    np.testing.assert_allclose(y, mlp_dense_forward(toy_weights, toy_x), atol=0)


def test_scheme_glu_pruning_toy(toy_weights, toy_x):
    # |GLU| = [0, 0.5379, 0] -> keep intermediate 1; output matches dense
    ms = glu_pruning_rows(toy_weights, toy_x[None], 1).mask_set(0)
    assert ms.intermediate_mask.active == (1,)
    assert ms.input_mask.count == 2  # input stays dense for this scheme
    y = sparse_forward(toy_weights, ms, toy_x)
    np.testing.assert_allclose(y, [0.0, -0.5378828427399902], atol=1e-9)


def test_scheme_gate_pruning_toy(toy_weights, toy_x):
    # |silu(gate x)| = [0.731, 0.269, 0] -> keep 0, whose up product is 0
    ms = gate_pruning_rows(toy_weights, toy_x[None], 1).mask_set(0)
    assert ms.intermediate_mask.active == (0,)
    y = sparse_forward(toy_weights, ms, toy_x)
    np.testing.assert_allclose(y, [0.0, 0.0], atol=1e-12)


def test_scheme_up_pruning_toy(toy_weights, toy_x):
    # |up x| = [0, 2, 1] -> keep 1; matches dense on this instance
    ms = up_pruning_rows(toy_weights, toy_x[None], 1).mask_set(0)
    assert ms.intermediate_mask.active == (1,)
    y = sparse_forward(toy_weights, ms, toy_x)
    np.testing.assert_allclose(y, [0.0, -0.5378828427399902], atol=1e-9)


def test_scheme_dip_toy(toy_weights, toy_x):
    # input |x| ties -> keep index 0; GLU with masked input = [0.731, 0, 0]
    ms = scheme_dip(toy_weights, toy_x, k_in=1, k_mid=1)
    assert ms.input_mask.active == (0,)
    assert ms.intermediate_mask.active == (0,)
    y = sparse_forward(toy_weights, ms, toy_x)
    np.testing.assert_allclose(y, [0.7310585786300049, 0.0], atol=1e-9)


def test_scheme_predictive_oracle_matches_glu_selection(toy_weights, toy_x):
    oracle = predictive_oracle_rows(toy_weights, toy_x[None], 1).mask_set(0)
    glu = glu_pruning_rows(toy_weights, toy_x[None], 1).mask_set(0)
    assert oracle.intermediate_mask.active == glu.intermediate_mask.active
    # predictive prunes all three matrices, so its input mask is full but the
    # scheme label differs
    assert oracle.scheme == "predictive"


def test_scheme_predictive_ranks_raw_logits():
    # logits [-5, 2, 1]: raw-value ranking keeps {1}; magnitude would keep {0}
    p = Predictor.create(2, 3, hidden=2, seed=0)
    p.w2[:] = 0.0
    p.b2[:] = np.array([-5.0, 2.0, 1.0])
    ms = predictive_rows(p, np.zeros((1, 2)), 1).mask_set(0)
    assert ms.intermediate_mask.active == (1,)


def test_scheme_masks_carry_scores(toy_weights, toy_x):
    ms = scheme_dip(toy_weights, toy_x, k_in=1, k_mid=1)
    assert ms.input_scores is not None and ms.intermediate_scores is not None
    np.testing.assert_allclose(ms.input_scores, np.abs(toy_x))


# ---------------------------------------------------------------------------
# cache-aware re-weighting
# ---------------------------------------------------------------------------

def test_dip_ca_scores_toy_exact():
    x = np.array([0.5, -1.0, 0.25])
    c = np.array([1, 0, 1])
    s = dip_ca_scores(x, c, gamma=0.2)
    np.testing.assert_allclose(s, [0.5, 0.2, 0.25], atol=1e-15)
    assert topk_indices(s, 2).active == (0, 2)


def test_dip_ca_scores_zero_input_gives_zero_scores():
    s = dip_ca_scores(np.zeros(4), np.ones(4), gamma=0.2)
    np.testing.assert_array_equal(s, np.zeros(4))
    assert topk_indices(s, 2).active == (0, 1)  # tie rule: lowest indices


def test_dip_ca_gamma_validation():
    with pytest.raises(ValueError):
        dip_ca_scores(np.ones(2), np.ones(2), gamma=-0.1)
    with pytest.raises(ValueError):
        dip_ca_scores(np.ones(2), np.ones(2), gamma=1.5)
    with pytest.raises(ValueError):
        dip_ca_scores(np.ones(3), np.ones(2))


def test_dip_ca_gamma_one_equals_plain_dip():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d_model, d_ff = 6, 15
        w = MlpWeights.random(d_model, d_ff, seed=int(rng.integers(1 << 30)))
        x = rng.standard_normal(d_model)
        c_in = rng.integers(0, 2, d_model)
        c_mid = rng.integers(0, 2, d_ff)
        plain = scheme_dip(w, x, k_in=3, k_mid=5)
        ca = scheme_dip_ca(w, x, c_in, c_mid, k_in=3, k_mid=5, gamma=1.0)
        assert ca.input_mask.active == plain.input_mask.active
        assert ca.intermediate_mask.active == plain.intermediate_mask.active


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
    before = set(topk_indices(dip_ca_scores(x, c), k).active)
    for i in np.flatnonzero(c == 0):
        c2 = c.copy()
        c2[i] = 1
        after = set(topk_indices(dip_ca_scores(x, c2), k).active)
        if i in before:
            assert i in after


def test_dip_ca_reweight_switches(toy_weights):
    x = np.array([0.5, -1.0])
    c_in = np.array([1, 0])
    c_mid = np.zeros(3)
    # with re-weighting, the resident input wins despite smaller magnitude
    ca = scheme_dip_ca(toy_weights, x, c_in, c_mid, k_in=1, k_mid=1, gamma=0.2)
    assert ca.input_mask.active == (0,)
    # switched off, selection falls back to plain magnitude
    off = scheme_dip_ca(toy_weights, x, c_in, c_mid, k_in=1, k_mid=1, gamma=0.2,
                        reweight_input=False)
    assert off.input_mask.active == (1,)


def test_dip_ca_positive_scale_invariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(10)
    c = rng.integers(0, 2, 10)
    base = topk_indices(dip_ca_scores(x, c), 4).active
    for _ in range(100):
        alpha = float(rng.uniform(1e-3, 1e3))
        assert topk_indices(dip_ca_scores(alpha * x, c), 4).active == base


# ---------------------------------------------------------------------------
# the block forward under a scheme's masks
# ---------------------------------------------------------------------------

def test_sparse_forward_glu_like_schemes_zero_only_down(toy_weights, toy_x):
    # gate/up/glu schemes keep the input dense: the intermediate value at a
    # kept index must equal its dense value
    ms = up_pruning_rows(toy_weights, toy_x[None], 2).mask_set(0)
    y = sparse_forward(toy_weights, ms, toy_x)
    h = glu_activations(toy_weights, toy_x)
    keep = np.zeros(3)
    keep[list(ms.intermediate_mask.active)] = 1
    np.testing.assert_allclose(y, toy_weights.down @ (h * keep), atol=1e-12)


def test_sparse_forward_rejects_wrong_dims(toy_weights):
    ms = dense_rows(1, 3, 4).mask_set(0)  # wrong dims for the 2/3 toy block
    with pytest.raises(ValueError):
        sparse_forward(toy_weights, ms, np.ones(2))
