"""Core numeric kernel: SwiGLU forward passes, error metrics, LoRA
distillation, and the trained sparsity predictor, including finite-difference
gradient verification."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sparsim
from sparsim import (
    ErrorMetrics,
    LoraAdapter,
    MlpAdapters,
    MlpWeights,
    Predictor,
    TrainingDivergedError,
    approx_error,
    density_to_k,
    dip_rows,
    distill_loss_and_grads,
    glu_activations,
    lora_fit_distill,
    lora_fuse,
    mlp_dense_forward,
    mlp_sparse_forward,
    predictor_forward,
    predictor_loss_and_grads,
    predictor_train,
    silu,
    silu_grad,
    topk_binary_targets,
)
from sparsim.mlp import _masked, _sigmoid, _student_forward
from oracles import fd_worst_rel_err as _fd_check


# ---------------------------------------------------------------------------
# silu
# ---------------------------------------------------------------------------

def test_silu_known_values():
    assert silu(0.0) == 0.0
    assert silu(1.0) == pytest.approx(0.7310585786300049, abs=1e-12)
    assert silu(-1.0) == pytest.approx(-0.2689414213699951, abs=1e-12)
    # large-magnitude inputs must not overflow
    assert silu(100.0) == pytest.approx(100.0)
    assert silu(-100.0) == pytest.approx(0.0, abs=1e-12)


def test_mask_and_sigmoid_keep_the_bits_of_their_np_where_forms():
    # _masked multiplies each float's bits by 0 or 1 and _sigmoid takes
    # max(e, v >= 0) as its numerator; on -0.0, inf, NaN and subnormals too
    # both equal np.where bit for bit
    x = np.array([[-0.0, 0.0, np.inf, -np.inf, np.nan, -2.5, 3.0, -1e-310, 800.0]])
    mask = np.array([[True, False, True, False, True, False, True, True, False]])
    want = np.where(mask, x, 0.0)
    assert _masked(x, mask).tobytes() == want.tobytes()
    assert _masked(np.repeat(x, 2, axis=0), mask[0]).tobytes() == np.repeat(want, 2, 0).tobytes()
    e = np.exp(-np.abs(x))
    assert _sigmoid(x).tobytes() == (np.where(x >= 0, 1.0, e) / (e + 1.0)).tobytes()


def test_silu_scalar_returns_float_array_returns_array():
    assert isinstance(silu(2.0), float)
    out = silu(np.array([0.0, 1.0, -1.0]))
    assert isinstance(out, np.ndarray) and out.shape == (3,)


@given(st.floats(min_value=-30, max_value=30))
def test_silu_grad_matches_finite_differences(v):
    h = 1e-6
    fd = (silu(v + h) - silu(v - h)) / (2 * h)
    assert silu_grad(v) == pytest.approx(fd, abs=1e-5, rel=1e-5)


# ---------------------------------------------------------------------------
# forward passes on the toy block
# ---------------------------------------------------------------------------

def test_glu_activations_toy(toy_weights, toy_x):
    h = glu_activations(toy_weights, toy_x)
    np.testing.assert_allclose(h, [0.0, -0.5378828427399902, 0.0], atol=1e-9)


def test_dense_forward_toy(toy_weights, toy_x):
    y = mlp_dense_forward(toy_weights, toy_x)
    np.testing.assert_allclose(y, [0.0, -0.537883], atol=1e-6)


def test_sparse_forward_none_masks_equals_dense(toy_weights, toy_x):
    y = mlp_sparse_forward(toy_weights, toy_x)
    np.testing.assert_allclose(y, mlp_dense_forward(toy_weights, toy_x), atol=0)


def test_sparse_forward_toy_input_and_mid_masks(toy_weights, toy_x):
    # keep input entry 0 and intermediate entry 0 only
    y = mlp_sparse_forward(
        toy_weights, toy_x,
        input_mask=np.array([True, False]),
        intermediate_mask=np.array([True, False, False]),
    )
    np.testing.assert_allclose(y, [0.7310585786300049, 0.0], atol=1e-9)


def test_sparse_forward_accepts_bool_arrays(toy_weights, toy_x):
    y_mask = mlp_sparse_forward(
        toy_weights, toy_x,
        input_mask=np.array([True, False]),
        intermediate_mask=np.array([True, False, False]),
    )
    np.testing.assert_allclose(y_mask, [0.7310585786300049, 0.0], atol=1e-9)


def test_input_mask_equivalent_to_zeroing_input(toy_weights):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(2)
    masked = mlp_sparse_forward(toy_weights, x, input_mask=np.array([True, False]))
    zeroed = mlp_dense_forward(toy_weights, np.array([x[0], 0.0]))
    np.testing.assert_allclose(masked, zeroed, atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_full_density_matches_dense(seed):
    w = MlpWeights.random(6, 18, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    x = rng.standard_normal(6)
    y_ref = mlp_dense_forward(w, x)
    y = mlp_sparse_forward(
        w, x,
        input_mask=np.ones(6, bool),
        intermediate_mask=np.ones(18, bool),
    )
    assert approx_error(y_ref, y).rel_l2 < 1e-6


def test_masking_exact_zero_glu_entries_is_lossless():
    # zero rows of up force exact zeros in GLU; dropping them changes nothing
    w = MlpWeights.random(5, 12, seed=7)
    up = w.up.copy()
    up[[2, 5, 9], :] = 0.0
    w = MlpWeights(up=up, gate=w.gate, down=w.down)
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.standard_normal(5)
        h = glu_activations(w, x)
        keep = h != 0.0
        y = mlp_sparse_forward(
            w, x, intermediate_mask=keep)
        assert approx_error(mlp_dense_forward(w, x), y).rel_l2 < 1e-9


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------

def test_approx_error_identical_and_zero_cases():
    y = np.array([1.0, 2.0])
    m = approx_error(y, y)
    assert m.rel_l2 == pytest.approx(0.0, abs=1e-15)
    assert m.cosine == pytest.approx(1.0, abs=1e-12)
    z = np.zeros(2)
    both = approx_error(z, z)
    assert both.rel_l2 == 0.0 and both.cosine == 1.0
    one = approx_error(y, z)
    assert one.rel_l2 == pytest.approx(1.0)
    assert one.cosine == 0.0


def test_approx_error_toy_sparse_vs_dense(toy_weights, toy_x):
    y_ref = mlp_dense_forward(toy_weights, toy_x)
    masks = dip_rows(toy_weights, toy_x[None], k_in=1, k_mid=1)
    y = mlp_sparse_forward(toy_weights, toy_x,
                           input_mask=masks.input_mask[0],
                           intermediate_mask=masks.intermediate_mask[0])
    np.testing.assert_allclose(y, [0.7310585786300049, 0.0], atol=1e-9)
    assert approx_error(y_ref, y).rel_l2 == pytest.approx(1.687, abs=1e-3)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_approx_error_properties(seed):
    rng = np.random.default_rng(seed)
    y_ref = rng.standard_normal(6)
    y = rng.standard_normal(6)
    m = approx_error(y_ref, y)
    assert m.rel_l2 >= 0.0
    assert -1.0 - 1e-12 <= m.cosine <= 1.0 + 1e-12
    # scaling the approximation by a positive constant keeps cosine fixed
    m2 = approx_error(y_ref, 3.0 * y)
    assert m2.cosine == pytest.approx(m.cosine, abs=1e-12)


# ---------------------------------------------------------------------------
# LoRA adapters and distillation
# ---------------------------------------------------------------------------

def test_lora_adapter_shapes_and_delta():
    rng = np.random.default_rng(0)
    ad = LoraAdapter.init(4, 6, rank=2, rng=rng)
    assert ad.a.shape == (4, 2) and ad.b.shape == (2, 6)
    assert ad.rank == 2
    np.testing.assert_array_equal(ad.b, 0.0)  # zero B => zero initial update
    np.testing.assert_array_equal(ad.delta(), np.zeros((4, 6)))


def test_lora_fuse_then_select_equals_select_then_adapt():
    # masking columns of the fused weight == fusing masked weight with the
    # identically masked update; this is the identity that lets adapters be
    # trained once and applied under any later sparsity mask
    rng = np.random.default_rng(5)
    w = rng.standard_normal((6, 9))
    ad = LoraAdapter(a=rng.standard_normal((6, 3)), b=rng.standard_normal((3, 9)))
    cols = np.array([True, False, True, True, False, False, True, False, True])
    fused = lora_fuse(w, ad)
    left = fused * cols
    right = w * cols + ad.delta() * cols
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_lora_fuse_shape_mismatch():
    ad = LoraAdapter(a=np.zeros((3, 2)), b=np.zeros((2, 4)))
    with pytest.raises(ValueError):
        lora_fuse(np.zeros((5, 5)), ad)


def test_student_forward_with_zero_update_equals_masked_base(toy_weights):
    rng = np.random.default_rng(0)
    ad = MlpAdapters.init(toy_weights, rank=2, rng=rng)
    x = np.array([[1.0, -1.0]])
    in_m = np.array([[1.0, 1.0]])
    mid_m = np.array([[1.0, 1.0, 0.0]])
    y, _ = _student_forward(toy_weights, ad, in_m, mid_m, x)
    expect = mlp_sparse_forward(
        toy_weights, x[0], intermediate_mask=np.array([True, True, False]))
    np.testing.assert_allclose(np.ravel(y), expect, atol=1e-12)


def test_distill_gradients_match_finite_differences():
    w = MlpWeights.random(3, 5, seed=1)
    rng = np.random.default_rng(2)
    ad = MlpAdapters.init(w, rank=2, rng=rng)
    # give B nonzero values so every gradient path is exercised
    ad.up.b[:] = 0.05 * rng.standard_normal(ad.up.b.shape)
    ad.gate.b[:] = 0.05 * rng.standard_normal(ad.gate.b.shape)
    ad.down.b[:] = 0.05 * rng.standard_normal(ad.down.b.shape)
    x_batch = rng.standard_normal((2, 3))
    in_masks = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    mid_masks = np.array([[1, 1, 0, 1, 0], [0, 1, 1, 0, 1]], dtype=float)
    teacher = (x_batch @ w.up.T * silu(x_batch @ w.gate.T)) @ w.down.T

    def loss_fn():
        return distill_loss_and_grads(w, ad, in_masks, mid_masks, x_batch, teacher)[0]

    _, grads = distill_loss_and_grads(w, ad, in_masks, mid_masks, x_batch, teacher)
    params = {
        "up_a": ad.up.a, "up_b": ad.up.b,
        "gate_a": ad.gate.a, "gate_b": ad.gate.b,
        "down_a": ad.down.a, "down_b": ad.down.b,
    }
    assert _fd_check(loss_fn, params, grads) < 1e-4


def test_distill_reduces_loss_on_toy_block():
    w = MlpWeights.random(4, 12, seed=3)
    rng = np.random.default_rng(4)
    inputs = rng.standard_normal((8, 4))
    k_in = density_to_k(0.5, 4)
    k_mid = density_to_k(0.5, 12)
    masks = dip_rows(w, inputs, k_in, k_mid)

    result = lora_fit_distill(w, inputs, masks.input_mask, masks.intermediate_mask,
                              rank=2, iters=300, lr=0.05, seed=0)
    assert result.final_loss <= result.initial_loss
    assert result.final_loss < 0.9 * result.initial_loss  # actually learned
    assert len(result.losses) == 301


def test_distill_zero_iters_returns_initialization():
    w = MlpWeights.random(4, 8, seed=0)
    masks = dip_rows(w, np.ones((1, 4)), 2, 4)
    res = lora_fit_distill(w, [np.ones(4)], masks.input_mask, masks.intermediate_mask,
                           rank=2, iters=0)
    assert len(res.losses) == 1
    np.testing.assert_array_equal(res.adapters.up.b, 0.0)


def test_distill_validates_rank_and_iters():
    w = MlpWeights.random(4, 8, seed=0)
    masks = dip_rows(w, np.ones((1, 4)), 2, 4)
    in_masks, mid_masks = masks.input_mask, masks.intermediate_mask
    with pytest.raises(ValueError):
        lora_fit_distill(w, [np.ones(4)], in_masks, mid_masks, rank=0)
    with pytest.raises(ValueError):
        lora_fit_distill(w, [np.ones(4)], in_masks, mid_masks, rank=2, iters=-1)
    with pytest.raises(ValueError):
        lora_fit_distill(w, [np.ones(3)], in_masks, mid_masks, rank=2)
    # one mask row per input, each the width of its side
    with pytest.raises(ValueError):
        lora_fit_distill(w, [np.ones(4)] * 2, in_masks, mid_masks, rank=2)
    with pytest.raises(ValueError):
        lora_fit_distill(w, [np.ones(4)], mid_masks, in_masks, rank=2)
    with pytest.raises(ValueError):
        lora_fit_distill(w, [np.ones(4)], in_masks[0], mid_masks[0], rank=2)


def test_distill_divergence_raises():
    w = MlpWeights.random(4, 8, seed=0)
    rng = np.random.default_rng(1)
    inputs = list(10.0 * rng.standard_normal((4, 4)))
    masks = dip_rows(w, inputs, 2, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingDivergedError):
            lora_fit_distill(w, inputs, masks.input_mask, masks.intermediate_mask,
                             rank=2, iters=200, lr=1e6, seed=0)


def _not_monotone(losses):
    # a loss that rises at some step, and a best iterate before the last
    return (any(b > a for a, b in zip(losses, losses[1:]))
            and losses.index(min(losses)) < len(losses) - 1)


def test_distill_returns_the_best_iterate():
    # at this step size the loss is not monotone, so the best adapters are
    # neither the last iterate nor live arrays that later steps moved on
    w = MlpWeights.random(4, 12, seed=3)
    inputs = np.random.default_rng(4).standard_normal((8, 4))
    masks = dip_rows(w, inputs, 2, 6)
    res = lora_fit_distill(w, inputs, masks.input_mask, masks.intermediate_mask,
                           rank=2, iters=20, lr=1.8, seed=0)
    assert _not_monotone(res.losses)
    loss, _ = distill_loss_and_grads(w, res.adapters, masks.input_mask.astype(float),
                                     masks.intermediate_mask.astype(float), inputs,
                                     mlp_dense_forward(w, inputs))
    assert loss == res.final_loss


# ---------------------------------------------------------------------------
# predictor
# ---------------------------------------------------------------------------

def test_predictor_shapes_and_param_count():
    p = Predictor.create(6, 20, hidden=8, seed=0)
    assert p.w1.shape == (8, 6) and p.b1.shape == (8,)
    assert p.w2.shape == (20, 8) and p.b2.shape == (20,)
    assert p.num_params == 8 * (6 + 1) + 20 * (8 + 1)
    z = predictor_forward(p, np.zeros(6))
    assert z.shape == (20,)


def test_topk_binary_targets():
    glu = np.array([[0.1, -3.0, 0.2, 2.0], [5.0, 0.0, -0.1, 0.0]])
    t = topk_binary_targets(glu, 0.5)  # ceil(0.5*4) = 2 per row
    np.testing.assert_array_equal(t, [[0, 1, 0, 1], [1, 0, 1, 0]])
    assert topk_binary_targets(glu, 0.01).sum(axis=1).tolist() == [1, 1]


def test_predictor_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    p = Predictor.create(3, 7, hidden=4, seed=6)
    x_batch = rng.standard_normal((3, 3))
    targets = (rng.random((3, 7)) < 0.3).astype(float)

    def loss_fn():
        return predictor_loss_and_grads(p, x_batch, targets)[0]

    _, grads = predictor_loss_and_grads(p, x_batch, targets)
    params = {"w1": p.w1, "b1": p.b1, "w2": p.w2, "b2": p.b2}
    assert _fd_check(loss_fn, params, grads) < 1e-4


def test_predictor_loss_is_stable_for_large_logits():
    p = Predictor.create(2, 3, hidden=2, seed=0)
    p.w2[:] = 0.0
    p.b2[:] = np.array([500.0, -500.0, 0.0])
    loss, _ = predictor_loss_and_grads(p, np.zeros((1, 2)), np.array([[1.0, 0.0, 1.0]]))
    assert np.isfinite(loss)
    # exact: entries 0/1 are perfectly classified; entry 2 contributes log 2
    assert loss == pytest.approx(np.log(2.0) / 3.0, rel=1e-6)


def test_predictor_train_learns_separable_targets():
    # intermediate activations are a fixed linear map of the input, so the
    # top-frac set is recoverable from x alone
    rng = np.random.default_rng(7)
    w = MlpWeights.random(6, 24, seed=7)
    data = []
    for _ in range(64):
        x = rng.standard_normal(6)
        data.append((x, glu_activations(w, x)))
    res = predictor_train(data, hidden=16, epochs=400, lr=0.5,
                          target_frac=0.25, seed=0)
    assert res.final_loss < res.initial_loss
    # recall of the true top-25% set from predictor logits
    hits = total = 0
    k = int(np.ceil(0.25 * 24))
    for x, glu in data:
        truth = set(np.argsort(-np.abs(glu))[:k].tolist())
        pred = set(np.argsort(-predictor_forward(res.predictor, x))[:k].tolist())
        hits += len(truth & pred)
        total += k
    assert hits / total > 0.5  # far above the 0.25 chance level


def test_predictor_train_zero_epochs_and_divergence():
    rng = np.random.default_rng(8)
    data = [(rng.standard_normal(4), rng.standard_normal(10)) for _ in range(4)]
    res = predictor_train(data, hidden=4, epochs=0)
    assert len(res.losses) == 1
    big = [(100.0 * x, g) for x, g in data]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingDivergedError):
            predictor_train(big, hidden=4, epochs=300, lr=1e8)


def test_predictor_train_returns_the_best_iterate():
    rng = np.random.default_rng(8)
    w = MlpWeights.random(6, 24, seed=7)
    xs = rng.standard_normal((16, 6))
    data = [(x, glu_activations(w, x)) for x in xs]
    res = predictor_train(data, hidden=8, epochs=40, lr=50.0, target_frac=0.25, seed=0)
    assert _not_monotone(res.losses)
    targets = topk_binary_targets(np.array([g for _, g in data]), 0.25)
    loss, _ = predictor_loss_and_grads(res.predictor, xs, targets)
    assert loss == res.final_loss


# ---------------------------------------------------------------------------
# weight containers
# ---------------------------------------------------------------------------

def test_mlp_weights_validation():
    with pytest.raises(ValueError):
        MlpWeights(up=np.zeros((3, 2)), gate=np.zeros((3, 2)), down=np.zeros((2, 4)))
    with pytest.raises(ValueError):
        MlpWeights(up=np.zeros((3, 2)), gate=np.zeros((4, 2)), down=np.zeros((2, 3)))
    w = MlpWeights.random(5, 15, seed=0)
    assert w.d_model == 5 and w.d_ff == 15


def test_mlp_weights_random_is_deterministic():
    a = MlpWeights.random(4, 8, seed=42)
    b = MlpWeights.random(4, 8, seed=42)
    np.testing.assert_array_equal(a.up, b.up)
    np.testing.assert_array_equal(a.gate, b.gate)
    np.testing.assert_array_equal(a.down, b.down)
    c = MlpWeights.random(4, 8, seed=43)
    assert not np.array_equal(a.up, c.up)
