"""Row-batched top-k, GLU, block forward, schemes and density sweep against
the per-vector oracles, bit for bit, on tie-heavy inputs."""
import math

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from sparsim import (
    MlpWeights,
    approx_error,
    glu_activations,
    mlp_dense_forward,
    mlp_sparse_forward,
    scheme_dense,
    scheme_dip,
    scheme_dip_ca,
    scheme_gate_pruning,
    scheme_glu_pruning,
    scheme_predictive_oracle,
    scheme_up_pruning,
    sweep_density_allocation,
    topk_binary_targets,
    topk_indices,
)
from sparsim.masking import (
    dense_rows,
    dip_ca_rows,
    dip_rows,
    gate_pruning_rows,
    glu_pruning_rows,
    predictive_oracle_rows,
    topk_rows,
    up_pruning_rows,
)
from sparsim.mlp import rel_l2_rows

D_MODEL, D_FF = 8, 24
KINDS = ("zeros", "repeated", "pm_pairs", "normal", "mixed")


def _rows(kind, n, dim, rng):
    """Rows full of ties: all zeros, a few repeated magnitudes, +-equal
    pairs, plain normals, or a mix of those per row."""
    if kind == "zeros":
        return np.zeros((n, dim))
    if kind == "repeated":
        return rng.choice([0.5, 1.0, 2.0], (n, dim)) * rng.choice([-1.0, 1.0], (n, dim))
    if kind == "pm_pairs":
        half = rng.standard_normal((n, (dim + 1) // 2))
        out = np.concatenate([half, -half], axis=1)[:, :dim]
        return out[:, rng.permutation(dim)]
    if kind == "normal":
        return rng.standard_normal((n, dim))
    return np.stack([_rows(KINDS[int(rng.integers(4))], 1, dim, rng)[0] for _ in range(n)])


@st.composite
def batches(draw, dim=D_MODEL):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return _rows(draw(st.sampled_from(KINDS)), draw(st.integers(1, 6)), dim, rng), rng


def _weights(rng, tied):
    """Random block; tied=True repeats weight columns so the GLU ties too."""
    w = MlpWeights.random(D_MODEL, D_FF, seed=int(rng.integers(2**31)))
    if tied:
        w.up[:, 1] = w.up[:, 0]
        w.gate[:, 1] = w.gate[:, 0]
        w.up[1::2] = w.up[0::2]
        w.gate[1::2] = w.gate[0::2]
    return w


@given(batches(dim=D_FF), st.data())
@settings(max_examples=80, deadline=None)
def test_topk_rows_match_per_vector_oracle(batch, data):
    x, _ = batch
    k = data.draw(st.integers(0, D_FF))
    for magnitude in (True, False):
        order, mask = topk_rows(np.abs(x) if magnitude else x, k)
        for i, row in enumerate(x):
            assert order[i].tolist() == oracles.topk_order(row, k, magnitude)
            expected = oracles.topk_indices(row, k, magnitude)
            np.testing.assert_array_equal(mask[i], oracles.keep_mask(D_FF, expected))
            assert topk_indices(row, k, magnitude).active == expected
    if k:
        targets = topk_binary_targets(x, k / D_FF)
        for i, row in enumerate(x):
            keep = oracles.keep_mask(D_FF, oracles.topk_indices(row, math.ceil(k / D_FF * D_FF)))
            np.testing.assert_array_equal(targets[i], keep.astype(float))


@given(batches(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_glu_and_forward_rows_match_per_vector_oracle(batch, tied):
    x, rng = batch
    w = _weights(rng, tied)
    in_keep = rng.random((len(x), D_MODEL)) < 0.6
    mid_keep = rng.random((len(x), D_FF)) < 0.5
    h = glu_activations(w, x, in_keep)
    y = mlp_sparse_forward(w, x, in_keep, mid_keep)
    y_ref = mlp_dense_forward(w, x)
    errs = rel_l2_rows(y_ref, y)
    for i, row in enumerate(x):
        want_h = oracles.glu_activations(w, row, in_keep[i])
        assert np.array_equal(h[i], want_h)
        assert np.array_equal(glu_activations(w, row, in_keep[i]), want_h)
        assert np.array_equal(y[i], oracles.sparse_forward(w, row, in_keep[i], mid_keep[i]))
        assert np.array_equal(y_ref[i], oracles.sparse_forward(w, row))
        assert errs[i] == approx_error(y_ref[i], y[i]).rel_l2


def _admission(mask_set, side):
    mask = getattr(mask_set, f"{side}_mask")
    scores = getattr(mask_set, f"{side}_scores")
    if scores is None:
        return list(mask.active)
    return sorted(mask.active, key=lambda u: (-scores[u], u))


@given(batches(), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_scheme_rows_match_per_vector_calls(batch, tied, data):
    x, rng = batch
    w = _weights(rng, tied)
    k_in = data.draw(st.integers(1, D_MODEL))
    k_mid = data.draw(st.integers(1, D_FF))
    c_in = rng.integers(0, 2, D_MODEL)
    c_mid = rng.integers(0, 2, D_FF)
    cases = [
        (dense_rows(len(x), D_MODEL, D_FF), lambda r: scheme_dense(D_MODEL, D_FF)),
        (glu_pruning_rows(w, x, k_mid), lambda r: scheme_glu_pruning(w, r, k_mid)),
        (gate_pruning_rows(w, x, k_mid), lambda r: scheme_gate_pruning(w, r, k_mid)),
        (up_pruning_rows(w, x, k_mid), lambda r: scheme_up_pruning(w, r, k_mid)),
        (predictive_oracle_rows(w, x, k_mid), lambda r: scheme_predictive_oracle(w, r, k_mid)),
        (dip_rows(w, x, k_in, k_mid), lambda r: scheme_dip(w, r, k_in, k_mid)),
        (dip_ca_rows(w, x, c_in, c_mid, k_in, k_mid),
         lambda r: scheme_dip_ca(w, r, c_in, c_mid, k_in, k_mid)),
    ]
    for rows, one in cases:
        for i, row in enumerate(x):
            got, want = rows.mask_set(i), one(row)
            assert got.input_mask.active == want.input_mask.active
            assert got.intermediate_mask.active == want.intermediate_mask.active
            for side in ("input", "intermediate"):
                a, b = getattr(got, f"{side}_scores"), getattr(want, f"{side}_scores")
                assert (a is None) == (b is None)
                if a is not None:
                    assert np.array_equal(a, b)
                # the top-k order is the caches' admission order
                assert getattr(rows, f"{side}_order")[i].tolist() == _admission(want, side)
    dip = dip_rows(w, x, k_in, k_mid)
    for i, row in enumerate(x):
        in_keep, mid_keep = oracles.dip_masks(w, row, k_in, k_mid)
        np.testing.assert_array_equal(dip.input_mask[i], in_keep)
        np.testing.assert_array_equal(dip.intermediate_mask[i], mid_keep)


@given(batches(), st.booleans(),
       st.lists(st.sampled_from([0.05, 0.25, 0.5, 0.8, 1.0]), min_size=1, max_size=3),
       st.lists(st.sampled_from([0.05, 0.3, 0.5, 0.75, 1.0]), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_sweep_matches_per_vector_oracle(batch, tied, dins, dmids):
    x, rng = batch
    w = _weights(rng, tied)
    got = sweep_density_allocation(w, x, dins, dmids)
    want = oracles.sweep_density_allocation(w, x, dins, dmids)
    assert [(p.density_in, p.density_mid, p.k_in, p.k_mid, p.error) for p in got] == want
