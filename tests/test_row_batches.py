"""Row-batched top-k, GLU, block forward, schemes, thresholds and density
sweep against the per-vector oracles, bit for bit, on tie-heavy inputs."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from sparsim import (
    GlobalThreshold,
    MlpWeights,
    PerLayerThreshold,
    PerTokenTopK,
    Predictor,
    apply_threshold,
    approx_error,
    glu_activations,
    layer_densities,
    mlp_dense_forward,
    mlp_sparse_forward,
    sweep_density_allocation,
    topk_binary_targets,
)
from sparsim import masking
from sparsim.masking import (
    dip_ca_rows,
    dip_ca_scores,
    dip_rows,
    gate_pruning_rows,
    glu_pruning_rows,
    predictive_rows,
    rank_rows,
    topk_rows,
    up_pruning_rows,
)
from sparsim.mlp import down_projection, rel_l2_rows

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


KEY_KINDS = KINDS + ("signed_zeros", "infinite", "nan")


def _keys(kind, n, dim, rng):
    """Keys for the row order: the rows above, or rows of +-0.0, of +-inf
    among a few finite values, or of normals with NaNs; "mixed" mixes every
    kind, so fast and stable rows meet in one batch."""
    if kind == "signed_zeros":
        return rng.choice([0.0, -0.0], (n, dim))
    if kind == "infinite":
        return rng.choice([np.inf, -np.inf, 1.0, 0.0, -2.0], (n, dim))
    if kind == "nan":
        x = rng.standard_normal((n, dim))
        x[rng.random((n, dim)) < 0.3] = np.nan
        return x
    if kind == "mixed":
        picks = [KEY_KINDS[int(i)] for i in rng.integers(len(KEY_KINDS), size=n)]
        return np.concatenate([np.empty((0, dim))] + [_keys(k, 1, dim, rng) for k in picks])
    return _rows(kind, n, dim, rng)


@given(st.integers(0, 2**32 - 1), st.sampled_from(KEY_KINDS), st.integers(0, 6),
       st.sampled_from([1, 2, 7, D_FF, 100]))
@settings(max_examples=150, deadline=None)
def test_rank_rows_is_the_stable_descending_order(seed, kind, n, dim):
    keys = _keys(kind, n, dim, np.random.default_rng(seed))
    want = np.argsort(-keys, axis=1, kind="stable")
    np.testing.assert_array_equal(rank_rows(keys), want)
    for k in range(dim + 1):
        order, mask = topk_rows(keys, k)
        np.testing.assert_array_equal(order, want[:, :k])
        keep = np.zeros(keys.shape, dtype=bool)
        np.put_along_axis(keep, want[:, :k], True, axis=1)
        np.testing.assert_array_equal(mask, keep)


@given(st.integers(0, 2**32 - 1), st.sampled_from(KEY_KINDS), st.integers(0, 6),
       st.sampled_from([1, 2, 7, D_FF]), st.data())
@settings(max_examples=150, deadline=None)
def test_prefix_masks_equal_per_row_topk_masks(seed, kind, n, dim, data):
    # masks as prefixes of one order per batch, a k per row, on keys with
    # ties and +-0.0: each row's mask is topk_rows' mask at its own k
    keys = _keys(kind, n, dim, np.random.default_rng(seed))
    ks = np.array(data.draw(st.lists(st.integers(0, dim), min_size=n, max_size=n)),
                  dtype=np.intp)
    order = rank_rows(keys)
    mask = masking.prefix_masks(order[:, :ks.max(initial=0)], dim, ks)
    assert mask.shape == keys.shape and mask.dtype == bool
    for i, k in enumerate(ks.tolist()):
        np.testing.assert_array_equal(mask[i], topk_rows(keys[i:i + 1], k)[1][0])
    # without ks every row keeps every column given: one k for all rows
    for k in range(dim + 1):
        np.testing.assert_array_equal(masking.prefix_masks(order[:, :k], dim),
                                      topk_rows(keys, k)[1])


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
    if k:
        targets = topk_binary_targets(x, k / D_FF)
        for i, row in enumerate(x):
            keep = oracles.keep_mask(D_FF, oracles.topk_indices(row, math.ceil(k / D_FF * D_FF)))
            np.testing.assert_array_equal(targets[i], keep.astype(float))

    # one k per row, 0 and D_FF among them: each row keeps its own prefix of
    # one ranking, the order running on to the largest k
    ks = np.array(data.draw(st.lists(st.sampled_from([0, D_FF]) | st.integers(0, D_FF),
                                     min_size=len(x), max_size=len(x))))
    for magnitude in (True, False):
        keys = np.abs(x) if magnitude else x
        order, mask = topk_rows(keys, ks)
        assert order.shape == (len(x), ks.max())
        for i, row in enumerate(x):
            expected = oracles.topk_indices(row, ks[i], magnitude)
            np.testing.assert_array_equal(mask[i], oracles.keep_mask(D_FF, expected))
            np.testing.assert_array_equal(order[i, :ks[i]], topk_rows(keys, ks[i])[0][i])
    # a k per row is checked as one k is: its length, type and range
    for bad in (ks[1:], np.append(ks, 0), ks + 0.0, np.append(ks[1:], -1),
                np.append(ks[1:], D_FF + 1)):
        with pytest.raises(ValueError, match="k must be"):
            topk_rows(x, bad)


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


@given(batches(), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_scheme_rows_match_per_vector_calls(batch, tied, data):
    # every scheme's rows against the independent per-vector oracles: the
    # admission orders, and the masks as the same selections
    x, rng = batch
    w = _weights(rng, tied)
    k_in = data.draw(st.integers(1, D_MODEL))
    k_mid = data.draw(st.integers(1, D_FF))
    gamma = data.draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    c_in = rng.integers(0, 2, D_MODEL)
    c_mid = rng.integers(0, 2, D_FF)
    cases = [
        (glu_pruning_rows(w, x, k_mid), lambda r: oracles.glu_orders(w, r, k_mid)),
        (gate_pruning_rows(w, x, k_mid), lambda r: oracles.gate_orders(w, r, k_mid)),
        (up_pruning_rows(w, x, k_mid), lambda r: oracles.up_orders(w, r, k_mid)),
        (dip_rows(w, x, k_in, k_mid), lambda r: oracles.dip_orders(w, r, k_in, k_mid)),
        (dip_ca_rows(w, x, c_in, c_mid, k_in, k_mid, gamma),
         lambda r: oracles.dip_ca_orders(w, r, c_in, c_mid, k_in, k_mid, gamma)),
        (dip_ca_rows(w, x, c_in, c_mid, k_in, k_mid, gamma, False, True),
         lambda r: oracles.dip_ca_orders(w, r, c_in, c_mid, k_in, k_mid, gamma, False, True)),
        (dip_ca_rows(w, x, c_in, c_mid, k_in, k_mid, gamma, True, False),
         lambda r: oracles.dip_ca_orders(w, r, c_in, c_mid, k_in, k_mid, gamma, True, False)),
    ]
    for rows, one in cases:
        for i, row in enumerate(x):
            in_order, mid_order = one(row)
            assert rows.input_order[i].tolist() == in_order
            assert rows.intermediate_order[i].tolist() == mid_order
            np.testing.assert_array_equal(rows.input_mask[i],
                                          oracles.keep_mask(D_MODEL, in_order))
            np.testing.assert_array_equal(rows.intermediate_mask[i],
                                          oracles.keep_mask(D_FF, mid_order))


def _assert_row_equals(rows, i, want):
    # row i of a batch against the one-row call want, every field bit for bit
    for field in ("input_order", "input_mask", "intermediate_order", "intermediate_mask",
                  "glu"):
        got, one = getattr(rows, field), getattr(want, field)
        assert (got is None) == (one is None), field
        if got is not None:
            assert np.array_equal(got[i], one[0]), field


def _stack(blocks):
    """The blocks as one stack of layers, layer l = blocks[l]."""
    return MlpWeights(*(np.stack([getattr(b, m) for b in blocks]) for m in ("up", "gate", "down")))


def _layer(w, l):
    """Layer l of a stack of layers, as one block."""
    return MlpWeights(w.up[l], w.gate[l], w.down[l])


@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS), st.integers(1, 4),
       st.integers(1, 6), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_scheme_rows_with_per_row_weights_match_per_row_calls(seed, kind, layers, per_layer,
                                                              tied, data):
    # many layers and tokens, for every point of a sweep, as one batch over a
    # stack of layers: the rows go layer-major, per_layer rows per layer, and
    # row i (for dip_ca with its own residency and gamma) equals the one-row
    # call on its own layer's block bit for bit
    rng = np.random.default_rng(seed)
    n = layers * per_layer
    x = _rows(kind, n, D_MODEL, rng)
    ws = _stack([_weights(rng, tied) for _ in range(layers)])
    block = [_layer(ws, i // per_layer) for i in range(n)]  # each row's layer
    k_in = data.draw(st.integers(1, D_MODEL))
    k_mid = data.draw(st.integers(1, D_FF))
    for scheme, orders in ((glu_pruning_rows, oracles.glu_orders),
                           (gate_pruning_rows, oracles.gate_orders),
                           (up_pruning_rows, oracles.up_orders)):
        rows = scheme(ws, x, k_mid)
        for i, row in enumerate(x):
            _assert_row_equals(rows, i, scheme(block[i], row[None], k_mid))
            assert rows.intermediate_order[i].tolist() == orders(block[i], row, k_mid)[1]
    rows = dip_rows(ws, x, k_in, k_mid)
    for i, row in enumerate(x):
        _assert_row_equals(rows, i, dip_rows(block[i], row[None], k_in, k_mid))
        assert (rows.input_order[i].tolist(), rows.intermediate_order[i].tolist()) == \
            oracles.dip_orders(block[i], row, k_in, k_mid)
        assert np.array_equal(rows.glu[i],
                              oracles.glu_activations(block[i], row, rows.input_mask[i]))

    gamma = data.draw(st.sampled_from([0.0, 0.2, 0.5]))
    gammas = rng.choice([0.0, 0.2, 0.5, 1.0], n)
    c_in = rng.integers(0, 2, (n, D_MODEL)).astype(np.int8)
    c_mid = rng.integers(0, 2, (n, D_FF)).astype(np.int8)
    for g, re_in, re_mid in ((gamma, True, True), (gamma, False, True), (gamma, True, False),
                             (1.0, True, True), (gammas, True, True), (gammas, True, False)):
        rows = dip_ca_rows(ws, x, c_in, c_mid, k_in, k_mid, g, re_in, re_mid)
        y = down_projection(ws, rows.glu, rows.intermediate_mask)
        for i, row in enumerate(x):
            g_i = g[i] if isinstance(g, np.ndarray) else g
            _assert_row_equals(rows, i, dip_ca_rows(block[i], row[None], c_in[i], c_mid[i],
                                                    k_in, k_mid, g_i, re_in, re_mid))
            assert (rows.input_order[i].tolist(), rows.intermediate_order[i].tolist()) == \
                oracles.dip_ca_orders(block[i], row, c_in[i], c_mid[i], k_in, k_mid, g_i,
                                      re_in, re_mid)
            assert np.array_equal(y[i], down_projection(block[i], rows.glu[i],
                                                        rows.intermediate_mask[i]))
            assert np.array_equal(y[i], oracles.sparse_forward(
                block[i], row, rows.input_mask[i], rows.intermediate_mask[i]))
            if g_i == 1.0:
                # no re-weighting: plain input pruning, down to the last bit
                _assert_row_equals(rows, i, dip_rows(block[i], row[None], k_in, k_mid))

    # one row fewer does not split evenly over two or more layers
    if layers > 1:
        for call in (lambda: glu_activations(ws, x[1:]), lambda: glu_activations(ws, x[0]),
                     lambda: down_projection(ws, rows.glu[1:]),
                     lambda: glu_pruning_rows(ws, x[1:], k_mid),
                     lambda: gate_pruning_rows(ws, x[1:], k_mid),
                     lambda: up_pruning_rows(ws, x[1:], k_mid),
                     lambda: dip_rows(ws, x[1:], k_in, k_mid),
                     lambda: dip_ca_rows(ws, x[1:], c_in[0], c_mid[0], k_in, k_mid)):
            with pytest.raises(ValueError, match="split evenly"):
                call()


@given(st.integers(0, 2**32 - 1), st.sampled_from(KEY_KINDS), st.integers(0, 6),
       st.sampled_from([D_MODEL, D_FF]), st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_table_scores_equal_dip_ca_scores(seed, kind, n, dim, reweight, per_row, as_bool):
    # the engine's scorer against the public formula, bit for bit (signs of
    # zeros and NaNs included): either side's width, a side re-weighted by
    # a gamma per row (0, -0.0 and 1 among them) or not (gamma 1), one
    # residency for every row or one per row, on rows with zeros, ties,
    # +-0.0, infinities and NaNs
    rng = np.random.default_rng(seed)
    x = _keys(kind, n, dim, rng)
    c = rng.integers(0, 2, (n, dim) if per_row else dim).astype(bool if as_bool else np.int8)
    gamma = rng.choice([0.0, -0.0, 0.2, 0.5, 1.0], n) if reweight else 1.0
    column = gamma[:, None] if reweight else gamma
    with np.errstate(invalid="ignore"):  # inf * 0 and inf / inf
        want = dip_ca_scores(x, c, gamma)
        got = masking._table_scores(x, c.astype(bool), column)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("scheme", ("glu", "gate", "up", "predictive", "dip", "dip_ca"))
@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS), st.integers(1, 3),
       st.integers(1, 5), st.booleans(), st.booleans(), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_scheme_rows_with_a_k_per_row_match_one_row_calls(scheme, seed, kind, layers, per_layer,
                                                          tied, re_in, re_mid, data):
    # one call for rows of every layer with their own k_in, k_mid (and for
    # dip_ca gamma and residency), as the engine makes for a chunk of
    # cache-aware points: row i keeps its own prefix, and equals the
    # one-row call with its scalar k on its own layer bit for bit; its
    # orders run on to the batch's largest k, as the one-row call at that
    # k orders them
    rng = np.random.default_rng(seed)
    n = layers * per_layer
    x = _rows(kind, n, D_MODEL, rng)
    ws = _stack([_weights(rng, tied) for _ in range(layers)])
    block = [_layer(ws, i // per_layer) for i in range(n)]
    k_in = np.array(data.draw(st.lists(st.integers(0, D_MODEL), min_size=n, max_size=n)))
    k_mid = np.array(data.draw(st.lists(st.integers(0, D_FF), min_size=n, max_size=n)))
    gammas = rng.choice([0.0, 0.2, 0.5, 1.0], n)
    c_in = rng.integers(0, 2, (n, D_MODEL)).astype(bool)
    c_mid = rng.integers(0, 2, (n, D_FF)).astype(bool)
    p = Predictor.create(D_MODEL, D_FF, hidden=3, seed=seed % 2**31)
    def xs(r):  # rows r of x, r all rows or one, as a batch
        return x[r].reshape(-1, D_MODEL)
    call = {  # the scheme's masks of rows r of x
        "glu": lambda w, r, k_in, k_mid: glu_pruning_rows(w, xs(r), k_mid),
        "gate": lambda w, r, k_in, k_mid: gate_pruning_rows(w, xs(r), k_mid),
        "up": lambda w, r, k_in, k_mid: up_pruning_rows(w, xs(r), k_mid),
        "predictive": lambda w, r, k_in, k_mid: predictive_rows(p, xs(r), k_mid),
        "dip": lambda w, r, k_in, k_mid: dip_rows(w, xs(r), k_in, k_mid),
        "dip_ca": lambda w, r, k_in, k_mid: dip_ca_rows(
            w, xs(r), c_in[r], c_mid[r], k_in, k_mid, gammas[r], re_in, re_mid),
    }[scheme]
    prunes_input = scheme in ("dip", "dip_ca")
    ranks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(masking, "rank_rows", lambda keys: ranks.append(1) or rank_rows(keys))
        rows = call(ws, slice(None), k_in, k_mid)
    assert len(ranks) == (2 if prunes_input else 1)  # each ranked side once, whatever the k
    assert rows.input_order.shape == (n, k_in.max() if prunes_input else D_MODEL)
    assert rows.intermediate_order.shape == (n, k_mid.max())
    for i in range(n):
        one = call(block[i], i, int(k_in[i]), int(k_mid[i]))
        for field in ("input_order", "intermediate_order"):
            got, want = getattr(rows, field)[i], getattr(one, field)[0]
            assert np.array_equal(got[:len(want)], want), field
        for field in ("input_mask", "intermediate_mask", "glu"):
            got, want = getattr(rows, field), getattr(one, field)
            assert (got is None) == (want is None), field
            assert got is None or np.array_equal(got[i], want[0]), field
        wide_in = call(block[i], i, int(k_in.max()), int(k_mid[i]))
        wide_mid = call(block[i], i, int(k_in[i]), int(k_mid.max()))
        assert np.array_equal(rows.input_order[i], wide_in.input_order[0])
        assert np.array_equal(rows.intermediate_order[i], wide_mid.intermediate_order[0])
    # a k per row is checked as one k is: its length, type and range
    def bad(k, dim):
        return k[1:], k + 0.0, np.append(k[1:], dim + 1), np.append(k[1:], -1)
    cases = [(k_in, b) for b in bad(k_mid, D_FF)]
    if prunes_input:
        cases += [(b, k_mid) for b in bad(k_in, D_MODEL)]
    for ks in cases:
        with pytest.raises(ValueError, match="k must be"):
            call(ws, slice(None), *ks)


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


@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS), st.integers(1, 6),
       st.integers(1, 3), st.sampled_from([0.05, 0.25, 0.5, 0.8, 1.0]))
@settings(max_examples=60, deadline=None)
def test_thresholds_match_per_token_oracle(seed, kind, tokens, layers, density):
    rng = np.random.default_rng(seed)
    acts = _rows(kind, tokens * layers, D_MODEL, rng).reshape(tokens, layers, D_MODEL)
    # cutoffs drawn from the magnitudes themselves, so |v| >= t meets ties
    mags = np.abs(acts).ravel()
    cutoffs = tuple(float(mags[int(rng.integers(mags.size))]) for _ in range(layers))
    for spec in (GlobalThreshold(cutoffs[0]), PerLayerThreshold(cutoffs),
                 PerTokenTopK(density)):
        for l in range(layers):
            keep = apply_threshold(acts[:, l], spec, layer=l)
            for t in range(tokens):
                assert np.array_equal(keep[t], oracles.threshold_keep(acts[t, l], spec, l))
        assert np.array_equal(layer_densities(acts, spec), oracles.layer_densities(acts, spec))
