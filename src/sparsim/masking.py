"""Sparsity-mask generation for gated-MLP blocks.

Covers deterministic top-k selection, three thresholding strategies (global,
per-layer calibrated, per-token top-k), the baseline per-token sparsification
schemes (GLU / gate / up / predictive pruning), dynamic input pruning over
both the input and intermediate dimensions, and its cache-aware variant that
re-weights selection scores by current cache residency.

Masks are bool arrays.  There is one row order (rank_rows): each row's
units from the largest key down, ties to the lower index, i.e. a stable
descending argsort, found exactly by a faster sort for rows without ties.
Every top-k is a prefix of it (topk_rows), so one sort serves every k.

Each scheme is one function over a batch of rows, one row per input vector,
returning RowMasks, the one mask type: per side, bool masks plus each row's
picks in selection order, which is the order the simulator's caches admit
units in.  A single vector x goes as the one-row batch x[None].
Projections go through mlp's stacked matrix-vector product, so a row's
masks do not depend on the batch around it, bit for bit.  Weights are one
MlpWeights for every row or one per row, so many layers and tokens go in
one call; dip_ca_rows also takes per-row residency and gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .mlp import Predictor, _matvec, _operands, glu_activations, predictor_forward, silu

__all__ = [
    "DEFAULT_GAMMA",
    "density_to_k",
    "RowMasks",
    "rank_rows",
    "topk_rows",
    "GlobalThreshold",
    "PerLayerThreshold",
    "PerTokenTopK",
    "ThresholdSpec",
    "apply_threshold",
    "dense_rows",
    "glu_pruning_rows",
    "gate_pruning_rows",
    "up_pruning_rows",
    "predictive_rows",
    "predictive_oracle_rows",
    "dip_rows",
    "dip_ca_rows",
    "dip_ca_scores",
]

# Re-weighting strength for cache-aware selection; 1.0 disables the bias.
DEFAULT_GAMMA = 0.2


def density_to_k(density: float, dim: int) -> int:
    """Unit count for a keep-fraction: max(1, round(density * dim)), with
    halves rounding up so the mapping is monotone in density."""
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    return max(1, int(np.floor(density * dim + 0.5)))


@dataclass
class RowMasks:
    """One scheme's masks for a batch of rows (one row per input vector).

    Per side, order[i] holds row i's kept units in selection order (descending
    score, ties to the lower index), which is the order the caches admit them
    in; mask[i] is the same selection as a bool array.  A side a scheme keeps
    dense has every unit in index order.  glu holds the gated intermediates
    under the input mask when the scheme computed them to score with, so a
    forward pass can reuse them.
    """

    input_order: np.ndarray           # int [n, k_in]
    input_mask: np.ndarray            # bool [n, d_model]
    intermediate_order: np.ndarray    # int [n, k_mid]
    intermediate_mask: np.ndarray     # bool [n, d_ff]
    glu: Optional[np.ndarray] = None  # [n, d_ff]


def rank_rows(keys: np.ndarray) -> np.ndarray:
    """The row order: per row of keys [n, dim], every column from the
    largest key down, ties to the lower index; equal, bit for bit, to
    np.argsort(-keys, axis=1, kind="stable").

    Rows whose keys all differ have one sorted order, which the faster
    default sort finds too; any row that is not strictly increasing once
    sorted (ties, +0.0/-0.0, NaN) is sorted again with the stable sort.
    """
    keys = np.asarray(keys, dtype=float)
    if keys.ndim != 2:
        raise ValueError("keys must be a 2-d batch of rows")
    neg = -keys
    order = np.argsort(neg, axis=1)
    s = np.take_along_axis(neg, order, axis=1)
    redo = ~(s[:, 1:] > s[:, :-1]).all(axis=1)
    if redo.any():
        order[redo] = np.argsort(neg[redo], axis=1, kind="stable")
    return order


def topk_rows(keys: np.ndarray, k: int):
    """The top-k selection: per row of keys [n, dim], the k largest keys.

    Returns (order, mask): order [n, k] is the first k columns of rank_rows,
    each row's picks from the largest key down with ties to the lower index,
    and mask [n, dim] marks them.
    """
    ranked = rank_rows(keys)
    if not 0 <= k <= ranked.shape[1]:
        raise ValueError("k must be in [0, len(values)]")
    # a compact copy: a view would keep all dim columns alive
    order = np.ascontiguousarray(ranked[:, :k])
    mask = np.zeros(ranked.shape, dtype=bool)
    mask[np.arange(len(ranked))[:, None], order] = True
    return order, mask


# ---------------------------------------------------------------------------
# thresholding strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GlobalThreshold:
    threshold: float

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError("threshold must be >= 0")


@dataclass(frozen=True)
class PerLayerThreshold:
    thresholds: tuple

    def __post_init__(self):
        ts = tuple(float(t) for t in self.thresholds)
        if any(t < 0 for t in ts):
            raise ValueError("thresholds must be >= 0")
        object.__setattr__(self, "thresholds", ts)


@dataclass(frozen=True)
class PerTokenTopK:
    density: float

    def __post_init__(self):
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must be in (0, 1]")


ThresholdSpec = Union[GlobalThreshold, PerLayerThreshold, PerTokenTopK]


def apply_threshold(values: np.ndarray, spec: ThresholdSpec, layer: int = 0) -> np.ndarray:
    """Bool masks [n, dim] of rows values [n, dim] under a threshold spec:
    magnitude cutoffs keep |v| >= t, the per-token variant keeps a fixed
    count max(1, round(density * dim)) per row (topk_rows of |v|)."""
    mag = np.abs(np.asarray(values, dtype=float))
    if mag.ndim != 2:
        raise ValueError("values must be a 2-d batch of rows")
    if isinstance(spec, GlobalThreshold):
        return mag >= spec.threshold
    if isinstance(spec, PerLayerThreshold):
        if not 0 <= layer < len(spec.thresholds):
            raise IndexError(f"layer {layer} outside calibrated range")
        return mag >= spec.thresholds[layer]
    if isinstance(spec, PerTokenTopK):
        return topk_rows(mag, density_to_k(spec.density, mag.shape[1]))[1]
    raise TypeError(f"unknown threshold spec {type(spec)!r}")


# ---------------------------------------------------------------------------
# sparsification schemes
# ---------------------------------------------------------------------------
#
# Each scheme is one function over a batch of rows X [n, d_model] that
# returns RowMasks; w is one MlpWeights or one per row.  Every score is >= 0
# or, for predictor logits, ranked by value, so the scores are the top-k
# keys themselves.

def _full_side(n: int, dim: int):
    """(order, mask) of a side kept dense: every unit, in index order."""
    return np.broadcast_to(np.arange(dim), (n, dim)), np.ones((n, dim), dtype=bool)


def _intermediate_rows(x: np.ndarray, scores: np.ndarray, k_mid: int,
                       glu: Optional[np.ndarray] = None) -> RowMasks:
    """Dense input side of the rows x, top-k_mid intermediate units by score."""
    in_order, in_mask = _full_side(len(scores), np.shape(x)[-1])
    mid_order, mid_mask = topk_rows(scores, k_mid)
    return RowMasks(in_order, in_mask, mid_order, mid_mask, glu)


def _input_pruning_rows(w, x: np.ndarray, in_scores: np.ndarray,
                        k_in: int, mid_score, k_mid: int) -> RowMasks:
    """Top-k_in inputs by in_scores, then top-k_mid of mid_score(GLU) with
    the GLU computed from the kept inputs only."""
    in_order, in_mask = topk_rows(in_scores, k_in)
    h = glu_activations(w, x, in_mask)
    mid_order, mid_mask = topk_rows(mid_score(h), k_mid)
    return RowMasks(in_order, in_mask, mid_order, mid_mask, h)


def dense_rows(n: int, d_model: int, d_ff: int) -> RowMasks:
    """n rows of all-ones masks; the no-sparsity baseline."""
    in_order, in_mask = _full_side(n, d_model)
    mid_order, mid_mask = _full_side(n, d_ff)
    return RowMasks(in_order, in_mask, mid_order, mid_mask)


def glu_pruning_rows(w, x: np.ndarray, k_mid: int) -> RowMasks:
    """Keep the k_mid largest |gated intermediate| values of each row of x
    [n, d_model].  Needs the full up and gate products to score, so only the
    down projection is pruned."""
    h = glu_activations(w, x)
    return _intermediate_rows(x, np.abs(h), k_mid, h)


def gate_pruning_rows(w, x: np.ndarray, k_mid: int) -> RowMasks:
    """Score intermediate units by |silu(gate x)|; the gate product itself
    stays dense, the up and down weights are pruned by the mask."""
    xs, _, gate = _operands(w, x, "d_model", "gate")
    return _intermediate_rows(xs, np.abs(silu(_matvec(gate, xs))), k_mid)


def up_pruning_rows(w, x: np.ndarray, k_mid: int) -> RowMasks:
    """Score intermediate units by |up x|; the up product stays dense, the
    gate and down weights are pruned by the mask."""
    xs, _, up = _operands(w, x, "d_model", "up")
    return _intermediate_rows(xs, np.abs(_matvec(up, xs)), k_mid)


def predictive_rows(p: Predictor, x: np.ndarray, k_mid: int) -> RowMasks:
    """Keep the k_mid intermediate units with the largest predictor logits.

    Logits are ranked by value, not magnitude: a strongly negative logit
    means confidently inactive.  All three matrices are pruned by the mask;
    the predictor's own bytes count as static residency in the simulator.
    """
    return _intermediate_rows(x, predictor_forward(p, x), k_mid)


def predictive_oracle_rows(w, x: np.ndarray, k_mid: int) -> RowMasks:
    """Predictive scheme with oracle logits |GLU(x)|: selects exactly the GLU
    pruning mask but prunes up and gate as well."""
    h = glu_activations(w, x)
    return _intermediate_rows(x, np.abs(h), k_mid, h)


def dip_rows(w, x: np.ndarray, k_in: int, k_mid: int) -> RowMasks:
    """Dynamic input pruning of x [n, d_model]: top-k_in |x| picks input
    columns of up/gate, then top-k_mid of the gated intermediate computed
    with only those columns picks down columns.  Both selections need no
    predictor."""
    xs = np.asarray(x, dtype=float)
    return _input_pruning_rows(w, xs, np.abs(xs), k_in, np.abs, k_mid)


def dip_ca_rows(w, x: np.ndarray, input_residency: np.ndarray,
                intermediate_residency: np.ndarray, k_in: int, k_mid: int,
                gamma=DEFAULT_GAMMA, reweight_input: bool = True,
                reweight_intermediate: bool = True) -> RowMasks:
    """Dynamic input pruning of x [n, d_model] with cache-aware re-weighted
    scores (dip_ca_scores).

    Residency bitvectors come from the simulator's caches (one per unit
    group).  The re-weighting applies to both the input and intermediate
    selections by default; the switches turn either side back into plain
    magnitude scoring.  gamma=1 reproduces dip_rows exactly.  Each
    residency is one vector for every row or one per row ([n, d_model] and
    [n, d_ff]), and gamma one number or one per row.  Row i equals the call
    on its own weights, residency and gamma bit for bit.
    """
    xs = np.asarray(x, dtype=float)
    gamma_mid = gamma if reweight_intermediate else 1.0
    return _input_pruning_rows(
        w, xs, dip_ca_scores(xs, input_residency, gamma if reweight_input else 1.0),
        k_in, lambda h: dip_ca_scores(h, intermediate_residency, gamma_mid), k_mid)


def dip_ca_scores(x: np.ndarray, residency: np.ndarray, gamma=DEFAULT_GAMMA) -> np.ndarray:
    """Cache-aware selection scores |x| * (c + gamma*(1-c)) / max|x|, for one
    vector or per row of [n, dim].

    residency c is 0/1 per unit, one vector for every row or one per row;
    non-resident units are down-weighted by gamma, one number for every row
    or one per row.  The max-norm denominator makes the scores insensitive
    to the dynamic range of x.  A zero vector yields all-zero scores (ties
    then resolve to the lowest indices).
    """
    x = np.asarray(x, dtype=float)
    c = np.asarray(residency, dtype=float)
    if c.shape != x.shape[-1:] and c.shape != x.shape:
        raise ValueError("residency length must match x")
    g = np.asarray(gamma, dtype=float)
    if g.ndim and (g.ndim != 1 or x.ndim != 2 or len(g) != len(x)):
        raise ValueError("gamma must be one number or one per row")
    if not ((0.0 <= g) & (g <= 1.0)).all():
        raise ValueError("gamma must be in [0, 1]")
    mag = np.abs(x)
    xmax = np.max(mag, axis=-1, keepdims=True, initial=0.0)
    scores = mag * (c + (g[:, None] if g.ndim else g) * (1.0 - c))
    return np.divide(scores, xmax, out=np.zeros_like(scores), where=xmax != 0.0)

