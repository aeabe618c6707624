"""Sparsity-mask generation for gated-MLP blocks.

Covers deterministic top-k selection, three thresholding strategies (global,
per-layer calibrated, per-token top-k), the baseline per-token sparsification
schemes (GLU / gate / up / predictive pruning), dynamic input pruning over
both the input and intermediate dimensions, and its cache-aware variant that
re-weights selection scores by current cache residency.  The simulator's
predictive scheme, with oracle logits |GLU(x)|, selects glu_pruning_rows'
units, so it calls that function.

Masks are bool arrays.  There is one row order (rank_rows): each row's
units from the largest key down, ties to the lower index, i.e. a stable
descending argsort, found exactly by a faster sort for rows without ties.
Every top-k mask is a prefix of it, marked by prefix_masks, so one sort
serves every k: topk_rows takes one k or one k per row, and each row keeps
its own prefix.  The density sweep of calibration takes its masks the same
way, as prefixes of one order per side.

Each scheme is one function over a batch of rows, one row per input vector,
returning RowMasks, the one mask type: per side, bool masks plus each row's
picks in selection order, which is the order the simulator's caches admit
units in.  A single vector x goes as the one-row batch x[None].
Projections go through mlp's stacked matrix-vector product, so a row's
masks do not depend on the batch around it, bit for bit.  Weights are one
MlpWeights block for every row or a stack of layers, whose rows go
layer-major with equal rows per layer (see mlp), so many layers and tokens
go in one call.  Every scheme takes its k as one int or one per row
(topk_rows), and dip_ca_rows also takes per-row residency and gamma, so
one call can take the rows of many points (which ones: hwsim._layout),
each side ranked once.  dip_ca_rows checks its arguments once and scores
both sides with a table, [gamma, 1][c] per unit, which equals
dip_ca_scores' formula bit for bit; dip_ca_scores keeps the formula and
its checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .mlp import Predictor, _matvec, _rows, glu_activations, predictor_forward, silu

__all__ = [
    "DEFAULT_GAMMA",
    "density_to_k",
    "RowMasks",
    "rank_rows",
    "prefix_masks",
    "topk_rows",
    "GlobalThreshold",
    "PerLayerThreshold",
    "PerTokenTopK",
    "ThresholdSpec",
    "apply_threshold",
    "glu_pruning_rows",
    "gate_pruning_rows",
    "up_pruning_rows",
    "predictive_rows",
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
    in; mask[i] is the same selection as a bool array.  With one k per row
    (topk_rows), order is [n, max k] and row i keeps its first k[i] picks,
    the ones mask[i] marks.  A side a scheme keeps dense has every unit in
    index order.  glu holds the gated intermediates under the input mask
    when the scheme computed them to score with, so a forward pass can
    reuse them.
    """

    input_order: np.ndarray           # int [n, k_in], or [n, max k_in]
    input_mask: np.ndarray            # bool [n, d_model]
    intermediate_order: np.ndarray    # int [n, k_mid], or [n, max k_mid]
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
    s = np.take(neg, _flat(order, neg.shape[1]))
    redo = ~(s[:, 1:] > s[:, :-1]).all(axis=1)
    if redo.any():
        order[redo] = np.argsort(neg[redo], axis=1, kind="stable")
    return order


def topk_rows(keys: np.ndarray, k):
    """The top-k selection: per row of keys [n, dim], the k largest keys,
    for one k or one k per row.

    Returns (order, mask): order [n, max k] is the first max k columns of
    rank_rows, each row's picks from the largest key down with ties to the
    lower index, and mask [n, dim] marks row i's first k[i] of them
    (prefix_masks), so each row keeps its own prefix of one ranking.
    """
    ranked = rank_rows(keys)
    ks = np.asarray(k)
    if ks.ndim and (ks.shape != (len(ranked),) or ks.dtype.kind not in "iu"):
        raise ValueError("k must be one int or one per row")
    low, top = (ks.min(initial=0), ks.max(initial=0)) if ks.ndim else (k, k)
    if not 0 <= low <= top <= ranked.shape[1]:
        raise ValueError("k must be in [0, len(values)]")
    # a compact copy: a view would keep all dim columns alive
    order = np.ascontiguousarray(ranked[:, :top])
    return order, prefix_masks(order, ranked.shape[1], ks if ks.ndim else None)


def prefix_masks(order: np.ndarray, dim: int, ks: Optional[np.ndarray] = None) -> np.ndarray:
    """Top-k masks [n, dim] from the leading columns order [n, m] of each
    row's order (rank_rows): all of order[i], or its first ks[i] units."""
    flat = _flat(order, dim)
    if ks is not None:  # only the picks within each row's own k
        flat = flat[np.arange(order.shape[1]) < np.asarray(ks)[:, None]]
    mask = np.zeros((len(order), dim), dtype=bool)
    mask.reshape(-1)[flat] = True
    return mask


def _flat(cols: np.ndarray, dim: int) -> np.ndarray:
    """The flat indices of columns cols [n, m] of the rows of an [n, dim]
    C-ordered array: one 1-D gather or scatter in place of a 2-D one."""
    return cols + np.arange(len(cols))[:, None] * dim


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
# returns RowMasks; w is one MlpWeights block or a stack, and each k one int
# or one per row (topk_rows).  Every score is >= 0 or, for predictor logits,
# ranked by value, so the scores are the top-k keys themselves.

def _intermediate_rows(x: np.ndarray, scores: np.ndarray, k_mid,
                       glu: Optional[np.ndarray] = None) -> RowMasks:
    """Dense input side of the rows x (every unit, in index order), top-k_mid
    intermediate units by score."""
    n, dim = len(scores), np.shape(x)[-1]
    return RowMasks(np.broadcast_to(np.arange(dim), (n, dim)), np.ones((n, dim), dtype=bool),
                    *topk_rows(scores, k_mid), glu)


def _input_pruning_rows(w, x: np.ndarray, in_scores: np.ndarray,
                        k_in, mid_score, k_mid) -> RowMasks:
    """Top-k_in inputs by in_scores, then top-k_mid of mid_score(GLU) with
    the GLU computed from the kept inputs only."""
    in_order, in_mask = topk_rows(in_scores, k_in)
    h = glu_activations(w, x, in_mask)
    mid_order, mid_mask = topk_rows(mid_score(h), k_mid)
    return RowMasks(in_order, in_mask, mid_order, mid_mask, h)


def glu_pruning_rows(w, x: np.ndarray, k_mid, glu: Optional[np.ndarray] = None) -> RowMasks:
    """Keep the k_mid largest |gated intermediate| values of each row of x
    [n, d_model].  Needs the full up and gate products to score, so only the
    down projection is pruned.  glu, the rows' gated intermediates
    glu_activations(w, x) when the caller has them, is scored in place of
    computing them again."""
    h = glu_activations(w, x) if glu is None else glu
    return _intermediate_rows(x, np.abs(h), k_mid, h)


def gate_pruning_rows(w, x: np.ndarray, k_mid) -> RowMasks:
    """Score intermediate units by |silu(gate x)|; the gate product itself
    stays dense, the up and down weights are pruned by the mask."""
    xs, _ = _rows(x, w.d_model)
    return _intermediate_rows(xs, np.abs(silu(_matvec(w.gate, xs))), k_mid)


def up_pruning_rows(w, x: np.ndarray, k_mid) -> RowMasks:
    """Score intermediate units by |up x|; the up product stays dense, the
    gate and down weights are pruned by the mask."""
    xs, _ = _rows(x, w.d_model)
    return _intermediate_rows(xs, np.abs(_matvec(w.up, xs)), k_mid)


def predictive_rows(p: Predictor, x: np.ndarray, k_mid) -> RowMasks:
    """Keep the k_mid intermediate units with the largest predictor logits.

    Logits are ranked by value, not magnitude: a strongly negative logit
    means confidently inactive.  All three matrices are pruned by the mask;
    the predictor's own bytes count as static residency in the simulator.
    """
    return _intermediate_rows(x, predictor_forward(p, x), k_mid)


def dip_rows(w, x: np.ndarray, k_in, k_mid) -> RowMasks:
    """Dynamic input pruning of x [n, d_model]: top-k_in |x| picks input
    columns of up/gate, then top-k_mid of the gated intermediate computed
    with only those columns picks down columns.  Both selections need no
    predictor."""
    xs = np.asarray(x, dtype=float)
    return _input_pruning_rows(w, xs, np.abs(xs), k_in, np.abs, k_mid)


def dip_ca_rows(w, x: np.ndarray, input_residency: np.ndarray,
                intermediate_residency: np.ndarray, k_in, k_mid,
                gamma=DEFAULT_GAMMA, reweight_input: bool = True,
                reweight_intermediate: bool = True) -> RowMasks:
    """Dynamic input pruning of x [n, d_model] with cache-aware re-weighted
    scores (dip_ca_scores).

    Residency bitvectors come from the simulator's caches (one per unit
    group).  The re-weighting applies to both the input and intermediate
    selections by default; the switches turn either side back into plain
    magnitude scoring.  gamma=1 reproduces dip_rows exactly.  Each
    residency is one vector for every row or one per row ([n, d_model] and
    [n, d_ff]), gamma one number or one per row, and k_in and k_mid one int
    or one per row, as every scheme takes them (topk_rows), so one call can
    take a chunk of the simulator's points (hwsim._layout).  Row i equals
    the one-row call on its own layer's block, residency, gamma and k bit
    for bit.

    The arguments are checked once, as dip_ca_scores checks them, and both
    sides score through _table_scores, which equals dip_ca_scores.
    """
    xs = np.asarray(x, dtype=float)
    rows = xs.ndim == 2
    c_in = _resident(input_residency, len(xs), w.d_model, rows)
    c_mid = _resident(intermediate_residency, len(xs), w.d_ff, rows)
    g = _gamma(gamma, len(xs), rows)
    g_in = g if reweight_input else 1.0
    g_mid = g if reweight_intermediate else 1.0
    return _input_pruning_rows(w, xs, _table_scores(xs, c_in, g_in), k_in,
                               lambda h: _table_scores(h, c_mid, g_mid), k_mid)


def _resident(residency, n: int, dim: int, rows: bool) -> np.ndarray:
    """residency as bool, one vector [dim] or, for rows, one per row [n,
    dim]; ValueError for another shape or a value other than 0 and 1."""
    c = np.asarray(residency)
    if c.shape != (dim,) and not (rows and c.shape == (n, dim)):
        raise ValueError("residency length must match x")
    # a bool residency, as the caches keep it, is 0/1 by its type
    if c.dtype != bool and not ((c == 0) | (c == 1)).all():
        raise ValueError("residency must be 0 or 1 per unit")
    return c.astype(bool, copy=False)


def _gamma(gamma, n: int, rows: bool):
    """gamma as a float or, one per row, a column [n, 1]; ValueError
    unless it lies in [0, 1], one number or, for rows, one per row."""
    g = np.asarray(gamma, dtype=float)
    if g.ndim and (g.ndim != 1 or not rows or len(g) != n):
        raise ValueError("gamma must be one number or one per row")
    if not ((0.0 <= g) & (g <= 1.0)).all():
        raise ValueError("gamma must be in [0, 1]")
    return g[:, None] if g.ndim else g


def _table_scores(x: np.ndarray, resident: np.ndarray, gamma) -> np.ndarray:
    """dip_ca_scores of x for a bool residency and gamma (a float or a
    column [n, 1]), unchecked: |x| times the two-entry table [gamma, 1][c]
    per unit, over max|x|.  For c in {0, 1} the table equals
    c + gamma*(1 - c) bit for bit: 1 for c = 1 and 0 + gamma for c = 0,
    where the 0 + turns -0.0 into 0.0 as the formula's sum does.  A zero
    row's scores are +0.0 times the table, so dividing it by 1 in place of
    its max keeps them the zeros dip_ca_scores gives."""
    mag = np.abs(x)
    xmax = mag.max(axis=-1, keepdims=True, initial=0.0)
    xmax[xmax == 0.0] = 1.0
    mag *= np.where(resident, 1.0, gamma + 0.0)  # now the scores, undivided
    return np.divide(mag, xmax, out=mag)


def dip_ca_scores(x: np.ndarray, residency: np.ndarray, gamma=DEFAULT_GAMMA) -> np.ndarray:
    """Cache-aware selection scores |x| * (c + gamma*(1-c)) / max|x|, for one
    vector or per row of [n, dim].

    residency c is 0/1 per unit, one vector for every row or one per row;
    any other value is a ValueError.  Non-resident units are down-weighted
    by gamma, one number for every row or one per row.  The max-norm
    denominator makes the scores insensitive to the dynamic range of x.  A
    zero vector yields all-zero scores (ties then resolve to the lowest
    indices).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("x must be one vector or a 2-d batch of rows")
    c = _resident(residency, len(x), x.shape[-1], x.ndim == 2).astype(float)
    g = _gamma(gamma, len(x), x.ndim == 2)
    mag = np.abs(x)
    xmax = np.max(mag, axis=-1, keepdims=True, initial=0.0)
    scores = mag * (c + g * (1.0 - c))
    return np.divide(scores, xmax, out=np.zeros_like(scores), where=xmax != 0.0)
