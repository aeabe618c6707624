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
returning RowMasks: bool masks plus each row's picks in selection order,
which is the order the simulator's caches admit units in; RowMasks.mask_set
gives one row as a MaskSet.  Projections go through mlp's stacked
matrix-vector product, so a row's masks do not depend on the batch around
it, bit for bit.  dip_ca_rows also takes per-row weights and residency, so
the layers of one token are one batch.  topk_indices, scheme_dip and
scheme_dip_ca are one-row calls kept for single vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .mlp import MlpWeights, Predictor, _matvec, _rows, glu_activations, predictor_forward, silu

__all__ = [
    "DEFAULT_GAMMA",
    "density_to_k",
    "SparsityMask",
    "MaskSet",
    "RowMasks",
    "rank_rows",
    "topk_rows",
    "topk_indices",
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
    "scheme_dip",
    "dip_ca_scores",
    "scheme_dip_ca",
]

# Re-weighting strength for cache-aware selection; 1.0 disables the bias.
DEFAULT_GAMMA = 0.2


def density_to_k(density: float, dim: int) -> int:
    """Unit count for a keep-fraction: max(1, round(density * dim)), with
    halves rounding up so the mapping is monotone in density."""
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    return max(1, int(np.floor(density * dim + 0.5)))


class SparsityMask:
    """Kept units over a dimension, held as a bool array.

    Built from unit indices (validated: in range, no repeats) or, through
    from_bool, straight from a bool array.  active is the sorted tuple of
    kept indices.
    """

    __slots__ = ("_keep",)

    def __init__(self, dim: int, active=()):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        idx = np.sort(np.asarray(list(active), dtype=np.intp))
        if idx.size > 1 and (idx[1:] == idx[:-1]).any():
            raise ValueError("active indices must be unique")
        if idx.size and (idx[0] < 0 or idx[-1] >= dim):
            raise ValueError("active index out of range")
        keep = np.zeros(dim, dtype=bool)
        keep[idx] = True
        self._keep = keep

    @classmethod
    def from_bool(cls, keep: np.ndarray) -> "SparsityMask":
        keep = np.asarray(keep, dtype=bool)
        if keep.ndim != 1 or keep.size < 1:
            raise ValueError("a mask is a non-empty 1-d bool array")
        mask = cls.__new__(cls)
        mask._keep = keep
        return mask

    @classmethod
    def full(cls, dim: int) -> "SparsityMask":
        if dim < 1:
            raise ValueError("dim must be >= 1")
        return cls.from_bool(np.ones(dim, dtype=bool))

    @property
    def dim(self) -> int:
        return self._keep.size

    @property
    def active(self) -> tuple:
        return tuple(np.flatnonzero(self._keep).tolist())

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self._keep))

    @property
    def density(self) -> float:
        return self.count / self.dim

    def as_bool(self) -> np.ndarray:
        return self._keep.copy()

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsityMask):
            return NotImplemented
        return np.array_equal(self._keep, other._keep)

    def __hash__(self) -> int:
        return hash(self._keep.tobytes())

    def __repr__(self) -> str:
        return f"SparsityMask(dim={self.dim}, active={self.active})"


@dataclass
class MaskSet:
    """Input and intermediate masks for one block at one token, tagged with
    the scheme that produced them.

    The optional score vectors carry the selection scores; they do not affect
    the forward pass.
    """

    scheme: str
    input_mask: SparsityMask
    intermediate_mask: SparsityMask
    input_scores: Optional[np.ndarray] = None
    intermediate_scores: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.input_scores is not None and len(self.input_scores) != self.input_mask.dim:
            raise ValueError("input score length mismatch")
        if (self.intermediate_scores is not None
                and len(self.intermediate_scores) != self.intermediate_mask.dim):
            raise ValueError("intermediate score length mismatch")


@dataclass
class RowMasks:
    """One scheme's masks for a batch of rows (one row per input vector).

    Per side, order[i] holds row i's kept units in selection order (descending
    score, ties to the lower index), which is the order the caches admit them
    in; mask[i] is the same selection as a bool array.  A side a scheme keeps
    dense has every unit in index order and no scores.  glu holds the gated
    intermediates under the input mask when the scheme computed them to score
    with, so a forward pass can reuse them.
    """

    scheme: str
    input_order: np.ndarray           # int [n, k_in]
    input_mask: np.ndarray            # bool [n, d_model]
    intermediate_order: np.ndarray    # int [n, k_mid]
    intermediate_mask: np.ndarray     # bool [n, d_ff]
    input_scores: Optional[np.ndarray] = None
    intermediate_scores: Optional[np.ndarray] = None
    glu: Optional[np.ndarray] = None  # [n, d_ff]

    def mask_set(self, i: int) -> MaskSet:
        """Row i as a MaskSet."""
        return MaskSet(
            scheme=self.scheme,
            input_mask=SparsityMask.from_bool(self.input_mask[i]),
            intermediate_mask=SparsityMask.from_bool(self.intermediate_mask[i]),
            input_scores=None if self.input_scores is None else self.input_scores[i],
            intermediate_scores=(None if self.intermediate_scores is None
                                 else self.intermediate_scores[i]))


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


def topk_indices(values: np.ndarray, k: int, magnitude: bool = True) -> SparsityMask:
    """Mask of the k largest entries (by |value| unless magnitude=False);
    ties resolve to the lower index (see topk_rows)."""
    v = np.asarray(values, dtype=float).ravel()
    key = np.abs(v) if magnitude else v
    return SparsityMask.from_bool(topk_rows(key[None, :], k)[1][0])


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


def apply_threshold(values: np.ndarray, spec: ThresholdSpec, layer: int = 0) -> SparsityMask:
    """Mask from a threshold spec: magnitude cutoffs keep |v| >= t, the
    per-token variant keeps a fixed count max(1, round(density * dim))."""
    v = np.asarray(values, dtype=float).ravel()
    if isinstance(spec, GlobalThreshold):
        return SparsityMask.from_bool(np.abs(v) >= spec.threshold)
    if isinstance(spec, PerLayerThreshold):
        if not 0 <= layer < len(spec.thresholds):
            raise IndexError(f"layer {layer} outside calibrated range")
        return SparsityMask.from_bool(np.abs(v) >= spec.thresholds[layer])
    if isinstance(spec, PerTokenTopK):
        return topk_indices(v, density_to_k(spec.density, v.size))
    raise TypeError(f"unknown threshold spec {type(spec)!r}")


# ---------------------------------------------------------------------------
# sparsification schemes
# ---------------------------------------------------------------------------
#
# Each scheme is one function over a batch of rows X [n, d_model] that
# returns RowMasks.  Every score is >= 0 or, for predictor logits, ranked by
# value, so the scores are the top-k keys themselves.

def _one_row(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=float)[None]


def _full_side(n: int, dim: int):
    """(order, mask) of a side kept dense: every unit, in index order."""
    return np.broadcast_to(np.arange(dim), (n, dim)), np.ones((n, dim), dtype=bool)


def _intermediate_rows(scheme: str, d_model: int, scores: np.ndarray, k_mid: int,
                       glu: Optional[np.ndarray] = None) -> RowMasks:
    """Dense input side, top-k_mid intermediate units by score."""
    in_order, in_mask = _full_side(len(scores), d_model)
    mid_order, mid_mask = topk_rows(scores, k_mid)
    return RowMasks(scheme, in_order, in_mask, mid_order, mid_mask,
                    intermediate_scores=scores, glu=glu)


def _input_pruning_rows(scheme: str, w, x: np.ndarray, in_scores: np.ndarray,
                        k_in: int, mid_score, k_mid: int) -> RowMasks:
    """Top-k_in inputs by in_scores, then top-k_mid of mid_score(GLU) with
    the GLU computed from the kept inputs only; w is one MlpWeights or one
    per row (see glu_activations)."""
    in_order, in_mask = topk_rows(in_scores, k_in)
    h = glu_activations(w, x, in_mask)
    mid_scores = mid_score(h)
    mid_order, mid_mask = topk_rows(mid_scores, k_mid)
    return RowMasks(scheme, in_order, in_mask, mid_order, mid_mask,
                    input_scores=in_scores, intermediate_scores=mid_scores, glu=h)


def dense_rows(n: int, d_model: int, d_ff: int) -> RowMasks:
    """n rows of all-ones masks; the no-sparsity baseline."""
    in_order, in_mask = _full_side(n, d_model)
    mid_order, mid_mask = _full_side(n, d_ff)
    return RowMasks("dense", in_order, in_mask, mid_order, mid_mask)


def glu_pruning_rows(w: MlpWeights, x: np.ndarray, k_mid: int) -> RowMasks:
    """Keep the k_mid largest |gated intermediate| values of each row of x
    [n, d_model].  Needs the full up and gate products to score, so only the
    down projection is pruned."""
    h = glu_activations(w, x)
    return _intermediate_rows("glu", w.d_model, np.abs(h), k_mid, h)


def gate_pruning_rows(w: MlpWeights, x: np.ndarray, k_mid: int) -> RowMasks:
    """Score intermediate units by |silu(gate x)|; the gate product itself
    stays dense, the up and down weights are pruned by the mask."""
    xs = _rows(x, w.d_model)[0]
    return _intermediate_rows("gate", w.d_model, np.abs(silu(_matvec(w.gate, xs))), k_mid)


def up_pruning_rows(w: MlpWeights, x: np.ndarray, k_mid: int) -> RowMasks:
    """Score intermediate units by |up x|; the up product stays dense, the
    gate and down weights are pruned by the mask."""
    xs = _rows(x, w.d_model)[0]
    return _intermediate_rows("up", w.d_model, np.abs(_matvec(w.up, xs)), k_mid)


def predictive_rows(p: Predictor, x: np.ndarray, k_mid: int) -> RowMasks:
    """Keep the k_mid intermediate units with the largest predictor logits.

    Logits are ranked by value, not magnitude: a strongly negative logit
    means confidently inactive.  All three matrices are pruned by the mask;
    the predictor's own bytes count as static residency in the simulator.
    """
    return _intermediate_rows("predictive", p.d_model, predictor_forward(p, x), k_mid)


def predictive_oracle_rows(w: MlpWeights, x: np.ndarray, k_mid: int) -> RowMasks:
    """Predictive scheme with oracle logits |GLU(x)|: selects exactly the GLU
    pruning mask but prunes up and gate as well."""
    h = glu_activations(w, x)
    return _intermediate_rows("predictive", w.d_model, np.abs(h), k_mid, h)


def dip_rows(w: MlpWeights, x: np.ndarray, k_in: int, k_mid: int) -> RowMasks:
    """Dynamic input pruning of x [n, d_model]: top-k_in |x| picks input
    columns of up/gate, then top-k_mid of the gated intermediate computed
    with only those columns picks down columns.  Both selections need no
    predictor."""
    xs = np.asarray(x, dtype=float)
    return _input_pruning_rows("dip", w, xs, np.abs(xs), k_in, np.abs, k_mid)


def dip_ca_rows(w, x: np.ndarray, input_residency: np.ndarray,
                intermediate_residency: np.ndarray, k_in: int, k_mid: int,
                gamma: float = DEFAULT_GAMMA, reweight_input: bool = True,
                reweight_intermediate: bool = True) -> RowMasks:
    """Dynamic input pruning of x [n, d_model] with cache-aware re-weighted
    scores (dip_ca_scores).

    Residency bitvectors come from the simulator's caches (one per unit
    group).  The re-weighting applies to both the input and intermediate
    selections by default; the switches turn either side back into plain
    magnitude scoring.  gamma=1 reproduces dip_rows exactly.  w is one
    MlpWeights for every row or a sequence of n, w[i] for row i; each
    residency is one vector for every row or one per row ([n, d_model] and
    [n, d_ff]).  Row i equals the call on its own weights and residency bit
    for bit, so one token's layers can go as one batch.
    """
    xs = np.asarray(x, dtype=float)
    gamma_mid = gamma if reweight_intermediate else 1.0
    return _input_pruning_rows(
        "dip_ca", w, xs, dip_ca_scores(xs, input_residency, gamma if reweight_input else 1.0),
        k_in, lambda h: dip_ca_scores(h, intermediate_residency, gamma_mid), k_mid)


def scheme_dip(w: MlpWeights, x: np.ndarray, k_in: int, k_mid: int) -> MaskSet:
    """dip_rows of one vector."""
    return dip_rows(w, _one_row(x), k_in, k_mid).mask_set(0)


def dip_ca_scores(x: np.ndarray, residency: np.ndarray, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Cache-aware selection scores |x| * (c + gamma*(1-c)) / max|x|, for one
    vector or per row of [n, dim].

    residency c is 0/1 per unit, one vector for every row or one per row;
    non-resident units are down-weighted by
    gamma.  The max-norm denominator makes the scores insensitive to the
    dynamic range of x.  A zero vector yields all-zero scores (ties then
    resolve to the lowest indices).
    """
    x = np.asarray(x, dtype=float)
    c = np.asarray(residency, dtype=float)
    if c.shape != x.shape[-1:] and c.shape != x.shape:
        raise ValueError("residency length must match x")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    mag = np.abs(x)
    xmax = np.max(mag, axis=-1, keepdims=True, initial=0.0)
    scores = mag * (c + gamma * (1.0 - c))
    return np.divide(scores, xmax, out=np.zeros_like(scores), where=xmax != 0.0)


def scheme_dip_ca(w: MlpWeights, x: np.ndarray, input_residency: np.ndarray,
                  intermediate_residency: np.ndarray, k_in: int, k_mid: int,
                  gamma: float = DEFAULT_GAMMA, reweight_input: bool = True,
                  reweight_intermediate: bool = True) -> MaskSet:
    """dip_ca_rows of one vector."""
    return dip_ca_rows(w, _one_row(x), input_residency, intermediate_residency, k_in, k_mid,
                       gamma, reweight_input, reweight_intermediate).mask_set(0)

