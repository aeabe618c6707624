"""Sparsity-mask generation for gated-MLP blocks.

Covers deterministic top-k selection, three thresholding strategies (global,
per-layer calibrated, per-token top-k), the baseline per-token sparsification
schemes (GLU / gate / up / predictive pruning), dynamic input pruning over
both the input and intermediate dimensions, and its cache-aware variant that
re-weights selection scores by current cache residency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .mlp import MlpWeights, Predictor, glu_activations, mlp_sparse_forward, predictor_forward, silu

__all__ = [
    "DEFAULT_GAMMA",
    "density_to_k",
    "SparsityMask",
    "MaskSet",
    "topk_indices",
    "GlobalThreshold",
    "PerLayerThreshold",
    "PerTokenTopK",
    "ThresholdSpec",
    "apply_threshold",
    "scheme_dense",
    "scheme_glu_pruning",
    "scheme_gate_pruning",
    "scheme_up_pruning",
    "scheme_predictive",
    "scheme_predictive_oracle",
    "scheme_dip",
    "dip_ca_scores",
    "scheme_dip_ca",
    "sparse_forward",
]

# Re-weighting strength for cache-aware selection; 1.0 disables the bias.
DEFAULT_GAMMA = 0.2


def density_to_k(density: float, dim: int) -> int:
    """Unit count for a keep-fraction: max(1, round(density * dim)), with
    halves rounding up so the mapping is monotone in density."""
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    return max(1, int(np.floor(density * dim + 0.5)))


@dataclass(frozen=True)
class SparsityMask:
    """Active (kept) index set over a dimension; stored sorted ascending."""

    dim: int
    active: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        act = tuple(sorted(int(i) for i in self.active))
        if len(set(act)) != len(act):
            raise ValueError("active indices must be unique")
        if act and (act[0] < 0 or act[-1] >= self.dim):
            raise ValueError("active index out of range")
        object.__setattr__(self, "active", act)

    @property
    def count(self) -> int:
        return len(self.active)

    @property
    def density(self) -> float:
        return len(self.active) / self.dim

    def as_bool(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=bool)
        out[list(self.active)] = True
        return out

    @classmethod
    def full(cls, dim: int) -> "SparsityMask":
        return cls(dim=dim, active=tuple(range(dim)))


@dataclass
class MaskSet:
    """Input and intermediate masks for one block at one token, tagged with
    the scheme that produced them.

    The optional score vectors carry the selection scores so the cache layer
    can admit units in descending-score order; they do not affect the forward
    pass.
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


def topk_indices(values: np.ndarray, k: int, magnitude: bool = True) -> SparsityMask:
    """Mask of the k largest entries (by |value| unless magnitude=False).

    Ties resolve to the lower index; the stable argsort keeps the original
    order among equal keys, which makes selection deterministic.
    """
    v = np.asarray(values, dtype=float).ravel()
    if not 0 <= k <= v.size:
        raise ValueError("k must be in [0, len(values)]")
    key = np.abs(v) if magnitude else v
    order = np.argsort(-key, kind="stable")
    return SparsityMask(dim=v.size, active=tuple(int(i) for i in order[:k]))


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
        keep = np.flatnonzero(np.abs(v) >= spec.threshold)
        return SparsityMask(dim=v.size, active=tuple(int(i) for i in keep))
    if isinstance(spec, PerLayerThreshold):
        if not 0 <= layer < len(spec.thresholds):
            raise IndexError(f"layer {layer} outside calibrated range")
        keep = np.flatnonzero(np.abs(v) >= spec.thresholds[layer])
        return SparsityMask(dim=v.size, active=tuple(int(i) for i in keep))
    if isinstance(spec, PerTokenTopK):
        return topk_indices(v, density_to_k(spec.density, v.size))
    raise TypeError(f"unknown threshold spec {type(spec)!r}")


# ---------------------------------------------------------------------------
# per-token sparsification schemes
# ---------------------------------------------------------------------------

def scheme_dense(d_model: int, d_ff: int) -> MaskSet:
    """All-ones masks; the no-sparsity baseline."""
    return MaskSet(scheme="dense", input_mask=SparsityMask.full(d_model),
                   intermediate_mask=SparsityMask.full(d_ff))


def scheme_glu_pruning(w: MlpWeights, x: np.ndarray, k_mid: int) -> MaskSet:
    """Keep the k_mid largest |gated intermediate| values.  Needs the full up
    and gate products to score, so only the down projection is pruned."""
    scores = np.abs(glu_activations(w, x))
    return MaskSet(scheme="glu", input_mask=SparsityMask.full(w.d_model),
                   intermediate_mask=topk_indices(scores, k_mid),
                   intermediate_scores=scores)


def scheme_gate_pruning(w: MlpWeights, x: np.ndarray, k_mid: int) -> MaskSet:
    """Score intermediate units by |silu(gate x)|; the gate product itself
    stays dense, the up and down weights are pruned by the mask."""
    x = np.asarray(x, dtype=float)
    scores = np.abs(silu(w.gate @ x))
    return MaskSet(scheme="gate", input_mask=SparsityMask.full(w.d_model),
                   intermediate_mask=topk_indices(scores, k_mid),
                   intermediate_scores=scores)


def scheme_up_pruning(w: MlpWeights, x: np.ndarray, k_mid: int) -> MaskSet:
    """Score intermediate units by |up x|; the up product stays dense, the
    gate and down weights are pruned by the mask."""
    x = np.asarray(x, dtype=float)
    scores = np.abs(w.up @ x)
    return MaskSet(scheme="up", input_mask=SparsityMask.full(w.d_model),
                   intermediate_mask=topk_indices(scores, k_mid),
                   intermediate_scores=scores)


def scheme_predictive(p: Predictor, x: np.ndarray, k_mid: int) -> MaskSet:
    """Keep the k_mid intermediate units with the largest predictor logits.

    Logits are ranked by value, not magnitude: a strongly negative logit
    means confidently inactive.  All three matrices are pruned by the mask;
    the predictor's own bytes count as static residency in the simulator.
    """
    logits = predictor_forward(p, x)
    return MaskSet(scheme="predictive", input_mask=SparsityMask.full(p.d_model),
                   intermediate_mask=topk_indices(logits, k_mid, magnitude=False),
                   intermediate_scores=logits)


def scheme_predictive_oracle(w: MlpWeights, x: np.ndarray, k_mid: int) -> MaskSet:
    """Predictive scheme with oracle logits |GLU(x)|: selects exactly the GLU
    pruning mask but prunes up and gate as well."""
    logits = np.abs(glu_activations(w, x))
    return MaskSet(scheme="predictive", input_mask=SparsityMask.full(w.d_model),
                   intermediate_mask=topk_indices(logits, k_mid, magnitude=False),
                   intermediate_scores=logits)


def scheme_dip(w: MlpWeights, x: np.ndarray, k_in: int, k_mid: int) -> MaskSet:
    """Dynamic input pruning: top-k_in |x| picks input columns of up/gate,
    then top-k_mid of the gated intermediate computed with only those columns
    picks down columns.  Both selections need no predictor."""
    x = np.asarray(x, dtype=float)
    in_scores = np.abs(x)
    in_mask = topk_indices(in_scores, k_in)
    mid_scores = np.abs(glu_activations(w, x, in_mask))
    return MaskSet(scheme="dip", input_mask=in_mask,
                   intermediate_mask=topk_indices(mid_scores, k_mid),
                   input_scores=in_scores, intermediate_scores=mid_scores)


def dip_ca_scores(x: np.ndarray, residency: np.ndarray, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Cache-aware selection scores |x| * (c + gamma*(1-c)) / max|x|.

    residency c is 0/1 per unit; non-resident units are down-weighted by
    gamma.  The max-norm denominator makes the scores insensitive to the
    dynamic range of x.  A zero vector yields all-zero scores (ties then
    resolve to the lowest indices).
    """
    x = np.asarray(x, dtype=float)
    c = np.asarray(residency, dtype=float)
    if c.shape != x.shape:
        raise ValueError("residency length must match x")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    xmax = float(np.max(np.abs(x))) if x.size else 0.0
    if xmax == 0.0:
        return np.zeros_like(x)
    return np.abs(x) * (c + gamma * (1.0 - c)) / xmax


def scheme_dip_ca(w: MlpWeights, x: np.ndarray, input_residency: np.ndarray,
                  intermediate_residency: np.ndarray, k_in: int, k_mid: int,
                  gamma: float = DEFAULT_GAMMA, reweight_input: bool = True,
                  reweight_intermediate: bool = True) -> MaskSet:
    """Dynamic input pruning with cache-aware re-weighted scores.

    Residency bitvectors come from the simulator's caches (one per unit
    group).  The re-weighting applies to both the input and intermediate
    selections by default; the switches turn either side back into plain
    magnitude scoring.  gamma=1 reproduces scheme_dip exactly.
    """
    x = np.asarray(x, dtype=float)
    in_scores = dip_ca_scores(x, input_residency, gamma if reweight_input else 1.0)
    in_mask = topk_indices(in_scores, k_in)
    mid_raw = glu_activations(w, x, in_mask)
    mid_scores = dip_ca_scores(mid_raw, intermediate_residency,
                               gamma if reweight_intermediate else 1.0)
    return MaskSet(scheme="dip_ca", input_mask=in_mask,
                   intermediate_mask=topk_indices(mid_scores, k_mid),
                   input_scores=in_scores, intermediate_scores=mid_scores)


def sparse_forward(w: MlpWeights, masks: MaskSet, x: np.ndarray) -> np.ndarray:
    """Forward pass of the block under a MaskSet."""
    return mlp_sparse_forward(w, x, masks.input_mask, masks.intermediate_mask)
