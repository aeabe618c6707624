"""Flash/DRAM timing model and trace-driven run orchestration.

Latency per token is flash_bytes/flash_bandwidth + dram_bytes/dram_bandwidth
with no transfer overlap and no compute time.  Weights resident in the DRAM
caches are read over the DRAM bus; cache misses (including bypassed units)
stream from flash directly to compute, so flash traffic is exactly the missed
unit bytes and DRAM traffic is the static working set plus the hit unit
bytes.  Static bytes (attention, embeddings, KV-cache, predictors) are read
once per token in full.

Units partition the three MLP matrices per layer.  Which matrices fold into
which unit group depends on the sparsification scheme: schemes that keep a
matrix dense stream it as always-active per-column chunks through the same
cache machinery, so residency accounting stays uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import masking
from .cache import (CacheState, EvictionPolicy, Group, belady_precompute,
                    cache_update, resident_bitvector)
from .mlp import (MlpWeights, Predictor, down_projection, glu_activations,
                  mlp_dense_forward, rel_l2_rows)

__all__ = [
    "SimulationError",
    "HardwareConfig",
    "ModelGeometry",
    "GroupSpec",
    "unit_bytes",
    "scheme_groups",
    "predictor_static_bytes",
    "allocate_dram",
    "SchemeConfig",
    "TokenCost",
    "LayerStats",
    "RunReport",
    "simulate_token",
    "simulate_run",
    "throughput_at_error",
]

SCHEME_NAMES = ("dense", "glu", "gate", "up", "predictive", "dip", "dip_ca")
POLICY_NAMES = ("lfu", "lru", "belady", "nocache")


class SimulationError(RuntimeError):
    """Ill-defined simulation request (e.g. Belady with a cache-aware scheme)."""


@dataclass(frozen=True)
class HardwareConfig:
    """Byte capacities and bandwidths; bandwidths in bytes/second."""

    dram_capacity_bytes: float
    dram_bandwidth: float
    flash_bandwidth: float

    def __post_init__(self):
        if self.dram_capacity_bytes < 0:
            raise ValueError("dram capacity must be >= 0")
        if self.dram_bandwidth <= 0 or self.flash_bandwidth <= 0:
            raise ValueError("bandwidths must be > 0")


@dataclass(frozen=True)
class ModelGeometry:
    """Per-layer MLP dimensions plus the non-MLP static working set.

    bytes_per_weight may be fractional (0.5 for 4-bit weights) and may be
    scaled arbitrarily to model large checkpoints at desk-scale unit counts.
    """

    num_layers: int
    d_model: int
    d_ff: int
    bytes_per_weight: float
    static_bytes: float = 0.0

    def __post_init__(self):
        if self.num_layers < 1 or self.d_model < 1 or self.d_ff < 1:
            raise ValueError("dimensions must be >= 1")
        if self.bytes_per_weight <= 0:
            raise ValueError("bytes_per_weight must be > 0")
        if self.static_bytes < 0:
            raise ValueError("static_bytes must be >= 0")

    @property
    def mlp_bytes_per_layer(self) -> float:
        return 3.0 * self.d_model * self.d_ff * self.bytes_per_weight

    @property
    def total_mlp_bytes(self) -> float:
        return self.num_layers * self.mlp_bytes_per_layer

    @property
    def total_bytes(self) -> float:
        return self.total_mlp_bytes + self.static_bytes


def unit_bytes(geo: ModelGeometry, group: Group) -> float:
    """Canonical unit sizes: an input bundle is one up column plus one gate
    column, an intermediate bundle is one down column, a dense chunk is one
    column of a d_ff-tall matrix."""
    if group == Group.INPUT_BUNDLE:
        return 2.0 * geo.d_ff * geo.bytes_per_weight
    if group == Group.INTERMEDIATE_BUNDLE:
        return geo.d_model * geo.bytes_per_weight
    if group == Group.DENSE_CHUNK:
        return geo.d_ff * geo.bytes_per_weight
    raise ValueError(f"unknown group {group!r}")


@dataclass(frozen=True)
class GroupSpec:
    """One unit group of a layer: universe size, bytes per unit, and whether
    every unit is active every token (dense-kept matrices)."""

    kind: Group
    universe: int
    unit_bytes: float
    always_active: bool = False

    @property
    def total_bytes(self) -> float:
        return self.universe * self.unit_bytes


def scheme_groups(scheme: str, geo: ModelGeometry) -> Tuple[GroupSpec, ...]:
    """Unit decomposition of one layer's MLP under a scheme.

    The group byte sizes always sum to the layer's full MLP bytes: matrices
    pruned by the intermediate mask fold into the intermediate bundle (so its
    unit size grows for schemes that prune up or gate rows), and matrices a
    scheme keeps dense become always-active column chunks.
    """
    dm, dff, bpw = geo.d_model, geo.d_ff, geo.bytes_per_weight
    if scheme in ("dense", "dip", "dip_ca"):
        return (
            GroupSpec(Group.INPUT_BUNDLE, dm, 2.0 * dff * bpw),
            GroupSpec(Group.INTERMEDIATE_BUNDLE, dff, dm * bpw),
        )
    if scheme == "glu":
        # full up and gate needed for scoring; only down is pruned
        return (
            GroupSpec(Group.DENSE_CHUNK, 2 * dm, dff * bpw, always_active=True),
            GroupSpec(Group.INTERMEDIATE_BUNDLE, dff, dm * bpw),
        )
    if scheme in ("gate", "up"):
        # one projection stays dense; the other two share the intermediate mask
        return (
            GroupSpec(Group.DENSE_CHUNK, dm, dff * bpw, always_active=True),
            GroupSpec(Group.INTERMEDIATE_BUNDLE, dff, 2.0 * dm * bpw),
        )
    if scheme == "predictive":
        # all three matrices share the intermediate mask
        return (GroupSpec(Group.INTERMEDIATE_BUNDLE, dff, 3.0 * dm * bpw),)
    raise ValueError(f"unknown scheme {scheme!r}")


def predictor_static_bytes(geo: ModelGeometry, hidden: int) -> float:
    """Bytes of one per-layer predictor, summed over layers; charged to the
    static working set because predictors are never pruned."""
    if hidden < 0:
        raise ValueError("hidden must be >= 0")
    params = hidden * (geo.d_model + 1) + geo.d_ff * (hidden + 1)
    return geo.num_layers * params * geo.bytes_per_weight if hidden else 0.0


def allocate_dram(hw: HardwareConfig, geo: ModelGeometry,
                  groups: Optional[Sequence[GroupSpec]] = None,
                  static_bytes: Optional[float] = None) -> List[Dict[Group, int]]:
    """Per-layer cache capacities in units.

    DRAM left after the static working set is split equally across layers;
    each layer's share is split across its unit groups proportionally to the
    group's total bytes, then floored to whole units (never exceeding the
    group universe).  Raises SimulationError when the static set alone does
    not fit.
    """
    if groups is None:
        groups = scheme_groups("dense", geo)
    static = geo.static_bytes if static_bytes is None else static_bytes
    remaining = hw.dram_capacity_bytes - static
    if remaining < 0:
        raise SimulationError(
            f"static working set ({static:.3g} B) exceeds DRAM capacity "
            f"({hw.dram_capacity_bytes:.3g} B)")
    per_layer_bytes = remaining / geo.num_layers
    total_group_bytes = sum(g.total_bytes for g in groups)
    capacities = []
    for _ in range(geo.num_layers):
        caps = {}
        for g in groups:
            share = per_layer_bytes * (g.total_bytes / total_group_bytes)
            caps[g.kind] = min(g.universe, int(share // g.unit_bytes))
        capacities.append(caps)
    return capacities


# ---------------------------------------------------------------------------
# per-run configuration and results
# ---------------------------------------------------------------------------

@dataclass
class SchemeConfig:
    """Which scheme to simulate and at what densities.

    density_mid drives the intermediate mask for every pruning scheme;
    density_in additionally drives the input mask for dip/dip_ca and defaults
    to density_mid.  predictor_hidden sizes the per-layer predictors charged
    to static residency for the predictive scheme; when no trained predictor
    object is supplied the predictive scheme scores with oracle logits
    |GLU(x)|.
    """

    name: str
    density_mid: Optional[float] = None
    density_in: Optional[float] = None
    gamma: float = masking.DEFAULT_GAMMA
    reweight_input: bool = True
    reweight_intermediate: bool = True
    predictor_hidden: int = 0
    predictor: Optional[Predictor] = None

    def __post_init__(self):
        if self.name not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme {self.name!r}; expected one of {SCHEME_NAMES}")
        if self.name != "dense" and self.density_mid is None:
            raise ValueError(f"scheme {self.name!r} requires density_mid")
        for d in (self.density_mid, self.density_in):
            if d is not None and not 0.0 < d <= 1.0:
                raise ValueError("densities must be in (0, 1]")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if self.name in ("dip", "dip_ca") and self.density_in is None:
            self.density_in = self.density_mid

    def k_values(self, geo: ModelGeometry) -> Tuple[int, int]:
        """(k_in, k_mid) for this geometry; full input width for schemes that
        do not prune the input dimension."""
        if self.name == "dense":
            return geo.d_model, geo.d_ff
        k_mid = masking.density_to_k(self.density_mid, geo.d_ff)
        if self.name in ("dip", "dip_ca"):
            return masking.density_to_k(self.density_in, geo.d_model), k_mid
        return geo.d_model, k_mid


@dataclass
class TokenCost:
    flash_bytes: float
    dram_bytes: float
    latency_s: float
    hits: int
    misses: int
    bypassed: int


@dataclass
class LayerStats:
    layer: int
    hits: int = 0
    misses: int = 0
    bypassed: int = 0
    flash_bytes: float = 0.0
    dram_bytes: float = 0.0  # unit traffic only; static bytes are global

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class RunReport:
    num_tokens: int
    tokens: List[TokenCost]
    throughput: float
    steady_state_throughput: float
    hit_rate: float
    flash_bytes: float
    dram_bytes: float
    per_layer: List[LayerStats]
    mean_error: Optional[float] = None
    config: dict = field(default_factory=dict)


# Tokens per batch of masks: bounds the [block, d_ff] temporaries of mask
# building and of kernel_eval, whatever the trace length.
_ROW_BLOCK = 256


def _layer_rows(cfg: SchemeConfig, w: Optional[MlpWeights], x: np.ndarray,
                geo: ModelGeometry, k_in: int, k_mid: int) -> masking.RowMasks:
    """Masks of a cache-independent scheme for the rows x [n, d_model] of
    one layer."""
    if cfg.name == "dense":
        return masking.dense_rows(len(x), geo.d_model, geo.d_ff)
    if cfg.name == "glu":
        return masking.glu_pruning_rows(w, x, k_mid)
    if cfg.name == "gate":
        return masking.gate_pruning_rows(w, x, k_mid)
    if cfg.name == "up":
        return masking.up_pruning_rows(w, x, k_mid)
    if cfg.name == "predictive":
        if cfg.predictor is not None:
            return masking.predictive_rows(cfg.predictor, x, k_mid)
        return masking.predictive_oracle_rows(w, x, k_mid)
    if cfg.name == "dip":
        return masking.dip_rows(w, x, k_in, k_mid)
    raise SimulationError(f"unhandled scheme {cfg.name!r}")


def _masks_for_token(cfg: SchemeConfig, weights: Sequence[MlpWeights], acts: np.ndarray,
                     caches, k_in: int, k_mid: int) -> List[masking.RowMasks]:
    """Per-layer dip_ca masks for one token's activations [num_layers,
    d_model], read from the caches' residency as it is now."""
    return [masking.dip_ca_rows(
        weights[l], acts[l:l + 1], resident_bitvector(caches[l][Group.INPUT_BUNDLE]),
        resident_bitvector(caches[l][Group.INTERMEDIATE_BUNDLE]), k_in, k_mid,
        gamma=cfg.gamma, reweight_input=cfg.reweight_input,
        reweight_intermediate=cfg.reweight_intermediate) for l in range(len(acts))]


def _group_units(rows: masking.RowMasks, groups: Sequence[GroupSpec]) -> List[np.ndarray]:
    """Per group, each row's active units in admission order [n, k]."""
    n = len(rows.input_mask)
    out = []
    for g in groups:
        if g.always_active:
            out.append(np.broadcast_to(np.arange(g.universe), (n, g.universe)))
        elif g.kind == Group.INPUT_BUNDLE:
            out.append(rows.input_order)
        elif g.kind == Group.INTERMEDIATE_BUNDLE:
            out.append(rows.intermediate_order)
        else:
            raise SimulationError(f"group {g.kind!r} has no mask source")
    return out


def _row_errors(w: MlpWeights, x: np.ndarray, rows: masking.RowMasks,
                dense: np.ndarray) -> np.ndarray:
    """Relative L2 error of the masked block against the dense outputs, per
    row; reuses the GLU rows the masks were scored on when there are any."""
    h = rows.glu if rows.glu is not None else glu_activations(w, x, rows.input_mask)
    return rel_l2_rows(dense, down_projection(w, h, rows.intermediate_mask))


def _unit_stream(cfg: SchemeConfig, weights: Optional[Sequence[MlpWeights]],
                 acts: np.ndarray, caches, geo: ModelGeometry,
                 groups: Sequence[GroupSpec], k_in: int, k_mid: int,
                 errors: Optional[np.ndarray]):
    """Stage 1: per token, per layer, per group, the active units in
    admission order.

    Tokens go in blocks; the dense outputs for kernel_eval are one batch per
    layer and block.  Cache-independent schemes build a block's masks as one
    batch per layer.  dip_ca masks read the caches, so each token's are built
    when the token is requested, after the previous token's replay.  errors
    [num_tokens, num_layers], when given, receives each (token, layer) kernel
    error.
    """
    num_layers = acts.shape[1]
    for t0 in range(0, acts.shape[0], _ROW_BLOCK):
        x = acts[t0:t0 + _ROW_BLOCK]
        dense = (None if errors is None else
                 [mlp_dense_forward(weights[l], x[:, l]) for l in range(num_layers)])
        if cfg.name == "dip_ca":
            for i in range(len(x)):
                per_layer = _masks_for_token(cfg, weights, x[i], caches, k_in, k_mid)
                if errors is not None:
                    for l, rows in enumerate(per_layer):
                        errors[t0 + i, l] = _row_errors(weights[l], x[i, l:l + 1], rows,
                                                        dense[l][i:i + 1])[0]
                yield [[u[0] for u in _group_units(rows, groups)] for rows in per_layer]
            continue
        block = []
        for l in range(num_layers):
            w = weights[l] if weights is not None else None
            rows = _layer_rows(cfg, w, x[:, l], geo, k_in, k_mid)
            if errors is not None:
                errors[t0:t0 + len(x), l] = _row_errors(w, x[:, l], rows, dense[l])
            block.append(_group_units(rows, groups))
        for i in range(len(x)):
            yield [[u[i] for u in layer] for layer in block]


def simulate_token(caches, groups: Sequence[GroupSpec], units, hw: HardwareConfig,
                   geo: ModelGeometry, policies, position: int = 0,
                   static_bytes: Optional[float] = None,
                   layer_stats: Optional[List[LayerStats]] = None) -> TokenCost:
    """Stage 2 for one token: advance every layer cache and price the
    transfers.

    caches: per layer, a dict Group -> CacheState.  units: per layer, per
    group of groups, the active unit indices in admission order.  policies:
    one EvictionPolicy, or a per-layer list of dicts Group -> EvictionPolicy
    (Belady needs a distinct next-use table per cache).  Static bytes default
    to the geometry's and are read over DRAM once for the whole token.
    """
    static = geo.static_bytes if static_bytes is None else static_bytes
    flash = 0.0
    dram = static
    hits = misses = bypassed = 0
    for l in range(geo.num_layers):
        for g, active in zip(groups, units[l]):
            if isinstance(policies, EvictionPolicy):
                policy = policies
            else:
                policy = policies[l][g.kind]
            stats = cache_update(caches[l][g.kind], active, policy, position=position)
            flash += stats.misses * g.unit_bytes
            dram += stats.hits * g.unit_bytes
            hits += stats.hits
            misses += stats.misses
            bypassed += stats.bypassed
            if layer_stats is not None:
                ls = layer_stats[l]
                ls.hits += stats.hits
                ls.misses += stats.misses
                ls.bypassed += stats.bypassed
                ls.flash_bytes += stats.misses * g.unit_bytes
                ls.dram_bytes += stats.hits * g.unit_bytes
    latency = flash / hw.flash_bandwidth + dram / hw.dram_bandwidth
    return TokenCost(flash_bytes=flash, dram_bytes=dram, latency_s=latency,
                     hits=hits, misses=misses, bypassed=bypassed)


def _fresh_caches(geo: ModelGeometry, groups: Sequence[GroupSpec],
                  capacities: List[Dict[Group, int]]):
    return [{g.kind: CacheState(capacity_units=capacities[l][g.kind], universe=g.universe)
             for g in groups} for l in range(geo.num_layers)]


def simulate_run(trace, weights: Optional[Sequence[MlpWeights]], scheme: SchemeConfig,
                 policy: str, hw: HardwareConfig, geo: ModelGeometry,
                 kernel_eval: bool = False) -> RunReport:
    """Simulate a full activation trace under one scheme and eviction policy.

    trace supplies activations of shape [num_tokens, num_layers, d_model]
    (a traces.Trace or a bare array).  Caches start cold; first-token misses
    are included in throughput, and steady_state_throughput excludes the
    first token so warm-cache figures can be read off directly.  Masks turn
    into a stream of unit accesses (stage 1) that is replayed through the
    caches (stage 2); the Belady policy reads the whole stream first to build
    its next-use tables (rejected for cache-aware schemes, whose masks depend
    on cache contents).  kernel_eval additionally runs the block forward per
    token/layer and reports the mean relative-L2 error against the dense
    block.
    """
    acts = getattr(trace, "activations", trace)
    if acts is None:
        raise SimulationError("trace has no activation payload")
    acts = np.asarray(acts, dtype=float)
    if acts.ndim != 3 or acts.shape[1] != geo.num_layers or acts.shape[2] != geo.d_model:
        raise SimulationError(
            f"trace shape {acts.shape} does not match geometry "
            f"[*, {geo.num_layers}, {geo.d_model}]")
    if not np.isfinite(acts).all():
        raise ValueError("trace activations must be finite")
    if policy not in POLICY_NAMES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICY_NAMES}")
    if policy == "belady" and scheme.name == "dip_ca":
        raise SimulationError(
            "belady eviction is ill-defined for cache-aware masking: the mask "
            "depends on cache contents, which depend on future evictions")
    needs_weights = scheme.name != "dense" or kernel_eval
    if needs_weights:
        if weights is None or len(weights) != geo.num_layers:
            raise SimulationError("scheme needs one MlpWeights per layer")
        for w in weights:
            if w.d_model != geo.d_model or w.d_ff != geo.d_ff:
                raise SimulationError("weight shapes do not match geometry")

    static = geo.static_bytes
    if scheme.name == "predictive":
        hidden = scheme.predictor.hidden if scheme.predictor is not None else scheme.predictor_hidden
        static += predictor_static_bytes(geo, hidden)
    groups = scheme_groups(scheme.name, geo)
    capacities = allocate_dram(hw, geo, groups, static_bytes=static)
    caches = _fresh_caches(geo, groups, capacities)
    k_in, k_mid = scheme.k_values(geo)
    num_tokens = acts.shape[0]

    errors = np.empty((num_tokens, geo.num_layers)) if kernel_eval else None
    stream = _unit_stream(scheme, weights, acts, caches, geo, groups, k_in, k_mid, errors)
    policies: object
    if policy == "belady":
        stream = list(stream)
        policies = [{g.kind: EvictionPolicy.belady(belady_precompute(
            [units[l][i] for units in stream])) for i, g in enumerate(groups)}
            for l in range(geo.num_layers)]
    else:
        policies = EvictionPolicy(policy)

    layer_stats = [LayerStats(layer=l) for l in range(geo.num_layers)]
    tokens = [simulate_token(caches, groups, units, hw, geo, policies, position=t,
                             static_bytes=static, layer_stats=layer_stats)
              for t, units in enumerate(stream)]

    total_latency = sum(tc.latency_s for tc in tokens)
    tail_latency = sum(tc.latency_s for tc in tokens[1:])
    total_hits = sum(tc.hits for tc in tokens)
    total_accesses = sum(tc.hits + tc.misses for tc in tokens)
    return RunReport(
        num_tokens=num_tokens,
        tokens=tokens,
        throughput=num_tokens / total_latency if total_latency > 0 else 0.0,
        steady_state_throughput=(
            (num_tokens - 1) / tail_latency if tail_latency > 0
            else (num_tokens / total_latency if total_latency > 0 else 0.0)),
        hit_rate=total_hits / total_accesses if total_accesses else 0.0,
        flash_bytes=sum(tc.flash_bytes for tc in tokens),
        dram_bytes=sum(tc.dram_bytes for tc in tokens),
        per_layer=layer_stats,
        # errors in (token, layer) order: the order fixes the float sum
        mean_error=float(np.mean(errors.ravel())) if errors is not None and errors.size else None,
    )


def throughput_at_error(rows: Sequence, error_budget: float) -> Tuple[float, float]:
    """Best (throughput, density) among sweep rows with error <= budget.

    rows are (density, throughput, error) triples or objects with those
    attributes; a row whose error is None (nothing was measured, e.g. an
    empty trace) never fits.  Raises SimulationError when no row fits the
    budget.
    """
    if not rows:
        raise ValueError("empty sweep")
    best = None
    for r in rows:
        density, tput, err = (
            (r.density, r.throughput, r.error) if hasattr(r, "throughput")
            else (r[0], r[1], r[2]))
        if err is not None and err <= error_budget and (best is None or tput > best[0]):
            best = (tput, density)
    if best is None:
        raise SimulationError(f"no configuration meets error budget {error_budget}")
    return best
