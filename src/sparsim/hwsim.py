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

Each scheme is one entry of SCHEMES, and its unit groups, k values, static
charge, mask stream and Belady rejection all read from that entry.
sweep_runs is the one grid engine: one simulate_run per (density, gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from . import masking
from .cache import (POLICY_NAMES, CacheState, EvictionPolicy, Group, belady_precompute,
                    cache_update, resident_bitvector)
from .mlp import MlpWeights, down_projection, glu_activations, mlp_dense_forward, rel_l2_rows

__all__ = [
    "SimulationError",
    "HardwareConfig",
    "ModelGeometry",
    "GroupSpec",
    "Scheme",
    "SCHEMES",
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
    "sweep_runs",
    "throughput_at_error",
]

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
    entry = SCHEMES.get(scheme)
    if entry is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    dm, dff, bpw = geo.d_model, geo.d_ff, geo.bytes_per_weight
    mid = GroupSpec(Group.INTERMEDIATE_BUNDLE, dff, entry.mid_matrices * dm * bpw)
    if entry.input_bundles:
        return (GroupSpec(Group.INPUT_BUNDLE, dm, 2.0 * dff * bpw), mid)
    if entry.mid_matrices < 3:
        return (GroupSpec(Group.DENSE_CHUNK, (3 - entry.mid_matrices) * dm, dff * bpw,
                          always_active=True), mid)
    return (mid,)


def predictor_static_bytes(geo: ModelGeometry, hidden: int) -> float:
    """Bytes of one per-layer predictor, summed over layers; charged to the
    static working set because predictors are never pruned."""
    if hidden < 0:
        raise ValueError("hidden must be >= 0")
    params = hidden * (geo.d_model + 1) + geo.d_ff * (hidden + 1)
    return geo.num_layers * params * geo.bytes_per_weight if hidden else 0.0


def allocate_dram(hw: HardwareConfig, geo: ModelGeometry, groups: Sequence[GroupSpec],
                  static_bytes: Optional[float] = None) -> List[Dict[Group, int]]:
    """Per-layer cache capacities in units.

    DRAM left after the static working set is split equally across layers;
    each layer's share is split across its unit groups proportionally to the
    group's total bytes, then floored to whole units (never exceeding the
    group universe).  Raises SimulationError when the static set alone does
    not fit.
    """
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
# the schemes and the per-run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scheme:
    """One sparsification scheme, as the simulator sees it.

    mid_matrices: how many of down, up and gate the intermediate mask prunes
    (all three only with a predictor, whose bytes join the static set).
    input_bundles: up and gate stream as input bundles; otherwise what the
    intermediate mask leaves dense streams as always-active column chunks.
    prunes_input: an input mask (density_in) picks the input bundles.
    cache_aware: masks read the caches' residency, so each token's follow
    the previous token's replay and Belady is ill-defined.
    rows(cfg, w, x, k_in, k_mid[, residency per group]): the RowMasks of the
    rows x; None for a scheme that keeps every unit.
    """

    mid_matrices: int
    rows: Optional[Callable[..., masking.RowMasks]]
    input_bundles: bool = False
    prunes_input: bool = False
    cache_aware: bool = False

    @property
    def reads(self) -> FrozenSet[str]:
        """The SchemeConfig fields that can change this scheme's runs."""
        keys = {"name"}
        if self.rows is not None:
            keys.add("density_mid")
        if self.prunes_input:
            keys.add("density_in")
        if self.cache_aware:
            keys |= {"gamma", "reweight_input", "reweight_intermediate"}
        if self.mid_matrices == 3:  # the predictor's bytes join the static set
            keys.add("predictor_hidden")
        return frozenset(keys)


def _dip_ca_rows(cfg, w, x, k_in, k_mid, input_residency, intermediate_residency):
    return masking.dip_ca_rows(w, x, input_residency, intermediate_residency, k_in, k_mid,
                               gamma=cfg.gamma, reweight_input=cfg.reweight_input,
                               reweight_intermediate=cfg.reweight_intermediate)


SCHEMES: Dict[str, Scheme] = {
    "dense": Scheme(1, None, input_bundles=True),
    "glu": Scheme(1, lambda cfg, w, x, k_in, k_mid: masking.glu_pruning_rows(w, x, k_mid)),
    "gate": Scheme(2, lambda cfg, w, x, k_in, k_mid: masking.gate_pruning_rows(w, x, k_mid)),
    "up": Scheme(2, lambda cfg, w, x, k_in, k_mid: masking.up_pruning_rows(w, x, k_mid)),
    # oracle logits |GLU(x)| stand in for a trained predictor
    "predictive": Scheme(3, lambda cfg, w, x, k_in, k_mid:
                         masking.predictive_oracle_rows(w, x, k_mid)),
    "dip": Scheme(1, lambda cfg, w, x, k_in, k_mid: masking.dip_rows(w, x, k_in, k_mid),
                  input_bundles=True, prunes_input=True),
    "dip_ca": Scheme(1, _dip_ca_rows, input_bundles=True, prunes_input=True,
                     cache_aware=True),
}


@dataclass
class SchemeConfig:
    """Which scheme to simulate and at what densities.

    density_mid drives the intermediate mask for every pruning scheme;
    density_in additionally drives the input mask for dip/dip_ca and defaults
    to density_mid.  predictor_hidden sizes the per-layer predictors charged
    to static residency for the predictive scheme, which scores with oracle
    logits |GLU(x)|.  Scheme.reads names the fields each scheme reads.
    """

    name: str
    density_mid: Optional[float] = None
    density_in: Optional[float] = None
    gamma: float = masking.DEFAULT_GAMMA
    reweight_input: bool = True
    reweight_intermediate: bool = True
    predictor_hidden: int = 0

    def __post_init__(self):
        entry = SCHEMES.get(self.name)
        if entry is None:
            raise ValueError(f"unknown scheme {self.name!r}; expected one of {tuple(SCHEMES)}")
        if entry.rows is not None and self.density_mid is None:
            raise ValueError(f"scheme {self.name!r} requires density_mid")
        for d in (self.density_mid, self.density_in):
            if d is not None and not 0.0 < d <= 1.0:
                raise ValueError("densities must be in (0, 1]")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if entry.prunes_input and self.density_in is None:
            self.density_in = self.density_mid

    def k_values(self, geo: ModelGeometry) -> Tuple[int, int]:
        """(k_in, k_mid) for this geometry; full input width for schemes that
        do not prune the input dimension."""
        entry = SCHEMES[self.name]
        if entry.rows is None:
            return geo.d_model, geo.d_ff
        k_mid = masking.density_to_k(self.density_mid, geo.d_ff)
        if entry.prunes_input:
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


# Tokens per batch of masks: bounds the [block, d_ff] temporaries of mask
# building and of kernel_eval, whatever the trace length.
_ROW_BLOCK = 256


def _group_units(rows: masking.RowMasks, groups: Sequence[GroupSpec]) -> List[np.ndarray]:
    """Per group, each row's active units in admission order [n, k]."""
    n = len(rows.input_mask)
    out = []
    for g in groups:
        if g.always_active:
            out.append(np.broadcast_to(np.arange(g.universe), (n, g.universe)))
        else:
            out.append(rows.input_order if g.kind == Group.INPUT_BUNDLE
                       else rows.intermediate_order)
    return out


def _row_errors(w: MlpWeights, x: np.ndarray, glu: np.ndarray,
                intermediate_mask: np.ndarray) -> np.ndarray:
    """Relative L2 error of the masked block against the dense block, per
    row of one layer's inputs x, from the gated intermediates under the
    input mask."""
    return rel_l2_rows(mlp_dense_forward(w, x), down_projection(w, glu, intermediate_mask))


def _unit_stream(cfg: SchemeConfig, weights: Optional[Sequence[MlpWeights]],
                 acts: np.ndarray, caches, geo: ModelGeometry,
                 groups: Sequence[GroupSpec], k_in: int, k_mid: int,
                 errors: Optional[np.ndarray]):
    """Stage 1: per token, per layer, per group, the active units in
    admission order.

    Tokens go in blocks of up to _ROW_BLOCK.  Cache-independent schemes
    build a block's masks as one batch per layer.  Cache-aware masks read
    the caches, so each token's are built when the token is requested, after
    the previous token's replay, as one batch over the token's layers.
    errors [num_tokens, num_layers], when given, receives each (token,
    layer) kernel error, one _row_errors call per layer and block: cache-aware
    masks keep their block's gated intermediates and intermediate masks until
    the block's last token is out (errors never feed back into the caches).
    """
    entry = SCHEMES[cfg.name]
    num_layers = acts.shape[1]
    for t0 in range(0, acts.shape[0], _ROW_BLOCK):
        x = acts[t0:t0 + _ROW_BLOCK]
        if entry.cache_aware:
            if errors is not None:
                glu = np.empty((num_layers, len(x), geo.d_ff))
                mid_mask = np.empty((num_layers, len(x), geo.d_ff), dtype=bool)
            for i in range(len(x)):
                residency = [np.stack([resident_bitvector(c[g.kind]) for c in caches])
                             for g in groups]
                rows = entry.rows(cfg, weights, x[i], k_in, k_mid, *residency)
                if errors is not None:
                    glu[:, i] = rows.glu
                    mid_mask[:, i] = rows.intermediate_mask
                units = _group_units(rows, groups)
                yield [[u[l] for u in units] for l in range(num_layers)]
            if errors is not None:
                for l in range(num_layers):
                    errors[t0:t0 + len(x), l] = _row_errors(weights[l], x[:, l], glu[l],
                                                            mid_mask[l])
            continue
        block = []
        for l in range(num_layers):
            w = weights[l] if weights is not None else None
            rows = (masking.dense_rows(len(x), geo.d_model, geo.d_ff) if entry.rows is None
                    else entry.rows(cfg, w, x[:, l], k_in, k_mid))
            if errors is not None:
                glu = rows.glu if rows.glu is not None else glu_activations(
                    w, x[:, l], rows.input_mask)
                errors[t0:t0 + len(x), l] = _row_errors(w, x[:, l], glu,
                                                        rows.intermediate_mask)
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
    block.  Raises SimulationError when the modelled latency or traffic
    overflows the float range.
    """
    acts = np.asarray(getattr(trace, "activations", trace), dtype=float)
    if acts.ndim != 3 or acts.shape[1] != geo.num_layers or acts.shape[2] != geo.d_model:
        raise SimulationError(
            f"trace shape {acts.shape} does not match geometry "
            f"[*, {geo.num_layers}, {geo.d_model}]")
    if not np.isfinite(acts).all():
        raise ValueError("trace activations must be finite")
    if policy not in POLICY_NAMES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICY_NAMES}")
    entry = SCHEMES[scheme.name]
    if policy == "belady" and entry.cache_aware:
        raise SimulationError(
            "belady eviction is ill-defined for cache-aware masking: the mask "
            "depends on cache contents, which depend on future evictions")
    needs_weights = entry.rows is not None or kernel_eval
    if needs_weights:
        if weights is None or len(weights) != geo.num_layers:
            raise SimulationError("scheme needs one MlpWeights per layer")
        for w in weights:
            if w.d_model != geo.d_model or w.d_ff != geo.d_ff:
                raise SimulationError("weight shapes do not match geometry")

    static = geo.static_bytes
    if entry.mid_matrices == 3:
        static += predictor_static_bytes(geo, scheme.predictor_hidden)
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
    flash_bytes = sum(tc.flash_bytes for tc in tokens)
    dram_bytes = sum(tc.dram_bytes for tc in tokens)
    if not all(map(math.isfinite, (total_latency, flash_bytes, dram_bytes))):
        raise SimulationError("modelled latency or traffic overflows the float range: "
                              "check the bandwidths and byte sizes")
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
        flash_bytes=flash_bytes,
        dram_bytes=dram_bytes,
        per_layer=layer_stats,
        # errors in (token, layer) order: the order fixes the float sum
        mean_error=float(np.mean(errors.ravel())) if errors is not None and errors.size else None,
    )


def sweep_runs(trace, weights: Optional[Sequence[MlpWeights]], scheme: SchemeConfig,
               points: Sequence[Tuple[float, Optional[float]]], policy: str,
               hw: HardwareConfig, geo: ModelGeometry,
               kernel_eval: bool = False) -> List[RunReport]:
    """One simulate_run per (density, gamma) point, in the order given.

    Each point runs the base scheme with density_mid set to the density,
    density_in back at its default (it follows density_mid), and gamma
    replaced unless the point's gamma is None.
    """
    return [simulate_run(trace, weights, replace(
        scheme, density_mid=density, density_in=None,
        gamma=scheme.gamma if gamma is None else gamma), policy, hw, geo, kernel_eval)
        for density, gamma in points]


def throughput_at_error(rows: Sequence, error_budget: float) -> Tuple[float, float]:
    """Best (throughput, density) among sweep rows with error <= budget.

    rows are (density, throughput, error) triples; a row whose error is None
    (nothing was measured, e.g. an empty trace) never fits.  Raises
    SimulationError when no row fits the budget.
    """
    if not rows:
        raise ValueError("empty sweep")
    best = None
    for density, tput, err in rows:
        if err is not None and err <= error_budget and (best is None or tput > best[0]):
            best = (tput, density)
    if best is None:
        raise SimulationError(f"no configuration meets error budget {error_budget}")
    return best
