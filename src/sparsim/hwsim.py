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

There is one engine, and simulate_run is its one-point case.  sweep_runs
runs every (density, gamma) point of a grid in lockstep: per token, one
replay call advances the caches of every (point, layer, unit group).  Its
mask stream is one loop for every scheme, in which a batch of mask rows
builds its masks over a block of tokens in one call.  A row serves every
point with its (k_in, k_mid); cache-aware masks read the caches, so their
rows serve one point and their blocks are one token.  Each point keeps its
own caches, so its report equals its own simulate_run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import masking
from .cache import (POLICY_NAMES, CacheState, Group, belady_precompute, replay,
                    resident_bitvector)
from .mlp import MlpWeights, down_projection, glu_activations, mlp_dense_forward, rel_l2_rows

__all__ = [
    "SimulationError",
    "HardwareConfig",
    "ModelGeometry",
    "GroupSpec",
    "Scheme",
    "SCHEMES",
    "scheme_groups",
    "predictor_static_bytes",
    "allocate_dram",
    "SchemeConfig",
    "TokenCost",
    "LayerStats",
    "RunReport",
    "simulate_run",
    "sweep_runs",
    "throughput_at_error",
]

class SimulationError(RuntimeError):
    """Ill-defined simulation request (e.g. Belady with a cache-aware scheme)."""


def _require_finite(config) -> None:
    """ValueError naming the first NaN or infinite field of a dataclass."""
    for f in fields(config):
        if not math.isfinite(getattr(config, f.name)):
            raise ValueError(f"{f.name} must be finite, got {getattr(config, f.name)}")


@dataclass(frozen=True)
class HardwareConfig:
    """Byte capacities and bandwidths; bandwidths in bytes/second."""

    dram_capacity_bytes: float
    dram_bandwidth: float
    flash_bandwidth: float

    def __post_init__(self):
        _require_finite(self)
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
        _require_finite(self)
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
                  static_bytes: Optional[float] = None) -> Tuple[int, ...]:
    """Cache capacity in units of each group of one layer, aligned with
    groups; every layer gets the same.

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
    for g in groups:
        share = per_layer_bytes * (g.total_bytes / total_group_bytes)
        capacities.append(min(g.universe, int(share // g.unit_bytes)))
    return tuple(capacities)


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
    rows(cfg, w, x, k_in, k_mid[, residency per group, gamma per row]): the
    RowMasks of the rows x, w holding one MlpWeights per row; None for a
    scheme that keeps every unit.
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
    "dip_ca": Scheme(1, lambda cfg, w, x, k_in, k_mid, c_in, c_mid, gamma: masking.dip_ca_rows(
        w, x, c_in, c_mid, k_in, k_mid, gamma, cfg.reweight_input, cfg.reweight_intermediate),
        input_bundles=True, prunes_input=True, cache_aware=True),
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


# Rows per mask-building call and per kernel_eval block: bounds the
# [rows, d_ff] temporaries, whatever the trace length and the number of points.
_ROW_BLOCK = 256


class _Batch(NamedTuple):
    """Mask rows of one k = (k_in, k_mid), built by one call over a block of
    tokens.  A mask row serves the (layer, point) pairs of its layer and k,
    or its own pair when the masks read the caches.  Per served pair s:
    row[s] is its mask row, and ids[s] each active-unit column's offset onto
    the flat axis; when the masks read the caches, cols[g][s] holds the flat
    ids of every unit of its cache of group g."""

    k: Tuple[int, int]
    layer: np.ndarray  # int [R], each mask row's layer, layer-major
    row: np.ndarray    # int [S]
    point: np.ndarray  # int [S]
    gamma: np.ndarray  # float [S], the point's gamma
    ids: np.ndarray    # int [S, active units of a row]
    cols: Tuple[np.ndarray, ...]  # int [S, universe] per group, or ()


def _group_units(rows: masking.RowMasks, groups: Sequence[GroupSpec]) -> np.ndarray:
    """Each row's active units [n, units], group by group, each group's in
    admission order (unit indices within the group)."""
    n = len(rows.input_mask)
    return np.concatenate([
        np.broadcast_to(np.arange(g.universe), (n, g.universe)) if g.always_active
        else rows.input_order if g.kind == Group.INPUT_BUNDLE else rows.intermediate_order
        for g in groups], axis=1)


def _layout(configs: Sequence[SchemeConfig], entry: Scheme, groups: Sequence[GroupSpec],
            capacities: Sequence[int], geo: ModelGeometry):
    """The caches of every (point, layer, group) on one flat axis, the mask
    batches that stream into them, the block length in tokens and each
    point's cache ids [points, layers, groups].

    The (layer, point) pairs go grouped by (k_in, k_mid), layer-major within
    a k, and their caches in that order, group by group, so each token's
    active units come out cache by cache in ascending order.  A mask row
    serves every pair of its layer and k, or its own pair when the scheme is
    cache aware; then a block is one token, as masks follow the previous
    token's replay.  Otherwise it is _ROW_BLOCK // max(points, mask rows of
    a batch) tokens, so one call takes at most _ROW_BLOCK rows.
    """
    by_k: Dict[Tuple[int, int], List[int]] = {}
    for p, cfg in enumerate(configs):
        by_k.setdefault(cfg.k_values(geo), []).append(p)
    layer, point = (np.array(v, dtype=np.intp) for v in zip(*[
        (l, p) for points in by_k.values() for l in range(geo.num_layers) for p in points]))
    caches = CacheState(np.tile(capacities, len(layer)),
                        np.tile([g.universe for g in groups], len(layer)))
    base = caches.offsets[:-1].reshape(len(layer), len(groups))
    cid = np.empty((len(configs), geo.num_layers, len(groups)), dtype=np.intp)
    cid[point, layer] = np.arange(base.size).reshape(base.shape)
    gamma = np.array([configs[p].gamma for p in point])
    batches, start = [], 0
    for k, points in by_k.items():
        widths = [g.universe if g.always_active
                  else k[0] if g.kind == Group.INPUT_BUNDLE else k[1] for g in groups]
        served = 1 if entry.cache_aware else len(points)  # pairs per mask row
        num_rows = geo.num_layers * len(points) // served
        for r0 in range(0, num_rows, _ROW_BLOCK):
            r1 = min(r0 + _ROW_BLOCK, num_rows)
            s = slice(start + r0 * served, start + r1 * served)
            batches.append(_Batch(
                k, layer[s][::served], np.arange(r1 - r0).repeat(served), point[s], gamma[s],
                np.repeat(base[s], widths, axis=1),
                tuple(base[s, gi, None] + np.arange(g.universe) for gi, g in enumerate(groups)
                      if entry.cache_aware)))
        start += geo.num_layers * len(points)
    widest = max(len(configs), max(len(b.layer) for b in batches))
    block = 1 if entry.cache_aware else max(1, _ROW_BLOCK // widest)
    return caches, batches, block, cid


def _unit_stream(scheme: SchemeConfig, weights: Optional[Sequence[MlpWeights]],
                 acts: np.ndarray, caches: CacheState, batches: Sequence[_Batch],
                 block: int, groups: Sequence[GroupSpec], geo: ModelGeometry,
                 errors: Optional[np.ndarray]):
    """Stage 1: per token, the flat ids of every point's active units, cache
    by cache in ascending order, each cache's in admission order.

    Each batch builds its rows' masks over a block in one call, row-major
    with one MlpWeights per (row, token), so a layer's weights serve one
    run.  Cache-aware masks read the residency when their one-token block is
    requested, after the previous token's replay.  The kernel_eval dense
    reference is made per layer for _ROW_BLOCK // points tokens, and errors
    [points, tokens, layers] gets each error once its masks exist.
    """
    entry = SCHEMES[scheme.name]
    span = block if errors is None else max(block, _ROW_BLOCK // len(errors))
    for t0 in range(0, acts.shape[0], span):
        x = acts[t0:t0 + span].transpose(1, 0, 2)  # [layers, tokens, d_model]
        ref = (np.stack([mlp_dense_forward(weights[l], x[l]) for l in range(len(x))])
               if errors is not None else None)
        for i0 in range(0, x.shape[1], block):
            n = min(block, x.shape[1] - i0)
            bits = resident_bitvector(caches) if entry.cache_aware else None
            ids = []
            for b in batches:
                xs = x[b.layer, i0:i0 + n].reshape(-1, geo.d_model)  # row-major
                w = None if weights is None else [weights[l] for l in b.layer.repeat(n)]
                # a cache-aware row, one token long, reads its own pair's caches
                extra = () if bits is None else (*(bits[c] for c in b.cols), b.gamma)
                rows = (entry.rows(scheme, w, xs, *b.k, *extra) if entry.rows
                        else masking.dense_rows(len(xs), geo.d_model, geo.d_ff))
                if errors is not None:
                    glu = rows.glu if rows.glu is not None else glu_activations(
                        w, xs, rows.input_mask)
                    err = rel_l2_rows(ref[b.layer, i0:i0 + n].reshape(xs.shape),
                                      down_projection(w, glu, rows.intermediate_mask))
                    errors[b.point[:, None], t0 + i0 + np.arange(n),
                           b.layer[b.row, None]] = err.reshape(-1, n)[b.row]
                units = _group_units(rows, groups).reshape(len(b.layer), n, -1)[b.row]
                ids.append((units + b.ids[:, None]).transpose(1, 0, 2).reshape(n, -1))
            yield from np.concatenate(ids, axis=1)


def _running_sums(start: float, terms: np.ndarray) -> np.ndarray:
    """start + terms[..., 0] + terms[..., 1] + ..., added left to right as
    a loop would: the order fixes the float sums."""
    first = np.full(terms.shape[:-1] + (1,), start)
    return np.cumsum(np.concatenate([first, terms], axis=-1), axis=-1)[..., -1]


def _report(hits: np.ndarray, misses: np.ndarray, bypassed: np.ndarray,
            groups: Sequence[GroupSpec], static: float, hw: HardwareConfig,
            errors: Optional[np.ndarray]) -> RunReport:
    """Stage 3 for one point: price its per-token, per-layer, per-group
    counts [tokens, layers, groups] into a RunReport.  Static bytes are read
    over DRAM once per token."""
    num_tokens, num_layers, num_groups = hits.shape
    ub = np.array([g.unit_bytes for g in groups])
    # inf is caught below, with the totals
    with np.errstate(over="ignore"):
        flash_units, dram_units = misses * ub, hits * ub
        # a token's bytes add up over (layer, group), a layer's over
        # (token, group)
        by_token = (num_tokens, num_layers * num_groups)
        flash = _running_sums(0.0, flash_units.reshape(by_token))
        dram = _running_sums(static, dram_units.reshape(by_token))
        latency = flash / hw.flash_bandwidth + dram / hw.dram_bandwidth
        by_layer = (num_layers, num_tokens * num_groups)
        layer_flash = _running_sums(0.0, flash_units.transpose(1, 0, 2).reshape(by_layer))
        layer_dram = _running_sums(0.0, dram_units.transpose(1, 0, 2).reshape(by_layer))
    tokens = [TokenCost(*cost) for cost in zip(
        flash.tolist(), dram.tolist(), latency.tolist(),
        *(c.sum(axis=(1, 2)).tolist() for c in (hits, misses, bypassed)))]
    per_layer = [LayerStats(l, *stats) for l, stats in enumerate(zip(
        *(c.sum(axis=(0, 2)).tolist() for c in (hits, misses, bypassed)),
        layer_flash.tolist(), layer_dram.tolist()))]

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
        per_layer=per_layer,
        # errors in (token, layer) order: the order fixes the float sum
        mean_error=float(np.mean(errors.ravel())) if errors is not None and errors.size else None,
    )


def _simulate(trace, weights: Optional[Sequence[MlpWeights]], scheme: SchemeConfig,
              configs: Sequence[SchemeConfig], policy: str, hw: HardwareConfig,
              geo: ModelGeometry, kernel_eval: bool) -> List[RunReport]:
    """The engine: every point of configs (scheme with its own density_mid,
    density_in and gamma) over one trace, in lockstep.  Per token, one
    replay call advances the caches of every point, layer and unit group."""
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
    if entry.rows is not None or kernel_eval:
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
    if not configs:
        return []
    caches, batches, block, cid = _layout(configs, entry, groups, capacities, geo)
    num_tokens = acts.shape[0]

    errors = np.empty((len(configs), num_tokens, geo.num_layers)) if kernel_eval else None
    stream = _unit_stream(scheme, weights, acts, caches, batches, block, groups, geo,
                          errors)
    if policy == "belady":
        stream = list(stream)
        next_use = belady_precompute(stream)
    else:
        next_use = [None] * num_tokens
    counts = np.zeros((3, num_tokens, caches.num_caches), dtype=np.int64)
    for t, (active, upcoming) in enumerate(zip(stream, next_use)):
        counts[:, t] = replay(caches, active, policy, upcoming)
    return [_report(*counts[:, :, cid[p]], groups, static, hw,
                    errors[p] if errors is not None else None)
            for p in range(len(configs))]


def simulate_run(trace, weights: Optional[Sequence[MlpWeights]], scheme: SchemeConfig,
                 policy: str, hw: HardwareConfig, geo: ModelGeometry,
                 kernel_eval: bool = False) -> RunReport:
    """Simulate a full activation trace under one scheme and eviction policy:
    the one-point case of sweep_runs' engine.

    trace supplies activations of shape [num_tokens, num_layers, d_model]
    (a traces.Trace or a bare array).  Caches start cold; first-token misses
    are included in throughput, and steady_state_throughput excludes the
    first token so warm-cache figures can be read off directly.  Masks turn
    into a stream of unit accesses (stage 1) that is replayed through the
    caches (stage 2) and priced (stage 3).  The policy is a name from
    POLICY_NAMES; "belady" reads the whole stream first and hands each
    token's replay its next-use array, and is rejected with SimulationError
    for cache-aware schemes, whose masks depend on cache contents.  kernel_eval
    additionally runs the block forward per token/layer and reports the mean
    relative-L2 error against the dense block.  Raises SimulationError when
    the modelled latency or traffic overflows the float range.
    """
    return _simulate(trace, weights, scheme, [scheme], policy, hw, geo, kernel_eval)[0]


def sweep_runs(trace, weights: Optional[Sequence[MlpWeights]], scheme: SchemeConfig,
               points: Sequence[Tuple[float, Optional[float]]], policy: str,
               hw: HardwareConfig, geo: ModelGeometry,
               kernel_eval: bool = False) -> List[RunReport]:
    """The simulate_run report of every (density, gamma) point, in the order
    given, from one lockstep pass over the trace.

    Each point runs the base scheme with density_mid set to the density,
    density_in back at its default (it follows density_mid), and gamma
    replaced unless the point's gamma is None.  Each point keeps its own
    caches, so its report equals its own simulate_run bit for bit.
    """
    configs = [replace(scheme, density_mid=density, density_in=None,
                       gamma=scheme.gamma if gamma is None else gamma)
               for density, gamma in points]
    return _simulate(trace, weights, scheme, configs, policy, hw, geo, kernel_eval)


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
