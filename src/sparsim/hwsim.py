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
matrix dense stream it as always-active per-column chunks, with caches and
hit/miss/bypass accounting like any other group.  A scheme without row
masks (dense) keeps every unit: all its groups are always active.

The policy nocache is every cache at capacity 0.  A cache of capacity 0 or
of an always-active group is static: it never has a unit to evict, so its
counts follow in closed form from the units it sees per token, w, and
kept = min(w, capacity): token 0 has 0 hits, w misses and w - kept
bypassed, and every later token kept hits, w - kept misses and w - kept
bypassed.  Only the other caches replay, so every dense and nocache run
replays nothing.

Each scheme is one entry of SCHEMES, and its unit groups, k values, static
charge, mask stream and Belady rejection all read from that entry.

There is one engine, and simulate_run is its one-point case.  sweep_runs
runs every (density, gamma) point of a grid in lockstep: per token, one
replay call advances the live caches of every (point, layer, unit group).
Its mask stream is one loop for every scheme, in batches of mask rows over
every layer, so the layers' weights go as one stack (see mlp); _layout puts
points into batches and tokens into blocks, and lays out once the residency
views that cache-aware masks read.  Each point keeps its own caches, so its
report equals its own simulate_run bit for bit.

kernel_eval computes the dense block forward of each (layer, token) once,
as its reference.  The schemes that keep every input unit (glu, gate, up,
predictive) keep its GLU too, for one block of tokens at a time (see
_unit_stream): glu and predictive score on it, and every such scheme's
output is the down projection of it under the intermediate mask.  Every
row still goes through one gemv per matrix, so reports do not depend on how
rows are batched.  A scheme without row masks is the dense block: its
error is 0, and it reads no weights and runs no forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import (Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from . import masking
from .cache import POLICY_NAMES, CacheState, Group, belady_precompute, replay
from .mlp import MlpWeights, _masked, down_projection, glu_activations, rel_l2_rows

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
        if not math.isfinite(self.total_bytes):
            raise ValueError(f"bytes_per_weight {self.bytes_per_weight} makes the "
                             "model's bytes overflow the float range")

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
    every unit is active every token (dense-kept matrices, and every group of
    a scheme without row masks)."""

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
    scheme keeps dense become always-active column chunks.  Every group of a
    scheme without row masks is always active.
    """
    entry = SCHEMES.get(scheme)
    if entry is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    dm, dff, bpw = geo.d_model, geo.d_ff, geo.bytes_per_weight
    dense = entry.rows is None
    mid = GroupSpec(Group.INTERMEDIATE_BUNDLE, dff, entry.mid_matrices * dm * bpw, dense)
    if entry.input_bundles:
        return (GroupSpec(Group.INPUT_BUNDLE, dm, 2.0 * dff * bpw, dense), mid)
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
        # clamped before int: a tiny unit_bytes makes the quotient inf
        capacities.append(int(min(g.universe, share // g.unit_bytes)))
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
    RowMasks of the rows x over w's stack of layers, as _layout lays them
    out, with k_in and k_mid one int or one per row; None for a scheme that
    keeps every unit, which streams every unit, reads no weights and has
    kernel error 0.  A scheme that keeps every input unit also takes glu=,
    the rows' dense GLU when the caller has it, and glu and predictive
    score on it in place of computing it again.
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
    "glu": Scheme(1, lambda cfg, w, x, k_in, k_mid, glu=None: masking.glu_pruning_rows(
        w, x, k_mid, glu)),
    "gate": Scheme(2, lambda cfg, w, x, k_in, k_mid, glu=None: masking.gate_pruning_rows(
        w, x, k_mid)),
    "up": Scheme(2, lambda cfg, w, x, k_in, k_mid, glu=None: masking.up_pruning_rows(
        w, x, k_mid)),
    # oracle logits |GLU(x)| stand in for a trained predictor: glu's selection
    "predictive": Scheme(3, lambda cfg, w, x, k_in, k_mid, glu=None: masking.glu_pruning_rows(
        w, x, k_mid, glu)),
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


# Rows per mask-building call, per kernel_eval span and per kernel error
# batch: bounds the [rows, d_ff] temporaries to max(_ROW_BLOCK, one token's
# layers) rows, whatever the trace length and the number of points.
_ROW_BLOCK = 256


class _Batch(NamedTuple):
    """One chunk's mask rows, S a token, as _layout lays them out: per_layer
    rows (the chunk's points) of each layer.  k_in and k_mid are one int
    when every pair shares it, else one per pair.  offset[s] is the first
    flat id of pair s's cache of each live group.  Side by side, the live
    groups' mask orders give each row columns of units; keep marks the
    columns within the row's k, or is None when every column is.  When the
    masks read the caches, residency is each group's residency of the rows,
    laid out once by _layout: a live view of the pairs' own caches, or of
    one zero vector for a static group, which holds nothing."""

    per_layer: int      # mask rows per layer and token: the chunk's points
    point: np.ndarray   # int [S]
    k_in: Union[int, np.ndarray]   # int, or int [S]
    k_mid: Union[int, np.ndarray]  # int, or int [S]
    gamma: np.ndarray   # float [S], the point's gamma
    offset: np.ndarray  # int [S, live groups]
    keep: Optional[np.ndarray]  # bool [S * columns], or None
    units: int          # active units of the pairs' caches per token
    residency: List[np.ndarray]  # per group, bool [S, universe] or [universe]


def _width(g: GroupSpec, k: Tuple[int, int]) -> int:
    """Units of group g active every token at k = (k_in, k_mid)."""
    return g.universe if g.always_active else k[0] if g.kind == Group.INPUT_BUNDLE else k[1]


def _layout(configs: Sequence[SchemeConfig], ks: Sequence[Tuple[int, int]], entry: Scheme,
            groups: Sequence[GroupSpec], capacities: Sequence[int], live: np.ndarray,
            geo: ModelGeometry):
    """The caches of every (point, layer, live group) on one flat axis, the
    mask batches that stream into them with their residency views (see
    _Batch), the block length in tokens and each point's cache ids [points,
    layers, live groups]; ks holds each point's (k_in, k_mid).

    The layout rule, stated here once: the points go in chunks of
    consecutive points, one point a chunk when the masks do not read the
    caches, and up to _ROW_BLOCK // layers whatever their k when they do.
    A chunk is one batch: one mask call per block of tokens against the
    stack of layers, with one mask row per (layer, point) pair,
    layer-major, each with its own point's (k_in, k_mid) and gamma.  The
    pairs' caches go in that order, group by group, so each token's active
    units come out cache by cache in ascending order.  live marks the
    groups whose caches replay; a static cache (see the module docstring)
    has no place on the flat axis and no columns in the stream.
    Cache-aware masks follow the previous token's replay, so their blocks
    are one token, unless no cache is live: then the residency they read
    is always zero, and their blocks are as long as the others'.  A block
    is _ROW_BLOCK // max(points, mask rows of a token) tokens, so one call
    takes at most max(_ROW_BLOCK, one token's layers) rows.
    """
    num_layers = geo.num_layers
    cached = [g for g, on in zip(groups, live) if on]
    size = max(1, _ROW_BLOCK // num_layers) if entry.cache_aware else 1
    chunks = [list(range(c, min(c + size, len(ks)))) for c in range(0, len(ks), size)]
    layer, point = (np.array(v, dtype=np.intp) for v in zip(*[
        (l, p) for points in chunks for l in range(num_layers) for p in points]))
    caches = CacheState(np.tile(np.compress(live, capacities), len(layer)),
                        np.tile([g.universe for g in cached], len(layer)))
    follows = entry.cache_aware and caches.num_caches > 0  # masks read a live residency
    base = caches.offsets[:-1].reshape(len(layer), len(cached))
    resident = caches.is_resident.reshape(len(layer), -1)  # a view, one row per pair
    zero = np.zeros(max(g.universe for g in groups), dtype=bool)  # every static residency
    start = np.cumsum([0] + [g.universe * on for g, on in zip(groups, live)])
    cid = np.empty((len(configs), num_layers, len(cached)), dtype=np.intp)
    cid[point, layer] = np.arange(base.size).reshape(base.shape)
    gamma = np.array([configs[p].gamma for p in point])
    width = np.array([[_width(g, k) for g in cached] for k in ks],
                     dtype=np.intp).reshape(len(ks), len(cached))  # per point and live group
    batches = []
    for points in chunks:  # a chunk's rows follow the rows of the points before it
        s = slice(num_layers * points[0], num_layers * (points[-1] + 1))
        k, keep = ks[points[0]], None
        if len({ks[p] for p in points}) > 1:  # a cache-aware chunk of mixed k
            k = np.array(ks, dtype=np.intp)[point[s]].T
            w = width[point[s]]
            top = w.max(axis=0)  # each live group's columns: the chunk's largest k
            position = np.arange(top.sum()) - np.repeat(np.cumsum(top) - top, top)
            keep = (position < w[:, np.repeat(np.arange(len(cached)), top)]).ravel()
        batches.append(_Batch(
            len(points), point[s], *k, gamma[s], base[s], keep,
            num_layers * int(width[points].sum()),
            [resident[s, a:a + g.universe] if on else zero[:g.universe]
             for g, on, a in zip(groups, live, start)] if entry.cache_aware else []))
    rows = num_layers * len(chunks[0])  # the first chunk is the largest
    block = 1 if follows else max(1, _ROW_BLOCK // max(len(configs), rows))
    return caches, batches, block, cid


def _tiled(a: np.ndarray, i0: int, n: int, per_layer: int) -> np.ndarray:
    """Rows [layers * per_layer * n, dim] of a [layers, tokens, dim]: tokens
    i0 to i0 + n of each layer, per_layer times over, layer-major as the
    mask rows of a batch go."""
    return np.tile(a[:, i0:i0 + n], (1, per_layer, 1)).reshape(-1, a.shape[2])


def _score(pending, weights: MlpWeights, ref: np.ndarray, t0: int,
           errors: np.ndarray) -> None:
    """Write the kernel errors of pending mask rows into errors [points,
    tokens, layers].  Each pending entry is (batch, first token of its block
    within the span from t0, tokens, the rows' GLU under their intermediate
    masks).  Every entry's rows go layer-major, so they join one stacked
    down projection, each layer's side by side; each row is still one
    gemv."""
    num_layers, _, d_model = ref.shape
    hm = np.concatenate([h.reshape(num_layers, -1, h.shape[1]) for *_, h in pending], axis=1)
    y_ref = np.concatenate([_tiled(ref, i0, n, b.per_layer).reshape(num_layers, -1, d_model)
                            for b, i0, n, _ in pending], axis=1)
    err = rel_l2_rows(y_ref.reshape(-1, d_model), down_projection(
        weights, hm.reshape(-1, hm.shape[2]))).reshape(num_layers, -1)
    start = 0
    for b, i0, n, _ in pending:
        rows = err[:, start:start + b.per_layer * n].reshape(-1, n)  # [pairs, tokens]
        errors[b.point[:, None], t0 + i0 + np.arange(n),
               np.arange(len(b.point))[:, None] // b.per_layer] = rows
        start += b.per_layer * n


def _unit_stream(scheme: SchemeConfig, weights: Optional[MlpWeights], acts: np.ndarray,
                 batches: Sequence[_Batch], block: int, groups: Sequence[GroupSpec],
                 live: np.ndarray, geo: ModelGeometry, errors: Optional[np.ndarray]):
    """Stage 1: per token, the flat ids of every point's active units in
    the live groups' caches, cache by cache in ascending order, each cache's
    in admission order.  The scheme has row masks, and a cache is live or
    errors is given; with no live cache it yields nothing, and only builds
    the masks that errors needs.

    Each batch builds its rows' masks over a block in one call (see
    _layout).  Cache-aware masks read the batch's residency, the views
    _layout laid out once, when their block is requested: after the
    previous token's replay when a block is one token.  The block's ids go
    into one array, each batch's columns written by _write_ids.

    Under kernel_eval with row masks, errors [points, tokens, layers] gets
    the errors of a span of tokens against the dense reference, one stacked
    forward over the span's layers and tokens; without row masks, errors is
    None.  A scheme that keeps every input unit (glu, gate, up, predictive)
    also keeps the reference's GLU H: glu and predictive score on it, and
    the others' outputs are down @ H under their intermediate masks.  Its
    span is then one block; the other schemes' spans are _ROW_BLOCK //
    (points * layers) tokens.  So the forward, H and each batch's rows stay
    within max(_ROW_BLOCK, one token's layers) rows.  The errors of a span's
    mask rows are computed before its last block is yielded, or sooner when
    more than _ROW_BLOCK rows would wait (_score), so the one-token blocks of
    cache-aware masks share one down projection too, and errors is complete
    once the last token is yielded.
    """
    entry = SCHEMES[scheme.name]
    cached = [g for g, on in zip(groups, live) if on]
    keep_glu = errors is not None and not entry.prunes_input
    span = block if errors is None or keep_glu else max(
        block, _ROW_BLOCK // (len(errors) * geo.num_layers))
    units = sum(b.units for b in batches)
    h = ref = None
    for t0 in range(0, acts.shape[0], span):
        x = acts[t0:t0 + span].transpose(1, 0, 2)  # [layers, tokens, d_model]
        if errors is not None:
            glu = glu_activations(weights, x.reshape(-1, geo.d_model))
            ref = down_projection(weights, glu).reshape(x.shape)
            h = glu.reshape(x.shape[:2] + (geo.d_ff,)) if keep_glu else None
        pending, held = [], 0
        for i0 in range(0, x.shape[1], block):
            n = min(block, x.shape[1] - i0)
            ids, at = np.empty((n, units), dtype=np.intp), 0
            for b in batches:
                m = geo.num_layers * b.per_layer * n  # the batch's rows
                args = [v if np.ndim(v) == 0 else np.repeat(v, n) for v in (b.k_in, b.k_mid)]
                if entry.cache_aware:  # and a residency and gamma per mask row
                    args += [*b.residency, np.repeat(b.gamma, n)]
                hb = None if h is None else _tiled(h, i0, n, b.per_layer)
                rows = entry.rows(scheme, weights, _tiled(x, i0, n, b.per_layer), *args,
                                  **({} if hb is None else {"glu": hb}))
                if errors is not None:
                    if pending and held + m > _ROW_BLOCK:
                        _score(pending, weights, ref, t0, errors)
                        pending, held = [], 0
                    pending.append((b, i0, n, _masked(
                        hb if rows.glu is None else rows.glu, rows.intermediate_mask)))
                    held += m
                if cached:
                    _write_ids(rows, b, cached, n, ids[:, at:at + b.units])
                    at += b.units
            if pending and i0 + n == x.shape[1]:  # the span's errors, before its last tokens
                _score(pending, weights, ref, t0, errors)
            if cached:
                yield from ids


def _write_ids(rows: masking.RowMasks, b: _Batch, cached: Sequence[GroupSpec], n: int,
               out: np.ndarray) -> None:
    """Write into out [tokens, b.units] the flat ids of each token's active
    units in the caches of batch b, pair by pair, group by group, each
    group's in admission order: each pair's mask row's order plus its
    cache's offset, its columns side by side, then one compress keeping the
    columns within each row's k."""
    layers, pairs = len(b.point) // b.per_layer, b.per_layer
    # out.reshape splits out's rows, so it is a view of out
    buf = out.reshape(n, layers, pairs, -1) if b.keep is None else np.empty(
        (n, layers, pairs, len(b.keep) // len(b.point)), dtype=np.intp)
    at, view = 0, buf.transpose(1, 2, 0, 3)  # [layers, pairs, tokens, columns]
    for g, offset in zip(cached, b.offset.T):
        order = rows.input_order if g.kind == Group.INPUT_BUNDLE else rows.intermediate_order
        w = order.shape[1]
        np.add(order.reshape(layers, pairs, n, w),
               offset.reshape(layers, pairs, 1, 1), out=view[..., at:at + w])
        at += w
    if b.keep is not None:
        np.compress(b.keep, buf.reshape(n, -1), axis=1, out=out)


def _running_sums(start, terms: np.ndarray) -> np.ndarray:
    """start + terms[..., 0] + terms[..., 1] + ..., added left to right as
    a loop would: the order fixes the float sums.  start broadcasts
    against terms[..., 0]."""
    first = np.broadcast_to(start, terms.shape[:-1])[..., None]
    return np.cumsum(np.concatenate([first, terms], axis=-1), axis=-1)[..., -1]


def _report(counts: np.ndarray, groups: Sequence[GroupSpec], static: float,
            hw: HardwareConfig, errors: Optional[np.ndarray]) -> RunReport:
    """Stage 3 for one point: price its per-token, per-layer, per-group hit,
    miss and bypass counts [3, tokens, layers, groups] into a RunReport.
    Static bytes are read over DRAM once per token."""
    _, num_tokens, num_layers, num_groups = counts.shape
    ub = np.array([g.unit_bytes for g in groups])
    # inf is caught below, with the totals
    with np.errstate(over="ignore"):
        # flash carries the misses' bytes, DRAM the hits'; a token's bytes
        # add up over (layer, group), a layer's over (token, group)
        traffic = counts[[1, 0]] * ub
        flash, dram = _running_sums(
            [[0.0], [static]], traffic.reshape(2, num_tokens, num_layers * num_groups))
        latency = flash / hw.flash_bandwidth + dram / hw.dram_bandwidth
        layer_flash, layer_dram = _running_sums(0.0, traffic.transpose(0, 2, 1, 3).reshape(
            2, num_layers, num_tokens * num_groups))
    tokens = [TokenCost(*cost) for cost in zip(
        flash.tolist(), dram.tolist(), latency.tolist(), *counts.sum(axis=(2, 3)).tolist())]
    per_layer = [LayerStats(l, *stats) for l, stats in enumerate(zip(
        *counts.sum(axis=(1, 3)).tolist(), layer_flash.tolist(), layer_dram.tolist()))]

    total_latency = sum(tc.latency_s for tc in tokens)
    flash_bytes = sum(tc.flash_bytes for tc in tokens)
    dram_bytes = sum(tc.dram_bytes for tc in tokens)
    if not all(map(math.isfinite, (total_latency, flash_bytes, dram_bytes))):
        raise SimulationError("modelled latency or traffic overflows the float range: "
                              "check the bandwidths and byte sizes")
    # every token reads at least one unit of bytes > 0: a latency of 0 underflowed
    if not (latency > 0).all():
        raise SimulationError("modelled latency of a token underflows to 0: "
                              "check the bandwidths and byte sizes")
    throughput = num_tokens / total_latency if num_tokens else 0.0
    tail_latency = sum(tc.latency_s for tc in tokens[1:])
    steady = (num_tokens - 1) / tail_latency if num_tokens > 1 else throughput
    if not (math.isfinite(throughput) and math.isfinite(steady)):
        raise SimulationError("modelled throughput overflows the float range: "
                              "check the bandwidths and byte sizes")
    total_hits = sum(tc.hits for tc in tokens)
    total_accesses = sum(tc.hits + tc.misses for tc in tokens)
    return RunReport(
        num_tokens=num_tokens,
        tokens=tokens,
        throughput=throughput,
        steady_state_throughput=steady,
        hit_rate=total_hits / total_accesses if total_accesses else 0.0,
        flash_bytes=flash_bytes,
        dram_bytes=dram_bytes,
        per_layer=per_layer,
        # errors in (token, layer) order: the order fixes the float sum
        mean_error=float(np.mean(errors.ravel())) if errors is not None and errors.size else None,
    )


def _static_counts(widths: np.ndarray, capacities: Sequence[int],
                   num_tokens: int) -> np.ndarray:
    """Hit, miss and bypass counts [3, tokens, *widths.shape] of static
    caches with widths [..., groups] units active every token.  No unit is
    ever an eviction candidate, so with kept = min(width, capacity), token 0
    misses all its units and admits kept of them, and every later token hits
    those kept and misses the rest; every miss past kept is bypassed."""
    kept = np.minimum(widths, capacities)
    counts = np.empty((3, num_tokens) + widths.shape, dtype=np.int64)
    counts[:, 1:] = np.stack([kept, widths - kept, widths - kept])[:, None]
    counts[:, :1] = np.stack([0 * kept, widths, widths - kept])[:, None]
    return counts


def _simulate(trace, weights: Optional[MlpWeights], scheme: SchemeConfig,
              configs: Sequence[SchemeConfig], policy: str, hw: HardwareConfig,
              geo: ModelGeometry, kernel_eval: bool) -> List[RunReport]:
    """The engine: every point of configs (scheme with its own density_mid,
    density_in and gamma) over one trace, in lockstep.  Per token, one
    replay call advances the live caches of every point, layer and unit
    group.  nocache gives every cache capacity 0.  Static caches (see the
    module docstring) are priced in closed form (_static_counts), so a run
    without a live cache lays out no stream, runs no replay and no Belady
    precompute, and builds masks only to score them under kernel_eval."""
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
    shape = (geo.num_layers, geo.d_ff, geo.d_model)
    if entry.rows is not None and (not isinstance(weights, MlpWeights)
                                   or weights.up.shape != shape):
        raise SimulationError(f"scheme needs MlpWeights stacked as [layers, d_ff, d_model] "
                              f"= {list(shape)}, one block per layer")

    static = geo.static_bytes
    if entry.mid_matrices == 3:
        static += predictor_static_bytes(geo, scheme.predictor_hidden)
    groups = scheme_groups(scheme.name, geo)
    capacities = allocate_dram(hw, geo, groups, static_bytes=static)
    if policy == "nocache":  # allocate_dram has checked that the static set fits
        capacities = (0,) * len(groups)
    if not configs:
        return []
    live = np.array([cap > 0 and not g.always_active for g, cap in zip(groups, capacities)],
                    dtype=bool)
    ks = [cfg.k_values(geo) for cfg in configs]
    num_tokens = acts.shape[0]
    widths = np.array([[_width(g, k) for g in groups] for k in ks])
    counts = _static_counts(np.repeat(widths[:, None], geo.num_layers, axis=1), capacities,
                            num_tokens)  # [3, tokens, points, layers, groups]

    # the dense block's own output has error 0: only row masks are scored
    errors = np.zeros((len(configs), num_tokens, geo.num_layers)) if kernel_eval else None
    scored = errors if entry.rows is not None else None
    if live.any() or scored is not None:
        caches, batches, block, cid = _layout(configs, ks, entry, groups, capacities, live, geo)
        stream = _unit_stream(scheme, weights, acts, batches, block, groups, live, geo,
                              scored)
        next_use = [None] * num_tokens
        if policy == "belady" and caches.num_caches:
            stream = list(stream)
            next_use = belady_precompute(stream)
        replayed = np.zeros((3, num_tokens, caches.num_caches), dtype=np.int64)
        # without a live cache the stream yields nothing, and runs only for kernel_eval
        for t, (active, upcoming) in enumerate(zip(stream, next_use)):
            replayed[:, t] = replay(caches, active, policy, upcoming)
        counts[..., live] = replayed[:, :, cid]
    return [_report(counts[:, :, p], groups, static, hw,
                    errors[p] if errors is not None else None)
            for p in range(len(configs))]


def simulate_run(trace, weights: Optional[MlpWeights], scheme: SchemeConfig,
                 policy: str, hw: HardwareConfig, geo: ModelGeometry,
                 kernel_eval: bool = False) -> RunReport:
    """Simulate a full activation trace under one scheme and eviction policy:
    the one-point case of sweep_runs' engine.

    trace supplies activations of shape [num_tokens, num_layers, d_model]
    (a traces.Trace or a bare array), and weights the MlpWeights stacked
    over the layers (traces.synthetic_layer_weights).  Caches start cold;
    first-token misses are included in throughput, and
    steady_state_throughput excludes the first token so warm-cache figures
    can be read off directly.  Masks turn
    into a stream of unit accesses (stage 1) that is replayed through the
    caches (stage 2) and priced (stage 3).  The policy is a name from
    POLICY_NAMES; "belady" reads the whole stream first and hands each
    token's replay its next-use array, and is rejected with SimulationError
    for cache-aware schemes, whose masks depend on cache contents.  kernel_eval
    additionally runs the block forward per token/layer and reports the mean
    relative-L2 error against the dense block; a scheme without row masks
    is the dense block, so its error is 0 and weights may be None.  Raises
    SimulationError when the modelled latency or traffic overflows the
    float range.
    """
    return _simulate(trace, weights, scheme, [scheme], policy, hw, geo, kernel_eval)[0]


def sweep_runs(trace, weights: Optional[MlpWeights], scheme: SchemeConfig,
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
