"""Independent oracles used by the unit and acceptance tests: the per-unit
cache replay that the simulator's batch replay must equal, the per-vector
top-k, GLU, scheme selections, thresholds, per-layer densities and
density-allocation sweep that the row-batched kernels must equal, the
density sweep's per-point formula on those kernels, an
exhaustive search over demand-fill eviction schedules, and a
central-finite-difference gradient checker.  Kept separate from any test
module so both the per-module tests and the acceptance suite share one
implementation."""
import functools
import math

import numpy as np

from sparsim import mlp
from sparsim.calibration import AllocationPoint, memory_fraction


class ReferenceCache:
    """One cache replayed one unit at a time, in admission order.

    Each miss that finds the cache full scans every non-active resident for
    the smallest eviction key: (freq, last_use, unit) for LFU, (last_use,
    unit) for LRU, and for Belady the farthest next use in the trace (never
    used again first), lowest unit on ties.  Evicting a unit drops its freq
    and last_use.  This is the obvious form of sparsim.replay.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.resident = set()
        self.freq = {}
        self.last_use = {}
        self.clock = 0

    def update(self, active, kind, trace=None, position=None):
        """Offer one token's units; returns (hits, misses, bypassed).  Belady
        needs the full trace (one unit collection per token) and the token's
        position in it."""
        self.clock += 1
        active_set = set(active)
        hits = misses = bypassed = 0
        for u in active:
            if u in self.resident:
                hits += 1
                self.freq[u] += 1
                self.last_use[u] = self.clock
                continue
            misses += 1
            if kind == "nocache":
                bypassed += 1
                continue
            if len(self.resident) >= self.capacity:
                candidates = self.resident - active_set
                if not candidates:
                    bypassed += 1
                    continue
                victim = min(candidates, key=lambda v: self._key(v, kind, trace, position))
                self.resident.remove(victim)
                del self.freq[victim]
                del self.last_use[victim]
            self.resident.add(u)
            self.freq[u] = 1
            self.last_use[u] = self.clock
        return hits, misses, bypassed

    def _key(self, u, kind, trace, position):
        if kind == "lfu":
            return (self.freq[u], self.last_use[u], u)
        if kind == "lru":
            return (self.last_use[u], u)
        next_use = next((p for p in range(position + 1, len(trace)) if u in trace[p]),
                        math.inf)
        return (-next_use, u)


def brute_force_best_hits(trace, capacity):
    """Optimal hit count over all demand-fill eviction strategies.

    Every policy in the simulator inserts each missing unit while capacity
    remains and only chooses *which* non-active resident to evict, so the
    oracle searches exactly that decision space.
    """
    trace = [tuple(t) for t in trace]

    @functools.lru_cache(maxsize=None)
    def best(pos, resident):
        if pos == len(trace):
            return 0
        resident = set(resident)
        active = trace[pos]
        hits = sum(1 for u in active if u in resident)
        active_set = set(active)
        # insert misses one at a time, branching over victims when full
        states = {frozenset(resident)}
        for u in active:
            if u in resident:
                continue
            next_states = set()
            for s in states:
                s = set(s)
                if u in s:
                    next_states.add(frozenset(s))
                    continue
                if len(s) < capacity:
                    next_states.add(frozenset(s | {u}))
                    continue
                victims = s - active_set
                if not victims:
                    next_states.add(frozenset(s))  # bypass
                    continue
                for v in victims:
                    next_states.add(frozenset((s - {v}) | {u}))
            states = next_states
        return hits + max(best(pos + 1, s) for s in states)

    return best(0, frozenset())


def fd_worst_rel_err(loss_fn, params, grads, step=1e-5):
    """Worst norm-wise relative error between analytic gradients and central
    finite differences, over a dict of parameter arrays."""
    worst = 0.0
    for name, p in params.items():
        g = grads[name]
        fd = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            lp = loss_fn()
            p[idx] = orig - step
            lm = loss_fn()
            p[idx] = orig
            fd[idx] = (lp - lm) / (2 * step)
            it.iternext()
        denom = max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, np.linalg.norm(g - fd) / denom)
    return worst


# ---------------------------------------------------------------------------
# per-vector masking and block forward
# ---------------------------------------------------------------------------

def topk_order(values, k, magnitude=True):
    """The k largest entries of one vector (by |value| unless
    magnitude=False), largest first, ties to the lower index."""
    v = np.asarray(values, dtype=float).ravel()
    if not 0 <= k <= v.size:
        raise ValueError("k must be in [0, len(values)]")
    key = np.abs(v) if magnitude else v
    return [int(i) for i in np.argsort(-key, kind="stable")[:k]]


def topk_indices(values, k, magnitude=True):
    """Sorted tuple of the top-k indices of one vector."""
    return tuple(sorted(topk_order(values, k, magnitude)))


def keep_mask(dim, active):
    keep = np.zeros(dim, dtype=bool)
    keep[list(active)] = True
    return keep


def silu(v):
    v = np.asarray(v, dtype=float)
    e = np.exp(-np.abs(v))
    return v * np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def glu_activations(w, x, input_keep=None):
    """(up x) * silu(gate x) for one vector, masked inputs zeroed."""
    x = np.asarray(x, dtype=float)
    if input_keep is not None:
        x = np.where(input_keep, x, 0.0)
    return (w.up @ x) * silu(w.gate @ x)


def sparse_forward(w, x, input_keep=None, mid_keep=None):
    h = glu_activations(w, x, input_keep)
    if mid_keep is not None:
        h = np.where(mid_keep, h, 0.0)
    return w.down @ h


# Each scheme's selection for one vector x: (input order, intermediate
# order), the kept units of each side from the largest score down with ties
# to the lower index, which is the order the caches admit them in.  A side
# the scheme keeps dense is every unit in index order.

def dense_orders(d_model, d_ff):
    return list(range(d_model)), list(range(d_ff))


def glu_orders(w, x, k_mid):
    """Keep the k_mid largest |(up x) * silu(gate x)|."""
    return list(range(w.d_model)), topk_order(glu_activations(w, x), k_mid)


def gate_orders(w, x, k_mid):
    """Keep the k_mid largest |silu(gate x)|."""
    return list(range(w.d_model)), topk_order(silu(w.gate @ np.asarray(x, dtype=float)), k_mid)


def up_orders(w, x, k_mid):
    """Keep the k_mid largest |up x|."""
    return list(range(w.d_model)), topk_order(w.up @ np.asarray(x, dtype=float), k_mid)


def predictive_oracle_orders(w, x, k_mid):
    """Predictive pruning with oracle logits |GLU(x)|: the GLU selection."""
    return glu_orders(w, x, k_mid)


def dip_orders(w, x, k_in, k_mid):
    """Keep the k_in largest |x|, then the k_mid largest |GLU| computed from
    the kept inputs only."""
    in_order = topk_order(x, k_in)
    h = glu_activations(w, x, keep_mask(w.d_model, in_order))
    return in_order, topk_order(h, k_mid)


def cache_aware_scores(v, resident, gamma):
    """|v| with non-resident units scaled by gamma, over max |v| (zeros for
    a zero vector)."""
    mag = np.abs(np.asarray(v, dtype=float))
    top = mag.max(initial=0.0)
    if top == 0.0:
        return np.zeros_like(mag)
    return mag * np.where(np.asarray(resident) != 0, 1.0, gamma) / top


def dip_ca_orders(w, x, c_in, c_mid, k_in, k_mid, gamma,
                  reweight_input=True, reweight_intermediate=True):
    """dip_orders on cache-aware scores; a side not re-weighted scores with
    gamma 1 (plain magnitude over the max)."""
    in_scores = cache_aware_scores(x, c_in, gamma if reweight_input else 1.0)
    in_order = topk_order(in_scores, k_in, magnitude=False)
    h = glu_activations(w, x, keep_mask(w.d_model, in_order))
    mid_scores = cache_aware_scores(h, c_mid, gamma if reweight_intermediate else 1.0)
    return in_order, topk_order(mid_scores, k_mid, magnitude=False)


def dip_masks(w, x, k_in, k_mid):
    """Dynamic input pruning of one vector: (input keep, intermediate keep)."""
    in_order, mid_order = dip_orders(w, x, k_in, k_mid)
    return keep_mask(w.d_model, in_order), keep_mask(w.d_ff, mid_order)


def density_to_k(density, dim):
    return max(1, int(np.floor(density * dim + 0.5)))


def sweep_density_allocation(w, inputs, densities_in, densities_mid):
    """(density_in, density_mid, k_in, k_mid, mean error) per grid point,
    one input vector at a time."""
    out = []
    for din in densities_in:
        k_in = density_to_k(din, w.d_model)
        for dmid in densities_mid:
            k_mid = density_to_k(dmid, w.d_ff)
            errs = []
            for x in inputs:
                y_ref = sparse_forward(w, x)
                y = sparse_forward(w, x, *dip_masks(w, x, k_in, k_mid))
                errs.append(float(np.linalg.norm(y - y_ref))
                            / max(float(np.linalg.norm(y_ref)), 1e-12))
            out.append((float(din), float(dmid), k_in, k_mid, float(np.mean(errs))))
    return out


def allocation_points(w, inputs, densities_in, densities_mid):
    """The density sweep's AllocationPoints by the per-point formula on the
    batch kernels: every grid point runs its own masked GLU (the top-k_in
    |x|) and down projection (the top-k_mid |H|) and takes the mean of
    rel_l2_rows against mlp_dense_forward, the masks marked from the stable
    descending argsort.  sweep_density_allocation must equal it bit for
    bit."""
    def keep(keys, k):
        mask = np.zeros(keys.shape, dtype=bool)
        np.put_along_axis(mask, np.argsort(-keys, axis=1, kind="stable")[:, :k], True, axis=1)
        return mask

    xs = np.asarray(inputs, dtype=float)
    dense = mlp.mlp_dense_forward(w, xs)
    points = []
    for din in densities_in:
        k_in = density_to_k(din, w.d_model)
        for dmid in densities_mid:
            k_mid = density_to_k(dmid, w.d_ff)
            h = mlp.glu_activations(w, xs, keep(np.abs(xs), k_in))
            y = mlp.down_projection(w, h, keep(np.abs(h), k_mid))
            points.append(AllocationPoint(
                density_in=float(din), density_mid=float(dmid), k_in=k_in, k_mid=k_mid,
                memory_fraction=memory_fraction(k_in, k_mid, w.d_model, w.d_ff),
                error=float(np.mean(mlp.rel_l2_rows(dense, y)))))
    return points


def threshold_keep(values, spec, layer=0):
    """Keep mask of one vector under a threshold spec: the top
    max(1, round(density * dim)) of |v| for a per-token density, otherwise
    |v| >= the global cutoff or this layer's."""
    v = np.asarray(values, dtype=float)
    if hasattr(spec, "density"):
        k = max(1, int(np.floor(spec.density * v.size + 0.5)))
        return keep_mask(v.size, topk_indices(v, k))
    cutoff = spec.thresholds[layer] if hasattr(spec, "thresholds") else spec.threshold
    return np.abs(v) >= cutoff


def layer_densities(acts, spec):
    """Per layer of acts [tokens, layers, dim], the mean over tokens of each
    token's kept fraction, one token at a time."""
    tokens, layers, dim = np.shape(acts)
    return np.array([
        float(np.mean([np.count_nonzero(threshold_keep(acts[t][l], spec, l)) / dim
                       for t in range(tokens)]))
        for l in range(layers)])
