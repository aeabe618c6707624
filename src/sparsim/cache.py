"""DRAM-cache bookkeeping for streamed weight units.

Weights are managed as units: input bundles (one up+gate column pair),
intermediate bundles (down column, possibly fused with up/gate rows depending
on scheme), and columns of matrices a scheme keeps dense.  Each (layer, unit
group) pair owns one cache, and a unit is named by its index in the group.
Per token, the active units are offered to the cache in descending
selection-score order; residents count as hits, the rest as misses.  Misses
are admitted while capacity remains, evicting only among residents that are
not active this token; when nothing is evictable the miss is bypassed
(streamed without caching).

POLICY_NAMES are the simulator's policies; a CacheState has one.  replay,
the one entry point, takes the three eviction policies: "lfu" (access count
within the current residency span, reset on eviction; ties by recency then
lowest unit index), "lru" (ties by lowest index) and "belady", the offline
oracle (farthest next use, never-used-again first, ties by lowest index).
"nocache" is no cache: the simulator gives every cache capacity 0, which
admits nothing, so every access misses and is bypassed under any policy.

One token is replayed as one batch over arrays indexed by unit.  This equals
offering the units one at a time: a resident that is not active this token
is not touched during the token, so its eviction key stays fixed, and a unit
admitted during the token is active, so it cannot be evicted.  The victims of
the token's misses are therefore the smallest-key non-active residents in key
order, and the misses admitted are the first ones in admission order:

1. hits: active units already resident; bump their count and recency;
2. free slots: capacity minus resident count;
3. evictions: of the misses that find no free slot, as many as there are
   non-active residents evict those with the smallest keys;
4. admission: the first misses, one per free or freed slot;
5. bypass: the remaining misses.

Step 3 ranks the candidates, cache by cache and each cache's by its key,
with one stable argsort of one int64 key.  With C the clock, every
resident's freq and last_use lie in [0, C] (a token offers a unit at most
once), so lfu keys on (cache * (C + 1) + freq) * (C + 1) + last_use and lru
on cache * (C + 1) + last_use.  Belady keys on cache * (M - m + 1) +
(M - next_use), with M and m the largest and smallest next use among the
candidates.  Each key orders its fields lexicographically, cache first, and
the largest is caches * (C + 1)^2 - 1 for lfu, caches * (C + 1) - 1 for lru
and caches * (M - m + 1) - 1 for Belady.  A key that could reach 2^63
(caches * (C + 1)^2 >= 2^63 for lfu: about 3e9 tokens for one cache) does
not fit in int64, and then the fields go to np.lexsort, which gives the
same order.  Candidates ascend by flat id and both sorts are stable, so
ties go to the lowest id.

One CacheState holds many independent caches (a run's layers and unit
groups, and every point of a sweep) over one flat unit axis, each cache a
contiguous range of it, and replay advances them all by one token in one
batch.  This equals advancing each cache on its own.  Caches share no unit,
and every rule above reads only the keys of the cache's own units: the sort
key leads with the cache id, so each cache's candidates keep their own key
order, and victims and admissions are counted within each cache.  The one
thing the caches share is the clock, and a shared clock reads the same as a
private one because every cache advances exactly once per token, with or
without active units.

Belady keys come from belady_precompute, which gives each token an array,
aligned with its units, of each unit's next access position.  replay writes
the token's array into the cache, so a non-active resident holds the next
use after its last access, which is its next use after now: every unit of a
token's trace entry is accessed that token.  One precomputation over the
flat unit axis serves every cache.
"""

from __future__ import annotations

import math
from enum import IntEnum
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "POLICY_NAMES",
    "Group",
    "CacheState",
    "belady_precompute",
    "replay",
]

POLICY_NAMES = ("lfu", "lru", "belady", "nocache")
_EVICTION_POLICIES = POLICY_NAMES[:3]  # what replay takes; nocache is capacity 0


def _check_policy(policy: str) -> None:
    """ValueError unless policy is one of POLICY_NAMES: the one check of a
    policy name, which every CacheState and the CLI's config read make."""
    if policy not in POLICY_NAMES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICY_NAMES}")


# Every eviction key lies below this bound, or the keys go to np.lexsort.
_KEY_LIMIT = 1 << 63


class Group(IntEnum):
    """Unit groups of a layer."""

    INPUT_BUNDLE = 0
    INTERMEDIATE_BUNDLE = 1
    DENSE_CHUNK = 2


class CacheState:
    """Independent caches over one flat unit axis.

    Cache i holds units offsets[i] up to offsets[i + 1] (its group's unit
    indices, shifted by offsets[i]) and at most capacity_units[i] of them.
    capacity_units and universe give one entry per cache, or one int each
    for a single cache, whose flat ids are its unit indices.  policy, one of
    POLICY_NAMES, is every cache's, and of the per-unit int64 fields the
    state holds only what that policy reads, exact for resident units: freq
    (lfu; admission resets it, so counts are per residency span), last_use
    (lfu and lru) and next_use (belady); the others are None.  So a unit
    takes 26 bytes for lfu and 18 for lru and belady.  is_resident is
    updated in place, so a view of it follows every replay.  is_active
    marks the token's active units during a replay and is all False
    between replays.  clock advances once per replay (one token).
    """

    def __init__(self, capacity_units, universe, policy: str):
        _check_policy(policy)
        caps = np.atleast_1d(np.asarray(capacity_units, dtype=np.int64))
        sizes = np.atleast_1d(np.asarray(universe, dtype=np.int64))
        if caps.ndim != 1 or caps.shape != sizes.shape:
            raise ValueError("need one capacity per cache universe")
        if (caps < 0).any() or (sizes < 0).any():
            raise ValueError("capacity and universe must be >= 0")
        self.policy = policy
        self.capacity_units = caps
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.cache_of = np.repeat(np.arange(len(sizes)), sizes)
        self.count = np.zeros(len(sizes), dtype=np.int64)  # residents per cache
        self.is_resident = np.zeros(self.universe, dtype=bool)
        self.is_active = np.zeros(self.universe, dtype=bool)
        self.freq, self.last_use, self.next_use = (  # each with the policies reading it
            np.zeros(self.universe, dtype=np.int64) if policy in readers else None
            for readers in (("lfu",), ("lfu", "lru"), ("belady",)))
        self.clock = 0

    @property
    def num_caches(self) -> int:
        return len(self.capacity_units)

    @property
    def universe(self) -> int:
        """Units of all caches together: the length of the flat axis."""
        return int(self.offsets[-1])

    @property
    def resident(self) -> np.ndarray:
        """Flat ids of the resident units, ascending."""
        return np.flatnonzero(self.is_resident)


def belady_precompute(trace: Sequence[Sequence[int]]) -> List[np.ndarray]:
    """Belady next-use data for a full access trace (the unit indices of
    each token), built in one backward pass: per token, an int64 array
    aligned with its units holding the position of each unit's next access
    (len(trace) when it is never accessed again).  Unit ids must be
    integers: float and bool ids are a ValueError."""
    units = [_unit_ids(t) for t in trace]
    size = max((int(u.max()) + 1 for u in units if u.size), default=0)
    upcoming = np.full(size, len(units), dtype=np.int64)
    next_use = [None] * len(units)
    for pos in range(len(units) - 1, -1, -1):
        next_use[pos] = upcoming[units[pos]]
        upcoming[units[pos]] = pos
    return next_use


def _unit_ids(units) -> np.ndarray:
    """units as an intp array; ValueError for float, bool or other
    non-integer ids, which a cast would truncate or read as 0 and 1.  An
    empty sequence is valid whatever its type."""
    ids = np.asarray(units)
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"unit ids must be integers, got {ids.dtype}")
    return ids.astype(np.intp, copy=False)


def _leading(counts: np.ndarray, taken: np.ndarray) -> np.ndarray:
    """Per entry of an array that goes cache by cache (counts entries per
    cache), whether it is among the first taken of its cache's."""
    return np.arange(counts.sum()) < np.repeat(np.cumsum(counts) - counts + taken, counts)


def replay(state: CacheState, active_units: Sequence[int],
           next_use: Optional[Sequence[int]] = None):
    """Advance every cache of state by one token, in place, under its
    policy: "lfu", "lru" or "belady" (a nocache state is a ValueError).

    active_units holds the token's active flat unit ids cache by cache, in
    ascending cache order, each cache's in admission order (descending
    priority); a cache may have none.  Ids must be integers: float and
    bool ids are a ValueError.  Returns (hits, misses, bypassed), int
    arrays with one count per cache.  next_use, aligned with active_units,
    is this token's entry of belady_precompute; required for the Belady
    policy, ignored otherwise.
    """
    policy = state.policy
    if policy not in _EVICTION_POLICIES:
        raise ValueError(f"replay takes {_EVICTION_POLICIES} states, not {policy!r}")
    active = _unit_ids(active_units)
    if active.ndim != 1:
        raise ValueError("active units must be a flat sequence of unit indices")
    if active.size and (active.min() < 0 or active.max() >= state.universe):
        raise ValueError(f"unit index outside the cache universe [0, {state.universe})")
    owner = state.cache_of[active]
    if (owner[1:] < owner[:-1]).any():
        raise ValueError("active units must go cache by cache, in ascending cache order")
    if policy == "belady" and (next_use is None or np.shape(next_use) != active.shape):
        raise ValueError("belady eviction needs one next use per active unit")
    is_active = state.is_active
    is_active[active] = True
    if np.count_nonzero(is_active) != active.size:
        is_active[active] = False
        raise ValueError("active units must be distinct")
    state.clock += 1
    n = state.num_caches
    resident = state.is_resident

    hit = resident[active]
    # one count per (cache, miss or hit), cache by cache
    n_misses, n_hits = np.bincount(2 * owner + hit, minlength=2 * n).reshape(n, 2).T
    # every active unit is used now: a hit counts one more use and a miss
    # starts at one.  A bypassed miss stays non-resident, and nothing reads
    # a non-resident's fields.
    if policy == "belady":
        state.next_use[active] = next_use
    else:
        if policy == "lfu":
            state.freq[active] = state.freq[active] * hit + 1
        state.last_use[active] = state.clock

    admitted = np.minimum(n_misses, state.capacity_units - state.count)
    short = n_misses - admitted
    if short.any():
        candidates = np.flatnonzero(resident > is_active)  # the non-active residents
        cand_owner = state.cache_of[candidates]
        wanted = short[cand_owner] > 0  # only the short caches evict
        candidates, cand_owner = candidates[wanted], cand_owner[wanted]
        if candidates.size:
            n_cand = np.bincount(cand_owner, minlength=n)
            n_evict = np.minimum(short, n_cand)
            order = _eviction_order(state, candidates, cand_owner)
            resident[candidates[order[_leading(n_cand, n_evict)]]] = False
            state.count -= n_evict
            admitted += n_evict
    is_active[active] = False
    bypassed = n_misses - admitted
    missed = active[~hit]
    resident[missed[_leading(n_misses, admitted)] if bypassed.any() else missed] = True
    state.count += admitted
    return n_hits, n_misses, bypassed


def _eviction_order(state: CacheState, units: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """The order in which the candidates units (ascending flat ids, owner
    their cache ids) are evicted: cache by cache, each cache's by the
    state's policy's eviction key, ties to the lowest id.  The key's fields,
    most significant first, each with its width, make one int64 key for one
    stable argsort, or go to np.lexsort when the key could reach 2^63 (see
    the module docstring)."""
    if state.policy == "belady":  # farthest next use first
        upcoming = state.next_use[units]
        top = int(upcoming.max())
        fields = [(owner, state.num_caches), (top - upcoming, top - int(upcoming.min()) + 1)]
    else:  # the state's fields, lfu's freq then last_use, lie in [0, clock]
        fields = [(owner, state.num_caches)] + [
            (f[units], state.clock + 1) for f in (state.freq, state.last_use) if f is not None]
    if math.prod(w for _, w in fields) >= _KEY_LIMIT:
        return np.lexsort([f for f, _ in reversed(fields)])
    key = fields[0][0]
    for field, width in fields[1:]:
        key = key * width + field
    return np.argsort(key, kind="stable")

