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

Eviction policies: LFU (access count within the current residency span,
reset on eviction; ties by recency then lowest unit index), LRU (ties by
lowest index), Belady's oracle (farthest next use, never-used-again first,
ties by lowest index), and NoCache (every access misses).

One token is replayed as one batch over arrays indexed by unit.  This equals
offering the units one at a time: a resident that is not active this token
is not touched during the token, so its eviction key stays fixed, and a unit
admitted during the token is active, so it cannot be evicted.  The victims of
the token's misses are therefore the smallest-key non-active residents in key
order, and the misses admitted are the first ones in admission order:

1. hits: active units already resident; bump their count and recency;
2. free slots: capacity minus resident count;
3. evictions: of the misses that find no free slot, as many as there are
   non-active residents evict those with the smallest keys (one lexsort);
4. admission: the first misses, one per free or freed slot;
5. bypass: the remaining misses.

Belady keys come from a next-use table that stores, per access, the position
of the same unit's next access.  Each access writes it into the cache, so a
non-active resident holds the next use after its last access, which is its
next use after now: every unit of a token's trace entry is accessed that
token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "POLICY_NAMES",
    "Group",
    "AccessStats",
    "CacheState",
    "NextUseTable",
    "belady_precompute",
    "EvictionPolicy",
    "cache_update",
    "resident_bitvector",
]

POLICY_NAMES = ("lfu", "lru", "belady", "nocache")


class Group(IntEnum):
    """Unit groups of a layer."""

    INPUT_BUNDLE = 0
    INTERMEDIATE_BUNDLE = 1
    DENSE_CHUNK = 2


@dataclass
class AccessStats:
    """Hit/miss counters; bypassed is the subset of misses never admitted."""

    hits: int = 0
    misses: int = 0
    bypassed: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def __add__(self, other: "AccessStats") -> "AccessStats":
        return AccessStats(self.hits + other.hits, self.misses + other.misses,
                           self.bypassed + other.bypassed)


@dataclass
class CacheState:
    """Mutable cache of at most capacity_units of a group's universe units.

    Arrays are indexed by unit index.  freq, last_use and next_use are
    defined exactly for resident units; admission resets freq, so LFU counts
    are per residency span.  clock advances once per cache_update call (one
    token).
    """

    capacity_units: int
    universe: int
    is_resident: np.ndarray = field(init=False, repr=False)
    freq: np.ndarray = field(init=False, repr=False)
    last_use: np.ndarray = field(init=False, repr=False)
    next_use: np.ndarray = field(init=False, repr=False)
    clock: int = 0

    def __post_init__(self):
        if self.capacity_units < 0:
            raise ValueError("capacity must be >= 0")
        self.is_resident = np.zeros(self.universe, dtype=bool)
        self.freq = np.zeros(self.universe, dtype=np.int64)
        self.last_use = np.zeros(self.universe, dtype=np.int64)
        self.next_use = np.zeros(self.universe, dtype=np.int64)

    @property
    def resident(self) -> np.ndarray:
        """Indices of the resident units, ascending."""
        return np.flatnonzero(self.is_resident)


@dataclass(frozen=True)
class NextUseTable:
    """Belady next-use data for one cache's access trace.

    units[t] holds the units accessed at position t and next_use[t], aligned
    with it, the position of each unit's next access (length when it is never
    accessed again).
    """

    units: List[np.ndarray]
    next_use: List[np.ndarray]

    @property
    def length(self) -> int:
        return len(self.units)


def belady_precompute(trace: Sequence[Sequence[int]]) -> NextUseTable:
    """Next-use table for a full access trace (the unit indices of each
    token), built in one backward pass; memory is linear in the accesses."""
    units = [np.asarray(t, dtype=np.intp) for t in trace]
    size = max((int(u.max()) + 1 for u in units if u.size), default=0)
    upcoming = np.full(size, len(units), dtype=np.int64)
    next_use = [None] * len(units)
    for pos in range(len(units) - 1, -1, -1):
        next_use[pos] = upcoming[units[pos]]
        upcoming[units[pos]] = pos
    return NextUseTable(units, next_use)


@dataclass(frozen=True)
class EvictionPolicy:
    kind: str
    next_use: Optional[NextUseTable] = None

    def __post_init__(self):
        if self.kind not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.kind!r}")
        if self.kind == "belady" and self.next_use is None:
            raise ValueError("belady policy needs a next-use table")

    @classmethod
    def lfu(cls) -> "EvictionPolicy":
        return cls("lfu")

    @classmethod
    def belady(cls, table: NextUseTable) -> "EvictionPolicy":
        return cls("belady", next_use=table)


def cache_update(state: CacheState, active_units: Sequence[int],
                 policy: EvictionPolicy, position: Optional[int] = None) -> AccessStats:
    """Process one token's active unit indices (ordered by descending
    admission priority) against the cache.  Mutates state in place and
    returns the hit/miss/bypass counts for this token.

    position is the token's index in the precomputed trace; required for the
    Belady policy, ignored otherwise.
    """
    active = np.asarray(active_units, dtype=np.intp)
    if active.ndim != 1:
        raise ValueError("active units must be a flat sequence of unit indices")
    if active.size and (active.min() < 0 or active.max() >= state.universe):
        raise ValueError(f"unit index outside the cache universe [0, {state.universe})")
    is_active = np.zeros(state.universe, dtype=bool)
    is_active[active] = True
    if np.count_nonzero(is_active) != active.size:
        raise ValueError("active units must be distinct")
    if policy.kind == "belady":
        if position is None:
            raise ValueError("belady eviction needs the current trace position")
        table = policy.next_use
        state.next_use[table.units[position]] = table.next_use[position]
    state.clock += 1

    hit = state.is_resident[active]
    hits = active[hit]
    state.freq[hits] += 1
    state.last_use[hits] = state.clock
    misses = active[~hit]
    stats = AccessStats(hits=hits.size, misses=misses.size)
    if policy.kind == "nocache":
        stats.bypassed = misses.size
        return stats

    admitted = min(misses.size,
                   state.capacity_units - int(np.count_nonzero(state.is_resident)))
    if misses.size > admitted:
        candidates = np.flatnonzero(state.is_resident & ~is_active)
        n_evict = min(misses.size - admitted, candidates.size)
        if n_evict:
            # candidates ascend by index and lexsort is stable, so ties go
            # to the lowest index
            if policy.kind == "lfu":
                keys = (state.last_use[candidates], state.freq[candidates])
            elif policy.kind == "lru":
                keys = (state.last_use[candidates],)
            else:
                keys = (-state.next_use[candidates],)
            victims = candidates[np.lexsort(keys)[:n_evict]]
            state.is_resident[victims] = False
            admitted += n_evict
    admit = misses[:admitted]
    state.is_resident[admit] = True
    state.freq[admit] = 1
    state.last_use[admit] = state.clock
    stats.bypassed = misses.size - admitted
    return stats


def resident_bitvector(state: CacheState) -> np.ndarray:
    """0/1 residency vector over the cache's group, indexed by unit index.

    A live int8 view of the cache's residency: it follows later updates, so
    copy it to keep a snapshot.
    """
    return state.is_resident.view(np.int8)
