"""Per-layer DRAM cache: LFU / LRU / offline-optimal eviction, capacity 0
(the simulator's no-cache policy), hit/miss/bypass accounting, and the
offline policy's optimality against an exhaustive-search oracle."""
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import ReferenceCache, brute_force_best_hits as _brute_force_best_hits

from sparsim import CacheState, belady_precompute, replay


A, B, C = range(3)
UNIVERSE = 5


class Stats(NamedTuple):
    hits: int
    misses: int
    bypassed: int


def _resident(state):
    return set(state.resident.tolist())


def _step(state, active, next_use=None):
    """One token through replay, its counts summed over the caches."""
    return Stats(*(int(v.sum()) for v in replay(state, active, next_use)))


def _run(trace, policy, capacity):
    """Drive a unit-access trace through a fresh cache; returns (stats, state)."""
    state = CacheState(capacity_units=capacity, universe=UNIVERSE, policy=policy)
    next_use = belady_precompute(trace) if policy == "belady" else [None] * len(trace)
    total = Stats(0, 0, 0)
    for active, upcoming in zip(trace, next_use):
        step = _step(state, list(active), upcoming)
        total = Stats(*(a + b for a, b in zip(total, step)))
    return total, state


# ---------------------------------------------------------------------------
# hand-checked examples
# ---------------------------------------------------------------------------

def test_lfu_hand_example():
    # capacity 2, accesses {A,B},{A,C},{A,B}: A's count protects it, so B
    # then C are evicted -> 2 hits (A twice), 4 misses
    stats, state = _run([[A, B], [A, C], [A, B]], "lfu", capacity=2)
    assert (stats.hits, stats.misses) == (2, 4)
    assert _resident(state) == {A, B}


def test_belady_beats_lru_hand_example():
    # trace A,B,C,A,B with capacity 2: at C's miss the optimal policy evicts
    # B (next used at 4, later than A at 3) -> 1 hit; LRU evicts A -> 0 hits
    trace = [[A], [B], [C], [A], [B]]
    belady_stats, _ = _run(trace, "belady", capacity=2)
    lru_stats, _ = _run(trace, "lru", capacity=2)
    assert belady_stats.hits == 1
    assert lru_stats.hits == 0


def test_lru_evicts_least_recently_used():
    # A,B touch, then C forces eviction of A (oldest), so A misses again
    stats, state = _run([[A], [B], [C], [A]], "lru", capacity=2)
    assert stats.hits == 0
    assert _resident(state) == {C, A}


def test_lfu_tie_breaks_by_lru_then_index():
    # equal counts: B older than C, so B goes first
    state = CacheState(capacity_units=2, universe=UNIVERSE, policy="lfu")
    for unit in (B, C, A):
        replay(state, [unit])
    assert _resident(state) == {C, A}


def test_nocache_always_bypasses():
    # nocache is capacity 0, which bypasses every access under any policy
    for kind in ("lfu", "lru", "belady"):
        stats, state = _run([[A, B], [A, B]], kind, capacity=0)
        assert stats.hits == 0
        assert stats.misses == 4
        assert stats.bypassed == 4
        assert _resident(state) == set()


def test_replay_rejects_a_nocache_state():
    # replay takes the three eviction policies: a state made for nocache
    # replays nothing, and the rejected token changes nothing
    state = CacheState(capacity_units=0, universe=UNIVERSE, policy="nocache")
    with pytest.raises(ValueError, match="nocache"):
        replay(state, [A])
    assert state.clock == 0 and not state.is_active.any()


def test_capacity_zero_bypasses_everything():
    stats, state = _run([[A], [A], [B]], "lfu", capacity=0)
    assert (stats.hits, stats.misses, stats.bypassed) == (0, 3, 3)
    assert _resident(state) == set()


def test_active_set_is_never_evicted():
    # capacity 2, both residents active: a third active unit is bypassed
    stats, state = _run([[A, B, C]], "lfu", capacity=2)
    assert stats.bypassed == 1
    assert _resident(state) == {A, B}


def test_admission_order_matters_at_capacity():
    # units are offered in descending priority; the first fills the last slot
    stats1, state1 = _run([[A, B]], "lfu", capacity=1)
    stats2, state2 = _run([[B, A]], "lfu", capacity=1)
    assert _resident(state1) == {A}
    assert _resident(state2) == {B}
    assert stats1.bypassed == stats2.bypassed == 1


# ---------------------------------------------------------------------------
# validation and bookkeeping
# ---------------------------------------------------------------------------

def test_duplicate_active_units_rejected():
    state = CacheState(capacity_units=2, universe=UNIVERSE, policy="lfu")
    with pytest.raises(ValueError):
        replay(state, [A, A])


def test_out_of_range_units_rejected():
    state = CacheState(capacity_units=2, universe=1, policy="lfu")
    with pytest.raises(ValueError):
        replay(state, [B])  # B is outside [0, 1)
    with pytest.raises(ValueError):
        replay(state, [-1])


def test_non_integer_unit_ids_rejected():
    # a cast to int would truncate 0.5 and 2.9 to units 0 and 2, and read
    # [True, False] as units [1, 0]
    for ids in ([0.5, 2.9], np.array([0.0, 1.0]), [True, False], np.array([True]),
                ["0"], [0, None]):
        state = CacheState(2, 4, "lfu")
        with pytest.raises(ValueError):
            replay(state, ids)
        assert state.resident.tolist() == [] and state.clock == 0
        with pytest.raises(ValueError):
            belady_precompute([[1, 2], ids])
    with pytest.raises(ValueError, match="integers"):
        belady_precompute([[0.5, 1]])
    # empty lists stay valid, whatever numpy makes of their type
    state = CacheState(2, 4, "lfu")
    for ids in ([], np.array([]), np.zeros(0, dtype=bool)):
        hits, misses, bypassed = replay(state, ids)
        assert (hits.tolist(), misses.tolist(), bypassed.tolist()) == ([0], [0], [0])
    assert [u.tolist() for u in belady_precompute([[], np.array([]), [3]])] == [[], [], [3]]
    # every integer type is taken as is
    for dtype in (np.int8, np.uint16, np.int64):
        assert replay(CacheState(2, 4, "lfu"), np.array([3, 1], dtype=dtype))[1].tolist() == [2]


@pytest.mark.parametrize("policy,fields", [
    ("lfu", {"freq", "last_use"}), ("lru", {"last_use"}), ("belady", {"next_use"}),
    ("nocache", set())])
def test_cache_state_holds_only_its_policy_fields(policy, fields):
    # the fields its eviction key reads, one int64 per unit; the rest are None
    state = CacheState(capacity_units=[1, 2], universe=[3, 4], policy=policy)
    assert state.policy == policy
    held = {f for f in ("freq", "last_use", "next_use") if getattr(state, f) is not None}
    assert held == fields
    for f in fields:
        assert getattr(state, f).dtype == np.int64 and getattr(state, f).shape == (7,)


@pytest.mark.parametrize("policy,per_unit", [
    ("lfu", 26), ("lru", 18), ("belady", 18), ("nocache", 10)])
def test_cache_state_bytes_per_unit(policy, per_unit):
    # cache_of (int64) and the two bool arrays, 10 bytes a unit, plus 8 for
    # each field the policy reads; what a state holds per cache is a few
    # hundred bytes here
    universe = 1 << 16
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state = CacheState(capacity_units=[8] * 4, universe=[universe // 4] * 4,
                           policy=policy)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert state.universe == universe
    assert per_unit * universe <= held < per_unit * universe + 4096, held / universe


def test_belady_requires_position():
    # Belady needs the token's next-use positions, one per active unit
    trace = [[A], [B, C], [C]]
    next_use = belady_precompute(trace)
    state = CacheState(capacity_units=1, universe=UNIVERSE, policy="belady")
    replay(state, [A], next_use[0])
    with pytest.raises(ValueError, match="next use"):
        replay(state, [B, C])
    with pytest.raises(ValueError, match="next use"):
        replay(state, [B, C], next_use[0])  # one position for two units
    assert state.clock == 1  # a rejected token changes nothing
    replay(state, [B, C], next_use[1])


def test_eviction_policy_validation():
    # a state checks its policy once, when it is made
    for policy in ("random", "LFU", ""):
        with pytest.raises(ValueError, match="unknown policy"):
            CacheState(capacity_units=1, universe=UNIVERSE, policy=policy)
    state = CacheState(capacity_units=1, universe=UNIVERSE, policy="belady")
    with pytest.raises(ValueError, match="next use"):
        replay(state, [A])  # no next-use array
    with pytest.raises(ValueError, match="next use"):
        replay(state, [A], [1, 2])  # wrong length
    assert state.clock == 0 and _resident(state) == set()


def test_next_use_table_semantics():
    # one array per token, aligned with the token's units
    trace = [[A], [B], [A, C], [B]]
    next_use = belady_precompute(trace)
    assert len(next_use) == len(trace)
    assert [u.tolist() for u in next_use] == [
        [2],      # A next at 2: strictly after the current position
        [3],      # B next at 3
        [4, 4],   # neither A nor C is used again: len(trace)
        [4],
    ]
    assert all(u.dtype == np.int64 for u in next_use)
    assert belady_precompute([]) == []
    assert [u.tolist() for u in belady_precompute([[], [C, A], []])] == [[], [3, 3], []]


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@st.composite
def random_trace(draw, max_units=5, max_steps=8):
    n_units = draw(st.integers(min_value=1, max_value=max_units))
    steps = draw(st.integers(min_value=1, max_value=max_steps))
    trace = []
    for _ in range(steps):
        size = draw(st.integers(min_value=1, max_value=n_units))
        sel = draw(st.permutations(range(n_units)))[:size]
        trace.append(list(sel))
    return trace


@given(random_trace(), st.integers(min_value=0, max_value=5),
       st.sampled_from(["lfu", "lru", "belady"]))
@settings(max_examples=120, deadline=None)
def test_capacity_invariant_and_accounting(trace, capacity, kind):
    stats, state = _run(trace, kind, capacity)
    assert len(state.resident) <= capacity
    assert stats.hits + stats.misses == sum(len(t) for t in trace)
    assert stats.bypassed <= stats.misses


@given(random_trace(), st.integers(min_value=0, max_value=5),
       st.sampled_from(["lfu", "lru", "belady"]))
@settings(max_examples=60, deadline=None)
def test_cache_update_is_deterministic(trace, capacity, kind):
    s1, st1 = _run(trace, kind, capacity)
    s2, st2 = _run(trace, kind, capacity)
    assert (s1.hits, s1.misses, s1.bypassed) == (s2.hits, s2.misses, s2.bypassed)
    np.testing.assert_array_equal(st1.resident, st2.resident)
    for field in ("freq", "last_use", "next_use"):
        if getattr(st1, field) is not None:
            np.testing.assert_array_equal(getattr(st1, field)[st1.resident],
                                          getattr(st2, field)[st2.resident])


@st.composite
def oracle_case(draw, max_units=8, max_steps=10):
    """(universe, capacity, trace): capacity anywhere from 0 to the universe,
    each token a random-size active set in random admission order."""
    universe = draw(st.integers(min_value=1, max_value=max_units))
    capacity = draw(st.integers(min_value=0, max_value=universe))
    steps = draw(st.integers(min_value=1, max_value=max_steps))
    trace = []
    for _ in range(steps):
        size = draw(st.integers(min_value=0, max_value=universe))
        trace.append(draw(st.permutations(range(universe)))[:size])
    return universe, capacity, trace


@given(oracle_case(), st.sampled_from(["lfu", "lru", "belady"]))
@settings(max_examples=400, deadline=None)
def test_batch_replay_matches_per_unit_oracle(case, kind):
    universe, capacity, trace = case
    state = CacheState(capacity_units=capacity, universe=universe, policy=kind)
    next_use = belady_precompute(trace) if kind == "belady" else [None] * len(trace)
    ref = ReferenceCache(capacity)
    for pos, active in enumerate(trace):
        stats = _step(state, active, next_use[pos])
        expected = ref.update(active, kind, trace=trace, position=pos)
        assert (stats.hits, stats.misses, stats.bypassed) == expected, f"token {pos}"
        assert _resident(state) == ref.resident, f"token {pos}"
        # the state keeps only the fields its policy reads
        if kind == "lfu":
            assert {u: int(state.freq[u]) for u in ref.resident} == ref.freq
        if kind in ("lfu", "lru"):
            assert {u: int(state.last_use[u]) for u in ref.resident} == ref.last_use


@st.composite
def many_caches_case(draw, max_caches=4, max_units=6, max_steps=8):
    """(universes, capacities, tokens): caches of mixed universes (0 too),
    each with capacity 0, up to its universe, or beyond it; per token, per
    cache, a random-size active set (often empty) in random admission
    order."""
    n = draw(st.integers(min_value=1, max_value=max_caches))
    universes = [draw(st.integers(min_value=0, max_value=max_units)) for _ in range(n)]
    capacities = [draw(st.one_of(st.just(0), st.integers(0, u), st.integers(u, u + 3)))
                  for u in universes]
    steps = draw(st.integers(min_value=1, max_value=max_steps))
    tokens = [[draw(st.permutations(range(u)))[:draw(st.integers(0, u))] for u in universes]
              for _ in range(steps)]
    return universes, capacities, tokens


@given(many_caches_case(), st.sampled_from(["lfu", "lru", "belady"]))
@settings(max_examples=300, deadline=None)
def test_replay_of_many_caches_matches_one_oracle_per_cache(case, kind):
    # one batched replay of every cache equals each cache replayed alone
    universes, capacities, tokens = case
    state = CacheState(capacity_units=capacities, universe=universes, policy=kind)
    offsets = np.concatenate(([0], np.cumsum(universes)))
    flat = [[offsets[c] + u for c, units in enumerate(tok) for u in units] for tok in tokens]
    next_use = belady_precompute(flat) if kind == "belady" else [None] * len(flat)
    refs = [ReferenceCache(cap) for cap in capacities]
    for pos, (tok, active) in enumerate(zip(tokens, flat)):
        hits, misses, bypassed = replay(state, active, next_use[pos])
        resident = state.resident
        for c, units in enumerate(tok):
            expected = refs[c].update(units, kind, trace=[t[c] for t in tokens],
                                      position=pos)
            assert (hits[c], misses[c], bypassed[c]) == expected, f"token {pos} cache {c}"
            mine = resident[(resident >= offsets[c]) & (resident < offsets[c + 1])]
            assert set((mine - offsets[c]).tolist()) == refs[c].resident, \
                f"token {pos} cache {c}"


def _last_clock_that_fits(kind, caches):
    """The largest clock at which every lfu or lru eviction key fits in
    int64: caches * (clock + 1)^2 < 2^63 for lfu, caches * (clock + 1) for lru."""
    most = (2**63 - 1) // caches
    return (math.isqrt(most) if kind == "lfu" else most) - 1


@pytest.mark.parametrize("kind", ["lfu", "lru", "belady"])
def test_replay_past_the_int64_key_bound_matches_one_oracle_per_cache(kind, monkeypatch):
    # lfu and lru start the clock 8 tokens before their keys stop fitting in
    # int64, so the first tokens sort one key and the rest fall back to
    # lexsort.  Belady's key width is the spread of the candidates' next
    # uses, not the clock: a unit never used again gets next use 2^62 (any
    # value past the trace ranks as the oracle's infinity), so a token whose
    # candidates mix it with real positions falls back.
    universes, capacities = [8, 3, 10], [4, 1, 5]
    offsets = np.concatenate(([0], np.cumsum(universes)))
    calls = {"argsort": 0, "lexsort": 0}
    for name in calls:
        def counted(*args, _sort=getattr(np, name), _name=name, **kwargs):
            calls[_name] += 1
            return _sort(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)

    rng = np.random.default_rng(0)
    for case in range(10):
        tokens = [[[int(u) for u in rng.permutation(size)[:rng.integers(0, size // 2 + 2)]]
                   for size in universes] for _ in range(16)]
        flat = [[offsets[c] + u for c, units in enumerate(tok) for u in units]
                for tok in tokens]
        next_use = [None] * len(flat)
        if kind == "belady":
            next_use = [np.where(u == len(flat), 2**62, u) for u in belady_precompute(flat)]
        state = CacheState(capacity_units=capacities, universe=universes, policy=kind)
        refs = [ReferenceCache(cap) for cap in capacities]
        if kind != "belady":
            state.clock = _last_clock_that_fits(kind, len(universes)) - 8
            for ref in refs:
                ref.clock = state.clock
        for pos, (tok, active) in enumerate(zip(tokens, flat)):
            hits, misses, bypassed = replay(state, active, next_use[pos])
            resident = state.resident
            for c, units in enumerate(tok):
                where = f"case {case} token {pos} cache {c}"
                expected = refs[c].update(units, kind, trace=[t[c] for t in tokens],
                                          position=pos)
                assert (hits[c], misses[c], bypassed[c]) == expected, where
                mine = resident[(resident >= offsets[c]) & (resident < offsets[c + 1])]
                assert set((mine - offsets[c]).tolist()) == refs[c].resident, where
                if kind != "belady":
                    assert {u: int(state.last_use[offsets[c] + u])
                            for u in refs[c].resident} == refs[c].last_use, where
                if kind == "lfu":
                    assert {u: int(state.freq[offsets[c] + u])
                            for u in refs[c].resident} == refs[c].freq, where
    assert calls["argsort"] and calls["lexsort"], calls


def test_replay_validates_the_flat_units():
    state = CacheState(capacity_units=[1, 2], universe=[2, 3], policy="lfu")  # ids 0-1, 2-4
    with pytest.raises(ValueError, match="ascending cache order"):
        replay(state, [2, 0])  # cache 1's unit before cache 0's
    with pytest.raises(ValueError, match="outside"):
        replay(state, [5])
    with pytest.raises(ValueError, match="distinct"):
        replay(state, [3, 3])
    with pytest.raises(ValueError):
        CacheState(capacity_units=[1, 2], universe=[2], policy="lfu")
    with pytest.raises(ValueError):
        CacheState(capacity_units=[1, -1], universe=[2, 2], policy="lfu")
    hits, misses, bypassed = replay(state, [1, 0, 4, 2, 3])
    assert (hits.tolist(), misses.tolist(), bypassed.tolist()) == ([0, 0], [2, 3], [1, 1])
    assert state.resident.tolist() == [1, 2, 4]  # first-offered misses admitted


# ---------------------------------------------------------------------------
# optimality of the offline policy
# ---------------------------------------------------------------------------

def test_belady_matches_brute_force_on_single_access_traces():
    # classical demand-paging model (one unit per step): farthest-next-use
    # is provably optimal, so equality with exhaustive search must be exact
    rng = np.random.default_rng(0)
    for trial in range(300):
        n_units = int(rng.integers(2, 6))
        capacity = int(rng.integers(1, 4))
        steps = int(rng.integers(1, 13))
        trace = [[int(rng.integers(n_units))] for _ in range(steps)]
        optimal = _brute_force_best_hits(trace, capacity)
        belady_stats, _ = _run(trace, "belady", capacity)
        lfu_stats, _ = _run(trace, "lfu", capacity)
        lru_stats, _ = _run(trace, "lru", capacity)
        assert belady_stats.hits == optimal, f"trial {trial}: {trace}"
        assert belady_stats.hits >= lfu_stats.hits
        assert belady_stats.hits >= lru_stats.hits


def test_belady_never_beats_brute_force_on_set_access_traces():
    # tokens access *sets* of units atomically, and fully-active residents
    # block eviction (bypass); in that model greedy farthest-next-use is only
    # a heuristic, so it is bounded by the oracle but need not reach it
    rng = np.random.default_rng(2)
    wins = {"lfu": 0, "lru": 0}
    n_trials = 200
    for _ in range(n_trials):
        n_units = int(rng.integers(2, 6))
        capacity = int(rng.integers(1, 4))
        steps = int(rng.integers(1, 7))
        trace = []
        for _ in range(steps):
            size = int(rng.integers(1, n_units + 1))
            sel = rng.permutation(n_units)[:size]
            trace.append([int(i) for i in sel])
        optimal = _brute_force_best_hits(trace, capacity)
        belady_stats, _ = _run(trace, "belady", capacity)
        assert belady_stats.hits <= optimal
        for kind in wins:
            if belady_stats.hits >= _run(trace, kind, capacity)[0].hits:
                wins[kind] += 1
    # statistically dominant even where optimality is not guaranteed
    assert wins["lfu"] >= 0.9 * n_trials
    assert wins["lru"] >= 0.9 * n_trials
    print(f"set-access traces where the offline policy >= lfu/lru: {wins} of {n_trials}")


def test_belady_suboptimal_set_access_counterexample():
    # known limit of the greedy policy under atomic set accesses: at step 2
    # units 0 and 2 tie on next use (both at step 3), the tie-break keeps 2,
    # but keeping 0 would score an extra hit at step 4.  The oracle finds 4
    # hits, the greedy policy 3.  Frozen so any change in behaviour is loud.
    trace = [[C, A], [C], [B], [A, C, B], [A]]
    assert _brute_force_best_hits(trace, capacity=2) == 4
    stats, _ = _run(trace, "belady", capacity=2)
    assert stats.hits == 3


def test_hit_count_is_monotone_in_capacity():
    # the offline policy is provably monotone; the recency/frequency policies
    # can show anomalies in principle, so violations are reported not asserted
    rng = np.random.default_rng(1)
    anomalies = {"lfu": 0, "lru": 0}
    for _ in range(100):
        n_units = int(rng.integers(2, 6))
        steps = int(rng.integers(1, 9))
        trace = []
        for _ in range(steps):
            size = int(rng.integers(1, n_units + 1))
            sel = rng.permutation(n_units)[:size]
            trace.append([int(i) for i in sel])
        hits = {k: [ _run(trace, k, cap)[0].hits for cap in range(n_units + 1)]
                for k in ("belady", "lfu", "lru")}
        assert all(b <= a for b, a in zip(hits["belady"], hits["belady"][1:])), \
            f"offline policy must be monotone in capacity: {hits['belady']}"
        for k in ("lfu", "lru"):
            if any(b > a for b, a in zip(hits[k], hits[k][1:])):
                anomalies[k] += 1
    print(f"capacity-monotonicity anomalies over 100 traces: {anomalies}")
