"""Property tests: the set-associative cache against a model oracle and
the frozen numpy cache, and the exclusivity invariant of the swap policy."""

import ast
import inspect
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cache_reference as reference
from cache_reference import ReferenceDirectMapped, ReferenceSetAssociativeCache
from conftest import make_random_trace
from repro.cache.directmap import NO_VICTIM
from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import Policy, l1_miss_stream
from repro.cache.l2 import INVALID, SetAssociativeCache
from repro.cache.replacement import LruReplacement
from repro.ext.associative_l1 import evaluate_associative_l1
from repro.ext.unified_l1 import compare_split_vs_unified
from repro.lfsr import Lfsr16
from repro.units import kb


class ModelCache:
    """Oracle: an LRU set-associative cache as a dict of lists."""

    def __init__(self, n_sets: int, assoc: int) -> None:
        self.n_sets = n_sets
        self.assoc = assoc
        self.sets = {index: [] for index in range(n_sets)}

    def lookup(self, line: int) -> bool:
        bucket = self.sets[line % self.n_sets]
        if line in bucket:
            bucket.remove(line)
            bucket.insert(0, line)
            return True
        return False

    def fill(self, line: int):
        bucket = self.sets[line % self.n_sets]
        if line in bucket:
            bucket.remove(line)
            bucket.insert(0, line)
            return None
        evicted = None
        if len(bucket) >= self.assoc:
            evicted = bucket.pop()
        bucket.insert(0, line)
        return evicted

    def invalidate(self, line: int) -> bool:
        bucket = self.sets[line % self.n_sets]
        if line in bucket:
            bucket.remove(line)
            return True
        return False

    def resident(self):
        return sorted(line for bucket in self.sets.values() for line in bucket)


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "fill", "invalidate"]),
        st.integers(min_value=0, max_value=40),
    ),
    min_size=1,
    max_size=150,
)


class TestAgainstModelOracle:
    @settings(max_examples=120, deadline=None)
    @given(ops=ops_strategy)
    def test_lru_cache_matches_model(self, ops):
        geometry = CacheGeometry(512, associativity=4)  # 8 sets x 4 ways
        cache = SetAssociativeCache(
            geometry, LruReplacement(4, geometry.n_sets)
        )
        model = ModelCache(geometry.n_sets, 4)
        for op, line in ops:
            if op == "lookup":
                assert cache.lookup(line) == model.lookup(line)
            elif op == "fill":
                assert cache.fill(line) == model.fill(line)
            else:
                assert cache.invalidate(line) == model.invalidate(line)
        assert cache.resident_lines().tolist() == model.resident()

    @settings(max_examples=60, deadline=None)
    @given(ops=ops_strategy)
    def test_capacity_invariant_any_policy(self, ops):
        geometry = CacheGeometry(256, associativity=2)
        cache = SetAssociativeCache(geometry)
        for op, line in ops:
            if op == "fill":
                cache.fill(line)
            elif op == "invalidate":
                cache.invalidate(line)
        assert cache.n_valid_lines <= geometry.n_lines
        resident = cache.resident_lines()
        # Every resident line sits in its own set.
        for line in resident.tolist():
            assert line in cache.set_contents(line % geometry.n_sets)


def _cache_pair(replacement, assoc, n_sets=8):
    """The fast cache and the frozen numpy oracle on the same geometry."""
    geometry = CacheGeometry(16 * n_sets * assoc, associativity=assoc)

    def policy():
        if replacement == "lru":
            return LruReplacement(assoc, n_sets)
        return None  # each class's own LFSR default

    return (
        SetAssociativeCache(geometry, policy()),
        ReferenceSetAssociativeCache(geometry, policy()),
    )


def _apply(cache, op, line):
    return getattr(cache, op)(line)


class TestAgainstFrozenNumpyCache:
    def test_oracle_does_not_import_the_fast_cache(self):
        tree = ast.parse(inspect.getsource(reference))
        imported = {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        }
        assert "l2" not in imported and "repro.cache.l2" not in imported

    @settings(max_examples=200, deadline=None)
    @given(
        replacement=st.sampled_from(["lfsr", "lru"]),
        assoc=st.sampled_from([1, 2, 4, 8]),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["lookup", "fill", "invalidate"]),
                st.integers(min_value=0, max_value=80),
            ),
            min_size=1,
            max_size=300,
        ),
    )
    def test_same_answers_and_contents(self, replacement, assoc, ops):
        fast, frozen = _cache_pair(replacement, assoc)
        for op, line in ops:
            assert _apply(fast, op, line) == _apply(frozen, op, line), (op, line)
        assert fast.resident_lines().tolist() == frozen.resident_lines().tolist()
        assert fast.n_valid_lines == frozen.n_valid_lines
        for set_index in range(8):
            assert (
                fast.set_contents(set_index).tolist()
                == frozen.set_contents(set_index).tolist()
            )

    @pytest.mark.parametrize("assoc", [2, 4, 8])
    def test_long_stream_crosses_the_lfsr_period(self, assoc):
        """Enough full-set fills to wrap the LFSR way table at least once."""
        fast, frozen = _cache_pair("lfsr", assoc, n_sets=4)
        rng = random.Random(assoc)
        n_lines = 4 * assoc * 4
        evictions = 0
        while evictions < Lfsr16.period() + 1000:
            line = rng.randrange(n_lines)
            roll = rng.random()
            op = "fill" if roll < 0.85 else "invalidate" if roll < 0.95 else "lookup"
            result = _apply(fast, op, line)
            assert result == _apply(frozen, op, line), (evictions, op, line)
            evictions += op == "fill" and result is not None
        assert fast.resident_lines().tolist() == frozen.resident_lines().tolist()


def replay_per_reference(cache, lines, victims=None):
    """``replay`` spelled out with per-reference calls: the positions that missed."""
    missed = []
    for position, line in enumerate(lines):
        if victims is None:
            if not cache.lookup(line):
                missed.append(position)
                cache.fill(line)
            continue
        if not cache.invalidate(line):
            missed.append(position)
        if victims[position] != NO_VICTIM:
            cache.fill(victims[position])
    return missed


def assert_same_state(fast, frozen, n_sets):
    assert fast.resident_lines().tolist() == frozen.resident_lines().tolist()
    for set_index in range(n_sets):
        assert fast.set_contents(set_index).tolist() == frozen.set_contents(set_index).tolist()


#: A stream of (line, victim) events: victims are lines or NO_VICTIM.
#: Twelve lines per set of the 2-set caches, so hits and evictions mix
#: even in short streams.
events_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=23),
        st.one_of(st.just(NO_VICTIM), st.integers(min_value=0, max_value=23)),
    ),
    min_size=1,
    max_size=300,
)


@st.composite
def l1_miss_events(draw):
    """The merged miss events of a direct-mapped I and D L1: ``(lines, victims)``.

    Each victim is the line its L1 set held before (``NO_VICTIM`` while
    the set is cold).  I and D lines come from two disjoint pools or one
    shared pool; with a shared pool a line can sit in both L1s, so its
    second victimisation finds it already resident in the L2.  With as
    many or more L1 sets than the 2-set L2, each victim maps to the L2
    set of its line, the case the exclusive swap path takes.
    """
    l1_sets = draw(st.sampled_from([1, 2, 4]))
    pool = draw(st.integers(min_value=2, max_value=24))
    shared = draw(st.booleans())
    data_share = draw(st.sampled_from([0.1, 0.5, 0.9]))
    rng = draw(st.randoms(use_true_random=False))
    held_by = ({}, {})
    lines, victims = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=300))):
        is_data = rng.random() < data_share
        line = rng.randrange(pool) + (pool if is_data and not shared else 0)
        held = held_by[is_data].get(line % l1_sets)
        if held != line:
            held_by[is_data][line % l1_sets] = line
            lines.append(line)
            victims.append(NO_VICTIM if held is None else held)
    return lines, victims


def as_input(values, form):
    """``values`` as a Python list, an int32 array or a strided int64 view."""
    if form == "list":
        return values
    if form == "int32":
        return np.array(values, dtype=np.int32)
    padded = np.zeros(2 * len(values), dtype=np.int64)
    padded[::2] = values
    return padded[::2]


class CountingDraws:
    """A replacement policy that counts its victim draws."""

    def __init__(self, policy):
        self.policy, self.draws = policy, 0

    def victim_way(self, set_index):
        self.draws += 1
        return self.policy.victim_way(set_index)

    def touch(self, set_index, way):
        self.policy.touch(set_index, way)


class TestReplay:
    @settings(max_examples=200, deadline=None)
    @given(
        replacement=st.sampled_from(["lfsr", "lru"]),
        assoc=st.sampled_from([1, 2, 4, 8]),
        exclusive=st.booleans(),
        events=events_strategy,
    )
    def test_matches_per_reference_calls(self, replacement, assoc, exclusive, events):
        fast, frozen = _cache_pair(replacement, assoc, n_sets=2)
        lines = [line for line, _ in events]
        victims = [victim for _, victim in events] if exclusive else None
        assert fast.replay(lines, victims).tolist() == replay_per_reference(
            frozen, lines, victims
        )
        assert_same_state(fast, frozen, 2)

    @settings(max_examples=100, deadline=None)
    @given(
        replacement=st.sampled_from(["lfsr", "lru"]),
        assoc=st.sampled_from([2, 4]),
        exclusive=st.booleans(),
        events=events_strategy,
        ops=st.lists(
            st.tuples(
                st.sampled_from(["lookup", "fill", "invalidate"]),
                st.integers(min_value=0, max_value=23),
            ),
            max_size=100,
        ),
    )
    def test_replay_then_per_reference_calls(
        self, replacement, assoc, exclusive, events, ops
    ):
        """Replay leaves the tags, slots, free-way counts and policy state
        exactly where per-reference calls would."""
        fast, frozen = _cache_pair(replacement, assoc, n_sets=2)
        lines = [line for line, _ in events]
        victims = [victim for _, victim in events] if exclusive else None
        fast.replay(lines, victims)
        replay_per_reference(frozen, lines, victims)
        for op, line in ops:
            assert _apply(fast, op, line) == _apply(frozen, op, line), (op, line)
        assert_same_state(fast, frozen, 2)
        assert fast.replay(lines, victims).tolist() == replay_per_reference(
            frozen, lines, victims
        )

    @pytest.mark.parametrize("exclusive", [False, True])
    def test_long_stream_crosses_the_lfsr_period(self, exclusive):
        """More than 65,535 evictions in one replay wrap the LFSR way table."""
        fast, frozen = _cache_pair("lfsr", 4, n_sets=4)
        rng = random.Random(7)
        lines = [rng.randrange(256) for _ in range(90_000)]
        victims = [rng.randrange(256) for _ in lines] if exclusive else None
        evictions = 0
        fill = frozen.fill

        def counting_fill(line):
            nonlocal evictions
            evicted = fill(line)
            evictions += evicted is not None
            return evicted

        frozen.fill = counting_fill
        assert fast.replay(lines, victims).tolist() == replay_per_reference(
            frozen, lines, victims
        )
        assert evictions > Lfsr16.period()
        assert_same_state(fast, frozen, 4)

    @settings(max_examples=200, deadline=None)
    @given(
        replacement=st.sampled_from(["lfsr", "lru"]),
        assoc=st.sampled_from([1, 2, 4, 8]),
        exclusive=st.booleans(),
        form=st.sampled_from(["list", "int32", "strided"]),
        events=l1_miss_events(),
    )
    # A hit from a cold L1 set (no victim) in a full last set, where
    # NO_VICTIM % n_sets names the hit line's own set.
    @example(
        replacement="lfsr", assoc=1, exclusive=True, form="list", events=([5, 1], [1, NO_VICTIM])
    )
    def test_l1_miss_streams_match_per_reference_calls(
        self, replacement, assoc, exclusive, form, events
    ):
        """Missed positions, tag rows, free-way counts and the policy state
        (LFSR cursor or LRU recency) all equal per-reference calls."""
        fast, frozen = _cache_pair(replacement, assoc, n_sets=2)
        frozen.replacement = CountingDraws(frozen.replacement)
        lines, victims = events
        victims = victims if exclusive else None
        missed = fast.replay(
            as_input(lines, form), None if victims is None else as_input(victims, form)
        )
        assert missed.dtype == np.int64
        assert missed.tolist() == replay_per_reference(frozen, lines, victims)
        assert_same_state(fast, frozen, 2)
        assert fast._free == [
            frozen.set_contents(set_index).tolist().count(INVALID) for set_index in range(2)
        ]
        if replacement == "lfsr":
            assert fast.replacement.cursor == frozen.replacement.draws % Lfsr16.period()
        else:
            for set_index in range(2):
                assert fast.replacement.recency_order(set_index) == (
                    frozen.replacement.policy.recency_order(set_index)
                )

    @pytest.mark.parametrize(
        "l2_bytes, exclusive", [(kb(4), True), (kb(64), False)], ids=["exclusive", "conventional"]
    )
    def test_traced_memory_per_event(self, gcc1_full, l2_bytes, exclusive):
        """The stream is read in place: no Python object per event is kept,
        only the cache state and eight bytes per missed position."""
        stream = l1_miss_stream(gcc1_full, kb(1))
        lines, victims = stream.lines[:100_000], stream.victims[:100_000]
        assert len(lines) == 100_000
        cache = SetAssociativeCache(CacheGeometry(l2_bytes, associativity=4))
        tracemalloc.start()
        try:
            cache.replay(lines, victims if exclusive else None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(lines) <= 24


def deleted_unified_loop_misses(trace, per_cache_bytes, assoc, warmup_time):
    """The per-reference LRU loop over the lexsorted merged stream that
    ``compare_split_vs_unified`` ran before its DM prefilter."""
    unified = CacheGeometry(2 * per_cache_bytes, associativity=assoc)
    times = np.concatenate([np.arange(trace.n_instructions), trace.d_times])
    kinds = np.concatenate(
        [np.zeros(trace.n_instructions, dtype=np.int8), np.ones(trace.n_data_refs, dtype=np.int8)]
    )
    order = np.lexsort((kinds, times))
    merged_lines = np.concatenate([trace.i_lines(16), trace.d_lines(16)])[order]
    cache = ReferenceSetAssociativeCache(unified, LruReplacement(assoc, unified.n_sets))
    misses = 0
    for line, time in zip(merged_lines.tolist(), times[order].tolist()):
        if not cache.lookup(line):
            cache.fill(line)
            misses += time >= warmup_time
    return misses


def deleted_associative_loop(trace, l1_bytes, assoc, warmup_time):
    """The per-cycle I/D cursor loop ``evaluate_associative_l1`` ran
    before its DM prefilter: (counted misses, counted data references)."""
    geometry = CacheGeometry(l1_bytes, associativity=assoc)
    icache, dcache = (
        ReferenceSetAssociativeCache(geometry, LruReplacement(assoc, geometry.n_sets))
        for _ in range(2)
    )
    misses = counted_data = d_cursor = 0
    d_lines, d_times = trace.d_lines(16).tolist(), trace.d_times.tolist()
    for cycle, line in enumerate(trace.i_lines(16).tolist()):
        counted = cycle >= warmup_time
        if not icache.lookup(line):
            icache.fill(line)
            misses += counted
        while d_cursor < len(d_lines) and d_times[d_cursor] == cycle:
            if not dcache.lookup(d_lines[d_cursor]):
                dcache.fill(d_lines[d_cursor])
                misses += counted
            counted_data += counted
            d_cursor += 1
    return misses, counted_data


class TestSameSetPrefilter:
    """Dropping the references that hit a same-set-count DM cache is exact."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6), per_cache=st.sampled_from([256, 512]))
    def test_unified_lru_matches_the_deleted_loop(self, seed, per_cache):
        trace = make_random_trace(seed, n_instructions=400, n_lines=96)
        result = compare_split_vs_unified(trace, per_cache, unified_associativity=4)
        warmup_time = int(trace.n_instructions * 0.25)
        assert result.unified_misses == deleted_unified_loop_misses(
            trace, per_cache, 4, warmup_time
        )

    def test_unified_lru_matches_the_deleted_loop_on_a_workload(self, gcc1_tiny):
        result = compare_split_vs_unified(gcc1_tiny, 2048, unified_associativity=4)
        warmup_time = int(gcc1_tiny.n_instructions * 0.25)
        assert result.unified_misses == deleted_unified_loop_misses(
            gcc1_tiny, 2048, 4, warmup_time
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6), assoc=st.sampled_from([2, 4]))
    def test_associative_l1_matches_the_deleted_loop(self, seed, assoc):
        trace = make_random_trace(seed, n_instructions=400, n_lines=96)
        result = evaluate_associative_l1(trace, 512, assoc)
        warmup_time = int(trace.n_instructions * 0.25)
        assert (result.l1_misses, result.n_data_refs) == deleted_associative_loop(
            trace, 512, assoc, warmup_time
        )

    @pytest.mark.parametrize("assoc", [2, 4])
    def test_associative_l1_matches_the_deleted_loop_on_a_workload(self, gcc1_tiny, assoc):
        result = evaluate_associative_l1(gcc1_tiny, 2048, assoc)
        warmup_time = int(gcc1_tiny.n_instructions * 0.25)
        assert (result.l1_misses, result.n_data_refs) == deleted_associative_loop(
            gcc1_tiny, 2048, assoc, warmup_time
        )


class TestExclusivityInvariant:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_no_line_in_both_levels_after_exclusive_run(self, seed):
        """Replay a trace through explicit L1 models + the exclusive L2
        and assert the defining invariant: at the end, no line resides
        in an L1 *and* the L2 via that L1's own traffic.

        (A line victimised by the I-cache may legitimately sit in the
        L2 while the D-cache holds its own copy — the paper's split L1s
        share the L2 — so the invariant is checked per cache.)
        """
        trace = make_random_trace(seed, n_instructions=300, n_lines=48)
        l1_geometry = CacheGeometry(256)  # 16 sets
        icache = ReferenceDirectMapped(l1_geometry.n_sets)
        dcache = ReferenceDirectMapped(l1_geometry.n_sets)
        l2 = SetAssociativeCache(CacheGeometry(1024, associativity=4))

        def touch(cache, line):
            miss, victim = cache.access(line)
            if not miss:
                return
            if l2.lookup(line):
                l2.invalidate(line)
            if victim != -1:
                l2.fill(victim)

        d_cursor = 0
        d_lines = trace.d_lines(16).tolist()
        d_times = trace.d_times.tolist()
        for cycle, line in enumerate(trace.i_lines(16).tolist()):
            touch(icache, line)
            while d_cursor < len(d_lines) and d_times[d_cursor] == cycle:
                touch(dcache, d_lines[d_cursor])
                d_cursor += 1

        resident_l2 = set(l2.resident_lines().tolist())
        # I-stream and D-stream use disjoint address regions in
        # make_random_trace, so per-cache exclusion is checkable.
        i_resident = set(icache.contents.values())
        d_resident = set(dcache.contents.values())
        assert not (i_resident & resident_l2)
        assert not (d_resident & resident_l2)


class TestPolicyOrderings:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_exclusive_never_more_offchip_than_conventional(self, seed):
        from repro.cache.hierarchy import simulate_hierarchy

        trace = make_random_trace(seed, n_instructions=400, n_lines=80)
        conv = simulate_hierarchy(trace, 512, 2048, 4, Policy.CONVENTIONAL)
        excl = simulate_hierarchy(trace, 512, 2048, 4, Policy.EXCLUSIVE)
        # Not a theorem for adversarial traces, but random traces favour
        # capacity: allow a tiny tolerance for replacement noise.
        assert excl.l2_misses <= conv.l2_misses * 1.05 + 2

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        sizes=st.sampled_from([(1024, 4096), (512, 4096), (1024, 8192)]),
    )
    def test_bigger_l2_never_more_offchip(self, seed, sizes):
        from repro.cache.hierarchy import simulate_hierarchy

        l1, l2 = sizes
        trace = make_random_trace(seed, n_instructions=400, n_lines=100)
        small = simulate_hierarchy(trace, l1, l2, 4)
        large = simulate_hierarchy(trace, l1, l2 * 2, 4)
        assert large.l2_misses <= small.l2_misses + 2
