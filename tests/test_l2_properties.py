"""Property tests: the set-associative cache against a model oracle and
the frozen numpy cache, and the exclusivity invariant of the swap policy."""

import ast
import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_trace
from repro.cache import reference
from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import Policy
from repro.cache.l2 import SetAssociativeCache
from repro.cache.reference import ReferenceDirectMapped, ReferenceSetAssociativeCache
from repro.cache.replacement import LruReplacement
from repro.lfsr import Lfsr16


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
