"""Strict-inclusion (back-invalidation) ablation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MEDIUM
from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import Policy, simulate_hierarchy
from repro.cache.l2 import SetAssociativeCache
from repro.cache.results import HierarchyStats
from repro.errors import ConfigurationError
from repro.ext.inclusion import simulate_strict_inclusion
from repro.traces.address import Trace
from repro.traces.store import get_trace
from repro.units import kb


def reference_strict_inclusion(
    trace, l1_bytes, l2_bytes, l2_associativity=4, line_size=16, warmup_fraction=0.25
):
    """Oracle: every reference through dict L1s, in program order.

    Each cycle issues its instruction, then its data references; every L1
    miss looks up (and on a miss fills) the L2, and each L2 eviction drops
    the line from whichever L1 still holds it.
    """
    n_sets = CacheGeometry(l1_bytes, line_size=line_size, associativity=1).n_sets
    icache, dcache = {}, {}
    l2 = SetAssociativeCache(
        CacheGeometry(l2_bytes, line_size=line_size, associativity=l2_associativity)
    )
    warmup_time = int(trace.n_instructions * warmup_fraction)
    counts = {"l1i": 0, "l1d": 0, "hits": 0, "misses": 0, "data": 0}

    def reference(cache, line, kind, counted):
        if cache.get(line % n_sets) == line:
            return
        cache[line % n_sets] = line
        counts[kind] += counted
        if l2.lookup(line):
            counts["hits"] += counted
            return
        counts["misses"] += counted
        evicted = l2.fill(line)
        if evicted is not None:
            for l1 in (icache, dcache):
                if l1.get(evicted % n_sets) == evicted:
                    del l1[evicted % n_sets]

    d_lines = trace.d_lines(line_size).tolist()
    d_times = trace.d_times.tolist()
    d_cursor = 0
    for cycle, i_line in enumerate(trace.i_lines(line_size).tolist()):
        counted = cycle >= warmup_time
        reference(icache, i_line, "l1i", counted)
        while d_cursor < len(d_lines) and d_times[d_cursor] == cycle:
            reference(dcache, d_lines[d_cursor], "l1d", counted)
            counts["data"] += counted
            d_cursor += 1
    return HierarchyStats(
        n_instructions=trace.n_instructions - warmup_time,
        n_data_refs=counts["data"],
        l1i_misses=counts["l1i"],
        l1d_misses=counts["l1d"],
        l2_hits=counts["hits"],
        l2_misses=counts["misses"],
        has_l2=True,
    )


@st.composite
def shared_pool_traces(draw):
    """Instruction and data references drawn from one line pool.

    A line can then live in both L1s at once, and a cycle issues up to
    three data references.
    """
    pool = st.integers(0, draw(st.integers(1, 24)))
    cycles = draw(
        st.lists(st.tuples(pool, st.lists(pool, max_size=3)), min_size=1, max_size=80)
    )
    d_lines = [line for _, data in cycles for line in data]
    d_times = [cycle for cycle, (_, data) in enumerate(cycles) for _ in data]
    return Trace(
        "shared",
        np.array([line for line, _ in cycles], dtype=np.int64) * 16,
        np.array(d_lines, dtype=np.int64) * 16,
        np.array(d_times, dtype=np.int64),
    )


class TestAgainstReferenceLoop:
    @settings(max_examples=400, deadline=None)
    @given(
        trace=shared_pool_traces(),
        l1_sets=st.sampled_from([1, 2, 4, 8]),
        l2_sets=st.sampled_from([1, 2, 4, 8]),
        l2_ways=st.sampled_from([1, 2, 4]),
        warmup=st.sampled_from([0.0, 0.25]),
    )
    def test_matches_reference_loop(self, trace, l1_sets, l2_sets, l2_ways, warmup):
        args = (trace, 16 * l1_sets, 16 * l2_sets * l2_ways, l2_ways)
        fast = simulate_strict_inclusion(*args, warmup_fraction=warmup)
        assert fast == reference_strict_inclusion(*args, warmup_fraction=warmup)

    @pytest.mark.parametrize(
        "l1_kb, l2_kb, ways", [(1, 4, 1), (4, 16, 4), (8, 16, 4), (2, 64, 8)]
    )
    def test_matches_reference_loop_on_workload(self, gcc1_tiny, l1_kb, l2_kb, ways):
        args = (gcc1_tiny, kb(l1_kb), kb(l2_kb), ways)
        assert simulate_strict_inclusion(*args) == reference_strict_inclusion(*args)

    def test_line_resident_in_both_l1s_is_invalidated_in_both(self):
        # L1: 1 set; L2: 1 set, 1 way.  Line 1 sits in both L1s until the
        # fetch of line 2 evicts it from the L2, so both next references
        # to line 1 re-miss.
        trace = Trace(
            "both", np.array([1, 1, 2, 1]) * 16, np.array([1, 1]) * 16, np.array([0, 3])
        )
        stats = simulate_strict_inclusion(trace, 16, 16, 1, warmup_fraction=0.0)
        assert stats == reference_strict_inclusion(trace, 16, 16, 1, warmup_fraction=0.0)
        assert (stats.l1i_misses, stats.l1d_misses) == (3, 2)


class TestSemantics:
    def test_back_invalidation_forces_remiss(self):
        """Craft an L2 eviction of an L1-resident line and observe the
        extra L1 miss that strict inclusion causes."""
        # L1: 64 B = 4 sets; L2: 256 B direct-mapped = 16 sets.  Data
        # line 4 sits in the D-cache and in L2 set 4.  Instruction line
        # 20 also maps to L2 set 4 but lives in the *other* L1, so the
        # I-fetch at t2 evicts line 4 from the shared L2 without
        # touching the D-cache naturally — only back-invalidation can
        # remove it.  The D-ref at t4 then re-misses under strict
        # inclusion and hits under the non-inclusive baseline.
        i_addrs = np.array([8, 8, 20 * 16, 8, 8], dtype=np.int64)
        d_addrs = np.array([4 * 16, 4 * 16], dtype=np.int64)
        d_times = np.array([0, 4], dtype=np.int64)
        trace = Trace("incl", i_addrs, d_addrs, d_times)

        strict = simulate_strict_inclusion(
            trace, 64, 256, l2_associativity=1, warmup_fraction=0.0
        )
        baseline = simulate_hierarchy(
            trace, 64, 256, 1, Policy.CONVENTIONAL, warmup_fraction=0.0
        )
        # Baseline: the second D-ref to line 4 hits in the L1 D-cache.
        # Strict inclusion: fetching line 20 evicted line 4 from the L2
        # (both map to L2 set 4) and back-invalidated the D-cache, so
        # the second D-ref misses again.
        assert strict.l1d_misses == baseline.l1d_misses + 1

    def test_requires_l2(self, gcc1_tiny):
        with pytest.raises(ConfigurationError):
            simulate_strict_inclusion(gcc1_tiny, kb(4), 0)

    def test_warmup_validation(self, gcc1_tiny):
        with pytest.raises(ConfigurationError):
            simulate_strict_inclusion(gcc1_tiny, kb(4), kb(16), warmup_fraction=1.0)


class TestAblation:
    def test_inclusion_never_beats_non_inclusive_baseline(self, gcc1_tiny):
        """Back-invalidation can only add L1 misses."""
        strict = simulate_strict_inclusion(gcc1_tiny, kb(4), kb(16))
        baseline = simulate_hierarchy(gcc1_tiny, kb(4), kb(16), 4)
        assert strict.l1_misses >= baseline.l1_misses

    def test_overhead_shrinks_with_l2_size(self, gcc1_tiny):
        """A roomy L2 rarely evicts hot lines, so the inclusion tax
        fades — the Baer-Wang argument for big ratios."""

        def extra_misses(l2_kb):
            strict = simulate_strict_inclusion(gcc1_tiny, kb(4), kb(l2_kb))
            base = simulate_hierarchy(gcc1_tiny, kb(4), kb(l2_kb), 4)
            return strict.l1_misses - base.l1_misses

        assert extra_misses(64) <= extra_misses(8)

    def test_counts_partition(self, gcc1_tiny):
        strict = simulate_strict_inclusion(gcc1_tiny, kb(4), kb(16))
        assert strict.l2_hits + strict.l2_misses == strict.l1_misses


class TestPolicySpectrum:
    """The shape of the three-policy ablation at L2:L1 ratios 2 to 16."""

    @pytest.fixture(scope="class")
    def rows(self):
        trace = get_trace("gcc1", MEDIUM)
        rows = []
        for l2_kb in (16, 32, 64, 128):
            strict = simulate_strict_inclusion(trace, kb(8), kb(l2_kb))
            baseline = simulate_hierarchy(trace, kb(8), kb(l2_kb), 4, Policy.CONVENTIONAL)
            exclusive = simulate_hierarchy(trace, kb(8), kb(l2_kb), 4, Policy.EXCLUSIVE)
            rows.append((strict, baseline, exclusive))
        return rows

    def test_back_invalidation_only_adds_l1_misses(self, rows):
        for strict, baseline, _ in rows:
            assert strict.l1_miss_rate >= baseline.l1_miss_rate - 1e-9

    def test_exclusion_only_removes_offchip_traffic(self, rows):
        for _, baseline, exclusive in rows:
            assert exclusive.global_miss_rate <= baseline.global_miss_rate + 1e-9

    def test_exclusion_advantage_biggest_at_smallest_ratio(self, rows):
        def gap(row):
            _, baseline, exclusive = row
            return baseline.global_miss_rate - exclusive.global_miss_rate

        assert gap(rows[0]) >= gap(rows[-1]) - 1e-9
