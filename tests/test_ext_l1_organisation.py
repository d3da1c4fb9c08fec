"""Associative-L1 (Hill, ref [3]) and split-vs-unified (intro adv. #1)."""

import gc
import tracemalloc

import pytest

from conftest import MEDIUM, TINY
from repro.cache.geometry import DEFAULT_LINE_SIZE
from repro.cache.hierarchy import l1_miss_stream, simulate_hierarchy
from repro.errors import ConfigurationError
from repro.ext.associative_l1 import evaluate_associative_l1
from repro.ext.unified_l1 import compare_split_vs_unified
from repro.traces.store import get_trace
from repro.units import kb

#: Ceiling on the unified comparison's traced peak over its trace's bytes:
#: it reaches 2.24 (the merged addresses and the filter's run heads), and
#: the ceiling leaves 0.06.
UNIFIED_PEAK_OVER_TRACE = 2.30


class TestAssociativeL1:
    def test_dm_matches_fast_path_miss_rate(self, gcc1_tiny):
        """A=1 must reproduce the vectorised single-level simulation."""
        slow = evaluate_associative_l1(gcc1_tiny, kb(4), 1)
        fast = simulate_hierarchy(gcc1_tiny, kb(4))
        assert slow.l1_misses == fast.l1_misses
        assert slow.n_instructions == fast.n_instructions

    def test_miss_rate_falls_with_associativity(self, gcc1_tiny):
        rates = [
            evaluate_associative_l1(gcc1_tiny, kb(4), a).l1_miss_rate
            for a in (1, 2, 4)
        ]
        assert rates[0] >= rates[1] >= rates[2]

    def test_cycle_time_rises_with_associativity(self, gcc1_tiny):
        cycles = [
            evaluate_associative_l1(gcc1_tiny, kb(4), a).l1_cycle_ns
            for a in (1, 2, 4)
        ]
        assert cycles[0] < cycles[1] <= cycles[2]

    def test_hills_tradeoff_is_present(self, gcc1_tiny):
        """Hill's argument: associativity buys misses with cycle time.
        Whether DM wins depends on the penalty/cycle balance; the
        *tradeoff itself* (slower clock, fewer misses) must show, and
        the associative win must shrink as its time penalty is priced
        in (TPI gain < miss-rate gain)."""
        dm = evaluate_associative_l1(gcc1_tiny, kb(4), 1)
        sa = evaluate_associative_l1(gcc1_tiny, kb(4), 4)
        miss_gain = dm.l1_miss_rate / sa.l1_miss_rate
        tpi_gain = dm.tpi_ns / sa.tpi_ns
        assert tpi_gain < miss_gain

    def test_validation(self, gcc1_tiny):
        with pytest.raises(ConfigurationError):
            evaluate_associative_l1(gcc1_tiny, kb(4), 0)
        with pytest.raises(ConfigurationError):
            evaluate_associative_l1(gcc1_tiny, kb(4), 2, warmup_fraction=1.0)


class TestSplitVsUnified:
    def test_counts_consistent(self, gcc1_tiny):
        result = compare_split_vs_unified(gcc1_tiny, kb(4))
        assert result.n_refs == (
            simulate_hierarchy(gcc1_tiny, kb(4)).n_refs
        )
        assert result.split_misses == simulate_hierarchy(gcc1_tiny, kb(4)).l1_misses

    def test_associative_unified_beats_split(self):
        """The paper's advantage #1 materialises once the mixed cache
        is set-associative — which is exactly what its L2 is."""
        for workload in ("gcc1", "espresso"):
            result = compare_split_vs_unified(
                workload, kb(8), unified_associativity=4, scale=TINY
            )
            assert result.unified_miss_rate < result.split_miss_rate

    def test_dm_unified_can_lose_on_streaming(self):
        """...while a direct-mapped mixed cache lets streaming data
        evict code — half the reason L1s stay split."""
        result = compare_split_vs_unified("tomcatv", kb(8), scale=TINY)
        assert result.unified_miss_rate > result.split_miss_rate
        assert result.unified_advantage < 0

    def test_advantage_sign_convention(self, gcc1_tiny):
        result = compare_split_vs_unified(gcc1_tiny, kb(4), unified_associativity=4)
        assert result.unified_advantage == pytest.approx(
            1.0 - result.unified_misses / result.split_misses
        )

    def test_validation(self, gcc1_tiny):
        with pytest.raises(ConfigurationError):
            compare_split_vs_unified(gcc1_tiny, kb(4), warmup_fraction=-0.1)

    def test_peak_is_a_small_multiple_of_the_trace(self):
        """Past the memoised split streams, comparing gcc1 at ``MEDIUM``
        scale allocates at most ``UNIFIED_PEAK_OVER_TRACE`` times the
        trace's bytes (tracemalloc counts numpy's buffers)."""
        trace = get_trace("gcc1", MEDIUM)
        l1_miss_stream(trace, kb(1), DEFAULT_LINE_SIZE)  # the memo key the comparison uses
        compare_split_vs_unified("gcc1", kb(1), scale=TINY)  # lazy imports, not counted
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            compare_split_vs_unified(trace, kb(1))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        kept = sum(
            array.nbytes for array in (trace.i_addrs, trace.d_addrs, trace.d_times, trace.d_is_store)
        )
        assert peak / kept <= UNIFIED_PEAK_OVER_TRACE
