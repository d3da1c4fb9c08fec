"""Hierarchy simulation: fast path vs reference oracle, warmup, stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_trace
from repro.cache import hierarchy
from repro.cache.hierarchy import (
    DEFAULT_WARMUP_FRACTION,
    Policy,
    l1_miss_stream,
    simulate_hierarchy,
)
from repro.cache.reference import ReferenceDirectMapped, reference_simulate_hierarchy
from repro.core.config import SystemConfig
from repro.errors import ConfigurationError
from repro.ext import (
    compare_split_vs_unified,
    count_write_traffic,
    evaluate_associative_l1,
    evaluate_with_board_cache,
    simulate_stream_buffer,
    simulate_strict_inclusion,
    simulate_victim_cache,
)
from repro.traces.address import Trace
from repro.units import kb

#: Every simulator that takes ``warmup_fraction``, called on (trace, fraction).
WARMUP_SIMULATORS = {
    "hierarchy": lambda t, f: simulate_hierarchy(t, kb(1), kb(4), warmup_fraction=f),
    "victim": lambda t, f: simulate_victim_cache(t, kb(1), warmup_fraction=f),
    "stream_buffer": lambda t, f: simulate_stream_buffer(t, kb(1), warmup_fraction=f),
    "writes": lambda t, f: count_write_traffic(t, kb(1), kb(4), warmup_fraction=f),
    "inclusion": lambda t, f: simulate_strict_inclusion(t, kb(1), kb(4), warmup_fraction=f),
    "associative_l1": lambda t, f: evaluate_associative_l1(t, kb(1), 2, warmup_fraction=f),
    "unified_l1": lambda t, f: compare_split_vs_unified(t, kb(1), warmup_fraction=f),
    "l3": lambda t, f: evaluate_with_board_cache(
        SystemConfig(l1_bytes=kb(1), l2_bytes=kb(4)), t, warmup_fraction=f
    ),
}


class TestMissStream:
    def test_memoised_per_trace_identity(self, gcc1_tiny):
        a = l1_miss_stream(gcc1_tiny, kb(2))
        b = l1_miss_stream(gcc1_tiny, kb(2))
        assert a is b

    def test_times_sorted(self, gcc1_tiny):
        stream = l1_miss_stream(gcc1_tiny, kb(1))
        assert np.all(np.diff(stream.times) >= 0)

    def test_instruction_before_data_at_same_time(self):
        # Craft a trace where instruction and data miss in the same cycle.
        trace = Trace(
            "t", np.array([0, 16]), np.array([1 << 40]), np.array([0])
        )
        stream = l1_miss_stream(trace, kb(1))
        assert stream.times[0] == stream.times[1] == 0
        assert bool(stream.is_instruction[0]) is True
        assert bool(stream.is_instruction[1]) is False

    def test_counts_add_up(self, gcc1_tiny):
        stream = l1_miss_stream(gcc1_tiny, kb(4))
        assert stream.l1i_misses + stream.l1d_misses == len(stream)
        assert stream.l1i_misses == int(stream.is_instruction.sum())

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6), l1_bytes=st.sampled_from([256, 512]))
    def test_fields_match_reference_hierarchy(self, seed, l1_bytes):
        """Every field against split reference DM caches walked in program order."""
        trace = make_random_trace(seed, n_instructions=300, n_lines=48)
        n_sets = l1_bytes // 16
        icache, dcache = ReferenceDirectMapped(n_sets), ReferenceDirectMapped(n_sets)
        expected = []  # (time, line, victim, is_instruction)
        d_lines, d_times = trace.d_lines(16).tolist(), trace.d_times.tolist()
        d_cursor = 0
        for cycle, line in enumerate(trace.i_lines(16).tolist()):
            miss, victim = icache.access(line)
            if miss:
                expected.append((cycle, line, victim, True))
            while d_cursor < len(d_lines) and d_times[d_cursor] == cycle:
                miss, victim = dcache.access(d_lines[d_cursor])
                if miss:
                    expected.append((cycle, d_lines[d_cursor], victim, False))
                d_cursor += 1
        times = [event[0] for event in expected]
        assert any(a == b for a, b in zip(times, times[1:])), "no same-cycle I and D misses"

        stream = l1_miss_stream(trace, l1_bytes)
        assert stream.times.tolist() == times
        assert stream.lines.tolist() == [event[1] for event in expected]
        assert stream.victims.tolist() == [event[2] for event in expected]
        assert stream.is_instruction.tolist() == [event[3] for event in expected]
        assert stream.l1i_misses == sum(event[3] for event in expected)
        assert stream.l1d_misses == sum(not event[3] for event in expected)
        assert (stream.n_instructions, stream.n_data_refs) == (
            trace.n_instructions,
            trace.n_data_refs,
        )

    def test_larger_cache_fewer_misses(self, gcc1_tiny):
        small = l1_miss_stream(gcc1_tiny, kb(1))
        large = l1_miss_stream(gcc1_tiny, kb(32))
        assert len(large) < len(small)


class TestAgainstReference:
    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("l2_kb,assoc", [(8, 1), (8, 4), (16, 2)])
    def test_matches_reference_on_workload(self, gcc1_tiny, policy, l2_kb, assoc):
        fast = simulate_hierarchy(gcc1_tiny, kb(1), kb(l2_kb), assoc, policy)
        slow = reference_simulate_hierarchy(gcc1_tiny, kb(1), kb(l2_kb), assoc, policy)
        assert fast == slow

    def test_matches_reference_single_level(self, gcc1_tiny):
        fast = simulate_hierarchy(gcc1_tiny, kb(2))
        slow = reference_simulate_hierarchy(gcc1_tiny, kb(2))
        assert fast == slow

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        policy=st.sampled_from(list(Policy)),
        assoc=st.sampled_from([1, 2, 4]),
    )
    def test_matches_reference_on_random_traces(self, seed, policy, assoc):
        trace = make_random_trace(seed, n_instructions=300, n_lines=48)
        fast = simulate_hierarchy(trace, 1024, 4096, assoc, policy)
        slow = reference_simulate_hierarchy(trace, 1024, 4096, assoc, policy)
        assert fast == slow

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("assoc", [2, 4])
    def test_lru_matches_reference_on_workload(self, gcc1_tiny, policy, assoc):
        # The exclusive replay drops a hit with one invalidate and no LRU
        # touch; the oracle still looks up (touching) before invalidating.
        fast = simulate_hierarchy(
            gcc1_tiny, kb(1), kb(8), assoc, policy, l2_replacement="lru"
        )
        slow = reference_simulate_hierarchy(
            gcc1_tiny, kb(1), kb(8), assoc, policy, l2_replacement="lru"
        )
        assert fast == slow

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        policy=st.sampled_from(list(Policy)),
        assoc=st.sampled_from([2, 4, 8]),
    )
    def test_lru_matches_reference_on_random_traces(self, seed, policy, assoc):
        trace = make_random_trace(seed, n_instructions=300, n_lines=48)
        fast = simulate_hierarchy(trace, 512, 2048, assoc, policy, l2_replacement="lru")
        slow = reference_simulate_hierarchy(
            trace, 512, 2048, assoc, policy, l2_replacement="lru"
        )
        assert fast == slow

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_dm_l2_fast_path_matches_loop_semantics(self, seed):
        # The conventional DM L2 uses a vectorised shortcut; the
        # reference exercises the generic stateful path.
        trace = make_random_trace(seed, n_instructions=400, n_lines=80)
        fast = simulate_hierarchy(trace, 512, 2048, 1, Policy.CONVENTIONAL)
        slow = reference_simulate_hierarchy(trace, 512, 2048, 1, Policy.CONVENTIONAL)
        assert fast == slow


class TestWarmup:
    def test_default_warmup_fraction(self):
        assert DEFAULT_WARMUP_FRACTION == 0.25

    def test_counts_cover_post_warmup_window(self, gcc1_tiny):
        stats = simulate_hierarchy(gcc1_tiny, kb(4), warmup_fraction=0.5)
        assert stats.n_instructions == gcc1_tiny.n_instructions - int(
            gcc1_tiny.n_instructions * 0.5
        )

    def test_zero_warmup_counts_everything(self, gcc1_tiny):
        stats = simulate_hierarchy(gcc1_tiny, kb(4), warmup_fraction=0.0)
        assert stats.n_instructions == gcc1_tiny.n_instructions
        assert stats.n_data_refs == gcc1_tiny.n_data_refs

    def test_warmup_lowers_measured_miss_rate(self, gcc1_tiny):
        cold = simulate_hierarchy(gcc1_tiny, kb(16), warmup_fraction=0.0)
        warm = simulate_hierarchy(gcc1_tiny, kb(16), warmup_fraction=0.5)
        assert warm.l1_miss_rate <= cold.l1_miss_rate

    def test_invalid_fraction_rejected(self, gcc1_tiny):
        with pytest.raises(ConfigurationError):
            simulate_hierarchy(gcc1_tiny, kb(4), warmup_fraction=1.0)
        with pytest.raises(ConfigurationError):
            simulate_hierarchy(gcc1_tiny, kb(4), warmup_fraction=-0.1)


@pytest.mark.parametrize("fraction", [-0.5, 1.0, 1.5, float("nan")])
@pytest.mark.parametrize("simulator", sorted(WARMUP_SIMULATORS))
def test_every_simulator_rejects_invalid_warmup_fraction(simulator, fraction):
    with pytest.raises(ConfigurationError, match="warmup_fraction"):
        WARMUP_SIMULATORS[simulator](make_random_trace(0), fraction)


class TestStatsShape:
    def test_single_level_has_no_l2_counts(self, gcc1_tiny):
        stats = simulate_hierarchy(gcc1_tiny, kb(4))
        assert not stats.has_l2
        assert stats.l2_hits == 0
        assert stats.off_chip_fetches == stats.l1_misses

    def test_two_level_partition(self, gcc1_tiny):
        stats = simulate_hierarchy(gcc1_tiny, kb(1), kb(16), 4)
        assert stats.has_l2
        assert stats.l2_hits + stats.l2_misses == stats.l1_misses
        assert stats.off_chip_fetches == stats.l2_misses

    def test_negative_l2_rejected(self, gcc1_tiny, monkeypatch):
        """Rejected before the L1 pass runs, so nothing is filtered or memoised."""
        l1_passes = []
        monkeypatch.setattr(hierarchy, "l1_miss_stream", lambda *args: l1_passes.append(args))
        with pytest.raises(ConfigurationError):
            simulate_hierarchy(gcc1_tiny, kb(1), -4)
        assert l1_passes == []

    def test_l2_strictly_helps_off_chip_traffic(self, gcc1_tiny):
        single = simulate_hierarchy(gcc1_tiny, kb(2))
        two = simulate_hierarchy(gcc1_tiny, kb(2), kb(32), 4)
        assert two.off_chip_fetches <= single.off_chip_fetches

    def test_l1_misses_independent_of_l2(self, gcc1_tiny):
        a = simulate_hierarchy(gcc1_tiny, kb(2), kb(8), 1, Policy.CONVENTIONAL)
        b = simulate_hierarchy(gcc1_tiny, kb(2), kb(64), 4, Policy.EXCLUSIVE)
        assert a.l1i_misses == b.l1i_misses
        assert a.l1d_misses == b.l1d_misses
