"""Victim-cache extension (Jouppi 1990 / the paper's y < x remark)."""

from collections import OrderedDict
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_miss_stream, make_random_trace, miss_streams
from repro.cache.directmap import NO_VICTIM
from repro.cache.hierarchy import Policy, l1_miss_stream, replay_stages, simulate_hierarchy
from repro.errors import ConfigurationError
from repro.ext.victim import simulate_victim_cache, victim_buffer_misses
from repro.traces.address import Trace
from repro.units import kb


class _FullyAssociativeLru:
    """Tiny fully-associative LRU buffer of line addresses."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._lines: "OrderedDict[int, None]" = OrderedDict()

    def probe_and_remove(self, line: int) -> bool:
        """True (and remove) if ``line`` is resident."""
        if line in self._lines:
            del self._lines[line]
            return True
        return False

    def insert(self, line: int) -> None:
        if line in self._lines:
            self._lines.move_to_end(line)
            return
        if len(self._lines) >= self.capacity:
            self._lines.popitem(last=False)
        self._lines[line] = None


def reference_victim_counts(stream, warmup_time, victim_lines):
    """The per-event loop the victim-buffer stage replaced, kept as its oracle.

    Returns counted (L1 misses, victim hits, misses below).
    """
    buffer = _FullyAssociativeLru(victim_lines)
    victim_hits = 0
    misses_below = 0
    counted_misses = 0
    for line, victim, time in zip(
        stream.lines.tolist(), stream.victims.tolist(), stream.times.tolist()
    ):
        counted = time >= warmup_time
        counted_misses += counted
        if buffer.probe_and_remove(line):
            victim_hits += counted
        else:
            misses_below += counted
        if victim != NO_VICTIM:
            buffer.insert(victim)
    return counted_misses, victim_hits, misses_below


class TestAgainstReferenceLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        stream=miss_streams(),
        victim_lines=st.integers(1, 6),
        warmup_time=st.one_of(st.just(0), st.integers(1, 160)),
    )
    # Victim 1 re-enters the buffer as its most recent line, so 3 evicts 2, not 1.
    @example(
        stream=make_miss_stream([*range(1, 10), 1], [NO_VICTIM] * 4 + [1, 2, 0, 1, 3, NO_VICTIM]),
        victim_lines=3,
        warmup_time=0,
    )
    def test_stage_matches_loop_on_random_miss_streams(self, stream, victim_lines, warmup_time):
        stage = partial(victim_buffer_misses, victim_lines=victim_lines)
        [(hits, misses)] = replay_stages(stream, [stage], warmup_time)
        expected = reference_victim_counts(stream, warmup_time, victim_lines)
        assert (hits + misses, hits, misses) == expected

    @pytest.mark.parametrize("warmup_fraction", [0.0, 0.25, 0.6])
    @pytest.mark.parametrize("victim_lines", [1, 4, 16])
    def test_simulator_matches_loop_on_traces(self, warmup_fraction, victim_lines, gcc1_tiny):
        for trace, l1_bytes in ((make_random_trace(3, n_lines=48), 128), (gcc1_tiny, kb(4))):
            stats = simulate_victim_cache(
                trace, l1_bytes, victim_lines, warmup_fraction=warmup_fraction
            )
            warmup_time = int(trace.n_instructions * warmup_fraction)
            expected = reference_victim_counts(
                l1_miss_stream(trace, l1_bytes), warmup_time, victim_lines
            )
            assert (stats.l1_misses, stats.victim_hits, stats.misses_below) == expected


def conflict_trace(n_cycles: int = 64) -> Trace:
    """Data stream alternating two lines that share an L1 set."""
    i_addrs = np.zeros(n_cycles, dtype=np.int64)
    d_times = np.arange(n_cycles, dtype=np.int64)
    # For a 64 B (4-set) L1: lines 5 and 9 both map to set 1.
    d_lines = np.where(d_times % 2 == 0, 5, 9)
    return Trace("conflict", i_addrs, d_lines * 16, d_times)


class TestSemantics:
    def test_absorbs_simple_conflict_completely(self):
        trace = conflict_trace()
        stats = simulate_victim_cache(trace, 64, victim_lines=2, warmup_fraction=0.5)
        # Every post-warmup data miss swaps with the victim buffer.
        assert stats.victim_hit_rate == pytest.approx(1.0)
        assert stats.miss_rate_below == pytest.approx(0.0)

    def test_single_entry_buffer_still_works_for_two_way_pingpong(self):
        trace = conflict_trace()
        stats = simulate_victim_cache(trace, 64, victim_lines=1, warmup_fraction=0.5)
        assert stats.victim_hits == stats.l1_misses

    def test_no_victims_no_hits_on_cold_stream(self):
        # Strictly sequential lines never conflict, so the buffer only
        # ever receives cold-fill victims (none) and can never hit.
        i_addrs = np.arange(64, dtype=np.int64) * 16
        trace = Trace("seq", i_addrs, np.array([]), np.array([]))
        stats = simulate_victim_cache(trace, 64, victim_lines=4, warmup_fraction=0.0)
        assert stats.victim_hits == 0

    def test_validation(self, gcc1_tiny):
        with pytest.raises(ConfigurationError):
            simulate_victim_cache(gcc1_tiny, kb(4), victim_lines=0)
        with pytest.raises(ConfigurationError):
            simulate_victim_cache(gcc1_tiny, kb(4), warmup_fraction=1.5)


class TestAgainstExclusiveTinyL2:
    def test_bigger_buffer_never_hurts(self, gcc1_tiny):
        rates = [
            simulate_victim_cache(gcc1_tiny, kb(4), victim_lines=n).miss_rate_below
            for n in (1, 4, 16, 64)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_l1_misses_match_plain_hierarchy(self, gcc1_tiny):
        """The buffer never changes L1 contents."""
        vc = simulate_victim_cache(gcc1_tiny, kb(4), victim_lines=8)
        plain = simulate_hierarchy(gcc1_tiny, kb(4))
        assert vc.l1_misses == plain.l1_misses

    def test_fully_associative_buffer_beats_dm_equivalent(self, gcc1_tiny):
        """The paper calls exclusive y<x 'a shared direct-mapped victim
        cache'; the genuine fully-associative buffer of the same
        capacity must do at least as well on conflict traffic."""
        lines = 64  # 1 KB worth of 16 B lines
        vc = simulate_victim_cache(gcc1_tiny, kb(4), victim_lines=lines)
        excl = simulate_hierarchy(
            gcc1_tiny, kb(4), lines * 16, 1, Policy.EXCLUSIVE
        )
        assert vc.miss_rate_below <= excl.global_miss_rate + 1e-3
