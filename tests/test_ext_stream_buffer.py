"""Stream-buffer extension (Jouppi 1990, sequential prefetch)."""

from collections import deque
from functools import partial
from typing import Deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_trace, miss_streams
from repro.cache.hierarchy import l1_miss_stream, replay_stages
from repro.errors import ConfigurationError
from repro.ext.stream_buffer import simulate_stream_buffer, stream_buffer_misses
from repro.traces.address import Trace
from repro.units import kb


class _StreamBuffer:
    """One FIFO of prefetched line addresses."""

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.fifo: Deque[int] = deque()

    def allocate(self, miss_line: int) -> None:
        """Restart the buffer prefetching the lines after ``miss_line``."""
        self.fifo.clear()
        for offset in range(1, self.depth + 1):
            self.fifo.append(miss_line + offset)

    def head_matches(self, line: int) -> bool:
        return bool(self.fifo) and self.fifo[0] == line

    def consume_and_advance(self) -> None:
        """Pop the head and prefetch one more line (steady streaming)."""
        head = self.fifo.popleft()
        self.fifo.append(head + self.depth)


def reference_stream_buffer_counts(stream, warmup_time, n_buffers, buffer_depth):
    """The per-event loop the stream-buffer stage replaced, kept as its oracle.

    Returns counted (I-misses, D-misses, buffer hits, misses below).
    """
    buffers = [_StreamBuffer(buffer_depth) for _ in range(n_buffers)]
    allocation_order: Deque[int] = deque(range(n_buffers))

    buffer_hits = 0
    misses_below = 0
    counted_i = 0
    counted_d = 0
    for line, is_instruction, time in zip(
        stream.lines.tolist(),
        stream.is_instruction.tolist(),
        stream.times.tolist(),
    ):
        counted = time >= warmup_time
        if not is_instruction:
            counted_d += counted
            misses_below += counted
            continue
        counted_i += counted
        for index, buffer in enumerate(buffers):
            if buffer.head_matches(line):
                buffer.consume_and_advance()
                buffer_hits += counted
                # A consumed buffer is the most recently useful one.
                allocation_order.remove(index)
                allocation_order.append(index)
                break
        else:
            misses_below += counted
            victim_index = allocation_order.popleft()
            buffers[victim_index].allocate(line)
            allocation_order.append(victim_index)
    return counted_i, counted_d, buffer_hits, misses_below


class TestAgainstReferenceLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        stream=miss_streams(),
        n_buffers=st.integers(1, 4),
        buffer_depth=st.integers(1, 4),
        warmup_time=st.one_of(st.just(0), st.integers(1, 160)),
    )
    def test_stage_matches_loop_on_random_miss_streams(
        self, stream, n_buffers, buffer_depth, warmup_time
    ):
        stage = partial(stream_buffer_misses, n_buffers=n_buffers)
        [(hits, misses)] = replay_stages(stream, [stage], warmup_time)
        expected = reference_stream_buffer_counts(stream, warmup_time, n_buffers, buffer_depth)
        assert (hits, misses) == expected[2:]

    @pytest.mark.parametrize("warmup_fraction", [0.0, 0.25, 0.6])
    @pytest.mark.parametrize("n_buffers,buffer_depth", [(1, 1), (2, 4), (4, 4)])
    def test_simulator_matches_loop_on_traces(
        self, warmup_fraction, n_buffers, buffer_depth, gcc1_tiny
    ):
        for trace, l1_bytes in ((make_random_trace(5, n_lines=48), 128), (gcc1_tiny, kb(4))):
            stats = simulate_stream_buffer(
                trace, l1_bytes, n_buffers, buffer_depth, warmup_fraction=warmup_fraction
            )
            warmup_time = int(trace.n_instructions * warmup_fraction)
            expected = reference_stream_buffer_counts(
                l1_miss_stream(trace, l1_bytes), warmup_time, n_buffers, buffer_depth
            )
            counts = (stats.l1i_misses, stats.l1d_misses, stats.buffer_hits, stats.misses_below)
            assert counts == expected


def sequential_code_trace(n_lines: int = 200, reps: int = 4) -> Trace:
    """Long sequential instruction sweeps (one fetch per line)."""
    lines = np.tile(np.arange(n_lines, dtype=np.int64), reps)
    return Trace("seq", lines * 16, np.array([]), np.array([]))


class TestSemantics:
    def test_sequential_stream_almost_fully_prefetched(self):
        # A 64 B L1 cannot hold the 200-line sweep; the stream buffer
        # catches everything after the first miss of each sweep.
        trace = sequential_code_trace()
        stats = simulate_stream_buffer(
            trace, 64, n_buffers=1, buffer_depth=4, warmup_fraction=0.5
        )
        assert stats.buffer_hit_rate > 0.95

    def test_random_stream_gets_no_benefit(self):
        rng = np.random.default_rng(7)
        lines = rng.permutation(np.arange(2, 4000, 2))  # never sequential
        trace = Trace("rand", lines * 16, np.array([]), np.array([]))
        stats = simulate_stream_buffer(trace, 64, warmup_fraction=0.0)
        assert stats.buffer_hit_rate < 0.02

    def test_data_misses_pass_through(self):
        i = np.zeros(50, dtype=np.int64)
        d = np.arange(50, dtype=np.int64) * 16 + (1 << 40)
        trace = Trace("d", i, d, np.arange(50, dtype=np.int64))
        stats = simulate_stream_buffer(trace, 64, warmup_fraction=0.0)
        # every data miss continues below; the single I-miss too
        assert stats.misses_below == stats.l1d_misses + stats.l1i_misses

    def test_interleaved_streams_need_multiple_buffers(self):
        # Two alternating sequential streams: one buffer thrashes, two
        # buffers track both.
        a = np.arange(100, dtype=np.int64)        # lines 0..99
        b = np.arange(100, dtype=np.int64) + 301  # lines 301..400
        lines = np.empty(200, dtype=np.int64)
        lines[0::2] = a
        lines[1::2] = b
        trace = Trace("two", lines * 16, np.array([]), np.array([]))
        one = simulate_stream_buffer(
            trace, 64, n_buffers=1, buffer_depth=4, warmup_fraction=0.0
        )
        two = simulate_stream_buffer(
            trace, 64, n_buffers=2, buffer_depth=4, warmup_fraction=0.0
        )
        assert two.buffer_hits > one.buffer_hits

    def test_depth_changes_no_count(self, gcc1_tiny):
        """Only FIFO heads are probed and prefetch timing is not modelled,
        so the depth is reported but moves no count.  A timing model that
        makes it matter has to change this test on purpose."""
        counts = set()
        for depth in range(1, 5):
            stats = simulate_stream_buffer(gcc1_tiny, kb(2), buffer_depth=depth)
            assert stats.buffer_depth == depth
            counts.add((stats.l1i_misses, stats.buffer_hits, stats.misses_below))
        assert len(counts) == 1

    def test_validation(self, gcc1_tiny):
        with pytest.raises(ConfigurationError):
            simulate_stream_buffer(gcc1_tiny, kb(4), n_buffers=0)
        with pytest.raises(ConfigurationError):
            simulate_stream_buffer(gcc1_tiny, kb(4), buffer_depth=0)
        with pytest.raises(ConfigurationError):
            simulate_stream_buffer(gcc1_tiny, kb(4), warmup_fraction=1.0)


class TestOnWorkloads:
    def test_fpppp_benefits_most(self):
        """Huge sequential basic blocks are the stream buffer's dream."""
        fpppp = simulate_stream_buffer("fpppp", kb(2), scale=0.02)
        eqntott = simulate_stream_buffer("eqntott", kb(2), scale=0.02)
        assert fpppp.buffer_hit_rate > eqntott.buffer_hit_rate

    def test_reduces_traffic_below(self, gcc1_tiny):
        stats = simulate_stream_buffer(gcc1_tiny, kb(2))
        assert stats.misses_below < stats.l1_misses

    def test_counts_partition(self, gcc1_tiny):
        stats = simulate_stream_buffer(gcc1_tiny, kb(2))
        assert stats.buffer_hits + stats.misses_below == stats.l1_misses
