"""Sequential-prefetch stream buffers (the other half of Jouppi 1990).

The paper's reference [4] introduced victim caches *and* stream
buffers.  A stream buffer watches the L1 miss stream: on a miss it
starts prefetching the successive lines into a small FIFO; a later miss
that matches the FIFO head is serviced from the buffer (and the
prefetcher runs ahead one more line) instead of going below.
Instruction fetch, with its long sequential runs, is the classic
beneficiary — which is why this model attaches buffers to the I-cache
miss stream and leaves data misses alone by default.

Like the victim cache, a stream buffer never changes L1 contents, so
the simulation replays the memoised miss stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Union

from ..cache.hierarchy import DEFAULT_WARMUP_FRACTION, counted_data_refs, l1_miss_stream
from ..cache.geometry import DEFAULT_LINE_SIZE
from ..errors import ConfigurationError
from ..traces.address import Trace
from ..traces.store import get_trace

__all__ = ["StreamBufferStats", "simulate_stream_buffer"]


@dataclass(frozen=True)
class StreamBufferStats:
    """Counts for split DM L1s with stream buffers on the I-miss path."""

    n_instructions: int
    n_data_refs: int
    l1i_misses: int
    l1d_misses: int
    buffer_hits: int
    misses_below: int
    n_buffers: int
    buffer_depth: int

    @property
    def n_refs(self) -> int:
        return self.n_instructions + self.n_data_refs

    @property
    def l1_misses(self) -> int:
        return self.l1i_misses + self.l1d_misses

    @property
    def buffer_hit_rate(self) -> float:
        """Fraction of I-misses serviced by the stream buffers."""
        if self.l1i_misses == 0:
            return 0.0
        return self.buffer_hits / self.l1i_misses

    @property
    def miss_rate_below(self) -> float:
        """Misses per reference continuing below the buffers."""
        return self.misses_below / self.n_refs


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


def simulate_stream_buffer(
    workload: Union[str, Trace],
    l1_bytes: int,
    n_buffers: int = 4,
    buffer_depth: int = 4,
    line_size: int = DEFAULT_LINE_SIZE,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    scale: Optional[float] = None,
) -> StreamBufferStats:
    """Split DM L1s with ``n_buffers`` stream buffers on the I-miss path.

    Jouppi's policy: probe every buffer's FIFO head on an I-miss; a hit
    consumes the head (the rest of the FIFO shifts up and prefetch runs
    one line ahead); a miss reallocates the least-recently-allocated
    buffer to the new stream.  Data misses pass straight through.
    """
    if n_buffers < 1:
        raise ConfigurationError("n_buffers must be >= 1")
    if buffer_depth < 1:
        raise ConfigurationError("buffer_depth must be >= 1")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError("warmup_fraction must be in [0, 1)")
    trace = get_trace(workload, scale) if isinstance(workload, str) else workload
    stream = l1_miss_stream(trace, l1_bytes, line_size)
    warmup_time = int(trace.n_instructions * warmup_fraction)

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

    n_data = counted_data_refs(trace, warmup_time)
    return StreamBufferStats(
        n_instructions=trace.n_instructions - warmup_time,
        n_data_refs=n_data,
        l1i_misses=counted_i,
        l1d_misses=counted_d,
        buffer_hits=buffer_hits,
        misses_below=misses_below,
        n_buffers=n_buffers,
        buffer_depth=buffer_depth,
    )
