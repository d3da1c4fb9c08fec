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
the buffers are one stage below the L1s that replays the memoised miss
stream (:func:`repro.cache.hierarchy.replay_stages`).
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import Optional, Union

import numpy as np

from ..cache.hierarchy import DEFAULT_WARMUP_FRACTION, MissStream, simulate_stages
from ..cache.geometry import DEFAULT_LINE_SIZE
from ..errors import ConfigurationError
from ..traces.address import Trace
from ..traces.store import get_trace

__all__ = ["StreamBufferStats", "simulate_stream_buffer", "stream_buffer_misses"]


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


def stream_buffer_misses(stream: MissStream, n_buffers: int) -> np.ndarray:
    """Stage: ``n_buffers`` sequential-prefetch FIFOs on the I-miss path.

    A FIFO allocated at a miss on line ``m`` holds ``m + 1``, ``m + 2``,
    ... and refills at its tail as its head is consumed, so it is a run of
    consecutive lines and only its head, all that is probed, is kept.  An
    I-miss that matches a head (lowest buffer first) consumes it; any other
    reallocates the least recently allocated or consumed buffer.  Data
    misses all go below.  Returns the positions that missed.
    """
    heads: "list[int | None]" = [None] * n_buffers
    order = deque(range(n_buffers))  # least recently allocated or consumed first
    missed = array("q")
    for position, line, instruction in zip(
        count(), stream.lines.tolist(), stream.is_instruction.tolist()
    ):
        if not instruction:
            missed.append(position)
            continue
        if line in heads:
            index = heads.index(line)
            order.remove(index)
        else:
            missed.append(position)
            index = order.popleft()
        heads[index] = line + 1
        order.append(index)
    return np.frombuffer(missed, dtype=np.int64)


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
    ``buffer_depth`` is validated and reported but changes no count:
    only each FIFO's head is probed, and prefetch timing is not modelled.
    """
    if n_buffers < 1:
        raise ConfigurationError("n_buffers must be >= 1")
    if buffer_depth < 1:
        raise ConfigurationError("buffer_depth must be >= 1")
    trace = get_trace(workload, scale) if isinstance(workload, str) else workload
    stage = partial(stream_buffer_misses, n_buffers=n_buffers)
    l1, [(buffer_hits, misses_below)] = simulate_stages(
        trace, l1_bytes, [stage], line_size, warmup_fraction
    )
    return StreamBufferStats(
        n_instructions=l1.n_instructions,
        n_data_refs=l1.n_data_refs,
        l1i_misses=l1.l1i_misses,
        l1d_misses=l1.l1d_misses,
        buffer_hits=buffer_hits,
        misses_below=misses_below,
        n_buffers=n_buffers,
        buffer_depth=buffer_depth,
    )
