"""Fully-associative victim cache (Jouppi 1990, the paper's ref [4]).

A victim cache is a small fully-associative buffer beside a
direct-mapped L1 that catches its evictions; a miss that hits in the
victim cache swaps the two lines instead of going below.  The paper
notes (§8) that exclusive caching with ``y < x`` degenerates into "a
shared direct-mapped victim cache" — this module provides the genuine
fully-associative article for comparison.

The L1's contents are unaffected by the victim buffer (it always fills
on miss), so the buffer is a stage below the L1s
(:func:`repro.cache.hierarchy.replay_stages`), like the L2: it replays
the memoised L1 miss stream and passes its misses on.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import Union

import numpy as np

from ..cache.directmap import NO_VICTIM
from ..cache.hierarchy import DEFAULT_WARMUP_FRACTION, MissStream, simulate_stages
from ..cache.geometry import DEFAULT_LINE_SIZE
from ..errors import ConfigurationError
from ..traces.address import Trace
from ..traces.store import get_trace

__all__ = ["VictimCacheStats", "simulate_victim_cache", "victim_buffer_misses"]


@dataclass(frozen=True)
class VictimCacheStats:
    """Counts for split DM L1s plus one shared victim buffer."""

    n_instructions: int
    n_data_refs: int
    l1_misses: int
    victim_hits: int
    misses_below: int
    victim_lines: int

    @property
    def n_refs(self) -> int:
        return self.n_instructions + self.n_data_refs

    @property
    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.n_refs

    @property
    def victim_hit_rate(self) -> float:
        """Fraction of L1 misses absorbed by the victim buffer."""
        if self.l1_misses == 0:
            return 0.0
        return self.victim_hits / self.l1_misses

    @property
    def miss_rate_below(self) -> float:
        """Misses per reference that continue past the victim buffer."""
        return self.misses_below / self.n_refs


def victim_buffer_misses(stream: MissStream, victim_lines: int) -> np.ndarray:
    """Stage: a shared fully associative LRU buffer of L1 victims.

    Each miss probes the buffer: a hit removes the line (it returns to
    the L1), a miss goes below.  Either way the L1 victim, if any, then
    enters the buffer as its most recent line, evicting the least
    recent when full.  Returns the positions that missed.
    """
    buffer: "OrderedDict[int, None]" = OrderedDict()
    missed = array("q")
    for position, line, victim in zip(count(), stream.lines.tolist(), stream.victims.tolist()):
        if line in buffer:
            del buffer[line]
        else:
            missed.append(position)
        if victim in buffer:
            buffer.move_to_end(victim)
        elif victim != NO_VICTIM:
            if len(buffer) == victim_lines:
                buffer.popitem(last=False)
            buffer[victim] = None
    return np.frombuffer(missed, dtype=np.int64)


def simulate_victim_cache(
    workload: Union[str, Trace],
    l1_bytes: int,
    victim_lines: int = 4,
    line_size: int = DEFAULT_LINE_SIZE,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    scale: "float | None" = None,
) -> VictimCacheStats:
    """Split DM L1s with a shared ``victim_lines``-entry victim buffer.

    On an L1 miss the buffer is probed: a hit swaps (the requested line
    returns to the L1, its victim enters the buffer, and the request
    never leaves the chip-level pair); a miss inserts the L1 victim and
    the request continues below (counted in ``misses_below``).
    """
    if victim_lines < 1:
        raise ConfigurationError("victim_lines must be >= 1")
    trace = get_trace(workload, scale) if isinstance(workload, str) else workload
    stage = partial(victim_buffer_misses, victim_lines=victim_lines)
    l1, [(victim_hits, misses_below)] = simulate_stages(
        trace, l1_bytes, [stage], line_size, warmup_fraction
    )
    return VictimCacheStats(
        n_instructions=l1.n_instructions,
        n_data_refs=l1.n_data_refs,
        l1_misses=l1.l1_misses,
        victim_hits=victim_hits,
        misses_below=misses_below,
        victim_lines=victim_lines,
    )
