"""Unified (mixed) vs split first-level caches — intro advantage #1.

The paper's first argument for a two-level hierarchy: split L1s impose
a *static* partition between instructions and data, while a mixed cache
allocates lines "depending on the program's requirements".  The L1s
must still be split for bandwidth, so the mixed L2 is where the dynamic
allocation happens — but the underlying claim is measurable at level
one: a unified cache of capacity 2N usually misses less than split
N + N caches (ignoring the bandwidth problem a unified L1 would have).

A unified direct-mapped cache over the merged (program-order) reference
stream is still replacement-free, so the vectorised filter applies; an
associative one replays only that filter's misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..cache.directmap import _misses
from ..cache.geometry import DEFAULT_LINE_SIZE, CacheGeometry
from ..cache.hierarchy import (
    DEFAULT_WARMUP_FRACTION,
    l1_miss_stream,
    merge,
    warmup_end,
)
from ..cache.l2 import SetAssociativeCache
from ..cache.replacement import LruReplacement
from ..traces.address import Trace
from ..traces.store import get_trace

__all__ = ["SplitVsUnified", "compare_split_vs_unified"]


@dataclass(frozen=True)
class SplitVsUnified:
    """Miss comparison: split N+N DM caches vs one unified 2N DM cache."""

    workload: str
    per_cache_bytes: int
    n_refs: int
    split_misses: int
    unified_misses: int

    @property
    def split_miss_rate(self) -> float:
        return self.split_misses / self.n_refs

    @property
    def unified_miss_rate(self) -> float:
        return self.unified_misses / self.n_refs

    @property
    def unified_advantage(self) -> float:
        """Relative miss reduction of dynamic allocation (can be
        negative when I/D conflict in the shared array)."""
        if self.split_misses == 0:
            return 0.0
        return 1.0 - self.unified_misses / self.split_misses


def compare_split_vs_unified(
    workload: Union[str, Trace],
    per_cache_bytes: int,
    unified_associativity: int = 1,
    line_size: int = DEFAULT_LINE_SIZE,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    scale: Optional[float] = None,
) -> SplitVsUnified:
    """Compare split ``N+N`` DM L1s against one unified ``2N`` cache.

    Both organisations see the same program-order reference stream
    (instruction fetch before same-cycle data access); capacities are
    equal in total.  A direct-mapped unified cache often *loses* to the
    split pair (streaming data evicts code), which is half of the
    paper's design argument; with ``unified_associativity > 1`` (LRU)
    dynamic allocation pays off — the other half:
    put the mixed capacity in the set-associative L2.
    """
    trace = get_trace(workload, scale) if isinstance(workload, str) else workload
    warmup_time = warmup_end(trace, warmup_fraction)

    # Split: reuse the memoised per-cache streams.
    stream = l1_miss_stream(trace, per_cache_bytes, line_size)
    split_misses = int((stream.times >= warmup_time).sum())

    # Unified: one 2N cache over the merged program-order stream.  Only
    # the references that miss a DM cache of the same set count reach the
    # LRU replay: any other re-touches its set's MRU way, a no-op.
    unified = CacheGeometry(
        2 * per_cache_bytes, line_size=line_size, associativity=unified_associativity
    )
    # Data reference j follows the fetch of d_times[j]: merged slot d_times[j] + j + 1.
    is_instruction = np.ones(trace.n_refs, dtype=bool)
    is_instruction[trace.d_times + np.arange(1, trace.n_data_refs + 1)] = False
    merged_addrs = merge(is_instruction, trace.i_addrs, trace.d_addrs)
    del is_instruction
    missed, lines, _ = _misses(merged_addrs, unified.n_sets, line_size)
    if not unified.is_direct_mapped:
        cache = SetAssociativeCache(
            unified, LruReplacement(unified.associativity, unified.n_sets)
        )
        missed = missed[cache.replay(lines)]
    # Counting starts past every fetch and data reference issued before the warm-up.
    first = warmup_time + int(np.searchsorted(trace.d_times, warmup_time, side="left"))
    unified_misses = len(missed) - int(np.searchsorted(missed, first, side="left"))

    n_refs = trace.n_refs - first
    return SplitVsUnified(
        workload=trace.name,
        per_cache_bytes=per_cache_bytes,
        n_refs=n_refs,
        split_misses=split_misses,
        unified_misses=unified_misses,
    )
