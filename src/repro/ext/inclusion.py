"""Strict multi-level inclusion with back-invalidation (Baer & Wang).

The paper's baseline two-level policy is *non-inclusive*: the L2 never
forces lines out of the L1s, so after an L2 eviction a line can live in
an L1 only.  Strict inclusion — every L1-resident line is also L2
resident, maintained by back-invalidating the L1s whenever the L2
evicts — simplifies multiprocessor snooping (the paper cites Baer &
Wang [1] and notes §8 that inclusion can still be kept against an
*off-chip* third level).

Strict inclusion breaks the decomposition of :mod:`repro.cache.hierarchy`
(L2 evictions now change L1 contents), so the L2 feeds back into the L1
miss streams instead.  A back-invalidated DM set only ever *empties*:
each inclusive L1 set holds what the plain DM set holds, or nothing.
Its misses are therefore the plain cache's misses plus one *re-miss*
per back-invalidation whose set is next referenced, in that cache, at
the invalidated line.  The simulator replays the plain miss streams of
:mod:`repro.cache.directmap` in program order through the L2 and
finds each re-miss by binary search in the set-sorted run heads, so its
Python loop runs once per L1 miss event, not once per reference.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from typing import List, Tuple, Union

import numpy as np

from ..cache.directmap import _in_program_order, _set_sorted_runs
from ..cache.geometry import DEFAULT_LINE_SIZE, CacheGeometry
from ..cache.hierarchy import (
    DEFAULT_WARMUP_FRACTION,
    counted_data_refs,
    merge,
    program_order,
    warmup_end,
)
from ..cache.l2 import SetAssociativeCache
from ..cache.results import HierarchyStats
from ..errors import ConfigurationError
from ..traces.address import Trace
from ..traces.store import get_trace

__all__ = ["simulate_strict_inclusion"]


class _BackInvalidatedL1:
    """One DM L1's reference stream, indexed by set for back-invalidation.

    ``misses`` are the plain (non-inclusive) cache's miss positions and ``lines``
    their lines ``addrs // line_size``; the run heads sorted by (set, position)
    answer :meth:`remiss`.
    """

    def __init__(self, addrs: np.ndarray, n_sets: int, line_size: int) -> None:
        heads, order, head_lines, _, misses = _set_sorted_runs(addrs, n_sets, line_size)
        by_set = heads[order]
        self.misses, by_position = _in_program_order(heads, order, misses)
        self.lines = head_lines[misses[by_position]]
        self._n_sets, self._line_size = n_sets, line_size
        self._addrs = memoryview(addrs)
        self._heads = memoryview(by_set)
        self._head_lines = memoryview(head_lines)
        self._bounds = memoryview(np.searchsorted(head_lines % n_sets, np.arange(n_sets + 1)))

    def remiss(self, line: int, position: int) -> int:
        """Where ``line``, back-invalidated just before ``position``, re-misses.

        Returns -1 when the set does not hold ``line`` (the plain cache's
        last reference to it before ``position`` is another line, or there
        is none) or is next referenced at another line, which misses anyway.
        """
        set_index = line % self._n_sets
        lo, hi = self._bounds[set_index], self._bounds[set_index + 1]
        k = bisect_left(self._heads, position, lo, hi)
        if k == lo or self._head_lines[k - 1] != line:
            return -1
        if position < len(self._addrs) and self._addrs[position] // self._line_size == line:
            return position  # the resident run continues at ``position``
        if k < hi and self._head_lines[k] == line:
            return self._heads[k]
        return -1


def simulate_strict_inclusion(
    workload: Union[str, Trace],
    l1_bytes: int,
    l2_bytes: int,
    l2_associativity: int = 4,
    line_size: int = DEFAULT_LINE_SIZE,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    scale: "float | None" = None,
) -> HierarchyStats:
    """Simulate strict inclusion: L2 evictions invalidate the L1s.

    Semantics: every fill into an L1 also fills the L2 (L2 hits refresh
    nothing — random replacement keeps no recency); when the L2 evicts
    a line, both L1s drop it, so the next reference re-misses — the
    inclusion overhead this ablation quantifies.

    Events are keyed by their program-order index: instruction ``c``
    (cycle ``c``) follows every data reference issued before cycle ``c``,
    and data reference ``j`` follows instruction ``d_times[j]``.  After
    the event with key ``key`` at cycle ``time``, the next instruction is
    ``time + 1`` and the next data reference is ``key - time``.
    """
    if not l2_bytes:
        raise ConfigurationError("strict inclusion requires a second level")
    trace = get_trace(workload, scale) if isinstance(workload, str) else workload
    warmup_time = warmup_end(trace, warmup_fraction)

    n_sets = CacheGeometry(l1_bytes, line_size=line_size, associativity=1).n_sets
    icache = _BackInvalidatedL1(trace.i_addrs, n_sets, line_size)
    dcache = _BackInvalidatedL1(trace.d_addrs, n_sets, line_size)
    l2 = SetAssociativeCache(
        CacheGeometry(l2_bytes, line_size=line_size, associativity=l2_associativity)
    )

    d_times = trace.d_times
    i_pos, d_pos = icache.misses, dcache.misses
    is_instruction = program_order(i_pos, d_times[d_pos])
    times = merge(is_instruction, i_pos, d_times[d_pos])
    keys = merge(is_instruction, np.searchsorted(d_times, i_pos), d_pos + 1) + times
    lines = merge(is_instruction, icache.lines, dcache.lines)
    first = int(np.searchsorted(times, warmup_time, side="left"))
    l1i = int(np.count_nonzero(is_instruction[first:]))
    l1d = len(times) - first - l1i

    d_time = memoryview(d_times)
    remisses: List[Tuple[int, int, int, bool]] = []  # heap of (key, time, line, in I-cache)
    l2_hits = l2_misses = 0

    def miss(key: int, time: int, line: int) -> None:
        nonlocal l2_hits, l2_misses
        counted = time >= warmup_time
        if l2.lookup(line):
            l2_hits += counted
            return
        l2_misses += counted
        evicted = l2.fill(line)
        if evicted is None:
            return
        # Enforce inclusion: the line leaves the whole chip.
        q = icache.remiss(evicted, time + 1)
        if q >= 0:
            heappush(remisses, (q + bisect_left(d_time, q), q, evicted, True))
        q = dcache.remiss(evicted, key - time)
        if q >= 0:
            heappush(remisses, (q + d_time[q] + 1, d_time[q], evicted, False))

    def replay_remisses(before: int) -> None:
        nonlocal l1i, l1d
        done = -1
        while remisses and remisses[0][0] < before:
            key, time, line, instruction = heappop(remisses)
            if key == done:
                continue  # a set emptied twice before its next reference re-misses once
            done = key
            if time >= warmup_time:
                l1i += instruction
                l1d += not instruction
            miss(key, time, line)

    for key, time, line in zip(memoryview(keys), memoryview(times), memoryview(lines)):
        if remisses and remisses[0][0] < key:
            replay_remisses(key)
        miss(key, time, line)
    replay_remisses(trace.n_refs)

    return HierarchyStats(
        n_instructions=trace.n_instructions - warmup_time,
        n_data_refs=counted_data_refs(trace, warmup_time),
        l1i_misses=l1i,
        l1d_misses=l1d,
        l2_hits=l2_hits,
        l2_misses=l2_misses,
        has_l2=True,
    )
