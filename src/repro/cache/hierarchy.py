"""Two-level hierarchy simulation: split DM L1s over an optional mixed L2.

The decomposition exploited here (DESIGN.md §5): because the L1 caches
are direct-mapped and always fill on a miss, their contents — and hence
their miss and victim streams — do not depend on what the L2 does.  The
L1 pass therefore runs once per (trace, L1 size) through the vectorised
filter and is memoised; each L2 configuration replays only the merged
miss stream.

Warmup
------
The paper's traces run to billions of references, so compulsory (cold)
misses are negligible.  Synthetic traces are shorter; to keep cold
fills from distorting steady-state miss rates the simulators always
*simulate* the whole trace but only *count* events issued after a
warmup window (``warmup_fraction`` of the instruction stream, default
25 %).  Reported reference/instruction counts cover the counted window
only, so rates and the TPI model stay consistent.

Policies
--------
``Policy.CONVENTIONAL``
    §4's baseline: an L2 miss fills both levels; an L2 hit leaves the L2
    unchanged; L1 victims are dropped (write-backs do not affect miss
    counts).
``Policy.EXCLUSIVE``
    §8's contribution: an L2 hit *removes* the line from the L2 (it now
    lives in L1); an L2 miss fills L1 directly from off-chip; in both
    cases the L1 victim is inserted into the L2.  Conflicting lines can
    thus ping-pong between levels instead of thrashing off-chip, and
    on-chip capacity approaches the sum of the levels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError
from ..traces.address import Trace
from .directmap import NO_VICTIM, direct_mapped_filter
from .geometry import DEFAULT_LINE_SIZE, CacheGeometry
from .l2 import SetAssociativeCache
from .replacement import LfsrReplacement, LruReplacement
from .results import HierarchyStats

__all__ = [
    "Policy",
    "MissStream",
    "l1_miss_stream",
    "simulate_hierarchy",
    "DEFAULT_WARMUP_FRACTION",
]

#: Fraction of the instruction stream used to warm the caches before
#: counting (see module docstring).
DEFAULT_WARMUP_FRACTION = 0.25


class Policy(enum.Enum):
    """Second-level content-management policy."""

    CONVENTIONAL = "conventional"
    EXCLUSIVE = "exclusive"


@dataclass(frozen=True)
class MissStream:
    """Merged (program-order) L1 miss events for one (trace, L1 size).

    Attributes
    ----------
    times:
        Issue cycle (instruction index) of each missing reference.
    lines:
        Missing line address.
    victims:
        Line evicted from the missing L1 cache (``NO_VICTIM`` for cold
        fills).
    is_instruction:
        True where the miss came from the instruction cache.
    l1i_misses / l1d_misses:
        Per-cache miss totals.
    n_instructions / n_data_refs:
        Stream sizes of the originating trace.
    """

    times: np.ndarray
    lines: np.ndarray
    victims: np.ndarray
    is_instruction: np.ndarray
    l1i_misses: int
    l1d_misses: int
    n_instructions: int
    n_data_refs: int

    def __len__(self) -> int:
        return len(self.lines)


@lru_cache(maxsize=256)
def l1_miss_stream(
    trace: Trace, l1_bytes: int, line_size: int = DEFAULT_LINE_SIZE
) -> MissStream:
    """Filter ``trace`` through split ``l1_bytes`` I and D caches.

    Both L1 caches are direct-mapped and of equal size, as the paper's
    design space prescribes.  Results are memoised on the trace object's
    identity, so repeated L2 sweeps pay for the L1 pass once.
    """
    geometry = CacheGeometry(l1_bytes, line_size=line_size, associativity=1)
    n_sets = geometry.n_sets

    i_lines = trace.i_lines(line_size)
    d_lines = trace.d_lines(line_size)
    i_filter = direct_mapped_filter(i_lines, n_sets)
    d_filter = direct_mapped_filter(d_lines, n_sets)

    i_idx = np.nonzero(i_filter.miss_mask)[0]
    d_idx = np.nonzero(d_filter.miss_mask)[0]

    times = np.concatenate([i_idx, trace.d_times[d_idx]])
    lines = np.concatenate([i_lines[i_idx], d_lines[d_idx]])
    victims = np.concatenate([i_filter.victims[i_idx], d_filter.victims[d_idx]])
    is_instruction = np.concatenate(
        [np.ones(len(i_idx), dtype=bool), np.zeros(len(d_idx), dtype=bool)]
    )

    # Merge into program order; at equal issue time the instruction
    # fetch precedes the data access, matching pipeline order.
    order = np.lexsort((~is_instruction, times))
    return MissStream(
        times=times[order],
        lines=lines[order],
        victims=victims[order],
        is_instruction=is_instruction[order],
        l1i_misses=len(i_idx),
        l1d_misses=len(d_idx),
        n_instructions=trace.n_instructions,
        n_data_refs=trace.n_data_refs,
    )


#: ``l2_replacement`` name -> policy factory for an L2 geometry.
_REPLACEMENTS = {
    "lfsr": lambda geometry: LfsrReplacement(geometry.associativity),
    "lru": lambda geometry: LruReplacement(geometry.associativity, geometry.n_sets),
}


def _simulate_l2(
    stream: MissStream,
    geometry: CacheGeometry,
    policy: Policy,
    warmup_time: int,
    replacement: str = "lfsr",
) -> "tuple[int, int]":
    """Replay a miss stream through the L2; returns counted (hits, misses).

    The full stream updates the cache state; only events issued at or
    after ``warmup_time`` are counted.
    """
    counted = stream.times >= warmup_time
    if policy is Policy.CONVENTIONAL and geometry.is_direct_mapped:
        # Fast path: a conventional DM L2 is itself a pure filter
        # (replacement is irrelevant with one way per set).
        result = direct_mapped_filter(stream.lines, geometry.n_sets)
        misses = int((result.miss_mask & counted).sum())
        return int(counted.sum()) - misses, misses

    cache = SetAssociativeCache(geometry, _REPLACEMENTS[replacement](geometry))
    hits = 0
    n_counted = int(counted.sum())
    lines = stream.lines.tolist()
    counted_list = counted.tolist()
    if policy is Policy.CONVENTIONAL:
        for line, count_it in zip(lines, counted_list):
            if cache.lookup(line):
                hits += count_it
            else:
                cache.fill(line)
    else:
        victims = stream.victims.tolist()
        for line, victim, count_it in zip(lines, victims, counted_list):
            if cache.invalidate(line):
                hits += count_it
            # On an L2 miss the line is fetched off-chip directly into
            # the L1; the L2 is not filled with it (exclusion).
            if victim != NO_VICTIM:
                cache.fill(victim)
    return hits, n_counted - hits


def simulate_hierarchy(
    trace: Trace,
    l1_bytes: int,
    l2_bytes: int = 0,
    l2_associativity: int = 1,
    policy: Policy = Policy.CONVENTIONAL,
    line_size: int = DEFAULT_LINE_SIZE,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    l2_replacement: str = "lfsr",
) -> HierarchyStats:
    """Simulate split DM L1 caches with an optional mixed L2.

    Parameters
    ----------
    trace:
        The reference stream.
    l1_bytes:
        Capacity of *each* L1 cache (instruction and data are equal
        sized, per the paper's design space).
    l2_bytes:
        Capacity of the mixed L2; 0 means single-level (no L2).
    l2_associativity:
        L2 ways (1 or 4 in the paper).
    policy:
        Conventional or exclusive content management.
    line_size:
        Line size in bytes (16 throughout the paper).
    warmup_fraction:
        Leading fraction of the instruction stream that is simulated
        but not counted (see module docstring).
    l2_replacement:
        ``"lfsr"`` (the paper's pseudo-random policy, default) or
        ``"lru"`` — exposed for replacement ablations.

    Returns
    -------
    HierarchyStats
        Miss counts for the counted (post-warmup) window, feeding the
        TPI model.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError("warmup_fraction must be in [0, 1)")
    if l2_replacement not in _REPLACEMENTS:
        raise ConfigurationError(f"unknown replacement policy {l2_replacement!r}")
    warmup_time = int(trace.n_instructions * warmup_fraction)
    stream = l1_miss_stream(trace, l1_bytes, line_size)

    counted = stream.times >= warmup_time
    l1i_misses = int((counted & stream.is_instruction).sum())
    l1d_misses = int((counted & ~stream.is_instruction).sum())
    n_instructions = trace.n_instructions - warmup_time
    n_data_refs = int(
        len(trace.d_times) - np.searchsorted(trace.d_times, warmup_time, side="left")
    )

    if l2_bytes == 0:
        return HierarchyStats(
            n_instructions=n_instructions,
            n_data_refs=n_data_refs,
            l1i_misses=l1i_misses,
            l1d_misses=l1d_misses,
            l2_hits=0,
            l2_misses=0,
            has_l2=False,
        )
    if l2_bytes < 0:
        raise ConfigurationError("l2_bytes must be >= 0")
    geometry = CacheGeometry(
        l2_bytes, line_size=line_size, associativity=l2_associativity
    )
    hits, misses = _simulate_l2(stream, geometry, policy, warmup_time, l2_replacement)
    return HierarchyStats(
        n_instructions=n_instructions,
        n_data_refs=n_data_refs,
        l1i_misses=l1i_misses,
        l1d_misses=l1d_misses,
        l2_hits=hits,
        l2_misses=misses,
        has_l2=True,
    )
