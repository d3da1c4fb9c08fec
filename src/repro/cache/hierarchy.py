"""Two-level hierarchy simulation: split DM L1s over an optional mixed L2.

The decomposition exploited here (DESIGN.md §5): because the L1 caches
are direct-mapped and always fill on a miss, their contents — and hence
their miss and victim streams — do not depend on what the L2 does.  The
L1 pass therefore runs once per (trace, L1 size) through the vectorised
filter and is memoised; each L2 configuration replays only the merged
miss stream.

Stages
------
Every level below the L1s is a *stage*: it replays a miss stream and
returns the positions that missed.  :func:`replay_stages` feeds each
stage the misses of the one above and counts its hits and misses
(docs/models.md §1.3).

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
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..memo import per_trace
from ..traces.address import Trace
from .directmap import _misses, direct_mapped_misses
from .geometry import DEFAULT_LINE_SIZE, CacheGeometry
from .l2 import SetAssociativeCache
from .replacement import LfsrReplacement, LruReplacement
from .results import HierarchyStats

__all__ = [
    "Policy",
    "MissStream",
    "l1_miss_stream",
    "program_order",
    "merge",
    "cache_stage",
    "replay_stages",
    "simulate_stages",
    "warmup_end",
    "counted_split",
    "counted_data_refs",
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


def program_order(i_times: np.ndarray, d_times: np.ndarray) -> np.ndarray:
    """Merge two issue-time-sorted streams; True where an instruction goes.

    At equal issue time the instruction fetch precedes the data access,
    matching pipeline order.  Returns one flag per merged slot; pass it
    to :func:`merge` to interleave arrays aligned with either stream.
    """
    d_slots = np.searchsorted(i_times, d_times, side="right") + np.arange(len(d_times))
    is_instruction = np.ones(len(i_times) + len(d_times), dtype=bool)
    is_instruction[d_slots] = False
    return is_instruction


def merge(is_instruction: np.ndarray, i_values: np.ndarray, d_values: np.ndarray) -> np.ndarray:
    """Interleave ``i_values`` and ``d_values`` in :func:`program_order`."""
    merged = np.empty(len(is_instruction), dtype=np.result_type(i_values, d_values))
    merged[is_instruction] = i_values
    merged[~is_instruction] = d_values
    return merged


@per_trace("l1_stream")
def l1_miss_stream(
    trace: Trace, l1_bytes: int, line_size: int = DEFAULT_LINE_SIZE
) -> MissStream:
    """Filter ``trace`` through split ``l1_bytes`` I and D caches.

    Both L1 caches are direct-mapped and of equal size, as the paper's
    design space prescribes.  Results are memoised while the trace lives,
    so repeated L2 sweeps pay for the L1 pass once.
    """
    n_sets = CacheGeometry(l1_bytes, line_size=line_size, associativity=1).n_sets
    i_times, i_lines, i_victims = _misses(trace.i_addrs, n_sets, line_size)
    d_idx, d_lines, d_victims = _misses(trace.d_addrs, n_sets, line_size)
    d_times = trace.d_times[d_idx]
    is_instruction = program_order(i_times, d_times)
    return MissStream(
        times=merge(is_instruction, i_times, d_times),
        lines=merge(is_instruction, i_lines, d_lines),
        victims=merge(is_instruction, i_victims, d_victims),
        is_instruction=is_instruction,
        l1i_misses=len(i_times),
        l1d_misses=len(d_idx),
        n_instructions=trace.n_instructions,
        n_data_refs=trace.n_data_refs,
    )


#: ``l2_replacement`` name -> policy factory for an L2 geometry.
_REPLACEMENTS = {
    "lfsr": lambda geometry: LfsrReplacement(geometry.associativity),
    "lru": lambda geometry: LruReplacement(geometry.associativity, geometry.n_sets),
}

#: A level below the L1s: replays a miss stream, returns the positions that missed.
Stage = Callable[[MissStream], np.ndarray]


def cache_stage(
    geometry: CacheGeometry,
    policy: Policy = Policy.CONVENTIONAL,
    replacement: str = "lfsr",
) -> Stage:
    """A set-associative level (an L2, or a board-level L3), empty at each call."""
    if policy is Policy.CONVENTIONAL and geometry.is_direct_mapped:
        # A conventional DM level is a pure filter: one way per set leaves no choice.
        return lambda stream: direct_mapped_misses(stream.lines, geometry.n_sets)[0]
    exclusive = policy is Policy.EXCLUSIVE

    def stage(stream: MissStream) -> np.ndarray:
        cache = SetAssociativeCache(geometry, _REPLACEMENTS[replacement](geometry))
        return cache.replay(stream.lines, stream.victims if exclusive else None)

    return stage


def replay_stages(
    stream: MissStream, stages: Sequence[Stage], warmup_time: int
) -> "list[tuple[int, int]]":
    """Counted (hits, misses) of each stage, top down (:func:`counted_split`).

    Each stage below the first sees the events the one above missed.
    """
    counts: "list[tuple[int, int]]" = []
    for stage in stages:
        if counts:  # built here, so the last stage's residual never is
            stream = replace(
                stream,
                times=stream.times[missed],
                lines=stream.lines[missed],
                victims=stream.victims[missed],
                is_instruction=stream.is_instruction[missed],
            )
        missed = stage(stream)
        counts.append(counted_split(stream.times, missed, warmup_time))
    return counts


def simulate_stages(
    trace: Trace,
    l1_bytes: int,
    stages: Sequence[Stage],
    line_size: int = DEFAULT_LINE_SIZE,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
) -> "tuple[HierarchyStats, list[tuple[int, int]]]":
    """Split DM L1s over ``stages``: the counted L1-only stats and each
    stage's counted (hits, misses)."""
    warmup_time = warmup_end(trace, warmup_fraction)
    stream = l1_miss_stream(trace, l1_bytes, line_size)
    first = int(np.searchsorted(stream.times, warmup_time, side="left"))
    l1i_misses = int(np.count_nonzero(stream.is_instruction[first:]))
    l1 = HierarchyStats(
        n_instructions=trace.n_instructions - warmup_time,
        n_data_refs=counted_data_refs(trace, warmup_time),
        l1i_misses=l1i_misses,
        l1d_misses=len(stream) - first - l1i_misses,
    )
    return l1, replay_stages(stream, stages, warmup_time)


def warmup_end(trace: Trace, warmup_fraction: float) -> int:
    """Issue time at which counting starts (see the module docstring)."""
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError("warmup_fraction must be in [0, 1)")
    return int(trace.n_instructions * warmup_fraction)


def counted_split(
    times: np.ndarray, missed: np.ndarray, warmup_time: int
) -> "tuple[int, int]":
    """Counted (hits, misses) of a level that saw events issued at ``times``.

    ``missed`` are the increasing positions that missed.  Events issued
    before ``warmup_time`` (a prefix, as ``times`` is sorted) update
    state but are not counted.
    """
    first = int(np.searchsorted(times, warmup_time, side="left"))
    misses = len(missed) - int(np.searchsorted(missed, first, side="left"))
    return len(times) - first - misses, misses


def counted_data_refs(trace: Trace, warmup_time: int) -> int:
    """Data references issued at or after ``warmup_time``."""
    return trace.n_data_refs - int(np.searchsorted(trace.d_times, warmup_time, side="left"))


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
    if l2_replacement not in _REPLACEMENTS:
        raise ConfigurationError(f"unknown replacement policy {l2_replacement!r}")
    if l2_bytes < 0:
        raise ConfigurationError("l2_bytes must be >= 0")
    stages: "list[Stage]" = []
    if l2_bytes:
        geometry = CacheGeometry(l2_bytes, line_size=line_size, associativity=l2_associativity)
        stages.append(cache_stage(geometry, policy, l2_replacement))
    l1, counts = simulate_stages(trace, l1_bytes, stages, line_size, warmup_fraction)
    if not counts:
        return l1
    [(hits, misses)] = counts
    return replace(l1, l2_hits=hits, l2_misses=misses, has_l2=True)
