"""Slow, obviously-correct reference simulators (test oracles).

These implementations favour clarity over speed and exist solely so the
test suite can prove the vectorised/decomposed fast path equivalent on
arbitrary streams.  They must not be used by experiments or benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..lfsr import Lfsr16
from ..traces.address import Trace
from .directmap import NO_VICTIM
from .geometry import DEFAULT_LINE_SIZE, CacheGeometry
from .hierarchy import DEFAULT_WARMUP_FRACTION, Policy
from .replacement import LruReplacement, ReplacementPolicy
from .results import HierarchyStats

__all__ = [
    "ReferenceDirectMapped",
    "ReferenceLfsrReplacement",
    "ReferenceSetAssociativeCache",
    "reference_direct_mapped_filter",
    "reference_simulate_hierarchy",
]

#: Tag-store marker for an empty way.
INVALID = -1


@dataclass
class ReferenceDirectMapped:
    """Dictionary-based direct-mapped cache."""

    n_sets: int
    contents: Dict[int, int] = field(default_factory=dict)

    def access(self, line: int) -> Tuple[bool, int]:
        """Access ``line``; returns (miss, victim-or-NO_VICTIM)."""
        set_index = line % self.n_sets
        resident = self.contents.get(set_index)
        if resident == line:
            return False, NO_VICTIM
        self.contents[set_index] = line
        if resident is None:
            return True, NO_VICTIM
        return True, resident


def reference_direct_mapped_filter(
    lines: "list[int]", n_sets: int
) -> Tuple[List[bool], List[int]]:
    """Reference counterpart of :func:`repro.cache.directmap.direct_mapped_filter`."""
    cache = ReferenceDirectMapped(n_sets)
    misses: List[bool] = []
    victims: List[int] = []
    for line in lines:
        miss, victim = cache.access(int(line))
        misses.append(miss)
        victims.append(victim)
    return misses, victims


class ReferenceLfsrReplacement:
    """Pseudo-random replacement stepping one plain :class:`Lfsr16` per victim."""

    def __init__(self, associativity: int, seed: int = 0xACE1) -> None:
        self._associativity = associativity
        self._lfsr = Lfsr16(seed)

    def victim_way(self, set_index: int) -> int:
        return self._lfsr.next_way(self._associativity)

    def touch(self, set_index: int, way: int) -> None:
        return None


class ReferenceSetAssociativeCache:
    """Set-associative cache over an ``int64`` numpy tag array, scanned way by way.

    The replacement policy defaults to :class:`ReferenceLfsrReplacement`,
    so the paper's LFSR path is checked without :mod:`repro.cache.l2` or
    its way table.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        replacement: Optional[ReplacementPolicy] = None,
    ) -> None:
        self.geometry = geometry
        self._n_sets = geometry.n_sets
        self._assoc = geometry.associativity
        self._tags = np.full((self._n_sets, self._assoc), INVALID, dtype=np.int64)
        self.replacement: ReplacementPolicy = (
            replacement
            if replacement is not None
            else ReferenceLfsrReplacement(self._assoc)
        )

    def _find_way(self, set_index: int, line: int) -> int:
        row = self._tags[set_index]
        for way in range(self._assoc):
            if row[way] == line:
                return way
        return -1

    def lookup(self, line: int) -> bool:
        """Probe for ``line``; returns True on hit (and records the touch)."""
        set_index = line % self._n_sets
        way = self._find_way(set_index, line)
        if way < 0:
            return False
        self.replacement.touch(set_index, way)
        return True

    def contains(self, line: int) -> bool:
        """Non-destructive presence check (does not update recency)."""
        return self._find_way(line % self._n_sets, line) >= 0

    def fill(self, line: int) -> Optional[int]:
        """Allocate ``line``, returning the evicted line (if any).

        Invalid ways are filled first; otherwise the replacement policy
        chooses the victim.  Filling a line that is already present is a
        no-op returning ``None``.
        """
        set_index = line % self._n_sets
        row = self._tags[set_index]
        existing = self._find_way(set_index, line)
        if existing >= 0:
            self.replacement.touch(set_index, existing)
            return None
        for way in range(self._assoc):
            if row[way] == INVALID:
                row[way] = line
                self.replacement.touch(set_index, way)
                return None
        way = self.replacement.victim_way(set_index)
        evicted = int(row[way])
        row[way] = line
        self.replacement.touch(set_index, way)
        return evicted

    def invalidate(self, line: int) -> bool:
        """Remove ``line`` if present; returns True if it was removed."""
        set_index = line % self._n_sets
        way = self._find_way(set_index, line)
        if way < 0:
            return False
        self._tags[set_index, way] = INVALID
        return True

    @property
    def n_valid_lines(self) -> int:
        """Number of valid lines currently resident."""
        return int((self._tags != INVALID).sum())

    def resident_lines(self) -> np.ndarray:
        """Sorted array of all resident line addresses."""
        valid = self._tags[self._tags != INVALID]
        return np.sort(valid)

    def set_contents(self, set_index: int) -> np.ndarray:
        """Copy of one set's tag row (``INVALID`` marks empty ways)."""
        return self._tags[set_index].copy()


def _reference_replacement(name: str, geometry: CacheGeometry) -> ReplacementPolicy:
    if name == "lfsr":
        return ReferenceLfsrReplacement(geometry.associativity)
    if name == "lru":
        return LruReplacement(geometry.associativity, geometry.n_sets)
    raise ConfigurationError(f"unknown replacement policy {name!r}")


class _ReferenceHierarchy:
    """Full stateful split-L1 + optional-L2 model, processed in program order."""

    def __init__(
        self,
        l1_bytes: int,
        l2_bytes: int,
        l2_associativity: int,
        policy: Policy,
        line_size: int,
        replacement: str,
    ) -> None:
        l1_geometry = CacheGeometry(l1_bytes, line_size=line_size, associativity=1)
        self.icache = ReferenceDirectMapped(l1_geometry.n_sets)
        self.dcache = ReferenceDirectMapped(l1_geometry.n_sets)
        self.policy = policy
        self.l2: Optional[ReferenceSetAssociativeCache] = None
        if l2_bytes:
            geometry = CacheGeometry(
                l2_bytes, line_size=line_size, associativity=l2_associativity
            )
            self.l2 = ReferenceSetAssociativeCache(
                geometry, _reference_replacement(replacement, geometry)
            )
        self.l1i_misses = 0
        self.l1d_misses = 0
        self.l2_hits = 0
        self.l2_misses = 0

    def reference(self, line: int, is_instruction: bool, counted: bool) -> None:
        cache = self.icache if is_instruction else self.dcache
        miss, victim = cache.access(line)
        if not miss:
            return
        if counted:
            if is_instruction:
                self.l1i_misses += 1
            else:
                self.l1d_misses += 1
        if self.l2 is None:
            return
        if self.policy is Policy.CONVENTIONAL:
            if self.l2.lookup(line):
                self.l2_hits += counted
            else:
                self.l2_misses += counted
                self.l2.fill(line)
        else:
            if self.l2.lookup(line):
                self.l2_hits += counted
                self.l2.invalidate(line)
            else:
                self.l2_misses += counted
            if victim != NO_VICTIM:
                self.l2.fill(victim)


def reference_simulate_hierarchy(
    trace: Trace,
    l1_bytes: int,
    l2_bytes: int = 0,
    l2_associativity: int = 1,
    policy: Policy = Policy.CONVENTIONAL,
    line_size: int = DEFAULT_LINE_SIZE,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    l2_replacement: str = "lfsr",
) -> HierarchyStats:
    """Reference counterpart of :func:`repro.cache.hierarchy.simulate_hierarchy`.

    Processes the trace strictly in program order (instruction fetch
    before the data access of the same cycle), exactly as the fast
    path's merge does, so replacement decisions line up and results are
    bit-identical.
    """
    sim = _ReferenceHierarchy(
        l1_bytes, l2_bytes, l2_associativity, policy, line_size, l2_replacement
    )
    i_lines = trace.i_lines(line_size).tolist()
    d_lines = trace.d_lines(line_size).tolist()
    d_times = trace.d_times.tolist()
    d_cursor = 0
    n_data = len(d_lines)
    warmup_time = int(trace.n_instructions * warmup_fraction)
    counted_data_refs = 0
    for cycle, i_line in enumerate(i_lines):
        counted = cycle >= warmup_time
        sim.reference(i_line, is_instruction=True, counted=counted)
        while d_cursor < n_data and d_times[d_cursor] == cycle:
            sim.reference(d_lines[d_cursor], is_instruction=False, counted=counted)
            counted_data_refs += counted
            d_cursor += 1
    return HierarchyStats(
        n_instructions=trace.n_instructions - warmup_time,
        n_data_refs=counted_data_refs,
        l1i_misses=sim.l1i_misses,
        l1d_misses=sim.l1d_misses,
        l2_hits=sim.l2_hits,
        l2_misses=sim.l2_misses,
        has_l2=sim.l2 is not None,
    )
