"""Stateful set-associative cache used for the second level.

Only the L1 miss stream reaches this simulator (a few percent of all
references), so it is a per-reference loop over plain Python
containers.  Tags sit in one flat list of ``n_sets × associativity``
slots (set ``s`` owns the ``associativity`` slots from
``s × associativity``); ``INVALID`` (-1) marks an empty way, which is
safe because line addresses are non-negative.  A dict maps each
resident line to its slot, and a per-set count of empty ways says
whether a fill must evict.  :meth:`SetAssociativeCache.replay` runs a
whole stream through that state in one loop.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Dict, List, Optional, Sequence

import numpy as np

from .directmap import NO_VICTIM
from .geometry import CacheGeometry
from .replacement import LfsrReplacement, ReplacementPolicy

__all__ = ["SetAssociativeCache", "INVALID"]

#: Tag-store marker for an empty way.
INVALID = -1


class SetAssociativeCache:
    """A set-associative cache of line addresses.

    Parameters
    ----------
    geometry:
        Capacity / line size / associativity.
    replacement:
        Replacement policy; defaults to the paper's LFSR pseudo-random
        policy.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        replacement: Optional[ReplacementPolicy] = None,
    ) -> None:
        self.geometry = geometry
        self._n_sets = geometry.n_sets
        self._assoc = geometry.associativity
        self._tags: List[int] = [INVALID] * (self._n_sets * self._assoc)
        self._slots: Dict[int, int] = {}
        self._free: List[int] = [self._assoc] * self._n_sets
        self.replacement: ReplacementPolicy = (
            replacement if replacement is not None else LfsrReplacement(self._assoc)
        )

    def lookup(self, line: int) -> bool:
        """Probe for ``line``; returns True on hit (and records the touch)."""
        slot = self._slots.get(line)
        if slot is None:
            return False
        self.replacement.touch(*divmod(slot, self._assoc))
        return True

    def contains(self, line: int) -> bool:
        """Non-destructive presence check (does not update recency)."""
        return line in self._slots

    def fill(self, line: int) -> Optional[int]:
        """Allocate ``line``, returning the evicted line (if any).

        Invalid ways are filled first, lowest way first; otherwise the
        replacement policy chooses the victim.  Filling a line that is
        already present is a no-op returning ``None`` (this occurs in
        exclusive hierarchies when the same line was victimised from
        both L1 caches).
        """
        slots = self._slots
        slot = slots.get(line)
        if slot is not None:
            self.replacement.touch(*divmod(slot, self._assoc))
            return None
        set_index = line % self._n_sets
        base = set_index * self._assoc
        evicted = None
        if self._free[set_index]:
            self._free[set_index] -= 1
            slot = self._tags.index(INVALID, base)
        else:
            slot = base + self.replacement.victim_way(set_index)
            evicted = self._tags[slot]
            del slots[evicted]
        self._tags[slot] = line
        slots[line] = slot
        self.replacement.touch(set_index, slot - base)
        return evicted

    def invalidate(self, line: int) -> bool:
        """Remove ``line`` if present; returns True if it was removed."""
        slot = self._slots.pop(line, None)
        if slot is None:
            return False
        self._tags[slot] = INVALID
        self._free[slot // self._assoc] += 1
        return True

    def replay(
        self, lines: Sequence[int], victims: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Run a stream through the cache; returns the positions that missed.

        Without ``victims``, a hit touches the line and a miss fills it
        (a conventional level).  With ``victims``, a hit removes the line
        and each victim but ``NO_VICTIM`` is filled (the exclusive L2).
        State and result match per-reference ``lookup``/``fill``/
        ``invalidate`` calls; the residual positions feed the level below.
        Contiguous ``int64`` inputs are read in place, without a copy.
        """
        exclusive = victims is not None
        fills = memoryview(np.ascontiguousarray(victims if exclusive else lines, dtype=np.int64))
        # Only an exclusive replay reads ``line``; a conventional one fills what it probes.
        lines = memoryview(np.ascontiguousarray(lines, dtype=np.int64)) if exclusive else repeat(0)
        tags, slots, free, n_sets, assoc = (
            self._tags, self._slots, self._free, self._n_sets, self._assoc
        )
        victim_way, touch = self.replacement.victim_way, self.replacement.touch
        lfsr = isinstance(self.replacement, LfsrReplacement)
        if lfsr:  # random replacement keeps no per-access state
            table, cursor, touch = self.replacement.table, self.replacement.cursor, None
            period = len(table)
        missed = array("q")
        for position, line, fill in zip(range(len(fills)), lines, fills):
            if exclusive:
                slot = slots.pop(line, None)
                if slot is None:
                    missed.append(position)
                elif (fill % n_sets != slot // assoc or fill == NO_VICTIM
                      or free[slot // assoc] or fill in slots):
                    tags[slot] = INVALID
                    free[slot // assoc] += 1
                else:
                    # The freed way is the set's only free way: a fill takes it, no draw.
                    tags[slot] = fill
                    slots[fill] = slot
                    if touch is not None:
                        touch(*divmod(slot, assoc))
                    continue
                if fill == NO_VICTIM:
                    continue
            slot = slots.get(fill)
            if slot is not None:
                if touch is not None:
                    touch(*divmod(slot, assoc))
                continue
            if not exclusive:
                missed.append(position)
            set_index = fill % n_sets
            base = set_index * assoc
            if free[set_index]:
                free[set_index] -= 1
                slot = tags.index(INVALID, base)
            else:
                if lfsr:
                    slot = base + table[cursor]
                    cursor = cursor + 1 if cursor + 1 < period else 0
                else:
                    slot = base + victim_way(set_index)
                del slots[tags[slot]]
            tags[slot] = fill
            slots[fill] = slot
            if touch is not None:
                touch(set_index, slot - base)
        if lfsr:
            self.replacement.cursor = cursor
        return np.frombuffer(missed, dtype=np.int64)

    @property
    def n_valid_lines(self) -> int:
        """Number of valid lines currently resident."""
        return len(self._slots)

    def resident_lines(self) -> np.ndarray:
        """Sorted array of all resident line addresses."""
        return np.array(sorted(self._slots), dtype=np.int64)

    def set_contents(self, set_index: int) -> np.ndarray:
        """Copy of one set's tag row (``INVALID`` marks empty ways)."""
        base = set_index * self._assoc
        return np.array(self._tags[base : base + self._assoc], dtype=np.int64)
