"""Stateful set-associative cache used for the second level.

Only the L1 miss stream reaches this simulator (a few percent of all
references), so it is a per-reference loop over plain Python
containers.  Tags sit in one flat list of ``n_sets × associativity``
slots (set ``s`` owns the ``associativity`` slots from
``s × associativity``); ``INVALID`` (-1) marks an empty way, which is
safe because line addresses are non-negative.  A dict maps each
resident line to its slot.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

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
        row = self._tags[base : base + self._assoc]
        if INVALID in row:
            slot = base + row.index(INVALID)
            evicted = None
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
        return True

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
