"""Vectorised direct-mapped cache filter.

A direct-mapped cache has no replacement choice: at any instant, each
set holds exactly the most recently referenced line that maps to it.
Consequently reference *i* misses **iff** the closest previous reference
mapping to the same set used a different line — a property of the
reference stream alone.  A stable sort by set index brings every set's
references together in program order, so one vectorised pass yields
every miss *and* the victim line evicted by it.

The pass is sparse.  A reference equal to the one just before it always
hits, so only the first of each run of equal lines is sorted (a quarter
of a sequential instruction stream); the set key takes the narrowest
unsigned type, where numpy's stable sort is a radix sort up to 16 bits;
and :func:`direct_mapped_misses` returns only the misses and victims.

This is what makes whole-design-space sweeps tractable in Python: the
L1 caches (always direct-mapped in the paper) are filtered at numpy
speed, and only their miss streams reach the slower stateful L2
simulator.  Equivalence with the straightforward simulator is proven by
property-based tests (see ``tests/test_directmap.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import GeometryError, TraceError

__all__ = [
    "DirectMappedFilter",
    "direct_mapped_filter",
    "direct_mapped_misses",
    "dirty_victim_mask",
]

#: Marker for "no victim" (cold fill into an empty set).
NO_VICTIM = -1


@dataclass(frozen=True)
class DirectMappedFilter:
    """Result of filtering a line-address stream through a DM cache.

    Attributes
    ----------
    miss_mask:
        Boolean per reference: True where the cache missed.
    victims:
        Per reference, the line address evicted by the fill (only
        meaningful where ``miss_mask`` is True); ``NO_VICTIM`` for hits
        and for cold fills into an empty set.
    """

    miss_mask: np.ndarray
    victims: np.ndarray

    @property
    def n_refs(self) -> int:
        return len(self.miss_mask)

    @property
    def n_misses(self) -> int:
        return int(self.miss_mask.sum())

    @property
    def miss_rate(self) -> float:
        if self.n_refs == 0:
            return 0.0
        return self.n_misses / self.n_refs


def _set_sorted_runs(lines: np.ndarray, n_sets: int) -> Tuple[np.ndarray, ...]:
    """The run heads of ``lines``, stably sorted by set.

    Returns ``heads`` (the positions that start a run of equal lines),
    the ``order`` sorting them by set, their sorted ``lines``, ``new_set``
    (True where a set's group begins) and ``misses``, the sorted indices
    that start a set group or change line within one.  Each residency is
    the run from one miss to the next.
    """
    if n_sets < 1:
        raise GeometryError("n_sets must be >= 1")
    keep = np.ones(len(lines), dtype=bool)
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    heads = np.flatnonzero(keep)
    key = (lines[heads] % n_sets).astype(np.min_scalar_type(n_sets - 1))
    order = np.argsort(key, kind="stable")
    sorted_lines = lines[heads[order]]
    sorted_key = key[order]
    new_set = np.ones(len(order), dtype=bool)
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new_set[1:])
    miss = new_set.copy()
    miss[1:] |= sorted_lines[1:] != sorted_lines[:-1]
    return heads, order, sorted_lines, new_set, np.flatnonzero(miss)


def direct_mapped_misses(
    lines: np.ndarray, n_sets: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Positions at which a direct-mapped cache misses, and the victims.

    Parameters
    ----------
    lines:
        Line addresses (byte address // line size), in program order.
    n_sets:
        Number of cache sets (= number of lines for a DM cache).

    Returns
    -------
    (positions, victims)
        Increasing ``int64`` indices into ``lines`` of every miss, and
        the line each miss evicts (``NO_VICTIM`` for a cold fill).
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    heads, order, sorted_lines, new_set, misses = _set_sorted_runs(lines, n_sets)
    victims = np.where(new_set[misses], NO_VICTIM, sorted_lines[misses - 1])
    positions = heads[order[misses]]
    by_position = np.argsort(positions, kind="stable")
    return positions[by_position], victims[by_position]


def direct_mapped_filter(lines: np.ndarray, n_sets: int) -> DirectMappedFilter:
    """Simulate a direct-mapped cache over a stream of line addresses.

    The dense, per-reference form of :func:`direct_mapped_misses`: a
    miss mask and victim array both aligned with ``lines``.
    """
    positions, victims = direct_mapped_misses(lines, n_sets)
    miss = np.zeros(len(lines), dtype=bool)
    miss[positions] = True
    dense_victims = np.full(len(lines), NO_VICTIM, dtype=np.int64)
    dense_victims[positions] = victims
    return DirectMappedFilter(miss, dense_victims)


def dirty_victim_mask(
    lines: np.ndarray, is_store: np.ndarray, n_sets: int
) -> np.ndarray:
    """Per-reference flag: does this miss evict a *dirty* victim?

    A direct-mapped victim is dirty iff the evicted line received at
    least one store during its residency.  In the set-sorted view of
    :func:`direct_mapped_misses`, each residency is a run between two
    consecutive misses of a set, so the dirty flag of the victim at a
    replacement is the OR of ``is_store`` over the preceding residency
    (each run head first ORs the stores of the duplicates it stands for).

    Returns a boolean array aligned with ``lines``; True only at
    positions that are misses evicting a dirty line.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    is_store = np.ascontiguousarray(is_store, dtype=bool)
    if len(lines) != len(is_store):
        raise TraceError("lines and is_store must align")
    result = np.zeros(len(lines), dtype=bool)
    heads, order, _, new_set, misses = _set_sorted_runs(lines, n_sets)
    if len(lines) == 0:
        return result
    run_stores = np.logical_or.reduceat(is_store, heads)[order]
    residency_dirty = np.logical_or.reduceat(run_stores, misses)
    evicting = misses[1:]
    result[heads[order[evicting]]] = residency_dirty[:-1] & ~new_set[evicting]
    return result
