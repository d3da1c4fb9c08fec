"""Vectorised direct-mapped cache filter.

A direct-mapped cache has no replacement choice: at any instant, each
set holds exactly the most recently referenced line that maps to it.
Consequently reference *i* misses **iff** the closest previous reference
mapping to the same set used a different line — a property of the
reference stream alone.  A stable sort by set index brings every set's
references together in program order, so one vectorised pass yields
every miss *and* the victim line evicted by it.

The pass is sparse and lean.  A reference equal to the one just before
it always hits, so only the first of each run of equal lines is sorted
(a quarter of a sequential instruction stream).  The run heads are found
a chunk at a time straight from the byte addresses, so no full-length
line array exists.  The set key takes the narrowest unsigned type, where
numpy's stable sort is a radix sort up to 16 bits.  Program order is
restored by a scatter over the heads, and only the misses, their lines
and their victims are returned.

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


#: References per chunk of the run-head pass: one chunk's lines stay in cache.
_CHUNK = 1 << 15


def _run_heads(addrs: np.ndarray, n_sets: int, shift: int) -> Tuple[np.ndarray, np.ndarray]:
    """The positions (``int32`` below 2**31 references) that start a run of
    equal lines ``addrs >> shift``, and the set of each, a chunk at a time."""
    index, key = (np.int32 if len(addrs) < 2**31 else np.int64), np.min_scalar_type(n_sets - 1)
    heads, keys, last = [np.empty(0, dtype=index)], [np.empty(0, dtype=key)], None
    for start in range(0, len(addrs), _CHUNK):
        lines = addrs[start : start + _CHUNK] >> shift
        keep = np.empty(len(lines), dtype=bool)
        keep[0] = start == 0 or lines[0] != last
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        last = lines[-1]
        chunk_heads = np.flatnonzero(keep)
        keys.append((lines[chunk_heads] % n_sets).astype(key))
        heads.append(chunk_heads.astype(index) + start)
    return np.concatenate(heads), np.concatenate(keys)


def _set_sorted_runs(addrs: np.ndarray, n_sets: int, line_size: int = 1) -> Tuple[np.ndarray, ...]:
    """The run heads of the lines ``addrs // line_size``, stably sorted by set.

    Returns ``heads`` (the positions that start a run of equal lines, in
    program order), the ``order`` sorting them by set, their sorted
    ``lines``, ``new_set`` (True where a set's group begins) and
    ``misses``, the sorted indices that start a set group or change line
    within one.  Each residency is the run from one miss to the next.
    """
    if n_sets < 1:
        raise GeometryError("n_sets must be >= 1")
    shift = line_size.bit_length() - 1  # a power of two, as CacheGeometry checks
    heads, key = _run_heads(addrs, n_sets, shift)
    order = np.argsort(key, kind="stable").astype(heads.dtype)
    sorted_lines = addrs[heads[order]]
    sorted_lines >>= shift
    sorted_key = key[order]
    new_set = np.ones(len(order), dtype=bool)
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new_set[1:])
    miss = new_set.copy()
    miss[1:] |= sorted_lines[1:] != sorted_lines[:-1]
    return heads, order, sorted_lines, new_set, np.flatnonzero(miss)


def _in_program_order(
    heads: np.ndarray, order: np.ndarray, misses: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The positions of ``misses`` in program order, and for each its
    index into ``misses``: a scatter over the run heads, not a second sort."""
    at = order[misses]
    rank = np.empty(len(heads), dtype=heads.dtype)
    rank[at] = np.arange(len(misses), dtype=heads.dtype)
    is_miss = np.zeros(len(heads), dtype=bool)
    is_miss[at] = True
    at = np.flatnonzero(is_miss)  # sparse masks gather slowly: index instead
    return heads[at], rank[at]


def _misses(
    addrs: np.ndarray, n_sets: int, line_size: int = 1, is_store: "np.ndarray | None" = None
) -> Tuple[np.ndarray, ...]:
    """The misses of a direct-mapped cache over the lines ``addrs // line_size``:
    in program order, their ``positions`` into ``addrs``, ``lines`` and
    ``victims`` (``NO_VICTIM`` for a cold fill); with ``is_store``, also
    whether each victim is *dirty*.  Each residency is the run between two
    consecutive misses of a set, so a victim's flag ORs ``is_store`` over
    the residency before it (each run head first ORs its duplicates')."""
    heads, order, sorted_lines, new_set, misses = _set_sorted_runs(addrs, n_sets, line_size)
    missed = [sorted_lines[misses], sorted_lines[misses - 1]]
    missed[1][new_set[misses]] = NO_VICTIM
    if is_store is not None:
        missed.append(np.zeros(len(misses), dtype=bool))
        run_stores = np.logical_or.reduceat(is_store, heads)[order]
        residency_dirty = np.logical_or.reduceat(run_stores, misses)
        np.greater(residency_dirty[:-1], new_set[misses[1:]], out=missed[2][1:])
    del sorted_lines, new_set  # per-head arrays: not alive during the scatter
    positions, by_position = _in_program_order(heads, order, misses)
    return (positions, *(column[by_position] for column in missed))


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
        Increasing indices into ``lines`` of every miss (``int32`` below
        2**31 references), and the line each miss evicts (``NO_VICTIM``
        for a cold fill).
    """
    positions, _, victims = _misses(np.ascontiguousarray(lines, dtype=np.int64), n_sets)
    return positions, victims


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
    least one store during its residency (see :func:`_misses`).

    Returns a boolean array aligned with ``lines``; True only at
    positions that are misses evicting a dirty line.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    is_store = np.ascontiguousarray(is_store, dtype=bool)
    if len(lines) != len(is_store):
        raise TraceError("lines and is_store must align")
    positions, _, _, dirty = _misses(lines, n_sets, is_store=is_store)
    result = np.zeros(len(lines), dtype=bool)
    result[positions] = dirty
    return result
