"""Organisation search: the fastest layout for each cache geometry.

The paper always organised each memory "to give the highest
performance": the model scores every feasible array organisation and
keeps the one with the minimum cycle time (ties broken by access time,
then by fewest subarrays, which is also the cheapest in area, then by
``enumerate_organizations`` order).  The data side depends only on
``(ndwl, ndbl, nspd)``, the tag side only on ``(ntwl, ntbl, ntspd)``, and
access and cycle time combine them with ``max`` and ``+`` alone.  So
each side's layouts (at most 125) are scored once by the scalar stage
model, the same combination broadcast over numpy arrays gives every
pairing's times bit for bit, and the scalar model recomputes the
winner's :class:`TimingResult`.  Results are memoised — the design-space
sweeps ask for the same handful of geometries thousands of times.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..cache.geometry import DEFAULT_LINE_SIZE, CacheGeometry
from ..memo import register
from .model import TimingResult, _combine, _data_side, _tag_side, access_and_cycle_time
from .organization import ArrayOrganization, side_candidates
from .technology import TECH_05UM, Technology

__all__ = ["optimal_timing"]


def lexicographic_argmin(*keys: np.ndarray) -> int:
    """Flat C-order index of the smallest entry by ``keys``, first key first.

    Full ties go to the lowest index, as in a scan that keeps the first
    strictly smaller key tuple.
    """
    candidates = np.ones(keys[0].shape, dtype=bool)
    for key in keys:
        candidates &= key == key[candidates].min()
    return int(np.flatnonzero(candidates)[0])


@register("timing")
@lru_cache(maxsize=4096)
def _optimal_timing_cached(
    size_bytes: int, line_size: int, associativity: int, tech: Technology
) -> TimingResult:
    geometry = CacheGeometry(
        size_bytes, line_size=line_size, associativity=associativity
    )
    data, tags = side_candidates(geometry)
    # (delay, restore) per layout; data layouts run down the rows and tag
    # layouts across the columns, so the flat C-order index of the grid
    # is the organisation's enumerate_organizations position.
    d = np.array([_data_side(geometry, *triple, tech)[:2] for triple in data])
    t = np.array([_tag_side(geometry, *triple, tech)[:2] for triple in tags])
    access, cycle, _ = _combine(
        geometry, tech, d[:, :1], t[:, 0], d[:, 1:], t[:, 1], maximum=np.maximum
    )
    subarrays = np.array(data)[:, :2].prod(axis=1)[:, None] + np.array(tags)[:, :2].prod(axis=1)
    row, col = divmod(lexicographic_argmin(cycle, access, subarrays), len(tags))
    return access_and_cycle_time(geometry, ArrayOrganization(*data[row], *tags[col]), tech)


def optimal_timing(
    size_bytes: int,
    associativity: int = 1,
    line_size: int = DEFAULT_LINE_SIZE,
    tech: Technology = TECH_05UM,
) -> TimingResult:
    """Fastest access/cycle times for a cache of ``size_bytes``.

    Parameters
    ----------
    size_bytes:
        Data capacity (power of two).
    associativity:
        Ways per set (1 or 4 in the paper).
    line_size:
        Line size in bytes (16 in the paper).
    tech:
        Technology point; defaults to the paper's scaled 0.5 µm process.

    Returns
    -------
    TimingResult
        The minimum-cycle-time organisation and its breakdown.
    """
    return _optimal_timing_cached(size_bytes, line_size, associativity, tech)
