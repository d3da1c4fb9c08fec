"""Best-performance envelopes (the paper's staircase lines).

Every figure in the paper draws, over a cloud of (area, TPI) points,
the *best performance envelope*: for each available chip area, the
lowest TPI achievable by any configuration fitting in that area.  The
envelope is the lower-left Pareto staircase of the point cloud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple, TypeVar

from .evaluate import SystemPerformance

__all__ = ["EnvelopePoint", "best_envelope", "envelope_tpi_at", "staircase"]

T = TypeVar("T")


@dataclass(frozen=True)
class EnvelopePoint:
    """One corner of the best-performance staircase."""

    area_rbe: float
    tpi_ns: float
    performance: SystemPerformance

    @property
    def label(self) -> str:
        return self.performance.label


def staircase(items: Iterable[T], area_tpi: Callable[[T], Tuple[float, float]]) -> List[T]:
    """The items on the Pareto staircase of their ``(area, tpi)`` pairs.

    An item is kept iff no other item has both no more area and
    strictly lower TPI (ties in TPI keep the smaller-area item only).
    Returns the kept items sorted by increasing area (hence strictly
    decreasing TPI).
    """
    kept: List[T] = []
    best_tpi = math.inf
    for item in sorted(items, key=area_tpi):
        tpi = area_tpi(item)[1]
        if tpi < best_tpi - 1e-12:
            kept.append(item)
            best_tpi = tpi
    return kept


def best_envelope(points: Iterable[SystemPerformance]) -> List[EnvelopePoint]:
    """The best-performance envelope: the :func:`staircase` of ``points``."""
    return [
        EnvelopePoint(area_rbe=perf.area_rbe, tpi_ns=perf.tpi_ns, performance=perf)
        for perf in staircase(points, lambda p: (p.area_rbe, p.tpi_ns))
    ]


def envelope_tpi_at(
    envelope: Sequence[EnvelopePoint], area_budget_rbe: float
) -> float:
    """Best TPI achievable within ``area_budget_rbe``.

    Returns ``math.inf`` when even the smallest configuration does not
    fit — the paper's staircases simply do not extend that far left.
    """
    best = math.inf
    for point in envelope:
        if point.area_rbe <= area_budget_rbe:
            best = point.tpi_ns
        else:
            break
    return best
