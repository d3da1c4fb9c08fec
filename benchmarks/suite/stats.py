"""Summary statistics shared by the suite, its comparison tool and tests.

A latency is reported as its median plus the highest percentile that
still has at least ``MIN_BEYOND`` samples above it, always with the
sample count: a "p99" over six samples is just the maximum, and says
nothing about the tail.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of ``pct`` in ``n`` samples (rounded so 99.9 % of 10000 is 9990)."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct`` % at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(pct, len(samples)) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it."""
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= MIN_BEYOND:
            return pct
    return None


def latency_summary(samples: Sequence[float]) -> Dict[str, object]:
    """Median, the defensible tail percentile, and ``n``, in the samples' unit."""
    summary: Dict[str, object] = {"n": len(samples)}
    if not samples:
        return summary
    summary["p50"] = statistics.median(samples)
    pct = tail_percentile(len(samples))
    if pct is not None and pct != 50.0:
        summary["tail"] = f"p{pct:g}"
        summary["tail_value"] = percentile(samples, pct)
    return summary


def relative_spread(samples: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 below 2 samples)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return (q3 - q1) / median if median else math.inf
