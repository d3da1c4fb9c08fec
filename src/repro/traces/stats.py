"""Summary statistics over traces (used by the Table 1 reproduction)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .address import Trace

__all__ = ["TraceStats", "compute_stats"]


@dataclass(frozen=True)
class TraceStats:
    """Counts and footprints for one trace.

    Footprints are measured in unique 16-byte lines touched, converted
    to bytes, which is the quantity that determines where miss-rate
    curves flatten.
    """

    name: str
    n_instructions: int
    n_data_refs: int
    instruction_footprint_bytes: int
    data_footprint_bytes: int

    @property
    def n_refs(self) -> int:
        """Total references (instruction + data)."""
        return self.n_instructions + self.n_data_refs

    @property
    def data_ratio(self) -> float:
        """Data references per instruction."""
        return self.n_data_refs / self.n_instructions

    @property
    def total_footprint_bytes(self) -> int:
        """Combined unique-line footprint in bytes."""
        return self.instruction_footprint_bytes + self.data_footprint_bytes


def _distinct(values: np.ndarray) -> int:
    """Number of distinct values: sort, then count the changes.

    ``len(np.unique(values))`` does the same work through a hash table
    for ``int64`` (numpy 2.x), several times slower on trace streams.
    """
    if len(values) == 0:
        return 0
    ordered = np.sort(values)
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def compute_stats(trace: Trace, line_size: int = 16) -> TraceStats:
    """Compute :class:`TraceStats` for ``trace`` at ``line_size`` granularity."""
    i_unique = _distinct(trace.i_lines(line_size))
    d_unique = _distinct(trace.d_lines(line_size))
    return TraceStats(
        name=trace.name,
        n_instructions=trace.n_instructions,
        n_data_refs=trace.n_data_refs,
        instruction_footprint_bytes=i_unique * line_size,
        data_footprint_bytes=d_unique * line_size,
    )
