"""Aggregate statistics produced by a hierarchy simulation."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ModelError

__all__ = ["HierarchyStats"]


@dataclass(frozen=True)
class HierarchyStats:
    """Miss counts for one (trace, cache configuration) simulation.

    The fields mirror the quantities the paper's TPI model consumes:
    instruction count, L1 miss count (which equals the number of L2
    probes in a two-level system), the split of those into L2 hits and
    L2 misses, and — for single-level systems — the number of off-chip
    fetches directly.
    """

    n_instructions: int
    n_data_refs: int
    l1i_misses: int
    l1d_misses: int
    l2_hits: int = 0
    l2_misses: int = 0
    has_l2: bool = False

    def __post_init__(self) -> None:
        if self.has_l2:
            if self.l2_hits + self.l2_misses != self.l1_misses:
                raise ModelError("L2 hit + miss counts must equal L1 misses")
        elif self.l2_hits or self.l2_misses:
            raise ModelError("single-level stats cannot have L2 counts")

    @property
    def n_refs(self) -> int:
        """Total references (instruction + data)."""
        return self.n_instructions + self.n_data_refs

    @property
    def l1_misses(self) -> int:
        """Combined first-level misses (I + D)."""
        return self.l1i_misses + self.l1d_misses

    @property
    def l1_miss_rate(self) -> float:
        """First-level misses per reference."""
        return self.l1_misses / self.n_refs

    @property
    def l2_local_miss_rate(self) -> float:
        """L2 misses per L2 access (0 when the L2 is never probed)."""
        if not self.has_l2 or self.l1_misses == 0:
            return 0.0
        return self.l2_misses / self.l1_misses

    @property
    def off_chip_fetches(self) -> int:
        """References serviced from off-chip."""
        return self.l2_misses if self.has_l2 else self.l1_misses

    @property
    def global_miss_rate(self) -> float:
        """Off-chip fetches per reference."""
        return self.off_chip_fetches / self.n_refs
