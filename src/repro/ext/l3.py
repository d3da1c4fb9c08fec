"""An off-chip (board-level) third cache level behind the chip.

The paper collapses everything beyond the chip into a constant service
time: 50 ns "corresponding to systems with ... a board-level cache" and
200 ns without one.  Its §8 closes by noting that inclusion between the
on-chip levels' *sum* and an off-chip third level can still be
maintained.  This extension models that board cache explicitly: on-chip
misses probe a large off-chip SRAM and only its misses pay the DRAM
latency, replacing the constant with a workload-dependent mixture.

The L3 consumes the stream of off-chip fetches, which — for both
on-chip policies — is exactly the sequence of L2-missing lines in
program order.  So the L2 and L3 are two stages below the L1s
(:func:`repro.cache.hierarchy.replay_stages`), built by the core
simulator's :func:`~repro.cache.hierarchy.cache_stage` with its
replacement discipline; without an L2 the L3 is the only stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..cache.geometry import CacheGeometry
from ..cache.hierarchy import DEFAULT_WARMUP_FRACTION, cache_stage, simulate_stages
from ..core.config import SystemConfig
from ..core.tpi import system_timings
from ..errors import ConfigurationError
from ..traces.address import Trace
from ..traces.store import get_trace
from ..units import round_up_to_multiple

__all__ = ["BoardCacheResult", "evaluate_with_board_cache"]


@dataclass(frozen=True)
class BoardCacheResult:
    """TPI with an explicit board-level cache behind the chip."""

    config: SystemConfig
    workload: str
    l3_bytes: int
    l3_hits: int
    l3_misses: int
    board_hit_ns: float
    dram_ns: float
    tpi_ns: float
    constant_model_tpi_ns: float

    @property
    def l3_local_miss_rate(self) -> float:
        total = self.l3_hits + self.l3_misses
        return self.l3_misses / total if total else 0.0

    @property
    def effective_off_chip_ns(self) -> float:
        """Average off-chip service time the L3 mixture produces."""
        total = self.l3_hits + self.l3_misses
        if not total:
            return self.board_hit_ns
        return (
            self.l3_hits * self.board_hit_ns + self.l3_misses * self.dram_ns
        ) / total


def evaluate_with_board_cache(
    config: SystemConfig,
    workload: Union[str, Trace],
    l3_bytes: int = 1 << 20,
    l3_associativity: int = 1,
    board_hit_ns: float = 50.0,
    dram_ns: float = 200.0,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    scale: Optional[float] = None,
) -> BoardCacheResult:
    """TPI with per-fetch board-cache hit/miss latencies.

    ``config.off_chip_ns`` is ignored; every off-chip fetch pays
    ``board_hit_ns`` or ``dram_ns`` (both rounded up to L1 cycles)
    according to an explicit L3 simulation.  The constant-latency TPI
    at ``board_hit_ns`` is also reported for comparison — the paper's
    50 ns abstraction is exactly the limit of a never-missing L3.
    """
    if l3_bytes <= 0:
        raise ConfigurationError("the board cache needs a positive size")
    if dram_ns < board_hit_ns:
        raise ConfigurationError("DRAM cannot be faster than the board cache")
    trace = get_trace(workload, scale) if isinstance(workload, str) else workload

    stages = [cache_stage(CacheGeometry(l3_bytes, config.line_size, l3_associativity))]
    if config.has_l2:
        l2 = CacheGeometry(config.l2_bytes, config.line_size, config.l2_associativity)
        stages.insert(0, cache_stage(l2, config.policy))
    l1, [*l2_counts, (l3_hits, l3_misses)] = simulate_stages(
        trace, config.l1_bytes, stages, config.line_size, warmup_fraction
    )
    l2_hits = l2_counts[0][0] if l2_counts else 0

    timings = system_timings(config)
    hit_ns = round_up_to_multiple(board_hit_ns, timings.l1_cycle_ns)
    miss_ns = round_up_to_multiple(dram_ns, timings.l1_cycle_ns)
    n_instructions = l1.n_instructions

    base = n_instructions * timings.l1_cycle_ns / config.issue_width
    # Without an L2, l2_cycle_ns is 0: no L2 hits, and a fetch pays one L1 cycle.
    hit_penalty = timings.l2_hit_penalty_ns
    probe = (timings.transfers_per_line + 1) * timings.l2_cycle_ns + timings.l1_cycle_ns
    total = (
        base
        + l2_hits * hit_penalty
        + l3_hits * (hit_ns + probe)
        + l3_misses * (miss_ns + probe)
    )
    constant = base + l2_hits * hit_penalty + (l3_hits + l3_misses) * (hit_ns + probe)

    return BoardCacheResult(
        config=config,
        workload=trace.name,
        l3_bytes=l3_bytes,
        l3_hits=l3_hits,
        l3_misses=l3_misses,
        board_hit_ns=hit_ns,
        dram_ns=miss_ns,
        tpi_ns=total / n_instructions,
        constant_model_tpi_ns=constant / n_instructions,
    )
