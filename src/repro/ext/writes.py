"""Write-back traffic accounting — quantifying what §2.2 abstracts away.

The paper models writes as reads (write-allocate, fetch-on-write), so
its miss counts are exact for write-back caches — but the *traffic* of
dirty victims is invisible.  This extension measures it and prices it
into TPI:

* a dirty L1 victim must be written down to the L2 (or off-chip when
  there is none, or when a non-inclusive L2 does not hold the line);
* an L2 eviction of a dirty line must be written off-chip.

Crucially, with write-allocate the cache *contents* are identical to
the paper's model, so the dirty accounting is purely observational: the
L1 pass reuses the vectorised dirty-victim computation and the L2 pass
replays the same miss stream with dirty bookkeeping bolted on.

Costs are conservative: write-back hardware buffers these transfers, so
each event is charged its transfer time scaled by
``(1 - write_buffer_efficiency)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Union

import numpy as np

from ..cache.directmap import NO_VICTIM, _misses
from ..cache.geometry import CacheGeometry
from ..cache.hierarchy import (
    DEFAULT_WARMUP_FRACTION,
    Policy,
    counted_data_refs,
    l1_miss_stream,
    warmup_end,
)
from ..cache.l2 import SetAssociativeCache
from ..core.config import SystemConfig
from ..core.evaluate import _cached_stats, system_area_rbe
from ..core.tpi import system_timings
from ..errors import ConfigurationError
from ..traces.address import Trace
from ..traces.store import get_trace

__all__ = ["WriteTraffic", "count_write_traffic", "evaluate_with_writes"]


@dataclass(frozen=True)
class WriteTraffic:
    """Write-back event counts (post-warmup window)."""

    #: Dirty L1 victims handed to the level below.
    l1_dirty_victims: int
    #: Of those, victims a non-inclusive L2 did not hold (conventional
    #: policy): they are forwarded straight off-chip.
    l1_writebacks_offchip: int
    #: Dirty lines the L2 evicted off-chip.
    l2_dirty_evictions: int
    #: Counted data references/stores for rate computation.
    n_data_refs: int
    n_stores: int

    @property
    def writeback_rate_per_store(self) -> float:
        """Dirty L1 victims per store (bounded by 1 for 16 B lines)."""
        if self.n_stores == 0:
            return 0.0
        return self.l1_dirty_victims / self.n_stores

    @property
    def offchip_writes(self) -> int:
        """Total write transfers leaving the chip."""
        return self.l1_writebacks_offchip + self.l2_dirty_evictions


def _l1_dirty_flags(trace: Trace, l1_bytes: int, line_size: int) -> np.ndarray:
    """Dirty flag per merged L1 miss event (instruction misses: False)."""
    stream = l1_miss_stream(trace, l1_bytes, line_size)
    n_sets = CacheGeometry(l1_bytes, line_size=line_size, associativity=1).n_sets
    *_, d_dirty = _misses(trace.d_addrs, n_sets, line_size, trace.d_is_store)
    # The D-cache's misses are exactly the data events of the merged
    # stream, in the same order.  Instruction victims are never dirty
    # (code is read-only on these machines).
    dirty = np.zeros(len(stream), dtype=bool)
    dirty[~stream.is_instruction] = d_dirty
    return dirty


def count_write_traffic(
    workload: Union[str, Trace],
    l1_bytes: int,
    l2_bytes: int = 0,
    l2_associativity: int = 4,
    policy: Policy = Policy.CONVENTIONAL,
    line_size: int = 16,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    scale: Optional[float] = None,
) -> WriteTraffic:
    """Count write-back events for one configuration.

    The replay mirrors :func:`repro.cache.hierarchy.simulate_hierarchy`
    exactly (same policies, same LFSR stream), adding dirty bits:

    * conventional — a dirty L1 victim updates the L2 copy when present
      (marking it dirty) and otherwise goes off-chip; L2 fills evicting
      a dirty line write it off-chip;
    * exclusive — every L1 victim is inserted into the L2 carrying its
      dirty bit; a line promoted to the L1 by a swap carries its dirty
      state back up (it returns dirty even without further stores).
    """
    trace = get_trace(workload, scale) if isinstance(workload, str) else workload
    warmup_time = warmup_end(trace, warmup_fraction)
    stream = l1_miss_stream(trace, l1_bytes, line_size)
    dirty_flags = _l1_dirty_flags(trace, l1_bytes, line_size)
    counted_mask = stream.times >= warmup_time

    n_data = counted_data_refs(trace, warmup_time)
    d_counted = trace.d_times >= warmup_time
    n_stores = int((trace.d_is_store & d_counted).sum())

    l1_dirty_victims = 0
    l1_writebacks_offchip = 0
    l2_dirty_evictions = 0

    if l2_bytes == 0:
        # Single level: every dirty victim goes straight off-chip.
        l1_dirty_victims = int((dirty_flags & counted_mask).sum())
        return WriteTraffic(
            l1_dirty_victims=l1_dirty_victims,
            l1_writebacks_offchip=l1_dirty_victims,
            l2_dirty_evictions=0,
            n_data_refs=n_data,
            n_stores=n_stores,
        )

    geometry = CacheGeometry(l2_bytes, line_size=line_size, associativity=l2_associativity)
    cache = SetAssociativeCache(geometry)
    l2_dirty: Set[int] = set()
    carried_dirty: Set[int] = set()

    lines = stream.lines.tolist()
    victims = stream.victims.tolist()
    counted_list = counted_mask.tolist()
    dirty_list = dirty_flags.tolist()

    def evict_to_offchip(evicted: "int | None", counted: int) -> None:
        nonlocal l2_dirty_evictions
        if evicted is not None and evicted in l2_dirty:
            l2_dirty.discard(evicted)
            l2_dirty_evictions += counted

    if policy is Policy.CONVENTIONAL:
        for line, victim, counted, dirty in zip(
            lines, victims, counted_list, dirty_list
        ):
            if not cache.lookup(line):
                evict_to_offchip(cache.fill(line), counted)
            if victim != NO_VICTIM and dirty:
                l1_dirty_victims += counted
                if cache.contains(victim):
                    l2_dirty.add(victim)
                else:
                    l1_writebacks_offchip += counted
    else:
        for line, victim, counted, dirty in zip(
            lines, victims, counted_list, dirty_list
        ):
            if cache.lookup(line):
                cache.invalidate(line)
                if line in l2_dirty:
                    # The promoted line is dirty in the L1 from now on.
                    l2_dirty.discard(line)
                    carried_dirty.add(line)
            if victim != NO_VICTIM:
                victim_dirty = dirty or victim in carried_dirty
                carried_dirty.discard(victim)
                if victim_dirty:
                    l1_dirty_victims += counted
                evict_to_offchip(cache.fill(victim), counted)
                if victim_dirty:
                    l2_dirty.add(victim)
                else:
                    l2_dirty.discard(victim)

    return WriteTraffic(
        l1_dirty_victims=l1_dirty_victims,
        l1_writebacks_offchip=l1_writebacks_offchip,
        l2_dirty_evictions=l2_dirty_evictions,
        n_data_refs=n_data,
        n_stores=n_stores,
    )


@dataclass(frozen=True)
class WritebackTpi:
    """Baseline TPI plus write-back stall terms."""

    baseline_tpi_ns: float
    l1_writeback_ns: float
    offchip_writeback_ns: float
    n_instructions: int
    traffic: WriteTraffic
    area_rbe: float

    @property
    def tpi_ns(self) -> float:
        return (
            self.baseline_tpi_ns
            + (self.l1_writeback_ns + self.offchip_writeback_ns)
            / self.n_instructions
        )

    @property
    def writeback_overhead(self) -> float:
        """Relative TPI increase from write-back traffic."""
        return self.tpi_ns / self.baseline_tpi_ns - 1.0


def evaluate_with_writes(
    config: SystemConfig,
    workload: Union[str, Trace],
    write_buffer_efficiency: float = 0.8,
    scale: Optional[float] = None,
) -> WritebackTpi:
    """Baseline TPI plus conservative write-back costs.

    Each dirty L1 victim costs two L2 cycles (two 8-byte transfers) and
    each off-chip write costs the off-chip service time, both scaled by
    ``1 - write_buffer_efficiency`` (a write buffer hides most of it).
    """
    if not 0.0 <= write_buffer_efficiency <= 1.0:
        raise ConfigurationError("write_buffer_efficiency must be in [0, 1]")
    trace = get_trace(workload, scale) if isinstance(workload, str) else workload
    stats = _cached_stats(
        trace,
        config.l1_bytes,
        config.l2_bytes,
        config.l2_associativity,
        config.policy if config.has_l2 else Policy.CONVENTIONAL,
        config.line_size,
    )
    traffic = count_write_traffic(
        trace,
        config.l1_bytes,
        config.l2_bytes,
        config.l2_associativity,
        config.policy if config.has_l2 else Policy.CONVENTIONAL,
        config.line_size,
    )
    timings = system_timings(config)
    from ..core.tpi import compute_tpi

    baseline = compute_tpi(config, stats)
    exposed = 1.0 - write_buffer_efficiency
    to_l2 = traffic.l1_dirty_victims - traffic.l1_writebacks_offchip
    l1_writeback_ns = to_l2 * 2.0 * timings.l2_cycle_ns * exposed
    offchip_writeback_ns = traffic.offchip_writes * timings.off_chip_ns * exposed
    return WritebackTpi(
        baseline_tpi_ns=baseline.tpi_ns,
        l1_writeback_ns=l1_writeback_ns,
        offchip_writeback_ns=offchip_writeback_ns,
        n_instructions=stats.n_instructions,
        traffic=traffic,
        area_rbe=system_area_rbe(config),
    )
