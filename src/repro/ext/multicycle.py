"""Multicycle (pipelined) first-level caches — §10's first conjecture.

The baseline study assumes the processor cycle time *is* the L1 cycle
time, so growing the L1 slows every instruction.  Real designs pipeline
large L1s instead: the clock is set by the datapath and an L1 access
takes ``ceil(access / clock)`` cycles.  The paper conjectures this
"would reduce the effectiveness of two-level on-chip caching in
baseline configurations since the longer latency of larger first-level
cache accesses would not set the cycle time".

Model
-----
* The clock is ``datapath_cycle_ns`` (independent of cache sizes).
* An L1 access takes ``l1_cycles = ceil(l1_access / clock)`` cycles.
  Cycles beyond the first stall dependent instructions with probability
  ``load_sensitivity`` per data reference (1.0 = every load's extra
  latency is exposed; numeric codes that tolerate latency sit nearer
  0); instruction fetch is assumed fully pipelined.
* Miss penalties follow §2.5 with the L2 cycle and off-chip time
  quantised to the datapath clock.

The conjecture is validated in ``tests/test_ext_multicycle.py`` and the
``future-work-multicycle`` row of ``tests/test_exhibit_shapes.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from ..cache.hierarchy import Policy
from ..core.config import SystemConfig
from ..core.evaluate import _cached_stats, system_area_rbe
from ..errors import ConfigurationError
from ..timing.optimal import optimal_timing
from ..traces.address import Trace
from ..traces.store import get_trace
from ..units import round_up_to_multiple

__all__ = ["MulticycleResult", "evaluate_multicycle"]

#: A fast 0.5 µm datapath clock: roughly what the timing model gives a
#: small (≈2 KB) cache, i.e. the cycle the paper's machine would have if
#: caches never slowed it.
DEFAULT_DATAPATH_CYCLE_NS = 1.8


@dataclass(frozen=True)
class MulticycleResult:
    """TPI under the multicycle-L1 model."""

    config: SystemConfig
    workload: str
    clock_ns: float
    l1_cycles: int
    load_stall_ns: float
    base_ns: float
    l2_hit_ns: float
    off_chip_ns: float
    n_instructions: int
    area_rbe: float

    @property
    def total_ns(self) -> float:
        return self.base_ns + self.load_stall_ns + self.l2_hit_ns + self.off_chip_ns

    @property
    def tpi_ns(self) -> float:
        return self.total_ns / self.n_instructions

    @property
    def label(self) -> str:
        return self.config.label


def evaluate_multicycle(
    config: SystemConfig,
    workload: Union[str, Trace],
    datapath_cycle_ns: float = DEFAULT_DATAPATH_CYCLE_NS,
    load_sensitivity: float = 0.5,
    scale: Optional[float] = None,
) -> MulticycleResult:
    """Evaluate ``config`` with a fixed datapath clock and pipelined L1.

    Parameters
    ----------
    config:
        The cache system (``issue_width`` is honoured as in the base
        model).
    datapath_cycle_ns:
        The clock, now set by the datapath rather than the L1.
    load_sensitivity:
        Fraction of extra L1 latency cycles exposed as stalls per data
        reference (0 = fully tolerated, 1 = fully exposed).
    """
    if datapath_cycle_ns <= 0:
        raise ConfigurationError("datapath_cycle_ns must be positive")
    if not 0.0 <= load_sensitivity <= 1.0:
        raise ConfigurationError("load_sensitivity must be in [0, 1]")

    trace = get_trace(workload, scale) if isinstance(workload, str) else workload
    stats = _cached_stats(
        trace,
        config.l1_bytes,
        config.l2_bytes,
        config.l2_associativity,
        config.policy if config.has_l2 else Policy.CONVENTIONAL,
        config.line_size,
    )

    clock = datapath_cycle_ns
    l1_access = optimal_timing(
        config.l1_bytes, 1, line_size=config.line_size, tech=config.tech
    ).access_ns
    l1_cycles = max(1, math.ceil(l1_access / clock - 1e-9))

    base = stats.n_instructions * clock / config.issue_width
    load_stall = (
        stats.n_data_refs * load_sensitivity * (l1_cycles - 1) * clock
    )

    if config.has_l2:
        l2_raw = optimal_timing(
            config.l2_bytes,
            config.l2_associativity,
            line_size=config.line_size,
            tech=config.tech,
        ).cycle_ns
        l2_cycle = round_up_to_multiple(l2_raw, clock)
        off_chip = round_up_to_multiple(config.off_chip_ns, clock)
        l2_hit_time = stats.l2_hits * (2.0 * l2_cycle + clock)
        off_chip_time = stats.l2_misses * (off_chip + 3.0 * l2_cycle + clock)
    else:
        off_chip = round_up_to_multiple(config.off_chip_ns, clock)
        l2_hit_time = 0.0
        off_chip_time = stats.l1_misses * (off_chip + clock)

    return MulticycleResult(
        config=config,
        workload=trace.name,
        clock_ns=clock,
        l1_cycles=l1_cycles,
        load_stall_ns=load_stall,
        base_ns=base,
        l2_hit_ns=l2_hit_time,
        off_chip_ns=off_chip_time,
        n_instructions=stats.n_instructions,
        area_rbe=system_area_rbe(config),
    )
