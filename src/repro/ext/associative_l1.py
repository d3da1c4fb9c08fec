"""Set-associative first-level caches — testing Hill's claim (ref [3]).

§4: "direct-mapped caches usually provide the best performance for
first-level caches [3]" — Hill's *A Case for Direct-Mapped Caches*.
The argument is exactly the one this library can quantify: higher
associativity lowers the miss rate but raises the access/cycle time,
and since the L1 cycle *is* the machine cycle, every instruction pays.

Associative L1s break the vectorised decomposition (replacement state
matters), so each L1 replays its stream through the stateful cache, but
only the references that miss a direct-mapped cache with the same set
count: any other hits the way its set touched last, which changes no
LRU state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..cache.directmap import _misses
from ..cache.geometry import DEFAULT_LINE_SIZE, CacheGeometry
from ..cache.hierarchy import DEFAULT_WARMUP_FRACTION, counted_data_refs, warmup_end
from ..cache.l2 import SetAssociativeCache
from ..cache.replacement import LruReplacement
from ..errors import ConfigurationError
from ..timing.optimal import optimal_timing
from ..traces.address import Trace
from ..traces.store import get_trace
from ..units import round_up_to_multiple

__all__ = ["AssociativeL1Result", "evaluate_associative_l1"]


@dataclass(frozen=True)
class AssociativeL1Result:
    """Single-level machine with ``associativity``-way LRU L1 caches."""

    workload: str
    l1_bytes: int
    associativity: int
    n_instructions: int
    n_data_refs: int
    l1_misses: int
    l1_cycle_ns: float
    tpi_ns: float

    @property
    def n_refs(self) -> int:
        return self.n_instructions + self.n_data_refs

    @property
    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.n_refs


def evaluate_associative_l1(
    workload: Union[str, Trace],
    l1_bytes: int,
    associativity: int = 1,
    off_chip_ns: float = 50.0,
    line_size: int = DEFAULT_LINE_SIZE,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    scale: Optional[float] = None,
) -> AssociativeL1Result:
    """Miss rate *and* TPI of a single-level machine with A-way L1s.

    LRU replacement (the favourable case for associativity — random
    would only weaken it); the machine cycle is the A-way L1's cycle
    time from the timing model, so Hill's tradeoff is priced in.
    """
    if associativity < 1:
        raise ConfigurationError("associativity must be >= 1")
    trace = get_trace(workload, scale) if isinstance(workload, str) else workload

    geometry = CacheGeometry(l1_bytes, line_size=line_size, associativity=associativity)
    warmup_time = warmup_end(trace, warmup_fraction)

    def counted_misses(addrs: np.ndarray, times: np.ndarray) -> int:
        # The I and D caches are independent, so each stream replays on
        # its own, and only the references that miss a DM cache of the
        # same set count: any other re-touches its set's MRU way.
        missed, lines, _ = _misses(addrs, geometry.n_sets, line_size)
        cache = SetAssociativeCache(
            geometry, LruReplacement(associativity, geometry.n_sets)
        )
        missed = missed[cache.replay(lines)]
        return int(np.count_nonzero(times[missed] >= warmup_time))

    misses = counted_misses(
        trace.i_addrs, np.arange(trace.n_instructions)
    ) + counted_misses(trace.d_addrs, trace.d_times)
    counted_data = counted_data_refs(trace, warmup_time)

    timing = optimal_timing(l1_bytes, associativity, line_size)
    cycle_ns = timing.cycle_ns
    off_chip = round_up_to_multiple(off_chip_ns, cycle_ns)
    n_instructions = trace.n_instructions - warmup_time
    total = n_instructions * cycle_ns + misses * (off_chip + cycle_ns)
    return AssociativeL1Result(
        workload=trace.name,
        l1_bytes=l1_bytes,
        associativity=associativity,
        n_instructions=n_instructions,
        n_data_refs=counted_data,
        l1_misses=misses,
        l1_cycle_ns=cycle_ns,
        tpi_ns=total / n_instructions,
    )
