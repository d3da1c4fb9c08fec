"""Combine miss rates, timing and area into one evaluated design point."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..area.model import optimal_cache_area
from ..cache.hierarchy import Policy, simulate_hierarchy
from ..cache.results import HierarchyStats
from ..memo import per_trace
from ..traces.address import Trace
from ..traces.store import get_trace
from .config import SystemConfig
from .tpi import TpiBreakdown, compute_tpi

__all__ = ["SystemPerformance", "evaluate", "system_area_rbe"]


@dataclass(frozen=True)
class SystemPerformance:
    """One evaluated point of the design space: TPI vs area."""

    config: SystemConfig
    workload: str
    stats: HierarchyStats
    tpi: TpiBreakdown
    area_rbe: float

    @property
    def tpi_ns(self) -> float:
        return self.tpi.tpi_ns

    @property
    def label(self) -> str:
        return self.config.label

    def __repr__(self) -> str:
        return (
            f"SystemPerformance({self.workload} {self.label}: "
            f"tpi={self.tpi_ns:.2f}ns area={self.area_rbe:.0f}rbe)"
        )


def system_area_rbe(config: SystemConfig) -> float:
    """Total on-chip cache area: two L1 arrays plus the optional L2.

    The L1 caches use ``config.l1_ports``-ported cells; the L2 always
    uses single-ported 6T cells (§6 of the paper).
    """
    l1 = optimal_cache_area(
        config.l1_bytes,
        associativity=1,
        ports=config.l1_ports,
        line_size=config.line_size,
        tech=config.tech,
    )
    total = 2.0 * l1.total
    if config.has_l2:
        l2 = optimal_cache_area(
            config.l2_bytes,
            associativity=config.l2_associativity,
            ports=1,
            line_size=config.line_size,
            tech=config.tech,
        )
        total += l2.total
    return total


@per_trace("stats")
def _cached_stats(
    trace: Trace,
    l1_bytes: int,
    l2_bytes: int,
    l2_associativity: int,
    policy: Policy,
    line_size: int,
) -> HierarchyStats:
    return simulate_hierarchy(
        trace,
        l1_bytes,
        l2_bytes,
        l2_associativity=l2_associativity,
        policy=policy,
        line_size=line_size,
    )


def evaluate(
    config: SystemConfig, workload: Union[str, Trace], scale: "float | None" = None
) -> SystemPerformance:
    """Evaluate ``config`` on ``workload``.

    Parameters
    ----------
    config:
        The design point.
    workload:
        A benchmark name (resolved through the memoised trace store) or
        an explicit :class:`~repro.traces.address.Trace`.
    scale:
        Trace scale when ``workload`` is a name; ``None`` uses the
        environment default.

    Notes
    -----
    Simulation results are memoised on (trace identity, cache shape,
    policy) — the miss counts do not depend on off-chip time, port
    count, or issue width, so e.g. the 50 ns and 200 ns studies share
    one set of simulations.
    """
    trace = get_trace(workload, scale) if isinstance(workload, str) else workload
    stats = _cached_stats(
        trace,
        config.l1_bytes,
        config.l2_bytes,
        config.l2_associativity,
        config.policy if config.has_l2 else Policy.CONVENTIONAL,
        config.line_size,
    )
    return SystemPerformance(
        config=config,
        workload=trace.name,
        stats=stats,
        tpi=compute_tpi(config, stats),
        area_rbe=system_area_rbe(config),
    )
