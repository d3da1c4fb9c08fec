"""Resource watchdog: disk preflight and per-worker memory high-water.

Production-length sweeps die for boring reasons — a full results disk,
a worker ballooning past the container's memory limit — and the worst
failure mode is an opaque crash that loses the run.  The watchdog turns
both into typed, recoverable behaviour:

* **disk preflight** — before a run touches its output directory, the
  free space on the target filesystem is checked against a floor;
  falling below it raises :class:`~repro.errors.ResourceError` *before*
  any artefact or journal write can be torn by ``ENOSPC`` mid-run
  (writes that still hit a full disk surface as retryable
  ``CheckpointError`` from the atomic layer);
* **RSS high-water** — pool workers report their peak resident set
  (:func:`peak_rss_bytes`, via :mod:`resource`) with every reply; when
  a reply crosses the configured ceiling the pool **sheds** its
  remaining queued work and the parent finishes it serially — degrading
  throughput instead of dying on memory pressure;
* **liveness** — pool workers stamp heartbeat files between unit
  attempts (:mod:`repro.runner.lifecycle`); a worker whose
  ``run``-phase stamp goes staler than ``hang_timeout_s`` is declared
  hung and killed, and its unit requeued on a fresh worker.

A killed worker is a pool death like any other (an OOM kill, a
``killworker`` fault): :class:`~repro.runner.pool.WorkerPool` rebuilds
the executor, and its :data:`~repro.runner.pool.DEATH_LIMIT`-th death
degrades the run to serial instead of aborting it.

The degradation ladder, mildest to harshest: preflight refusal →
retryable ``CheckpointError`` per write → hung worker killed and unit
requeued → shed workers, finish serial → journal-backed ``--resume``.
"""

from __future__ import annotations

import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from ..errors import ResourceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.telemetry import Telemetry
    from .lifecycle import HeartbeatRecord

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None  # type: ignore[assignment]

__all__ = [
    "DEFAULT_MIN_FREE_BYTES",
    "WatchdogPolicy",
    "ResourceWatchdog",
    "peak_rss_bytes",
]

#: Free-space floor a run's output filesystem must satisfy (32 MiB —
#: far above what one sweep writes, far below any healthy disk).
DEFAULT_MIN_FREE_BYTES = 32 * 1024 * 1024


def peak_rss_bytes() -> Optional[int]:
    """This process's peak resident set size in bytes, if measurable.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; None where
    :mod:`resource` is unavailable (Windows).
    """
    if _resource is None:  # pragma: no cover - non-POSIX platforms
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return int(peak)
    return int(peak) * 1024


@dataclass(frozen=True)
class WatchdogPolicy:
    """Resource limits a run must respect.

    ``min_free_bytes`` gates the disk preflight; ``max_worker_rss_bytes``
    (None = unlimited) is the per-worker peak-RSS ceiling past which the
    pool sheds workers and degrades to serial.

    ``hang_timeout_s`` (None = no liveness check) is how stale a pool
    worker's ``run``-phase heartbeat may grow before the worker is
    declared hung, killed, and its unit requeued; it must comfortably
    exceed the longest legitimate gap between heartbeat stamps (one
    unit attempt), so set it well above the per-unit timeout when both
    are in play.  Each kill is a pool death, so a unit that hangs
    every worker degrades the run to serial at
    :data:`~repro.runner.pool.DEATH_LIMIT` instead of looping.
    """

    min_free_bytes: int = DEFAULT_MIN_FREE_BYTES
    max_worker_rss_bytes: Optional[int] = None
    hang_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.min_free_bytes < 0:
            raise ResourceError("min_free_bytes must be non-negative")
        if self.max_worker_rss_bytes is not None and self.max_worker_rss_bytes <= 0:
            raise ResourceError("max_worker_rss_bytes must be positive")
        if self.hang_timeout_s is not None and self.hang_timeout_s <= 0:
            raise ResourceError("hang_timeout_s must be positive")


class ResourceWatchdog:
    """Applies a :class:`WatchdogPolicy` to a run (see module docstring).

    ``telemetry`` (a :class:`~repro.obs.telemetry.Telemetry` bundle, or
    None) turns the watchdog's observations into gauges: free disk at
    preflight (``repro_disk_free_bytes``) and every worker peak-RSS
    reading it inspects (``repro_worker_peak_rss_bytes``, high-water).
    """

    def __init__(
        self,
        policy: Optional[WatchdogPolicy] = None,
        telemetry: Optional["Telemetry"] = None,
    ):
        self.policy = policy if policy is not None else WatchdogPolicy()
        self.telemetry = telemetry

    def preflight_disk(
        self, path: Union[str, Path], need_bytes: Optional[int] = None
    ) -> int:
        """Free bytes on ``path``'s filesystem; raises when below the floor.

        ``path`` need not exist yet — the nearest existing ancestor's
        filesystem is measured, which is the one the run will write to.
        """
        target = Path(path).resolve()
        while not target.exists() and target != target.parent:
            target = target.parent
        free = shutil.disk_usage(target).free
        if self.telemetry is not None:
            self.telemetry.gauge_set("repro_disk_free_bytes", float(free))
        need = need_bytes if need_bytes is not None else self.policy.min_free_bytes
        if free < need:
            raise ResourceError(
                f"{path}: only {free} bytes free on the output filesystem, "
                f"below the {need}-byte watchdog floor; free space or lower "
                f"WatchdogPolicy.min_free_bytes"
            )
        return free

    def over_rss(self, rss_bytes: Optional[int]) -> bool:
        """True when a worker's reported peak RSS breaches the ceiling."""
        if self.telemetry is not None and rss_bytes is not None:
            self.telemetry.gauge_max(
                "repro_worker_peak_rss_bytes", float(rss_bytes)
            )
        limit = self.policy.max_worker_rss_bytes
        return limit is not None and rss_bytes is not None and rss_bytes > limit

    def hung_workers(
        self, heartbeats: Sequence["HeartbeatRecord"]
    ) -> List["HeartbeatRecord"]:
        """The workers whose ``run``-phase heartbeat went stale.

        ``heartbeats`` come from
        :func:`~repro.runner.lifecycle.read_heartbeats` over the pool's
        heartbeat directory.  An ``idle`` stamp never counts as hung no
        matter how old — a worker waiting for work heartbeats only when
        a unit starts.  With no ``hang_timeout_s`` configured the check
        is off and this always returns an empty list.
        """
        limit = self.policy.hang_timeout_s
        if limit is None:
            return []
        return [beat for beat in heartbeats if beat.running and beat.age_s > limit]
