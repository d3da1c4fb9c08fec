"""Disk preflight and worker peak-RSS readings.

A full results disk is the boring way a long run dies.  Before a run
touches its output directory, :func:`preflight_disk` checks the free
space on the target filesystem against :data:`DEFAULT_MIN_FREE_BYTES`
and raises :class:`~repro.errors.ResourceError` *before* any artefact
or journal write can be torn by ``ENOSPC`` mid-run (writes that still
hit a full disk surface as retryable ``CheckpointError`` from the
atomic layer).  ``open_run_dir`` (reports and sweeps) and ``repro
serve`` call it.

Pool workers report their peak resident set (:func:`peak_rss_bytes`)
with every reply, exported as ``repro_worker_peak_rss_bytes``.  A
worker killed for memory is a pool death like any other:
:class:`~repro.runner.pool.WorkerPool` rebuilds the executor, and its
:data:`~repro.runner.pool.DEATH_LIMIT`-th death degrades the run to
serial instead of aborting it.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from ..errors import ResourceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.telemetry import Telemetry

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None  # type: ignore[assignment]

__all__ = ["DEFAULT_MIN_FREE_BYTES", "peak_rss_bytes", "preflight_disk"]

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


def preflight_disk(
    path: Union[str, Path], telemetry: Optional["Telemetry"] = None
) -> int:
    """Free bytes on ``path``'s filesystem; raises when below the floor.

    ``path`` need not exist yet — the nearest existing ancestor's
    filesystem is measured, which is the one the run will write to.
    ``telemetry`` (optional) records the reading as the
    ``repro_disk_free_bytes`` gauge.
    """
    target = Path(path).resolve()
    while not target.exists() and target != target.parent:
        target = target.parent
    free = shutil.disk_usage(target).free
    if telemetry is not None:
        telemetry.gauge_set("repro_disk_free_bytes", float(free))
    if free < DEFAULT_MIN_FREE_BYTES:
        raise ResourceError(
            f"{path}: only {free} bytes free on the output filesystem, "
            f"below the {DEFAULT_MIN_FREE_BYTES}-byte floor; free space and "
            f"re-run"
        )
    return free
