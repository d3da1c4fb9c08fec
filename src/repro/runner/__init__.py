"""Resilient batch execution: checkpoints, isolation, retries, timeouts.

Every sweep and report goes through this subsystem.  See
:mod:`repro.runner.engine` for the execution model (units, outcomes,
the attempt loop), :mod:`repro.runner.pool` for the one
:class:`~repro.runner.pool.Runner`, which runs units in-process or fans
them out over worker processes with bit-identical output,
:mod:`repro.runner.journal` for the crash-safe checkpoint format,
:mod:`repro.runner.atomic` for torn-write-free artefact persistence,
:mod:`repro.runner.integrity` for self-verifying artefacts (sha256
sidecars, per-directory manifests, ``repro verify``),
:mod:`repro.runner.watchdog` for resource-guarded execution,
:mod:`repro.runner.lifecycle` for supervision (graceful drain on
SIGTERM/SIGINT, worker heartbeats, wall-clock budgets), and
:mod:`repro.runner.faults` for the deterministic fault-injection hooks
that prove the machinery works.
"""

from .atomic import atomic_open, fsync_directory, write_bytes_atomic, write_text_atomic
from .engine import (
    RetryPolicy,
    RunResult,
    RunUnit,
    UnitOutcome,
    crashed_outcome,
    execute_attempts,
    record_outcome,
    unit_timeout,
)
from .integrity import (
    FAILURES_NAME,
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    RUN_METADATA_NAME,
    IntegrityFinding,
    IntegrityReport,
    close_run_dir,
    hash_file,
    matches_sidecar,
    open_run_dir,
    read_sidecar,
    tree_fingerprint,
    untrack,
    verify_tree,
    write_manifest,
    write_sidecar,
)
from .journal import JOURNAL_SCHEMA, RunJournal, unit_key
from .lifecycle import (
    EXIT_ABORTED,
    EXIT_DRAINED,
    CancelToken,
    Heartbeat,
    HeartbeatRecord,
    Supervisor,
    read_heartbeats,
)
from .pool import Runner, WorkerTask, execute_task, resolve_workers, run_units
from .watchdog import ResourceWatchdog, WatchdogPolicy, peak_rss_bytes

__all__ = [
    "atomic_open",
    "fsync_directory",
    "write_text_atomic",
    "write_bytes_atomic",
    "RetryPolicy",
    "Runner",
    "RunResult",
    "RunUnit",
    "UnitOutcome",
    "crashed_outcome",
    "execute_attempts",
    "record_outcome",
    "unit_timeout",
    "FAILURES_NAME",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "RUN_METADATA_NAME",
    "IntegrityFinding",
    "IntegrityReport",
    "close_run_dir",
    "hash_file",
    "matches_sidecar",
    "open_run_dir",
    "read_sidecar",
    "tree_fingerprint",
    "untrack",
    "verify_tree",
    "write_manifest",
    "write_sidecar",
    "EXIT_ABORTED",
    "EXIT_DRAINED",
    "CancelToken",
    "Heartbeat",
    "HeartbeatRecord",
    "Supervisor",
    "read_heartbeats",
    "WorkerTask",
    "execute_task",
    "resolve_workers",
    "run_units",
    "ResourceWatchdog",
    "WatchdogPolicy",
    "peak_rss_bytes",
    "JOURNAL_SCHEMA",
    "RunJournal",
    "unit_key",
]
