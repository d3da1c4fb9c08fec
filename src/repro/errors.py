"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "GeometryError",
    "ModelError",
    "TraceError",
    "ExperimentError",
    "RunnerError",
    "CheckpointError",
    "IntegrityError",
    "ResourceError",
    "ServeError",
    "UnitTimeoutError",
    "AbortError",
    "LintError",
    "ObsError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A system or cache configuration is internally inconsistent.

    Examples: a cache size that is not a power of two, an associativity
    larger than the number of lines, or a two-level system whose L2 is
    smaller than a single L1 when the policy requires otherwise.
    """


class GeometryError(ConfigurationError):
    """A cache geometry (size, line size, associativity) is invalid."""


class ModelError(ReproError):
    """An analytical model (timing or area) was given unusable inputs."""


class TraceError(ReproError):
    """A trace or workload definition is malformed."""


class ExperimentError(ReproError):
    """An experiment id is unknown or an experiment was misconfigured."""


class RunnerError(ReproError):
    """The resilient execution engine was misused or misconfigured.

    Examples: an invalid retry policy, or an unparsable fault-injection
    specification in ``REPRO_FAULTS``.
    """


class CheckpointError(RunnerError):
    """A run journal is corrupt or written by an incompatible version."""


class IntegrityError(RunnerError):
    """An artefact integrity record (manifest or sidecar) is unusable.

    Raised when ``MANIFEST.json`` or a ``.sha256`` sidecar cannot even
    be interpreted.  A *mismatch* between a healthy record and an
    artefact is not an error — ``repro verify`` reports it as a finding
    and ``--repair`` quarantines the artefact.
    """


class ResourceError(RunnerError):
    """A run was refused or degraded because a resource limit was hit.

    Example: the output filesystem has less free space than the disk
    preflight (:func:`repro.runner.watchdog.preflight_disk`) requires.
    """


class ServeError(ReproError):
    """A request to the sweep service could not be served.

    Carries the HTTP semantics the service maps library failures onto:
    ``status`` is the response code and ``retry_after_s``, when set, is
    surfaced as a ``Retry-After`` header so well-behaved clients back
    off instead of hammering an overloaded or broken service.  Concrete
    conditions (malformed request, load shed, open circuit breaker,
    blown deadline) are subclasses defined by :mod:`repro.serve`.
    """

    status: int = 500
    retry_after_s: "float | None" = None

    def __init__(self, message: str, *, retry_after_s: "float | None" = None):
        super().__init__(message)
        if retry_after_s is not None:
            self.retry_after_s = retry_after_s


class LintError(ReproError):
    """The static-analysis engine itself failed or was misused.

    Examples: a lint target that does not exist or fails to parse, or
    an unknown rule id in ``--select``/``--ignore``.  Findings are not
    errors — ``repro lint`` reports them and exits 1; this class covers
    the exit-2 internal-error path.
    """


class ObsError(ReproError):
    """The telemetry subsystem was misused or its artefacts are unusable.

    Examples: an invalid metric name or label set, merging snapshots of
    incompatible metric types, or a ``repro metrics`` / ``repro spans``
    target directory that holds neither telemetry files nor a journal
    to synthesise them from.
    """


class UnitTimeoutError(RunnerError):
    """A single unit of work exceeded its wall-clock budget.

    Timeouts are deliberately not retried: a configuration that blows
    its budget once is assumed pathological, not transient.
    """


class AbortError(RunnerError):
    """A run was aborted hard after its graceful drain was exhausted.

    Raised by the lifecycle supervisor on the *second* shutdown signal
    (or when the drain deadline elapses): in-flight work is abandoned,
    but every unit that finished before the abort is already journalled,
    so ``--resume`` picks up exactly where the abort cut in.
    """
