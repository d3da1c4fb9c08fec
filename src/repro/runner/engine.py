"""The resilient unit-execution engine.

Batch work (a report over many experiments, a sweep over many
configurations) is decomposed into :class:`RunUnit` objects and driven
by :class:`~repro.runner.pool.Runner`, which layers four protections
around each unit:

* **checkpointing** — completed units are recorded in a
  :class:`~repro.runner.journal.RunJournal` keyed by a configuration
  hash, so an interrupted run resumed against the same journal skips
  finished work;
* **isolation** — a unit that raises produces a structured
  :func:`error_record` instead of killing the run (``keep_going``), or
  stops the run cleanly with the journal intact;
* **retries** — transient failures are retried with exponential
  backoff under a :class:`RetryPolicy`;
* **timeouts** — a per-unit wall-clock budget: pre-emptive
  ``SIGALRM``/``setitimer`` on the main thread of a POSIX process, and
  a portable post-hoc deadline check everywhere else (worker threads,
  pool workers on platforms without ``SIGALRM``), both raising
  :class:`~repro.errors.UnitTimeoutError`.

The attempt loop itself (:func:`execute_attempts`) is journal-free and
usable from any process: the runner calls it in-process, and pool
workers call it through :func:`~repro.runner.pool.execute_task`.  Deterministic
fault injection (:mod:`repro.runner.faults`) hooks into the attempt
loop so all four behaviours are testable.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from pathlib import Path

from ..errors import AbortError, RunnerError, UnitTimeoutError
from ..lfsr import Lfsr16
from ..obs.profile import capture_profile, profile_path
from ..obs.telemetry import DISABLED as _DISABLED_TELEMETRY
from ..obs.telemetry import Telemetry, activate
from . import faults
from .journal import RunJournal, unit_key
from .lifecycle import unit_timeout

__all__ = [
    "RetryPolicy",
    "RunUnit",
    "UnitOutcome",
    "RunResult",
    "crashed_outcome",
    "error_record",
    "execute_attempts",
    "record_outcome",
    "jitter_unit",
    "resume_outcome",
    "unit_timeout",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``max_attempts`` counts the first try: 1 means no retries.
    Timeouts (:class:`~repro.errors.UnitTimeoutError`) are never
    retried — a unit that blows its wall-clock budget is pathological,
    not transient.

    ``jitter`` (a fraction in [0, 1]) spreads the retry storms of
    concurrent units apart by shortening each delay by up to that
    fraction of its exponential base.  The spread is *deterministic*
    and REP002-clean: it derives from a :class:`~repro.lfsr.Lfsr16`
    seeded by the unit id, never from the global RNG or the wall
    clock — two runs of the same unit always back off identically,
    while different units desynchronise.
    """

    max_attempts: int = 1
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 5.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise RunnerError("retry policy needs max_attempts >= 1")
        if self.backoff_s < 0 or self.backoff_factor < 1 or self.max_backoff_s < 0:
            raise RunnerError("retry backoff parameters must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise RunnerError("retry jitter must be a fraction in [0, 1]")

    def delay(self, attempt: int, token: str = "") -> float:
        """Backoff before the retry following failed attempt ``attempt``.

        ``token`` (normally the unit id) seeds the jitter; with
        ``jitter=0`` (the default) it is ignored and the delay is the
        plain exponential schedule, exactly as before.
        """
        base = min(
            self.backoff_s * self.backoff_factor ** (attempt - 1),
            self.max_backoff_s,
        )
        if not self.jitter or base <= 0:
            return base
        return base * (1.0 - self.jitter * jitter_unit(token, attempt))


def jitter_unit(token: str, attempt: int) -> float:
    """A deterministic pseudo-random fraction in [0, 1) for backoff jitter.

    Seeds a 16-bit LFSR from a sha256 of ``token`` and steps it once
    per attempt, so the (token, attempt) pair fully determines the
    value — the property the REP002 determinism audit enforces for
    every backoff path (the engine here, and the serve retry loop).
    """
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:2], "big") or 0xACE1
    register = Lfsr16(seed)
    for _ in range(max(1, attempt)):
        register.step()
    return register.state / float(1 << 16)


@dataclass(frozen=True)
class RunUnit:
    """One isolatable piece of a batch run.

    Attributes
    ----------
    unit_id:
        Stable identifier; also the handle fault plans match on.
    payload:
        JSON-safe description of the unit's full configuration; its
        hash (:func:`~repro.runner.journal.unit_key`) keys the journal,
        so a unit re-runs if its configuration changed since the
        journalled run.
    run:
        The work; its return value becomes the outcome's ``value``.
    to_record / from_record:
        Optional value serialisers.  When given, the journal stores
        ``to_record(value)`` with the OK entry and resume rebuilds the
        value via ``from_record`` without re-executing the unit.
    check_skip:
        Optional resume-time validation: return False to force a
        journalled-OK unit to re-run (e.g. its artefact went missing
        or is corrupt on disk).
    """

    unit_id: str
    payload: dict
    run: Callable[[], Any] = field(repr=False)
    to_record: Optional[Callable[[Any], dict]] = field(default=None, repr=False)
    from_record: Optional[Callable[[dict], Any]] = field(default=None, repr=False)
    check_skip: Optional[Callable[[], bool]] = field(default=None, repr=False)

    @property
    def key(self) -> str:
        return unit_key(self.payload)


@dataclass(frozen=True)
class UnitOutcome:
    """What happened to one unit: ok, skipped (journal hit), or failed.

    ``elapsed_s`` spans the whole attempt loop (including backoff
    sleeps); ``duration_s`` is the final attempt's wall time alone —
    the number performance work cares about.  ``started_at`` /
    ``ended_at`` are Unix timestamps of the loop's boundaries (0.0 for
    skipped units, which never execute).
    """

    unit_id: str
    status: str
    value: Any = None
    attempts: int = 0
    elapsed_s: float = 0.0
    duration_s: float = 0.0
    started_at: float = 0.0
    ended_at: float = 0.0
    error: Optional[dict] = None
    exception: Optional[BaseException] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "skipped")


@dataclass(frozen=True)
class RunResult:
    """All outcomes of one :meth:`~repro.runner.pool.Runner.run` call, in
    unit order.

    ``interrupted`` holds the cancel reason whenever the run's
    :class:`~repro.runner.lifecycle.CancelToken` tripped during it, with
    or without a pool, even if every unit finished; else None.  Units
    missing from ``outcomes`` are exactly the ones a ``--resume``
    against the same journal will pick up.
    """

    outcomes: Tuple[UnitOutcome, ...]
    interrupted: Optional[str] = None

    @property
    def completed(self) -> List[UnitOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> List[UnitOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    def values(self) -> List[Any]:
        return [o.value for o in self.completed]

    def raise_first_failure(self) -> None:
        """Re-raise the first failed unit's original exception."""
        for outcome in self.failed:
            if outcome.exception is not None:
                raise outcome.exception
            raise RunnerError(f"unit {outcome.unit_id} failed: {outcome.error}")

    def failures_manifest(self) -> dict:
        """JSON-safe manifest of every failure (``FAILURES.json`` body)."""
        return {"schema": 1, "failures": [o.error for o in self.failed]}


def error_record(unit: RunUnit, error: BaseException, attempts: int, elapsed_s: float) -> dict:
    """Structured, JSON-safe record of one unit failure."""
    return {
        "unit": unit.unit_id,
        "type": type(error).__name__,
        "message": str(error),
        "config": unit.payload,
        "attempts": attempts,
        "elapsed_s": round(elapsed_s, 6),
    }


def crashed_outcome(
    unit: RunUnit, error: BaseException, attempts: int, started_at: float
) -> UnitOutcome:
    """The ``failed`` outcome of a unit whose worker never replied.

    ``started_at`` is the wall-clock time the unit was handed to the
    worker.  A lost worker hides the attempt boundaries, so
    ``duration_s`` spans every attempt, like ``elapsed_s``.
    """
    ended_at = time.time()
    elapsed = max(0.0, ended_at - started_at)
    return UnitOutcome(
        unit.unit_id,
        "failed",
        attempts=attempts,
        elapsed_s=elapsed,
        duration_s=elapsed,
        started_at=started_at,
        ended_at=ended_at,
        error=error_record(unit, error, attempts, elapsed),
        exception=error,
    )


def execute_attempts(
    unit: RunUnit,
    retry: Optional[RetryPolicy] = None,
    timeout_s: Optional[float] = None,
    sleep: Callable[[float], None] = time.sleep,
    telemetry: Optional[Telemetry] = None,
    profile_dir: Optional[Path] = None,
) -> UnitOutcome:
    """Run one unit's full attempt loop; never touches a journal.

    This is the engine's core shared by the runner's in-process loop
    and the process-pool workers (:mod:`repro.runner.pool`): bounded
    retries with backoff for transient failures, per-attempt timeout
    enforcement (timeouts are never retried), and the fault-injection
    hook before every attempt.  Unit failures come back as a ``failed``
    :class:`UnitOutcome`; ``BaseException`` (KeyboardInterrupt,
    injected crashes) propagates.

    ``telemetry`` wraps the loop in a ``unit`` span, counts outcomes /
    retries / timeouts, and is *activated* around the attempts so
    instrumented unit bodies can reach it ambiently
    (:func:`repro.obs.current`).  ``profile_dir`` additionally captures
    a per-unit :mod:`cProfile` into ``<profile_dir>/<unit>.prof`` (the
    last attempt wins).  Neither affects the outcome: telemetry is
    measured *around* the model code, never inside it (REP002), and a
    telemetry-off run is byte-identical.
    """
    retry = retry if retry is not None else RetryPolicy()
    telemetry = telemetry if telemetry is not None else _DISABLED_TELEMETRY
    profile_to = (
        profile_path(profile_dir, unit.unit_id) if profile_dir is not None else None
    )
    started_wall = time.time()
    started = time.monotonic()
    attempts = 0
    with telemetry.span("unit", unit=unit.unit_id) as span, activate(telemetry):
        while True:
            attempts += 1
            attempt_started = time.monotonic()
            try:
                with unit_timeout(timeout_s):
                    # The scope lets write-path fault hooks (and any future
                    # per-write bookkeeping) attribute writes to this unit.
                    with faults.unit_scope(unit.unit_id):
                        faults.before_unit(unit.unit_id)
                        with capture_profile(profile_to):
                            value = unit.run()
            except AbortError:
                # A hard abort (second shutdown signal delivered mid-unit)
                # is not a unit failure: it propagates like an injected
                # crash, with everything already journalled staying put.
                raise
            except Exception as error:
                transient = not isinstance(error, UnitTimeoutError)
                if transient and attempts < retry.max_attempts:
                    telemetry.count("repro_retries_total")
                    sleep(retry.delay(attempts, unit.unit_id))
                    continue
                if not transient:
                    telemetry.count("repro_timeouts_total")
                failure: Optional[Exception] = error
                value = None
            else:
                failure = None
            elapsed = time.monotonic() - started
            duration = time.monotonic() - attempt_started
            status = "ok" if failure is None else "failed"
            telemetry.count("repro_units_total", status=status)
            telemetry.observe("repro_unit_duration_seconds", duration)
            span.set(status=status, attempts=attempts)
            return UnitOutcome(
                unit.unit_id,
                status,
                value=value,
                attempts=attempts,
                elapsed_s=elapsed,
                duration_s=duration,
                started_at=started_wall,
                ended_at=time.time(),
                error=(
                    None
                    if failure is None
                    else error_record(unit, failure, attempts, elapsed)
                ),
                exception=failure,
            )


def resume_outcome(journal: Optional[RunJournal], unit: RunUnit) -> Optional[UnitOutcome]:
    """The ``skipped`` outcome for a journalled-complete unit, else None.

    A unit is skippable when the journal's latest entry for it is OK
    under the same configuration key and its ``check_skip`` validation
    (if any) still passes; the outcome's value is rebuilt through
    ``from_record`` when the journal stored one.
    """
    if journal is None or not journal.completed(unit.unit_id, unit.key):
        return None
    if unit.check_skip is not None and not unit.check_skip():
        return None
    value = None
    entry = journal.entry(unit.unit_id)
    stored = entry.get("result") if entry else None
    if unit.from_record is not None and stored is not None:
        value = unit.from_record(stored)
    return UnitOutcome(unit.unit_id, "skipped", value=value)


def record_outcome(
    journal: Optional[RunJournal],
    unit: RunUnit,
    outcome: UnitOutcome,
    stored: Optional[dict],
) -> None:
    """Append one executed unit's outcome to ``journal`` (None: no-op).

    The runner's single journal writer, in-process or pooled.  ``stored``
    is the ``to_record`` payload of an OK outcome (None when the unit
    has no serialiser); a failed outcome carries its error record.
    """
    if journal is None:
        return
    journal.record(
        unit.unit_id,
        unit.key,
        outcome.status,
        attempts=outcome.attempts,
        elapsed_s=outcome.elapsed_s,
        duration_s=outcome.duration_s,
        started_at=outcome.started_at,
        ended_at=outcome.ended_at,
        error=outcome.error,
        result=stored,
    )

