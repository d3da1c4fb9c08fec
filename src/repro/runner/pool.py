"""Process-pool execution backend: fan units out over worker processes.

:class:`PoolRunner` is the parallel counterpart of the serial
:class:`~repro.runner.engine.Runner` and preserves every protection it
offers — with the work distributed over a
:class:`concurrent.futures.ProcessPoolExecutor`:

* **resume** — journal replay and ``check_skip`` artefact validation
  run in the parent *before* any work is submitted, so completed units
  never reach a worker;
* **isolation / retries / timeouts** — each worker runs the shared
  attempt loop (:func:`~repro.runner.engine.execute_attempts`), so a
  unit's bounded retries with backoff and its per-attempt wall-clock
  budget behave exactly as in the serial engine.  Timeouts in workers
  use the same two-tier enforcement: pre-emptive ``SIGALRM`` where the
  task runs on the worker's main thread (the normal case), a portable
  post-hoc deadline check otherwise;
* **crash-safe journaling** — outcomes are journalled by the *parent*
  as they arrive (workers never touch the journal, so there is no
  cross-process write contention), each append persisting atomically.
  A killed parallel run therefore resumes from exactly the units whose
  outcomes made it back; on successful completion the journal is
  canonically reordered (:meth:`~repro.runner.journal.RunJournal.rewrite_ordered`)
  so its final contents are independent of worker count and completion
  order;
* **determinism** — unit outcomes are keyed by unit id / configuration
  hash and the returned :class:`~repro.runner.engine.RunResult` is
  assembled in unit submission order, never arrival order.  Downstream
  artefacts (report rows, sweep tables, envelopes, failure manifests)
  are thus bit-identical to a serial run; the only volatile journal
  fields are the wall-clock ``elapsed_s`` measurements.

Worker-side fault injection (:mod:`repro.runner.faults`) works through
the ``REPRO_FAULTS`` environment variable (inherited by workers under
every start method) or, under ``fork``, through a plan installed before
the pool is created.  An injected crash (``BaseException``) in a worker
terminates the whole parallel run — mirroring the serial engine — with
the journal intact.

Pickling contract: a unit shipped to a worker carries its ``run`` and
``to_record`` callables, which must therefore be picklable (module-level
functions or instances of module-level classes — not closures).
``check_skip`` and ``from_record`` stay parent-side and may be
closures, exactly as before.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from pathlib import Path

from ..errors import RunnerError
from ..obs.telemetry import Telemetry
from .engine import (
    RetryPolicy,
    Runner,
    RunResult,
    RunUnit,
    UnitOutcome,
    error_record,
    execute_attempts,
    record_outcome,
    resume_outcome,
)
from .journal import RunJournal
from .lifecycle import CancelToken, Heartbeat, HeartbeatRecord, read_heartbeats
from .watchdog import ResourceWatchdog, peak_rss_bytes

__all__ = ["PoolRunner", "resolve_workers", "run_units"]


def resolve_workers(spec: Union[None, int, str]) -> Optional[int]:
    """Normalise a ``--workers`` value: None for serial, else a count.

    ``None``/``0``/``"serial"`` select the serial engine; ``"auto"``
    means one worker per CPU; any other value must be a positive
    integer (1 runs the pool machinery with a single worker, which is
    occasionally useful for debugging the parallel path).
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text in ("", "0", "serial"):
            return None
        if text == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            count = int(text)
        except ValueError:
            raise RunnerError(
                f"workers must be a non-negative integer or 'auto', got {spec!r}"
            ) from None
    else:
        count = int(spec)
    if count < 0:
        raise RunnerError(f"workers must be a non-negative integer, got {count}")
    return count or None


@dataclass(frozen=True)
class _WorkerTask:
    """What a worker process needs to run one unit.

    ``unit`` is stripped of its parent-side ``check_skip`` and
    ``from_record`` callables, which may be unpicklable closures.
    """

    unit: RunUnit
    retry: RetryPolicy = RetryPolicy()
    timeout_s: Optional[float] = None
    telemetry_on: bool = False
    profile_dir: Optional[Path] = None
    heartbeat_dir: Optional[str] = None


def _execute_task(task: _WorkerTask) -> dict:
    """Worker entry point: run the attempt loop, return a picklable reply.

    With ``telemetry_on`` the worker records this unit's metrics and
    spans into a fresh per-task bundle and ships the snapshot back in
    the reply; the parent absorbs it (re-basing span ids) so the merged
    telemetry is identical in content to a serial run's.

    ``BaseException`` (injected crashes, interrupts) propagates out and
    surfaces on the future — the parent treats it like a process kill.
    """
    unit = task.unit
    telemetry = Telemetry() if task.telemetry_on else None
    heartbeat = Heartbeat(task.heartbeat_dir) if task.heartbeat_dir else None
    outcome = execute_attempts(
        unit,
        retry=task.retry,
        timeout_s=task.timeout_s,
        telemetry=telemetry,
        profile_dir=task.profile_dir,
        heartbeat=heartbeat,
    )
    if heartbeat is not None:
        heartbeat.beat(unit.unit_id, phase="idle")
    result = None
    if outcome.status == "ok" and unit.to_record is not None:
        result = unit.to_record(outcome.value)
    # The outcome travels back whole, minus a value or exception that
    # does not pickle: the parent then falls back to
    # from_record(result) (or None), and the error record still
    # describes the failure.
    value = _shippable(outcome.value)
    return {
        "outcome": replace(
            outcome, value=value, exception=_shippable(outcome.exception)
        ),
        "has_value": value is not None or outcome.value is None,
        "result": result,
        "rss_bytes": peak_rss_bytes(),
        "telemetry": telemetry.snapshot() if telemetry is not None else None,
    }


def _shippable(obj: Any) -> Any:
    """``obj`` if it pickles, else None."""
    try:
        pickle.dumps(obj)
    except Exception:
        return None
    return obj


def _kill_workers(executor: ProcessPoolExecutor) -> None:
    """SIGKILL every live worker of ``executor`` (abort path only).

    ``shutdown(wait=True)`` would otherwise block forever behind a
    wedged worker; killing first makes the join prompt.  Reaches into
    the executor's private process table — there is no public handle on
    worker processes — so it degrades to a no-op if that ever changes.
    """
    processes: Any = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:
            pass


class PoolRunner(Runner):
    """Drive :class:`RunUnit` sequences over a process pool.

    Extends the serial :class:`~repro.runner.engine.Runner`: it takes
    the same settings, keeps the same contract, and its inherited
    serial loop is the last rung of the degradation ladder.  ``run``
    returns a :class:`RunResult` in unit submission order and never
    raises for unit failures; ``BaseException`` from a worker (an
    injected crash) propagates with the journal intact.  With
    ``keep_going=False`` the first failure (in submission order)
    truncates the result exactly like the serial engine; units already
    finished by other workers remain journalled so a later ``resume``
    does not repeat them.

    Parameters
    ----------
    workers:
        Worker process count (see :func:`resolve_workers`).
    initializer / initargs:
        Forwarded to the executor; use them to pre-warm per-worker
        caches (e.g. trace generation and L1 filter passes) once per
        worker instead of once per unit.
    submit_order:
        Optional permutation of unit indices controlling *submission*
        order.  Results are always assembled in unit order, so any
        permutation must produce identical output — the differential
        tests shuffle this to prove order independence.
    mp_context:
        Optional :mod:`multiprocessing` context (e.g. the ``fork``
        context when workers must inherit parent state).
    watchdog:
        Optional :class:`~repro.runner.watchdog.ResourceWatchdog`.
        When set, the journal directory gets a disk-space preflight,
        and memory pressure degrades the run instead of killing it: a
        worker reply whose peak RSS breaches the policy ceiling sheds
        the queued work back to the parent (which finishes it
        serially), and a worker that dies outright (OOM kill) likewise
        falls back to serial execution instead of raising.  After a
        degraded run :attr:`degraded_reason` records why.
    """

    def __init__(
        self,
        journal: Optional[RunJournal] = None,
        retry: Optional[RetryPolicy] = None,
        timeout_s: Optional[float] = None,
        keep_going: bool = False,
        workers: int = 2,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
        submit_order: Optional[Sequence[int]] = None,
        mp_context: Any = None,
        watchdog: Optional[ResourceWatchdog] = None,
        telemetry: Optional[Telemetry] = None,
        profile_dir: Optional[Path] = None,
        cancel: Optional[CancelToken] = None,
    ):
        if workers < 1:
            raise RunnerError(f"PoolRunner needs at least one worker, got {workers}")
        super().__init__(
            journal,
            retry,
            timeout_s,
            keep_going,
            telemetry=telemetry,
            profile_dir=profile_dir,
            cancel=cancel,
        )
        self.workers = workers
        self.initializer = initializer
        self.initargs = initargs
        self.submit_order = submit_order
        self.mp_context = mp_context
        self.watchdog = watchdog
        #: Why the last run shed its workers, or None if it never did.
        self.degraded_reason: Optional[str] = None
        #: Hung workers killed-and-requeued during the last run.
        self.rescues = 0

    def run(self, units: Sequence[RunUnit]) -> RunResult:
        if self.watchdog is not None and self.journal is not None:
            self.watchdog.preflight_disk(self.journal.path.parent)
        return self._run_preflighted(units)

    def _run_preflighted(self, units: Sequence[RunUnit]) -> RunResult:
        """:meth:`run` minus the disk preflight, for already-checked dirs."""
        units = list(units)
        unit_ids = [unit.unit_id for unit in units]
        if len(set(unit_ids)) != len(unit_ids):
            raise RunnerError("duplicate unit ids in one parallel run")
        self.degraded_reason = None
        self.rescues = 0
        outcomes: Dict[str, UnitOutcome] = {}
        pending: List[RunUnit] = []
        for unit in units:
            skipped = resume_outcome(self.journal, unit)
            if skipped is not None:
                outcomes[unit.unit_id] = skipped
                self.telemetry.count("repro_units_total", status="skipped")
            else:
                pending.append(unit)
        if pending:
            self._run_pool(pending, outcomes)
        if self.journal is not None:
            self.journal.rewrite_ordered(unit_ids)
        self.telemetry.flush(unit_ids)
        interrupted: Optional[str] = None
        if self.cancel is not None and self.cancel.cancelled:
            interrupted = self.cancel.reason
        ordered: List[UnitOutcome] = []
        for unit in units:
            outcome = outcomes.get(unit.unit_id)
            if outcome is None:
                continue  # cancelled before it started
            ordered.append(outcome)
            if outcome.status == "failed" and not self.keep_going:
                break
        return RunResult(tuple(ordered), interrupted=interrupted)

    def _submission(self, pending: Sequence[RunUnit]) -> List[RunUnit]:
        if self.submit_order is None:
            return list(pending)
        if sorted(self.submit_order) != list(range(len(pending))):
            raise RunnerError(
                f"submit_order must be a permutation of range({len(pending)})"
            )
        return [pending[index] for index in self.submit_order]

    def _run_pool(
        self, pending: Sequence[RunUnit], outcomes: Dict[str, UnitOutcome]
    ) -> None:
        stopping = self._drive_pool(pending, outcomes)
        if self.degraded_reason is not None:
            reason = "worker-death"
            if "RSS" in self.degraded_reason:
                reason = "rss"
            elif "hung" in self.degraded_reason:
                reason = "hung-worker"
            self.telemetry.count("repro_degradations_total", reason=reason)
        if self.degraded_reason is None or stopping:
            return
        # Degradation ladder, final rung before --resume: the pool was
        # shed (RSS ceiling), broke (worker death), or exhausted its
        # hung-worker rescue budget; the inherited serial Runner loop,
        # with this pool's journal, retry, timeout, keep_going,
        # telemetry, profile and cancel settings, finishes the units
        # that never produced an outcome in the parent.  Telemetry is
        # flushed once, for the whole run, after this rung.
        leftover = [unit for unit in pending if unit.unit_id not in outcomes]
        for outcome in self._run_serial(leftover).outcomes:
            outcomes[outcome.unit_id] = outcome

    def _drive_pool(
        self, pending: Sequence[RunUnit], outcomes: Dict[str, UnitOutcome]
    ) -> bool:
        """Fan ``pending`` out over the pool; True if a failure stopped it.

        Sets :attr:`degraded_reason` (leaving the un-finished units
        without outcomes) when the watchdog sheds the pool or a worker
        dies with a watchdog installed.

        The pool runs in *generations*: normally one, but killing a
        hung worker breaks the whole :class:`ProcessPoolExecutor` (its
        manager terminates every sibling), so each rescue starts a
        fresh generation that resubmits exactly the units still without
        an outcome — completed units are journalled and never
        re-executed.
        """
        order = self._submission(pending)
        heartbeat_dir: Optional[str] = None
        if (
            self.watchdog is not None
            and self.watchdog.policy.hang_timeout_s is not None
        ):
            heartbeat_dir = tempfile.mkdtemp(prefix="repro-heartbeat-")
        rescue_counts: Dict[str, int] = {}
        stopping = False
        try:
            while True:
                remaining = [
                    unit for unit in order if unit.unit_id not in outcomes
                ]
                if not remaining:
                    break
                stopping, rebuild = self._drive_generation(
                    remaining, outcomes, heartbeat_dir, rescue_counts
                )
                if stopping or not rebuild or self.degraded_reason is not None:
                    break
                if self.cancel is not None and self.cancel.cancelled:
                    break
        finally:
            if heartbeat_dir is not None:
                shutil.rmtree(heartbeat_dir, ignore_errors=True)
        return stopping

    def _drive_generation(
        self,
        units: Sequence[RunUnit],
        outcomes: Dict[str, UnitOutcome],
        heartbeat_dir: Optional[str],
        rescue_counts: Dict[str, int],
    ) -> Tuple[bool, bool]:
        """One executor's lifetime; returns ``(stopping, rebuild)``.

        ``rebuild`` is True only when a hung worker was killed within
        budget: the caller starts a fresh generation for the units left
        without outcomes (including the hung one, which gets a fresh
        worker).  Exhausting the budget sets :attr:`degraded_reason`
        instead, handing the leftovers to the serial rung.
        """
        if heartbeat_dir is not None:
            # Stale stamps from a previous generation's (killed) workers
            # must not trigger instant re-rescues.
            for stale in Path(heartbeat_dir).glob("*.json"):
                try:
                    stale.unlink()
                except OSError:
                    pass
        hang_limit = (
            self.watchdog.policy.hang_timeout_s
            if self.watchdog is not None and heartbeat_dir is not None
            else None
        )
        poll: Optional[float] = None
        if hang_limit is not None:
            poll = max(0.05, hang_limit / 4.0)
        elif self.cancel is not None:
            poll = 0.25
        executor = ProcessPoolExecutor(
            max_workers=min(self.workers, len(units)),
            mp_context=self.mp_context,
            initializer=self.initializer,
            initargs=self.initargs,
        )
        stopping = False
        rebuild = False
        drained = False
        try:
            futures = {
                executor.submit(
                    _execute_task,
                    _WorkerTask(
                        unit=replace(unit, check_skip=None, from_record=None),
                        retry=self.retry,
                        timeout_s=self.timeout_s,
                        telemetry_on=self.telemetry.enabled,
                        profile_dir=self.profile_dir,
                        heartbeat_dir=heartbeat_dir,
                    ),
                ): unit
                for unit in units
            }
            submitted = {future: index for index, future in enumerate(futures)}
            not_done = set(futures)
            while not_done:
                if (
                    self.cancel is not None
                    and self.cancel.cancelled
                    and not drained
                ):
                    # Drain: queued units never start (they stay
                    # outcome-less for --resume); running units finish
                    # and are journalled below.
                    drained = True
                    for other in not_done:
                        other.cancel()
                if self.cancel is not None and self.cancel.expired():
                    _kill_workers(executor)
                    self.cancel.raise_if_expired()
                done, not_done = wait(
                    not_done, timeout=poll, return_when=FIRST_COMPLETED
                )
                # A done *batch* is processed in submission order: when a
                # crash arrives together with results, everything that
                # finished before the crashing unit is journalled first,
                # so the journal a killed run leaves behind is
                # deterministic, not subject to set iteration order.
                for future in sorted(done, key=submitted.__getitem__):
                    if future.cancelled():
                        continue
                    unit = futures[future]
                    crash = future.exception()
                    if crash is not None:
                        if isinstance(crash, BrokenProcessPool):
                            if self.watchdog is None:
                                raise RunnerError(
                                    "worker pool broke (a worker died without "
                                    "reporting); completed units are journalled — "
                                    "re-run with --resume"
                                ) from crash
                            # Watchdog ladder: a dead worker (OOM kill)
                            # degrades to serial instead of aborting.
                            # Every in-flight future fails with the same
                            # BrokenProcessPool; their units simply stay
                            # outcome-less for the serial fallback.
                            if self.degraded_reason is None:
                                self.degraded_reason = (
                                    f"worker died without reporting ({crash}); "
                                    f"finishing remaining units serially"
                                )
                            continue
                        if not isinstance(crash, Exception):
                            # A simulated (or real) kill: abandon
                            # everything in flight, journal untouched
                            # beyond what already arrived.
                            raise crash
                        # Infrastructure failure around one unit (e.g.
                        # an unpicklable reply): a structured failure.
                        outcome = UnitOutcome(
                            unit.unit_id,
                            "failed",
                            attempts=1,
                            error=error_record(unit, crash, 1, 0.0),
                            exception=crash,
                        )
                        stored = None
                    else:
                        reply = future.result()
                        outcome = self._outcome_from_reply(unit, reply)
                        stored = reply["result"]
                        self.telemetry.absorb(reply.get("telemetry"))
                        if reply.get("rss_bytes") is not None:
                            self.telemetry.gauge_max(
                                "repro_worker_peak_rss_bytes",
                                float(reply["rss_bytes"]),
                            )
                        if (
                            self.watchdog is not None
                            and self.degraded_reason is None
                            and self.watchdog.over_rss(reply.get("rss_bytes"))
                        ):
                            # Shed: cancel what has not started (running
                            # units drain normally and are journalled);
                            # cancelled units fall to the serial rung.
                            self.degraded_reason = (
                                f"worker peak RSS {reply.get('rss_bytes')} "
                                f"bytes breached the watchdog ceiling; "
                                f"shedding queued units to serial execution"
                            )
                            for other in not_done:
                                other.cancel()
                    outcomes[unit.unit_id] = outcome
                    record_outcome(self.journal, unit, outcome, stored)
                    if outcome.status == "failed" and not self.keep_going and not stopping:
                        stopping = True
                        for other in not_done:
                            other.cancel()
                if (
                    hang_limit is not None
                    and heartbeat_dir is not None
                    and not_done
                    and not stopping
                    and self.degraded_reason is None
                ):
                    in_flight = {
                        futures[future].unit_id
                        for future in not_done
                        if not future.cancelled()
                    }
                    hung = [
                        beat
                        for beat in self.watchdog.hung_workers(  # type: ignore[union-attr]
                            read_heartbeats(heartbeat_dir)
                        )
                        if beat.unit_id in in_flight
                    ]
                    if hung:
                        self._rescue(executor, hung, rescue_counts)
                        rebuild = self.degraded_reason is None
                        for other in not_done:
                            other.cancel()
                        break
        finally:
            executor.shutdown(wait=True, cancel_futures=True)
        return stopping, rebuild

    def _rescue(
        self,
        executor: ProcessPoolExecutor,
        hung: Sequence[HeartbeatRecord],
        rescue_counts: Dict[str, int],
    ) -> None:
        """Kill hung workers and charge the rescue budget.

        Killing any worker breaks the executor (its manager terminates
        the siblings), so the caller abandons this generation either
        way; within budget the next generation resubmits, past it
        :attr:`degraded_reason` routes the leftovers to the serial rung
        — where a deterministically-hanging unit cannot re-wedge a pool
        it is no longer in.
        """
        processes: Any = getattr(executor, "_processes", None) or {}
        for beat in hung:
            victim = processes.get(beat.pid)
            if victim is not None:
                victim.kill()
            self.rescues += 1
            unit_id = beat.unit_id or ""
            rescue_counts[unit_id] = rescue_counts.get(unit_id, 0) + 1
            self.telemetry.count("repro_runner_rescues_total")
        budget = (
            self.watchdog.policy.max_rescues if self.watchdog is not None else 0
        )
        repeat_offender = any(count >= 2 for count in rescue_counts.values())
        if self.rescues > budget or repeat_offender:
            self.degraded_reason = (
                f"hung-worker rescue budget exhausted after {self.rescues} "
                f"rescue(s); finishing remaining units serially"
            )

    def _outcome_from_reply(self, unit: RunUnit, reply: dict) -> UnitOutcome:
        outcome: UnitOutcome = reply["outcome"]
        stored = reply["result"]  # only an OK outcome carries one
        if not reply["has_value"] and unit.from_record is not None and stored is not None:
            outcome = replace(outcome, value=unit.from_record(stored))
        return outcome


def run_units(
    units: Sequence[RunUnit],
    workers: Union[None, int, str] = None,
    *,
    journal: Optional[RunJournal] = None,
    retries: int = 0,
    timeout_s: Optional[float] = None,
    keep_going: bool = False,
    telemetry: Optional[Telemetry] = None,
    profile_dir: Optional[Path] = None,
    cancel: Optional[CancelToken] = None,
    watchdog: Optional[ResourceWatchdog] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
    submit_order: Optional[Sequence[int]] = None,
) -> RunResult:
    """Run ``units`` serially, or on a pool when ``workers`` asks for one.

    The one backend choice of reports, sweeps and lint.  ``retries``
    counts extra attempts; the watchdog, initializer and submission
    order concern the pool only.  The disk preflight belongs to the
    caller that opens the output directory, so the pool skips its own.
    """
    n_workers = resolve_workers(workers)
    settings: Dict[str, Any] = dict(
        journal=journal,
        retry=RetryPolicy(max_attempts=retries + 1),
        timeout_s=timeout_s,
        keep_going=keep_going,
        telemetry=telemetry,
        profile_dir=profile_dir,
        cancel=cancel,
    )
    if n_workers is None:
        return Runner(**settings).run(units)
    pool = PoolRunner(
        workers=n_workers,
        initializer=initializer,
        initargs=initargs,
        submit_order=submit_order,
        watchdog=watchdog,
        **settings,
    )
    return pool._run_preflighted(units)
