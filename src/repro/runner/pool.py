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
  fields are the wall-clock ``elapsed_s`` measurements;
* **one pool life** — :class:`WorkerPool` owns the executor, here and
  in ``repro serve``: a dead or hung worker is one death per broken
  executor and a rebuild, and the :data:`DEATH_LIMIT`-th death (or an
  RSS breach) degrades to serial with its cause recorded.

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

import contextlib
import os
import pickle
import shutil
import tempfile
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from pathlib import Path

from ..errors import RunnerError
from ..obs.telemetry import Telemetry
from .engine import (
    RetryPolicy,
    Runner,
    RunResult,
    RunUnit,
    UnitOutcome,
    crashed_outcome,
    execute_attempts,
    record_outcome,
    resume_outcome,
)
from .journal import RunJournal
from .lifecycle import CancelToken, Heartbeat, read_heartbeats
from .watchdog import ResourceWatchdog, peak_rss_bytes

__all__ = [
    "DEATH_LIMIT",
    "PoolRunner",
    "WorkerPool",
    "WorkerTask",
    "execute_task",
    "resolve_workers",
    "rss_reason",
    "run_units",
]


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
class WorkerTask:
    """What a worker process needs to run one unit.

    ``unit`` is stripped of its parent-side ``check_skip`` and
    ``from_record`` callables, which may be unpicklable closures.
    Batch runs and ``repro serve`` both submit these through a
    :class:`WorkerPool`, so a served point runs the same attempt loop
    as a pooled batch unit.
    """

    unit: RunUnit
    retry: RetryPolicy = RetryPolicy()
    timeout_s: Optional[float] = None
    telemetry_on: bool = False
    profile_dir: Optional[Path] = None
    heartbeat_dir: Optional[str] = None


def execute_task(task: WorkerTask) -> dict:
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


#: The executor death that degrades a :class:`WorkerPool` to serial;
#: each earlier one rebuilds it.  A replacement worker that dies too
#: means a unit or host that kills workers: rebuilding again repeats it.
DEATH_LIMIT = 2

_DEATH_REASONS = {
    "worker-death": "a worker died without reporting",
    "hung-worker": "hung-worker rescue budget exhausted: a hung worker was killed",
}


def rss_reason(rss_bytes: Optional[int], watchdog: ResourceWatchdog) -> str:
    """Why a pool degrades when a reply's peak RSS breaches the ceiling."""
    return (
        f"worker peak RSS {rss_bytes} bytes exceeded the "
        f"{watchdog.policy.max_worker_rss_bytes}-byte watchdog ceiling; "
        f"degraded to serial execution"
    )


def _workers_of(executor: Optional[ProcessPoolExecutor]) -> Dict[int, Any]:
    """``executor``'s worker processes by pid (a private table: no public one)."""
    return dict(getattr(executor, "_processes", None) or {})


class WorkerPool:
    """Every decision about a process pool's life: batch runs and serve.

    The executor is built on the first :meth:`submit` (never, for
    ``workers=None``).  A worker that dies breaks its whole executor;
    whether ``submit`` raised the ``BrokenProcessPool`` or a future
    carries it, :meth:`broke` counts one death per broken executor, and
    the next submit builds a fresh one.  Killing a hung worker
    (:meth:`kill`) is a death too.  At the :data:`DEATH_LIMIT`-th death,
    or on an RSS breach (:meth:`degrade`), the pool degrades for good:
    :attr:`degraded_cause` is ``worker-death``, ``hung-worker`` or
    ``rss``, and :meth:`submit` answers None (run the task in-process).
    One thread drives a pool, so it takes no locks.
    """

    def __init__(
        self,
        workers: Optional[int],
        *,
        mp_context: Any,
        initializer: Optional[Callable[..., None]],
        initargs: Tuple[Any, ...],
    ):
        self.workers = workers
        self._options: Dict[str, Any] = dict(
            mp_context=mp_context, initializer=initializer, initargs=initargs
        )
        self.deaths = 0
        self.degraded_cause: Optional[str] = None
        self.degraded_reason: Optional[str] = None
        self._executor: Optional[ProcessPoolExecutor] = None
        self._retired: List[Any] = []  # workers of shut-down executors
        # Which build of the executor each future went to: only a
        # future of the live build reports a new death.
        self._builds = 0
        self._build_of: "weakref.WeakKeyDictionary[Future[Any], int]" = (
            weakref.WeakKeyDictionary()
        )

    def submit(self, task: WorkerTask) -> Optional[Future[Any]]:
        """Run ``task`` on a worker; None once degraded (run it in-process)."""
        if self.workers is None or self.degraded_cause is not None:
            return None
        if self._executor is None:
            self._executor = ProcessPoolExecutor(self.workers, **self._options)
            self._builds += 1
        try:
            future: Future[Any] = self._executor.submit(execute_task, task)
        except BrokenProcessPool as error:
            # Broken before any future said so: report it on one.
            future = Future()
            future.set_exception(error)
        self._build_of[future] = self._builds
        return future

    def broke(self, future: Future[Any]) -> bool:
        """Count the death a ``BrokenProcessPool`` future reports; True if new."""
        if self._executor is None or self._build_of.get(future) != self._builds:
            return False
        self._died("worker-death")
        return True

    def kill(self, pids: Collection[int]) -> int:
        """SIGKILL the live executor's workers among ``pids`` (one death)."""
        victims = [p for pid, p in _workers_of(self._executor).items() if pid in pids]
        for process in victims:
            process.kill()
        if victims:
            self._died("hung-worker")
        return len(victims)

    def degrade(self, cause: str, reason: str) -> None:
        """Stop for good (the first cause sticks); running tasks still report."""
        if self.degraded_cause is None:
            self.degraded_cause, self.degraded_reason = cause, reason
        self._retire(cancel=True)

    def abort(self) -> None:
        """SIGKILL every worker, then join: a wedged one cannot block it."""
        self._retire(cancel=True)
        for process in self._retired:
            with contextlib.suppress(OSError, ValueError):
                process.kill()
        self.close(wait=True)

    def close(self, wait: bool) -> None:
        """Shut down, cancelling queued tasks; ``wait`` joins every worker."""
        self._retire(cancel=True)
        retired, self._retired = self._retired, []
        for process in retired if wait else ():
            with contextlib.suppress(ValueError):
                process.join()

    def reset(self) -> None:
        """Close without waiting; forget deaths and degradation."""
        self.close(wait=False)
        self.deaths = 0
        self.degraded_cause = self.degraded_reason = None

    def _died(self, cause: str) -> None:
        self.deaths += 1
        # Not cancelled: the broken executor fails every outstanding
        # future with BrokenProcessPool, and their callers resubmit.
        self._retire(cancel=False)
        if self.deaths >= DEATH_LIMIT:
            self.degrade(
                cause,
                f"{_DEATH_REASONS[cause]}; the worker pool died "
                f"{self.deaths} times, degraded to serial execution",
            )

    def _retire(self, cancel: bool) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            self._retired.extend(_workers_of(executor).values())
            executor.shutdown(wait=False, cancel_futures=cancel)


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
        When set, the journal directory gets a disk-space preflight, a
        reply over the RSS ceiling sheds the queued work to serial, and
        with ``hang_timeout_s`` a worker whose heartbeat goes stale is
        killed.  With or without one, worker deaths follow
        :class:`WorkerPool`'s rule.  After a degraded run
        :attr:`degraded_reason` records why.
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
        #: Hung workers killed (their units requeued) during the last run.
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
        pool = WorkerPool(
            min(self.workers, len(pending)),
            mp_context=self.mp_context,
            initializer=self.initializer,
            initargs=self.initargs,
        )
        try:
            stopping = self._drive_pool(pool, pending, outcomes)
        finally:
            pool.close(wait=True)
        self.degraded_reason = pool.degraded_reason
        if pool.degraded_cause is None:
            return
        self.telemetry.count("repro_degradations_total", reason=pool.degraded_cause)
        if stopping:
            return
        # Degradation ladder, final rung before --resume: the inherited
        # serial Runner loop, with this pool's settings, finishes the
        # units that never produced an outcome in the parent.  Telemetry
        # is flushed once, for the whole run, after this rung.
        leftover = [unit for unit in pending if unit.unit_id not in outcomes]
        for outcome in self._run_serial(leftover).outcomes:
            outcomes[outcome.unit_id] = outcome

    def _drive_pool(
        self,
        pool: WorkerPool,
        pending: Sequence[RunUnit],
        outcomes: Dict[str, UnitOutcome],
    ) -> bool:
        """Fan ``pending`` out over ``pool``; True if a failure stopped it.

        Units a pool death took down are resubmitted; once the pool
        degrades, the units without an outcome are left for the serial rung.
        """
        watchdog = self.watchdog
        hang_limit = None if watchdog is None else watchdog.policy.hang_timeout_s
        heartbeat_dir: Optional[str] = None
        poll = 0.25 if self.cancel is not None else None
        if hang_limit is not None:
            heartbeat_dir = tempfile.mkdtemp(prefix="repro-heartbeat-")
            poll = max(0.05, hang_limit / 4.0)

        def submit(unit: RunUnit) -> None:
            future = pool.submit(
                WorkerTask(
                    unit=replace(unit, check_skip=None, from_record=None),
                    retry=self.retry,
                    timeout_s=self.timeout_s,
                    telemetry_on=self.telemetry.enabled,
                    profile_dir=self.profile_dir,
                    heartbeat_dir=heartbeat_dir,
                )
            )
            if future is not None:
                in_flight[future] = unit

        def cancel_queued() -> None:
            # A future cancelled before it started is forgotten at once:
            # wait() would not report it done until its executor, which
            # may already be shut down, acknowledges the cancellation.
            for future in [f for f in in_flight if f.cancel()]:
                del in_flight[future]

        # Outstanding futures in submission order (resubmissions last).
        in_flight: Dict[Future[Any], RunUnit] = {}
        stopping = False
        drained = False
        handed_at = time.time()
        try:
            for unit in self._submission(pending):
                submit(unit)
            while in_flight:
                if self.cancel is not None and self.cancel.cancelled and not drained:
                    # Drain: queued units never start (they stay
                    # outcome-less for --resume); running units finish
                    # and are journalled below.
                    drained = True
                    cancel_queued()
                if self.cancel is not None and self.cancel.expired():
                    pool.abort()
                    self.cancel.raise_if_expired()
                done, _ = wait(
                    set(in_flight), timeout=poll, return_when=FIRST_COMPLETED
                )
                # A done *batch* is processed in submission order: when a
                # crash arrives together with results, everything that
                # finished before the crashing unit is journalled first,
                # so the journal a killed run leaves behind is
                # deterministic, not subject to set iteration order.
                for future in [f for f in in_flight if f in done]:
                    unit = in_flight.pop(future)
                    crash = future.exception()
                    if crash is not None:
                        if isinstance(crash, BrokenProcessPool):
                            # A dead worker broke the executor: count the
                            # death once, and resubmit (a rebuild) unless
                            # the run is stopping or the pool degraded.
                            pool.broke(future)
                            if not stopping and not drained:
                                submit(unit)
                            continue
                        if not isinstance(crash, Exception):
                            # A simulated (or real) kill: abandon
                            # everything in flight, journal untouched
                            # beyond what already arrived.
                            raise crash
                        # Infrastructure failure around one unit (e.g.
                        # an unpicklable reply): a structured failure.
                        outcome = crashed_outcome(unit, crash, 1, handed_at)
                        stored = None
                    else:
                        reply = future.result()
                        outcome = self._outcome_from_reply(unit, reply)
                        stored = reply["result"]
                        self.telemetry.absorb(reply.get("telemetry"))
                        rss = reply.get("rss_bytes")
                        if rss is not None:
                            self.telemetry.gauge_max(
                                "repro_worker_peak_rss_bytes", float(rss)
                            )
                        if (
                            watchdog is not None
                            and pool.degraded_cause is None
                            and watchdog.over_rss(rss)
                        ):
                            # Shed: cancel what has not started (running
                            # units drain normally and are journalled);
                            # cancelled units fall to the serial rung.
                            pool.degrade("rss", rss_reason(rss, watchdog))
                            cancel_queued()
                    outcomes[unit.unit_id] = outcome
                    record_outcome(self.journal, unit, outcome, stored)
                    if outcome.status == "failed" and not self.keep_going and not stopping:
                        stopping = True
                        cancel_queued()
                if heartbeat_dir is not None and watchdog is not None and not stopping:
                    # A hung worker is killed: a pool death like any
                    # other, so its unit comes back as BrokenProcessPool
                    # and is resubmitted, or at the death limit left for
                    # the serial rung, where a wedge cannot block a pool.
                    beats = watchdog.hung_workers(read_heartbeats(heartbeat_dir))
                    killed = pool.kill({beat.pid for beat in beats})
                    if killed:
                        self.rescues += killed
                        self.telemetry.count("repro_runner_rescues_total", killed)
        finally:
            if heartbeat_dir is not None:
                shutil.rmtree(heartbeat_dir, ignore_errors=True)
        return stopping

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
