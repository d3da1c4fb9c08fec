"""The batch runner: one :class:`Runner`, in-process or over a process pool.

Reports and sweeps hand their units to :class:`Runner` (through
:func:`run_units`).  With ``workers=None`` it runs every unit in this
process; with a worker count it fans the units out over a
:class:`WorkerPool` first, and the same in-process loop then finishes
whatever a degraded pool left.  Either way a run keeps the same
protections:

* **resume** — journal replay and ``check_skip`` artefact validation
  run in the parent *before* any unit runs, once per unit, so completed
  units never run again or reach a worker;
* **isolation / retries / timeouts** — every unit, in this process or
  a worker, runs the shared attempt loop
  (:func:`~repro.runner.engine.execute_attempts`): bounded retries
  with backoff and a per-attempt wall-clock budget, pre-emptive
  ``SIGALRM`` on a main thread and a portable post-hoc deadline check
  otherwise;
* **crash-safe journaling** — outcomes are journalled by the *parent*
  as they arrive (workers never touch the journal, so there is no
  cross-process write contention), each append persisting atomically.
  A killed run therefore resumes from exactly the units whose outcomes
  made it back; after a pooled run the journal is canonically
  reordered (:meth:`~repro.runner.journal.RunJournal.rewrite_ordered`)
  so its final contents are independent of worker count and completion
  order.  An in-process run appends in unit order already;
* **determinism** — the returned :class:`~repro.runner.engine.RunResult`
  is assembled in unit order, never arrival order.  Downstream
  artefacts (report rows, sweep tables, envelopes, failure manifests)
  are thus bit-identical with or without a pool; the only volatile
  journal fields are the wall-clock ``elapsed_s`` measurements;
* **one pool life** — :class:`WorkerPool` owns the executor, here and
  in ``repro serve``: a dead worker is one death per broken executor
  and a rebuild, and the :data:`DEATH_LIMIT`-th death degrades the
  pool, with its cause recorded, and leaves the rest of the run to
  this process.

Worker-side fault injection (:mod:`repro.runner.faults`) works through
the ``REPRO_FAULTS`` environment variable (inherited by workers under
every start method) or, under ``fork``, through a plan installed before
the pool is created.  An injected crash (``BaseException``) in a worker
terminates the whole run, as it does in-process, with the journal
intact.

Pickling contract: a unit shipped to a worker carries its ``run`` and
``to_record`` callables, which must therefore be picklable (module-level
functions or instances of module-level classes — not closures).
``check_skip`` and ``from_record`` stay parent-side and may be
closures.  An in-process run pickles nothing.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from pathlib import Path

from ..errors import RunnerError
from ..obs.telemetry import DISABLED as _DISABLED_TELEMETRY
from ..obs.telemetry import Telemetry
from .engine import (
    RetryPolicy,
    RunResult,
    RunUnit,
    UnitOutcome,
    crashed_outcome,
    execute_attempts,
    record_outcome,
    resume_outcome,
)
from .journal import RunJournal
from .lifecycle import CancelToken
from .watchdog import peak_rss_bytes

# ``concurrent.futures.process`` (and with it ``multiprocessing``) is
# imported only where a WorkerPool builds or drives an executor, so a
# run without a pool never loads it (DESIGN.md §7).
if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "DEATH_LIMIT",
    "Runner",
    "WorkerPool",
    "WorkerTask",
    "execute_task",
    "resolve_workers",
    "run_units",
]


def resolve_workers(spec: Union[None, int, str]) -> Optional[int]:
    """Normalise a ``--workers`` value: None for no pool, else a count.

    ``None``/``0``/``"serial"`` select an in-process run; ``"auto"``
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
    outcome = execute_attempts(
        unit,
        retry=task.retry,
        timeout_s=task.timeout_s,
        telemetry=telemetry,
        profile_dir=task.profile_dir,
    )
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


class WorkerPool:
    """Every decision about a process pool's life: batch runs and serve.

    The executor is built on the first :meth:`submit` (never, for
    ``workers=None``).  A worker that dies breaks its whole executor;
    whether ``submit`` raised the ``BrokenProcessPool`` or a future
    carries it, :meth:`broke` counts one death per broken executor, and
    the next submit builds a fresh one.  At the :data:`DEATH_LIMIT`-th
    death the pool degrades for good: :attr:`degraded_cause` is
    ``worker-death``, and :meth:`submit` answers None (run the task
    in-process).  One thread drives a pool, so it takes no locks.
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
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

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
        self.deaths += 1
        # Not cancelled: the broken executor fails every outstanding
        # future with BrokenProcessPool, and their callers resubmit.
        self._retire(cancel=False)
        if self.deaths >= DEATH_LIMIT:
            self.degraded_cause = "worker-death"
            self.degraded_reason = (
                f"a worker died without reporting; the worker pool died "
                f"{self.deaths} times, degraded to serial execution"
            )
        return True

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

    def _retire(self, cancel: bool) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            # The executor's private pid table: there is no public one.
            self._retired.extend((getattr(executor, "_processes", None) or {}).values())
            executor.shutdown(wait=False, cancel_futures=cancel)


class Runner:
    """Drive a sequence of :class:`RunUnit`: the one batch runner.

    ``run`` returns a :class:`RunResult` in unit order and never raises
    for unit failures (``RunResult.raise_first_failure`` is the
    caller's choice); ``BaseException`` (an interrupt, an injected
    crash, in-process or from a worker) propagates with every finished
    unit journalled, which is what makes resume work.  With
    ``keep_going=False`` the first failure in unit order truncates the
    result; units other workers already finished stay journalled, so a
    later resume does not repeat them.

    A run rejects duplicate unit ids, skips the units the journal
    already completed, fans the rest over a :class:`WorkerPool` when
    ``workers`` is set, and then runs every unit still without an
    outcome in this process, in unit order: the whole run with no pool,
    or a degraded pool's leftovers.

    Parameters
    ----------
    workers:
        Worker process count (see :func:`resolve_workers`); None runs
        every unit in this process.
    initializer / initargs:
        Forwarded to the executor; use them to pre-warm per-worker
        caches (e.g. trace generation and L1 filter passes) once per
        worker instead of once per unit.
    submit_order:
        Optional permutation of the pending units' indices controlling
        pool *submission* order.  Results are always assembled in unit
        order, so any permutation must produce identical output — the
        differential tests shuffle this to prove order independence.
    mp_context:
        Optional :mod:`multiprocessing` context (e.g. the ``fork``
        context when workers must inherit parent state).

    Worker deaths follow :class:`WorkerPool`'s rule; after a degraded
    run :attr:`degraded_reason` records why.
    """

    def __init__(
        self,
        journal: Optional[RunJournal] = None,
        retry: Optional[RetryPolicy] = None,
        timeout_s: Optional[float] = None,
        keep_going: bool = False,
        workers: Optional[int] = None,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
        submit_order: Optional[Sequence[int]] = None,
        mp_context: Any = None,
        telemetry: Optional[Telemetry] = None,
        profile_dir: Optional[Path] = None,
        cancel: Optional[CancelToken] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if workers is not None and workers < 1:
            raise RunnerError(f"a worker pool needs at least one worker, got {workers}")
        self.journal = journal
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout_s = timeout_s
        self.keep_going = keep_going
        self.workers = workers
        self.initializer = initializer
        self.initargs = initargs
        self.submit_order = submit_order
        self.mp_context = mp_context
        self.telemetry = telemetry if telemetry is not None else _DISABLED_TELEMETRY
        self.profile_dir = profile_dir
        self.cancel = cancel
        self._sleep = sleep
        #: Why the last run shed its workers, or None if it never did.
        self.degraded_reason: Optional[str] = None

    def run(self, units: Sequence[RunUnit]) -> RunResult:
        units = list(units)
        unit_ids = [unit.unit_id for unit in units]
        if len(set(unit_ids)) != len(unit_ids):
            raise RunnerError("duplicate unit ids in one run")
        self.degraded_reason = None
        outcomes: Dict[str, UnitOutcome] = {}
        pending: List[RunUnit] = []
        for unit in units:
            skipped = resume_outcome(self.journal, unit)
            if skipped is not None:
                outcomes[unit.unit_id] = skipped
                self.telemetry.count("repro_units_total", status="skipped")
            else:
                pending.append(unit)
        stopping = False
        if self.workers is not None and pending:
            stopping = self._run_pool(self.workers, pending, outcomes)
        if not stopping:
            self._run_here(pending, outcomes)
        if self.workers is not None and self.journal is not None:
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

    def _run_here(
        self, pending: Sequence[RunUnit], outcomes: Dict[str, UnitOutcome]
    ) -> None:
        """Run the units still without an outcome in this process, in order."""
        for unit in pending:
            if unit.unit_id in outcomes:
                continue
            if self.cancel is not None and self.cancel.cancelled:
                # Drain: the unit that was executing when the token
                # tripped has finished and is journalled; stop here.
                self.cancel.raise_if_expired()
                return
            outcome = execute_attempts(
                unit,
                retry=self.retry,
                timeout_s=self.timeout_s,
                sleep=self._sleep,
                telemetry=self.telemetry,
                profile_dir=self.profile_dir,
            )
            stored = None
            if self.journal is not None and outcome.ok and unit.to_record is not None:
                stored = unit.to_record(outcome.value)
            record_outcome(self.journal, unit, outcome, stored)
            outcomes[unit.unit_id] = outcome
            if outcome.status == "failed" and not self.keep_going:
                return

    def _submission(self, pending: Sequence[RunUnit]) -> List[RunUnit]:
        if self.submit_order is None:
            return list(pending)
        if sorted(self.submit_order) != list(range(len(pending))):
            raise RunnerError(
                f"submit_order must be a permutation of range({len(pending)})"
            )
        return [pending[index] for index in self.submit_order]

    def _run_pool(
        self,
        workers: int,
        pending: Sequence[RunUnit],
        outcomes: Dict[str, UnitOutcome],
    ) -> bool:
        """Drive ``pending`` over a fresh pool; True if a failure stopped it.

        A pool that degrades leaves the units it never finished to
        :meth:`_run_here`, the last rung before ``--resume``.
        """
        pool = WorkerPool(
            min(workers, len(pending)),
            mp_context=self.mp_context,
            initializer=self.initializer,
            initargs=self.initargs,
        )
        try:
            stopping = self._drive_pool(pool, pending, outcomes)
        finally:
            pool.close(wait=True)
        self.degraded_reason = pool.degraded_reason
        if pool.degraded_cause is not None:
            self.telemetry.count("repro_degradations_total", reason=pool.degraded_cause)
        return stopping

    def _drive_pool(
        self,
        pool: WorkerPool,
        pending: Sequence[RunUnit],
        outcomes: Dict[str, UnitOutcome],
    ) -> bool:
        """Fan ``pending`` out over ``pool``; True if a failure stopped it.

        Units a pool death took down are resubmitted; once the pool
        degrades, the units without an outcome are left to this process.
        """
        from concurrent.futures.process import BrokenProcessPool

        poll = 0.25 if self.cancel is not None else None

        def submit(unit: RunUnit) -> None:
            future = pool.submit(
                WorkerTask(
                    unit=replace(unit, check_skip=None, from_record=None),
                    retry=self.retry,
                    timeout_s=self.timeout_s,
                    telemetry_on=self.telemetry.enabled,
                    profile_dir=self.profile_dir,
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
                    outcome, stored = reply["outcome"], reply["result"]
                    if (
                        not reply["has_value"]  # the value did not pickle
                        and unit.from_record is not None
                        and stored is not None
                    ):
                        outcome = replace(outcome, value=unit.from_record(stored))
                    self.telemetry.absorb(reply.get("telemetry"))
                    rss = reply.get("rss_bytes")
                    if rss is not None:
                        self.telemetry.gauge_max(
                            "repro_worker_peak_rss_bytes", float(rss)
                        )
                outcomes[unit.unit_id] = outcome
                record_outcome(self.journal, unit, outcome, stored)
                if outcome.status == "failed" and not self.keep_going and not stopping:
                    stopping = True
                    cancel_queued()
        return stopping


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
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
    submit_order: Optional[Sequence[int]] = None,
) -> RunResult:
    """Run ``units`` on a :class:`Runner`, pooled when ``workers`` asks.

    The one entry point of reports and sweeps.  ``retries`` counts
    extra attempts; the initializer and submission order concern the
    pool only.
    """
    return Runner(
        journal=journal,
        retry=RetryPolicy(max_attempts=retries + 1),
        timeout_s=timeout_s,
        keep_going=keep_going,
        workers=resolve_workers(workers),
        initializer=initializer,
        initargs=initargs,
        submit_order=submit_order,
        telemetry=telemetry,
        profile_dir=profile_dir,
        cancel=cancel,
    ).run(units)
