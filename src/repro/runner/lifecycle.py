"""Lifecycle supervision: cooperative cancellation and budgets.

Long sweeps die in undignified ways the rest of the runner's
protections cannot help with: a SIGTERM arrives mid-flight and the
process vanishes without flushing its journal; a unit wedges and
never returns; and a serve request that already answered 504 leaves
its computation occupying a pool slot forever.  This module gives the
whole stack one cooperative-cancellation story:

* **two-phase graceful shutdown** — a :class:`Supervisor` installs
  SIGTERM/SIGINT handlers in the CLI entry points.  The first signal
  *drains*: the runner stops submitting new units, in-flight units
  finish and are journalled, telemetry flushes, and the journal is
  canonically reordered; the process then exits with
  :data:`EXIT_DRAINED` and a ``--resume`` hint.  A second signal — or
  an optional drain deadline — *aborts*: :class:`~repro.errors.AbortError`
  propagates, in-flight work is abandoned (workers are killed), and the
  process exits with :data:`EXIT_ABORTED`.  Either way every unit that
  finished is journalled, so resume repeats nothing;
* **budgets** — :func:`unit_timeout` (relocated here from the engine,
  which re-exports it) enforces a per-unit wall-clock budget (the CLI's
  ``--timeout``).  A pool worker runs its unit on its main thread, so
  the pre-emptive ``SIGALRM`` interrupts even a wedged unit there.  It
  is also how serve's per-request deadline travels into the pool: a
  served point is a unit whose ``timeout_s`` is the deadline, and the
  worker's ``SIGALRM`` frees the slot the moment the budget blows.

This is the only module in the package sanctioned to install signal
handlers or hard-exit (lint rule REP013); everything else expresses
shutdown through a :class:`CancelToken`.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from types import FrameType, TracebackType
from typing import Any, Callable, Iterator, List, Optional, Type

from ..errors import AbortError, UnitTimeoutError

__all__ = [
    "EXIT_ABORTED",
    "EXIT_DRAINED",
    "CancelToken",
    "Supervisor",
    "unit_timeout",
]

#: Exit code of a run that drained gracefully after a shutdown signal
#: (sysexits EX_TEMPFAIL: re-running with ``--resume`` will finish it).
EXIT_DRAINED = 75

#: Exit code of a run aborted hard — second signal or drain deadline
#: (sysexits EX_SOFTWARE: in-flight work was abandoned, journal intact).
EXIT_ABORTED = 70


class CancelToken:
    """A thread-safe drain request shared by a supervisor and a runner.

    The token starts clear.  :meth:`cancel` trips it exactly once
    (later calls are no-ops reporting False) and optionally arms a
    grace deadline; :meth:`expired` turns True once that deadline
    elapses, which runners treat as "stop draining, abort now".
    Checking is lock-free (:class:`threading.Event`), so the engine can
    poll between units and the pool can poll between waits without
    contention.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._reason: Optional[str] = None
        self._deadline: Optional[float] = None

    @property
    def cancelled(self) -> bool:
        """True once a drain has been requested."""
        return self._event.is_set()

    @property
    def reason(self) -> Optional[str]:
        """Why the drain was requested, or None while the token is clear."""
        return self._reason

    def cancel(self, reason: str, grace_s: Optional[float] = None) -> bool:
        """Request a drain; True if this call tripped the token.

        ``grace_s`` arms the abort deadline: :meth:`expired` flips True
        that many seconds from *now*.  Only the tripping call's grace
        is honoured — a second cancel cannot shorten or extend it.
        """
        with self._lock:
            if self._event.is_set():
                return False
            self._reason = reason
            if grace_s is not None and grace_s > 0:
                self._deadline = time.monotonic() + grace_s
            self._event.set()
            return True

    def expired(self) -> bool:
        """True once the drain grace period has elapsed (abort time)."""
        deadline = self._deadline
        return (
            self._event.is_set()
            and deadline is not None
            and time.monotonic() > deadline
        )

    def raise_if_expired(self) -> None:
        """Raise :class:`~repro.errors.AbortError` past the drain deadline."""
        if self.expired():
            raise AbortError(
                f"drain grace period exhausted ({self._reason}); aborting "
                f"with in-flight work abandoned — completed units are "
                f"journalled, re-run with --resume"
            )


class Supervisor:
    """Two-phase SIGTERM/SIGINT shutdown for CLI entry points.

    Used as a context manager around a batch run::

        with Supervisor(grace_s=120.0) as supervisor:
            write_report(out, ids, cancel=supervisor.token)
        if supervisor.triggered:
            print("drained; re-run with --resume", file=sys.stderr)
            return EXIT_DRAINED

    The **first** signal trips the :class:`CancelToken` (and the
    optional ``on_drain`` callback): the run drains — no new units
    start, in-flight units finish and are journalled.  The **second**
    signal raises :class:`~repro.errors.AbortError` straight out of the
    handler, interrupting the main thread mid-drain; runners abandon
    in-flight work with the journal intact.  ``grace_s`` additionally
    bounds the drain — runners poll :meth:`CancelToken.expired` and
    abort on their own once it elapses, so a wedged drain cannot hang
    forever even if no second signal ever arrives.

    Handlers can only be installed on the main thread; elsewhere the
    supervisor degrades to an inert token holder (chaos soaks run
    in-process under pytest worker threads), which is safe because the
    process-level default handlers still apply.
    """

    _SIGNALS = ("SIGTERM", "SIGINT")

    def __init__(
        self,
        grace_s: Optional[float] = None,
        on_drain: Optional[Callable[[str], None]] = None,
    ):
        self.token = CancelToken()
        self.grace_s = grace_s
        self.on_drain = on_drain
        #: True once the second signal forced a hard abort.
        self.aborted = False
        self.installed = False
        self._previous: List[Any] = []

    @property
    def triggered(self) -> bool:
        """True once at least one shutdown signal was received."""
        return self.token.cancelled

    def exit_code(self) -> int:
        """The process exit code this shutdown deserves."""
        return EXIT_ABORTED if self.aborted else EXIT_DRAINED

    def _handle(self, signum: int, frame: Optional[FrameType]) -> None:
        name = signal.Signals(signum).name
        if self.token.cancel(f"received {name}", self.grace_s):
            if self.on_drain is not None:
                self.on_drain(name)
            return
        # Second signal: abort out of the handler, interrupting the
        # drain on the main thread (where handlers always run).
        self.aborted = True
        raise AbortError(
            f"received {name} during drain; aborting with in-flight work "
            f"abandoned — completed units are journalled, re-run with --resume"
        )

    def __enter__(self) -> "Supervisor":
        previous: List[Any] = []
        try:
            for name in self._SIGNALS:
                signum = getattr(signal, name, None)
                if signum is None:  # pragma: no cover - non-POSIX platforms
                    continue
                previous.append((signum, signal.signal(signum, self._handle)))
        except ValueError:
            # Not the main thread: restore whatever we managed to swap
            # and stay inert — the token still works for manual cancel.
            for signum, handler in previous:
                signal.signal(signum, handler)
            self._previous = []
            return self
        self._previous = previous
        self.installed = bool(previous)
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        for signum, handler in reversed(self._previous):
            signal.signal(signum, handler)
        self._previous = []
        self.installed = False


@contextmanager
def unit_timeout(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`UnitTimeoutError` after ``seconds`` of wall clock.

    Two enforcement mechanisms, picked automatically:

    * **pre-emptive** — ``SIGALRM``/``setitimer`` interrupts the unit
      mid-flight; only available on the main thread of a POSIX process
      (signals cannot be delivered to other threads);
    * **deadline** — everywhere else (worker threads, processes without
      ``SIGALRM``) the unit runs to completion and the budget is checked
      afterwards: an overrunning unit still fails with
      :class:`UnitTimeoutError` and its result is discarded, it just
      cannot be aborted mid-run.

    Either way the budget is *enforced* — the historical behaviour of
    silently skipping enforcement off the main thread is gone.  With
    ``seconds`` None/0 the context is a no-op.
    """
    if seconds is None or seconds <= 0:
        yield
        return
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        started = time.monotonic()
        yield
        if time.monotonic() - started > seconds:
            raise UnitTimeoutError(
                f"unit exceeded its {seconds:g}s wall-clock budget "
                f"(detected at the deadline check)"
            )
        return

    def _alarm(signum: int, frame: Optional[FrameType]) -> None:
        raise UnitTimeoutError(f"unit exceeded its {seconds:g}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
