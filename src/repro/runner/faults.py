"""Deterministic fault injection for exercising the execution engine.

The robustness machinery (isolation, retries, timeouts, resume,
integrity verification) is only trustworthy if it can be
*demonstrated*, so the engine consults this module before every unit
attempt, the atomic write path mid-write, and the report writer after
every artefact write.  Faults are configured either programmatically
(:func:`install`) or through the ``REPRO_FAULTS`` environment variable,
and fire deterministically on named units — no randomness, so tests,
CI smoke runs, and the seeded chaos harness reproduce exactly.

Specification grammar (comma-separated, e.g.
``REPRO_FAULTS="fail=fig5:2,delay=fig7:0.5"``)::

    fail=<unit>[:<times>]     raise InjectedFault on <unit>, <times> attempts
    crash=<unit>              raise InjectedCrash before <unit> (simulated kill)
    delay=<unit>[:<seconds>]  sleep before running <unit>
    corrupt=<unit>            truncate <unit>'s written artefact (torn write)
    bitflip=<unit>[:<offset>] XOR one bit into <unit>'s artefact (bit rot)
    partial=<unit>[:<bytes>]  keep only <bytes> bytes of <unit>'s artefact
    enospc=<unit>[:<times>]   fail <unit>'s artefact writes with ENOSPC
    killworker=<unit>         hard-kill the pool worker running <unit>
    slowworker=<unit>[:<s>]   sleep before *every* attempt of <unit>
    pooldeath=<unit>[:<times>] hard-kill each worker on its first <times> <unit>s
    poisonmemo=<key>[:<times>] bit-rot a memo-store entry after it is written
    hang=<unit>[:<seconds>]   wedge the pool worker running <unit>
    sigterm=<unit>            deliver SIGTERM to the supervising process on <unit>

``corrupt``/``bitflip``/``partial`` emulate damage that *bypassed* the
atomic-rename discipline (a torn write, silent media bit rot), so
resume-time artefact validation and ``repro verify`` can be tested.
``enospc`` fires inside :func:`~repro.runner.atomic.atomic_open` for
writes issued while the named unit is executing, surfacing as the
retryable ``CheckpointError`` the real condition produces.
``killworker`` terminates the *worker process* with ``os._exit`` — the
parent sees a broken pool, exactly like an OOM kill; outside a pool
worker it is a no-op (there is no worker to kill).

The serve-side kinds (``slowworker``/``pooldeath``/``poisonmemo``)
exercise ``repro serve``: request unit ids are canonical config hashes
a test cannot predict, so these three accept ``*`` to match any unit.
``slowworker`` is ``delay`` that fires on *every* attempt (driving a
request past its deadline so the 504 path is reachable); ``pooldeath``
is a times-bounded ``killworker``, counted per worker process: a
rebuilt pool's fresh workers die too, so the request survives only
because the pool's shared death rule degrades it to serial at
:data:`~repro.runner.pool.DEATH_LIMIT`; ``poisonmemo`` flips a bit in a just-written memo-store
artefact *after* its sidecar was recorded — the poisoned entry must be
detected on read, quarantined, and never served.

The lifecycle kinds exercise supervision (:mod:`repro.runner.lifecycle`).
``hang`` wedges a pool worker in a sleep inside the unit's attempt; a
per-unit budget (``--timeout``) must end it, through the worker's
pre-emptive ``SIGALRM``, with :class:`~repro.errors.UnitTimeoutError`.
Outside a pool worker it is a no-op.  ``sigterm`` delivers a real
SIGTERM to the supervising process (the pool's parent, or the serial
process itself) when the named unit starts, driving the
graceful-drain machinery end to end; it fires once per process tree,
and the unit then proceeds normally — a drain lets in-flight work
finish.

Unit ids may themselves contain colons (sweep units look like
``0007:8:64``): the optional argument is split off at the *last* colon,
so a colon-bearing unit id must spell the argument out explicitly
(``fail=0007:8:64:2``).
"""

from __future__ import annotations

import errno
import os
import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from ..errors import ReproError, RunnerError

__all__ = [
    "ENV_VAR",
    "InjectedFault",
    "InjectedCrash",
    "FaultPlan",
    "parse_plan",
    "install",
    "clear",
    "active_plan",
    "before_unit",
    "unit_scope",
    "current_unit",
    "check_write",
    "damage_artifact",
    "damage_memo",
    "maybe_corrupt_file",
]

#: Environment variable holding a fault specification.
ENV_VAR = "REPRO_FAULTS"


class InjectedFault(ReproError):
    """A transient failure raised by the fault hook (retryable)."""


class InjectedCrash(BaseException):
    """Simulates a hard kill (SIGKILL/OOM) of the whole process.

    Deliberately derives from :class:`BaseException` so the engine's
    per-unit isolation can never swallow it — exactly like a real kill,
    it terminates the run and only the journal survives.
    """


@dataclass(frozen=True)
class FaultPlan:
    """Which units fail, crash, stall, or corrupt their output."""

    fail_unit: Optional[str] = None
    fail_times: int = 1
    crash_unit: Optional[str] = None
    delay_unit: Optional[str] = None
    delay_s: float = 1.0
    corrupt_unit: Optional[str] = None
    bitflip_unit: Optional[str] = None
    bitflip_offset: Optional[int] = None
    partial_unit: Optional[str] = None
    partial_bytes: Optional[int] = None
    enospc_unit: Optional[str] = None
    enospc_times: int = 1
    killworker_unit: Optional[str] = None
    slowworker_unit: Optional[str] = None
    slowworker_s: float = 0.5
    pooldeath_unit: Optional[str] = None
    pooldeath_times: int = 1
    poisonmemo_unit: Optional[str] = None
    poisonmemo_times: int = 1
    hang_unit: Optional[str] = None
    hang_s: float = 30.0
    sigterm_unit: Optional[str] = None


_installed: Optional[FaultPlan] = None
_fire_counts: Dict[Tuple[str, str], int] = {}
_current_unit: Optional[str] = None


def parse_plan(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS``-style specification string."""
    plan = FaultPlan()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep or not value:
            raise RunnerError(f"bad fault spec {part!r}: expected kind=unit[:arg]")
        # The numeric argument sits after the *last* colon; unit ids may
        # contain colons of their own.  Argless kinds take the whole
        # value as the unit id.
        head, sep, tail = value.rpartition(":")
        unit, arg = (head, tail) if sep else (value, "")
        try:
            if key == "fail":
                plan = replace(plan, fail_unit=unit, fail_times=int(arg) if arg else 1)
            elif key == "crash":
                plan = replace(plan, crash_unit=value)
            elif key == "delay":
                plan = replace(plan, delay_unit=unit, delay_s=float(arg) if arg else 1.0)
            elif key == "corrupt":
                plan = replace(plan, corrupt_unit=value)
            elif key == "bitflip":
                plan = replace(
                    plan,
                    bitflip_unit=unit,
                    bitflip_offset=int(arg) if arg else None,
                )
            elif key == "partial":
                plan = replace(
                    plan,
                    partial_unit=unit,
                    partial_bytes=int(arg) if arg else None,
                )
            elif key == "enospc":
                plan = replace(
                    plan, enospc_unit=unit, enospc_times=int(arg) if arg else 1
                )
            elif key == "killworker":
                plan = replace(plan, killworker_unit=value)
            elif key == "slowworker":
                plan = replace(
                    plan,
                    slowworker_unit=unit,
                    slowworker_s=float(arg) if arg else 0.5,
                )
            elif key == "pooldeath":
                plan = replace(
                    plan, pooldeath_unit=unit, pooldeath_times=int(arg) if arg else 1
                )
            elif key == "poisonmemo":
                plan = replace(
                    plan, poisonmemo_unit=unit, poisonmemo_times=int(arg) if arg else 1
                )
            elif key == "hang":
                plan = replace(
                    plan, hang_unit=unit, hang_s=float(arg) if arg else 30.0
                )
            elif key == "sigterm":
                plan = replace(plan, sigterm_unit=value)
            else:
                raise RunnerError(
                    f"unknown fault kind {key!r}; expected fail/crash/delay/corrupt/"
                    f"bitflip/partial/enospc/killworker/slowworker/pooldeath/"
                    f"poisonmemo/hang/sigterm"
                )
        except ValueError:
            raise RunnerError(f"bad fault argument in {part!r}") from None
    return plan


def install(plan: Optional[FaultPlan]) -> None:
    """Activate ``plan`` for the current process (None deactivates)."""
    global _installed
    _installed = plan
    _fire_counts.clear()


def clear() -> None:
    """Remove any installed plan and reset fire counters."""
    install(None)


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else one parsed from ``REPRO_FAULTS``."""
    if _installed is not None:
        return _installed
    spec = os.environ.get(ENV_VAR, "")
    return parse_plan(spec) if spec else None


def _fires(kind: str, unit_id: str, limit: int) -> bool:
    """Count one firing of ``kind`` on ``unit_id``; True while under limit."""
    count = _fire_counts.get((kind, unit_id), 0)
    if count >= limit:
        return False
    _fire_counts[(kind, unit_id)] = count + 1
    return True


@contextmanager
def unit_scope(unit_id: str) -> Iterator[None]:
    """Mark ``unit_id`` as the unit currently executing in this process.

    Write-path hooks (:func:`check_write`) fire on the *current* unit,
    since the atomic write layer has no unit identity of its own.
    """
    global _current_unit
    previous = _current_unit
    _current_unit = unit_id
    try:
        yield
    finally:
        _current_unit = previous


def current_unit() -> Optional[str]:
    """The unit id currently executing in this process, if any."""
    return _current_unit


def _matches(spec: Optional[str], unit_id: str) -> bool:
    """True when a fault spec names ``unit_id`` (``*`` matches any)."""
    return spec is not None and (spec == "*" or spec == unit_id)


def _pool_parent() -> Optional[Any]:
    """The process that started this one through :mod:`multiprocessing`,
    or None.  Exact without importing the module: a process multiprocessing
    started always has it loaded, so an unloaded module means no parent."""
    module = sys.modules.get("multiprocessing")
    return None if module is None else module.parent_process()


def before_unit(unit_id: str) -> None:
    """Fault hook called by the engine before each unit attempt."""
    plan = active_plan()
    if plan is None:
        return
    if plan.killworker_unit == unit_id and _fires("killworker", unit_id, 1):
        if _pool_parent() is not None:
            # A hard worker death: no exception, no cleanup, no reply —
            # the parent observes a broken pool, as with a real OOM kill.
            # repro: lint-ok[REP013] emulating a SIGKILL requires a true hard exit; routing it through the lifecycle drain would defeat the fault
            os._exit(86)
        # No worker to kill in the main process; the fault is a no-op so
        # a degraded-to-serial rerun of the same unit can complete.
    if (
        _matches(plan.pooldeath_unit, unit_id)
        and _pool_parent() is not None
        and _fires("pooldeath", "*", plan.pooldeath_times)
    ):
        # Same mechanics as killworker, but times-bounded and wildcard-
        # addressable: every fresh worker dies again, so the serve path
        # must survive a rebuild that dies too.
        # repro: lint-ok[REP013] emulating a SIGKILL requires a true hard exit; routing it through the lifecycle drain would defeat the fault
        os._exit(86)
    if (
        _matches(plan.hang_unit, unit_id)
        and _pool_parent() is not None
        and _fires("hang", unit_id, 1)
    ):
        # Wedge this worker inside the unit's attempt, where a per-unit
        # budget's SIGALRM must end it.  Bounded (not an infinite loop)
        # so a run without a budget still terminates.
        time.sleep(plan.hang_s)
    if _matches(plan.sigterm_unit, unit_id) and _fires("sigterm", "*", 1):
        parent = _pool_parent()
        target = parent.pid if parent is not None else os.getpid()
        # A real mid-flight shutdown signal to the supervising process;
        # this unit then proceeds normally — a graceful drain lets
        # in-flight work finish and journal.
        os.kill(target, signal.SIGTERM)
    if plan.crash_unit == unit_id:
        raise InjectedCrash(f"injected crash before unit {unit_id}")
    if plan.delay_unit == unit_id and plan.delay_s > 0:
        time.sleep(plan.delay_s)
    if _matches(plan.slowworker_unit, unit_id) and plan.slowworker_s > 0:
        # Unlike ``delay`` this fires on *every* attempt: a persistently
        # slow worker, not a one-off stall — what drives a served
        # request past its deadline however often it is retried.
        time.sleep(plan.slowworker_s)
    if plan.fail_unit == unit_id and _fires("fail", unit_id, plan.fail_times):
        count = _fire_counts[("fail", unit_id)]
        raise InjectedFault(
            f"injected fault on unit {unit_id} "
            f"(failure {count} of {plan.fail_times})"
        )


def check_write(path: Union[str, Path]) -> None:
    """Write hook called by the atomic layer before committing ``path``.

    Raises ``OSError(ENOSPC)`` — which :func:`atomic_open` converts to
    the retryable ``CheckpointError`` a real full disk produces — when
    the plan exhausts disk space for the unit currently executing.
    """
    plan = active_plan()
    unit_id = _current_unit
    if plan is None or unit_id is None or plan.enospc_unit != unit_id:
        return
    if _fires("enospc", unit_id, plan.enospc_times):
        raise OSError(errno.ENOSPC, "injected: no space left on device", str(path))


def damage_artifact(unit_id: str, path: Union[str, Path]) -> None:
    """Damage ``path`` if the plan corrupts ``unit_id``'s output.

    Emulates corruption that bypassed the atomic-rename discipline —
    a torn write (``corrupt``), silent bit rot (``bitflip``), or a
    truncated artefact (``partial``) — so resume-time validation and
    ``repro verify`` can be tested against every corruption class.
    """
    plan = active_plan()
    if plan is None:
        return
    path = Path(path)
    if plan.corrupt_unit == unit_id:
        data = path.read_bytes()
        # repro: lint-ok[REP001] deliberately tears the artefact; bypassing the atomic-rename discipline is the point of this fault
        path.write_bytes(data[: len(data) // 2])
    if plan.bitflip_unit == unit_id:
        data = bytearray(path.read_bytes())
        if data:
            offset = plan.bitflip_offset
            if offset is None or not 0 <= offset < len(data):
                offset = len(data) // 2
            data[offset] ^= 0x01
            # repro: lint-ok[REP001] deliberately injects silent bit rot behind the atomic layer's back; detecting it is the manifest's job
            path.write_bytes(bytes(data))
    if plan.partial_unit == unit_id:
        data = path.read_bytes()
        keep = plan.partial_bytes
        if keep is None or keep < 0:
            keep = len(data) // 2
        # repro: lint-ok[REP001] deliberately truncates the artefact to a prefix, emulating a short write that dodged fsync
        path.write_bytes(data[:keep])


def damage_memo(key: str, path: Union[str, Path]) -> None:
    """Poison a memo-store entry — called by the store *after* writing.

    Fires when the plan's ``poisonmemo`` spec names ``key`` (or ``*``),
    flipping one bit in the artefact body while leaving the sha256
    sidecar describing the healthy bytes.  That is exactly the damage
    shape of post-write bit rot: the next integrity-verified read must
    detect the mismatch, quarantine the entry, and recompute — a
    poisoned entry must never be served.
    """
    plan = active_plan()
    if plan is None or not _matches(plan.poisonmemo_unit, key):
        return
    if not _fires("poisonmemo", "*", plan.poisonmemo_times):
        return
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        return
    data[len(data) // 2] ^= 0x01
    # repro: lint-ok[REP001] deliberately rots the memo entry behind the atomic layer; detecting it on read is what the serve soak proves
    path.write_bytes(bytes(data))


#: Backwards-compatible alias: the original hook only knew ``corrupt``.
maybe_corrupt_file = damage_artifact
