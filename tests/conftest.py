"""Shared fixtures and helpers for the test suite.

Traces are expensive, so fixtures are session-scoped and the library's
own memoisation (the trace store, the L1 miss-stream cache) is relied
on heavily: tests asking for the same (workload, scale) pair share one
generated trace.

One audit hook, installed here for the whole session, serves two
runtime checks: the serve loop's I/O guard (:data:`LOOP_IO`), which
fails any test that does file I/O on a live ``BackgroundServer``'s
event loop, and the I/O fault injector (:func:`inject_eio`), which
raises ``EIO`` at chosen file system calls.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import pathlib
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Set, Tuple

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.cache.directmap import NO_VICTIM
from repro.cache.hierarchy import MissStream
from repro.traces.address import Trace
from repro.traces.store import get_trace

#: Tiny scale for correctness tests (2 % of the base instruction count).
TINY = 0.02

#: Moderate scale for qualitative shape checks.
MEDIUM = 0.2

#: Full scale for the calibration anchors.
FULL = 1.0

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The pytest process: pool workers forked from it inherit the audit hook.
PYTEST_PID = os.getpid()


def make_random_trace(
    seed: int,
    n_instructions: int = 400,
    n_lines: int = 64,
    data_ratio: float = 0.4,
    name: str = "random",
) -> Trace:
    """A small uniformly-random trace for oracle comparisons.

    Uniform random addresses are the adversarial case for the
    vectorised simulators (no locality structure to hide behind).
    """
    rng = np.random.default_rng(seed)
    i_addrs = rng.integers(0, n_lines, size=n_instructions) * 16
    mask = rng.random(n_instructions) < data_ratio
    d_times = np.nonzero(mask)[0]
    d_addrs = rng.integers(0, n_lines, size=len(d_times)) * 16 + (1 << 40)
    return Trace(name, i_addrs, d_addrs, d_times)


def make_miss_stream(lines, victims, is_instruction=None, times=None) -> MissStream:
    """A merged L1 miss stream from its columns (all instructions, one per
    cycle, unless given; ``times`` must not decrease)."""
    n = len(lines)
    is_instruction = np.ones(n, bool) if is_instruction is None else np.array(is_instruction, bool)
    times = np.arange(n, dtype=np.int64) if times is None else np.array(times, dtype=np.int64)
    n_instructions = int(np.count_nonzero(is_instruction))
    return MissStream(
        times=times,
        lines=np.array(lines, dtype=np.int64),
        victims=np.array(victims, dtype=np.int64),
        is_instruction=is_instruction,
        l1i_misses=n_instructions,
        l1d_misses=n - n_instructions,
        n_instructions=int(times[-1]) + 1 if n else 0,
        n_data_refs=n - n_instructions,
    )


@st.composite
def miss_streams(draw, max_line: int = 12) -> MissStream:
    """Random merged L1 miss streams for differentials of the stages below.

    Each line either follows the one before it (so sequential runs occur)
    or is drawn from ``[0, max_line]``, as are the victims, so lines and
    victims repeat; victims include ``NO_VICTIM``; a stream is all data,
    all instructions or mixed.
    """
    steps = draw(st.lists(st.one_of(st.none(), st.integers(0, max_line)), max_size=80))
    n = len(steps)
    lines, line = [], 0
    for step in steps:
        line = line + 1 if step is None else step
        lines.append(line)
    victims = draw(
        st.lists(st.one_of(st.just(NO_VICTIM), st.integers(0, max_line)), min_size=n, max_size=n)
    )
    kind = draw(st.sampled_from(["mixed", "data", "instructions"]))
    if kind == "mixed":
        is_instruction = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        is_instruction = [kind == "instructions"] * n
    gaps = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return make_miss_stream(lines, victims, is_instruction, np.cumsum(gaps, dtype=np.int64))


def run_fresh(*argv: str, cwd: Path) -> subprocess.CompletedProcess:
    """``python argv...`` in a fresh interpreter with nothing imported yet."""
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def fresh_json(code: str, cwd: Path):
    """The JSON value ``code`` prints last, run in a fresh interpreter."""
    done = run_fresh("-c", code, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


#: Audit events that reach the disk or start a process.  ``os.replace``
#: raises ``os.rename``, ``os.unlink`` raises ``os.remove``, and
#: ``os.walk`` and ``Path.glob`` raise ``os.scandir``.
LOOP_IO_EVENTS = frozenset(
    {
        "open",
        "os.rename",
        "os.remove",
        "os.mkdir",
        "os.listdir",
        "os.scandir",
        "subprocess.Popen",
    }
)

#: Flags that make an ``open`` a write.
_WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_APPEND | os.O_TRUNC


def _in_import(frame) -> bool:
    """Whether ``frame`` or a caller is the import machinery."""
    while frame is not None:
        if frame.f_code.co_filename.startswith("<frozen importlib"):
            return True
        frame = frame.f_back
    return False


def _caller(frame) -> str:
    """The innermost repro or test frame: where the offending call is."""
    while frame is not None:
        name = frame.f_code.co_filename
        if "/repro/" in name or "/tests/" in name:
            if not name.endswith("conftest.py"):
                return f"{name}:{frame.f_lineno} in {frame.f_code.co_name}"
        frame = frame.f_back
    return "?"


class LoopIOGuard:
    """Records file I/O, ``stat``, ``sleep`` and ``Popen`` on serve loops.

    ``repro serve`` sends every memo and journal call to its I/O thread,
    so a slow disk stalls one request, not the event loop that answers
    all of them.  While :meth:`watching` is on for a thread (every
    ``BackgroundServer`` loop), each :data:`LOOP_IO_EVENTS` audit event
    raised on it is recorded, and so are ``os.stat``/``os.lstat``
    (``Path.exists``, ``Path.is_dir``, ``Path.stat``) and ``time.sleep``,
    which raise no audit event and are wrapped instead.  Lazy imports are
    not recorded.  Only this process records: forked pool workers inherit
    the hook.
    """

    def __init__(self) -> None:
        self.loops: Set[int] = set()
        self.events: List[str] = []
        # The one code object reads on the loop may run under:
        # MemoStore.probe only reads a sidecar and a ~450-byte entry:
        # p50 <= 38 us, p99 <= 87 us per key on a 2-vCPU host, less than
        # the executor hop it saves.  Set by ``_serve_loops_guarded``.
        self.probe_code: object = None

    def on_loop(self) -> bool:
        return (
            bool(self.loops)
            and threading.get_ident() in self.loops
            and os.getpid() == PYTEST_PID
        )

    @contextlib.contextmanager
    def watching(self) -> Iterator[None]:
        """Record what the calling thread does until the block exits."""
        ident = threading.get_ident()
        self.loops.add(ident)
        try:
            yield
        finally:
            self.loops.discard(ident)

    def _allowed(self, read: bool) -> bool:
        frame = sys._getframe(2)
        if _in_import(frame):
            return True
        if read:
            while frame is not None:
                if frame.f_code is self.probe_code:
                    return True
                frame = frame.f_back
        return False

    def _record(self, what: str, target: object) -> None:
        self.events.append(f"{what} {target!r} at {_caller(sys._getframe(2))}")

    def audit(self, event: str, args: tuple) -> None:
        read = event == "open" and not args[2] & _WRITE_FLAGS
        if not self._allowed(read):
            self._record(event, args[0])

    def wrap(self, fn: Callable, name: str, read: bool) -> Callable:
        """``fn``, recorded as ``name`` when it runs on a watched loop."""

        def guarded(*args, **kwargs):
            if self.on_loop() and not self._allowed(read):
                self._record(name, args[0] if args else None)
            return fn(*args, **kwargs)

        return guarded

    def take(self) -> List[str]:
        """The events recorded so far, removed from :attr:`events`.

        Only what was read is removed: a loop thread may append while
        this runs."""
        events = self.events[:]
        del self.events[: len(events)]
        return events


LOOP_IO = LoopIOGuard()

#: The (event, path test) of the active :func:`inject_eio`, if any.
_eio_at: Optional[Tuple[str, Callable[[str], bool]]] = None


def _audit(event: str, args: tuple) -> None:
    if event not in LOOP_IO_EVENTS:
        return
    if LOOP_IO.on_loop():
        LOOP_IO.audit(event, args)
    if _eio_at is not None and os.getpid() == PYTEST_PID:
        at, match = _eio_at
        path = os.fsdecode(args[0]) if isinstance(args[0], (str, bytes, os.PathLike)) else ""
        if event == at and match(path):
            raise OSError(errno.EIO, "injected: input/output error", path)


sys.addaudithook(_audit)


@contextlib.contextmanager
def inject_eio(event: str, match: Callable[[str], bool]) -> Iterator[None]:
    """Fail with ``EIO`` every :data:`LOOP_IO_EVENTS` ``event`` (``open``,
    ``os.rename``, ...) whose first path ``match`` accepts."""
    global _eio_at
    _eio_at = (event, match)
    try:
        yield
    finally:
        _eio_at = None


@pytest.fixture(scope="session", autouse=True)
def _serve_loops_guarded() -> Iterator[None]:
    """Switch the loop I/O guard on around every ``BackgroundServer``."""
    from repro.serve.harness import BackgroundServer
    from repro.serve.memo import MemoStore

    LOOP_IO.probe_code = MemoStore.probe.__code__
    run = BackgroundServer._run

    def guarded_run(self, started):
        with LOOP_IO.watching():
            run(self, started)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BackgroundServer, "_run", guarded_run)
        for name in ("stat", "lstat"):
            patch.setattr(os, name, LOOP_IO.wrap(getattr(os, name), f"os.{name}", read=True))
        # Before 3.11, Path.stat/lstat call the os functions through an
        # accessor class that bound them when pathlib was imported.
        accessor = getattr(pathlib, "_NormalAccessor", None)
        for name in ("stat", "lstat"):
            if accessor is not None and hasattr(accessor, name):
                fn = LOOP_IO.wrap(getattr(accessor, name), f"os.{name}", read=True)
                patch.setattr(accessor, name, staticmethod(fn))
        patch.setattr(time, "sleep", LOOP_IO.wrap(time.sleep, "time.sleep", read=False))
        yield


@pytest.fixture(autouse=True)
def _no_io_on_serve_loops() -> Iterator[None]:
    """Fail a test whose serve loop did blocking I/O."""
    yield
    events = LOOP_IO.take()
    assert not events, "blocking I/O on a serve event loop:\n" + "\n".join(events)


@pytest.fixture(scope="session")
def gcc1_tiny() -> Trace:
    return get_trace("gcc1", TINY)


@pytest.fixture(scope="session")
def li_tiny() -> Trace:
    return get_trace("li", TINY)


@pytest.fixture(scope="session")
def gcc1_full() -> Trace:
    return get_trace("gcc1", FULL)
