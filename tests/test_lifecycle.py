"""Lifecycle supervision: drain tokens, two-phase signals, the unit
budget against a wedged pool worker, and the SIGTERM-mid-sweep
kill-and-resume round trip."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.errors import AbortError
from repro.runner import (
    EXIT_ABORTED,
    EXIT_DRAINED,
    CancelToken,
    RunJournal,
    Runner,
    RunUnit,
    Supervisor,
)
from repro.runner import faults
from repro.runner.integrity import tree_fingerprint

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Module-level callables reach pool workers only under fork (the
#: parent defines them; spawn would re-import this module instead).
FORK = "fork" in multiprocessing.get_all_start_methods()
fork_only = pytest.mark.skipif(
    not FORK, reason="needs the fork start method to inherit parent state"
)


@pytest.fixture(autouse=True)
def clean_faults():
    faults.clear()
    yield
    faults.clear()


def make_unit(unit_id, fn=None, **kwargs):
    return RunUnit(
        unit_id=unit_id,
        payload={"id": unit_id},
        run=fn if fn is not None else lambda: unit_id,
        **kwargs,
    )


class TestCancelToken:
    def test_starts_clear(self):
        token = CancelToken()
        assert not token.cancelled
        assert token.reason is None
        assert not token.expired()
        token.raise_if_expired()  # no-op while clear

    def test_first_cancel_wins(self):
        token = CancelToken()
        assert token.cancel("first") is True
        assert token.cancel("second") is False
        assert token.cancelled
        assert token.reason == "first"

    def test_without_grace_never_expires(self):
        token = CancelToken()
        token.cancel("drain forever")
        assert not token.expired()
        token.raise_if_expired()

    def test_grace_deadline_aborts(self):
        token = CancelToken()
        token.cancel("bounded drain", grace_s=0.01)
        assert not token.expired()
        time.sleep(0.03)
        assert token.expired()
        with pytest.raises(AbortError, match="--resume"):
            token.raise_if_expired()

    def test_second_cancel_cannot_rearm_the_deadline(self):
        token = CancelToken()
        token.cancel("no deadline")
        token.cancel("too late", grace_s=0.001)
        time.sleep(0.01)
        assert not token.expired()


class TestSupervisor:
    def test_first_signal_drains(self):
        drained = []
        with Supervisor(on_drain=drained.append) as supervisor:
            assert supervisor.installed
            assert not supervisor.triggered
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(0.01)  # bytecode boundary: deliver the signal
            assert supervisor.triggered
            assert not supervisor.aborted
        assert supervisor.token.reason == "received SIGTERM"
        assert drained == ["SIGTERM"]
        assert supervisor.exit_code() == EXIT_DRAINED

    def test_second_signal_aborts(self):
        with Supervisor() as supervisor:
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.01)
            assert supervisor.triggered
            with pytest.raises(AbortError, match="--resume"):
                os.kill(os.getpid(), signal.SIGINT)
                time.sleep(0.05)
        assert supervisor.aborted
        assert supervisor.exit_code() == EXIT_ABORTED

    def test_handlers_restored_on_exit(self):
        before = signal.getsignal(signal.SIGTERM)
        with Supervisor():
            assert signal.getsignal(signal.SIGTERM) != before
        assert signal.getsignal(signal.SIGTERM) == before

    def test_inert_off_the_main_thread(self):
        seen = {}

        def enter():
            with Supervisor() as supervisor:
                seen["installed"] = supervisor.installed
                seen["triggered"] = supervisor.triggered

        thread = threading.Thread(target=enter)
        thread.start()
        thread.join()
        assert seen == {"installed": False, "triggered": False}

    def test_manual_cancel_still_works_off_thread(self):
        supervisor = Supervisor()
        supervisor.token.cancel("manual")
        assert supervisor.triggered
        assert supervisor.exit_code() == EXIT_DRAINED


class TestUnitTimeout:
    def test_unit_timeout_still_reexported_from_engine(self):
        from repro.runner.engine import unit_timeout as engine_alias
        from repro.runner.lifecycle import unit_timeout

        assert engine_alias is unit_timeout


class TestSerialDrain:
    def test_runner_stops_between_units_and_resume_finishes(self, tmp_path):
        token = CancelToken()
        journal_path = tmp_path / "j.jsonl"
        executed = []

        def body(uid, cancel_after=False):
            def run():
                executed.append(uid)
                if cancel_after:
                    token.cancel("drain request")
                return uid

            return run

        units = [
            make_unit("u0", body("u0")),
            make_unit("u1", body("u1", cancel_after=True)),
            make_unit("u2", body("u2")),
        ]
        runner = Runner(journal=RunJournal.open(journal_path), cancel=token)
        result = runner.run(units)
        # u1 tripped the token mid-body: it still finished and
        # journalled; u2 never started.
        assert executed == ["u0", "u1"]
        assert [o.unit_id for o in result.completed] == ["u0", "u1"]
        assert result.interrupted == "drain request"

        resumed = Runner(journal=RunJournal.open(journal_path, resume=True))
        final = resumed.run(units)
        assert executed == ["u0", "u1", "u2"]  # completed units not re-run
        assert final.interrupted is None
        assert [o.unit_id for o in final.completed] == ["u0", "u1", "u2"]

    def test_expired_grace_aborts_instead_of_draining(self):
        token = CancelToken()
        token.cancel("bounded", grace_s=0.001)
        time.sleep(0.01)
        runner = Runner(cancel=token)
        with pytest.raises(AbortError):
            runner.run([make_unit("u0")])


# --- pool-side helpers (module-level: picklable) -------------------------


@dataclass(frozen=True)
class _LoggedRun:
    """Append one line per execution, then return; optionally wedge."""

    unit_id: str
    log: str
    hang_in_worker: bool = False

    def __call__(self):
        with open(self.log, "a") as handle:
            handle.write(f"{self.unit_id}\n")
        if self.hang_in_worker and multiprocessing.parent_process() is not None:
            time.sleep(60.0)  # wedges in every pool worker, serial no-op
        return self.unit_id


def executions(log: Path):
    if not log.exists():
        return []
    return log.read_text().splitlines()


@dataclass(frozen=True)
class _SlowRun:
    unit_id: str
    log: str
    sleep_s: float

    def __call__(self):
        time.sleep(self.sleep_s)
        with open(self.log, "a") as handle:
            handle.write(f"{self.unit_id}\n")
        return self.unit_id


@dataclass(frozen=True)
class _MarkThenSleep:
    """Create ``marker`` (the unit has started), then keep running."""

    marker: str
    sleep_s: float

    def __call__(self):
        Path(self.marker).write_text("started")
        time.sleep(self.sleep_s)
        return "done"


class TestInterruptedRule:
    @pytest.mark.parametrize(
        "workers", [None, pytest.param(2, marks=fork_only)], ids=["serial", "pool"]
    )
    def test_token_tripped_in_the_last_unit_marks_the_run(self, tmp_path, workers):
        token = CancelToken()
        marker = tmp_path / "last.started"
        units = [
            make_unit("first", _LoggedRun("first", str(tmp_path / "log.txt"))),
            make_unit("last", _MarkThenSleep(str(marker), 0.5)),
        ]

        def trip_once_last_runs():
            deadline = time.monotonic() + 30.0
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            token.cancel("drain during the last unit")

        watcher = threading.Thread(target=trip_once_last_runs, daemon=True)
        watcher.start()
        result = Runner(workers=workers, cancel=token).run(units)
        watcher.join()
        # Every unit finished, yet the token tripped during the run.
        assert [o.status for o in result.outcomes] == ["ok", "ok"]
        assert result.interrupted == "drain during the last unit"


@fork_only
class TestPoolDrain:
    def test_cancel_drains_pool_and_resume_completes(self, tmp_path):
        token = CancelToken()
        journal_path = tmp_path / "j.jsonl"
        log = tmp_path / "log.txt"
        ids = [f"u{i}" for i in range(10)]
        units = [make_unit(uid, _SlowRun(uid, str(log), 0.25)) for uid in ids]
        runner = Runner(
            journal=RunJournal.open(journal_path), workers=2, cancel=token
        )
        # Cancel during the first wave: the executor pre-buffers a few
        # queued items that cannot be cancelled, so leave a wide margin
        # of genuinely-queued units behind them.
        timer = threading.Timer(0.1, token.cancel, args=("mid-flight drain",))
        timer.start()
        try:
            result = runner.run(units)
        finally:
            timer.cancel()
        assert result.interrupted == "mid-flight drain"
        done_first = {o.unit_id for o in result.completed}
        assert 0 < len(done_first) < len(ids)  # drained mid-flight
        assert all(o.status == "ok" for o in result.completed)

        resumed = Runner(
            journal=RunJournal.open(journal_path, resume=True), workers=2
        )
        final = resumed.run(units)
        assert final.interrupted is None
        assert [o.unit_id for o in final.completed] == ids
        # No unit body ran twice: the drain abandoned only *queued*
        # work, and resume skipped everything journalled.
        assert sorted(executions(log)) == ids


@fork_only
class TestWedgedWorker:
    def test_unit_budget_ends_a_wedge_in_a_pool_worker(self, tmp_path):
        """A pool worker runs its unit on its main thread, so the
        ``--timeout`` budget's ``SIGALRM`` ends even a wedged unit."""
        log = tmp_path / "log.txt"
        units = [
            make_unit(
                "stuck", _LoggedRun("stuck", str(log), hang_in_worker=True)
            ),
            make_unit("a", _LoggedRun("a", str(log))),
        ]
        runner = Runner(
            journal=RunJournal.open(tmp_path / "j.jsonl"),
            workers=2,
            timeout_s=0.5,
            keep_going=True,
        )
        started = time.monotonic()
        result = runner.run(units)
        assert time.monotonic() - started < 10.0  # not the 60 s wedge
        assert {o.unit_id: o.status for o in result.outcomes} == {
            "stuck": "failed",
            "a": "ok",
        }
        (failure,) = result.failed
        assert failure.error["type"] == "UnitTimeoutError"
        assert runner.degraded_reason is None  # no worker died
        assert sorted(executions(log)) == ["a", "stuck"]


class TestSigtermMidSweep:
    """A real SIGTERM mid-sweep must drain (exit 75), then resume to a
    tree byte-identical with an undisturbed run."""

    SWEEP_ARGS = ["sweep", "--workload", "espresso", "--scale", "0.01"]

    @staticmethod
    def signal_unit():
        # A specific early-ish unit id: the fault must fire exactly once
        # in the whole process tree (sigterm=* would fire once per pool
        # worker, and the second signal escalates a drain to an abort).
        from repro.core.explorer import design_space

        configs = design_space()
        assert len(configs) > 12  # the drain must leave work behind
        return f"0006:{configs[6].label}"

    def run_cli(self, args, cwd, extra_env=None):
        env = os.environ.copy()
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop(faults.ENV_VAR, None)
        if extra_env:
            env.update(extra_env)
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )

    @pytest.mark.parametrize("workers", [None, "4"])
    def test_drain_resume_byte_identical(self, tmp_path, workers):
        worker_args = ["--workers", workers] if workers else []
        clean = tmp_path / "clean"
        interrupted = tmp_path / "interrupted"

        reference = self.run_cli(
            self.SWEEP_ARGS + ["--out", str(clean)] + worker_args, tmp_path
        )
        assert reference.returncode == 0, reference.stderr
        total = len(
            (clean / "sweep.journal.jsonl").read_text().splitlines()
        ) - 1

        signalled = self.run_cli(
            self.SWEEP_ARGS + ["--out", str(interrupted)] + worker_args,
            tmp_path,
            extra_env={faults.ENV_VAR: f"sigterm={self.signal_unit()}"},
        )
        assert signalled.returncode == EXIT_DRAINED, signalled.stderr
        assert "drained" in signalled.stderr
        assert "--resume" in signalled.stderr
        journal = interrupted / "sweep.journal.jsonl"
        assert journal.exists()  # the drain flushed, not vanished
        completed = [
            entry["unit"]
            for entry in map(json.loads, journal.read_text().splitlines()[1:])
        ]
        assert 0 < len(completed) < total  # stopped mid-flight

        resumed = self.run_cli(
            self.SWEEP_ARGS
            + ["--out", str(interrupted), "--resume"]
            + worker_args,
            tmp_path,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert tree_fingerprint(interrupted) == tree_fingerprint(clean)
