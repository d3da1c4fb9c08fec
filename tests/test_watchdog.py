"""Disk preflight, worker peak RSS, and serial degradation on worker death.

The degradation ladder under test (mildest rung first): a report, a
sweep or a serve store on a too-full filesystem is refused *before*
anything is written; a worker that dies outright (the ``killworker``
fault stands in for an OOM kill) costs a pool rebuild, and the
:data:`~repro.runner.pool.DEATH_LIMIT`-th death degrades the run to
serial instead of aborting it, with identical results.
"""

import functools
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest
from test_pool import normalized_journal

from repro.core.config import SystemConfig
from repro.core.explorer import run_sweep_dir
from repro.errors import ResourceError
from repro.obs.telemetry import Telemetry
from repro.runner import RunJournal, Runner, RunUnit, faults, peak_rss_bytes
from repro.runner import watchdog
from repro.runner.watchdog import preflight_disk
from repro.serve import ServeApp
from repro.study.resultstore import write_report

FORK = "fork" in multiprocessing.get_all_start_methods()
fork_only = pytest.mark.skipif(
    not FORK, reason="needs the fork start method to inherit parent state"
)

#: A floor no real filesystem satisfies.
HUGE_FLOOR = 1 << 60


@pytest.fixture
def full_disk(monkeypatch):
    """Make every filesystem look too full for the preflight."""
    monkeypatch.setattr(watchdog, "DEFAULT_MIN_FREE_BYTES", HUGE_FLOOR)


def _value(uid):
    return f"value:{uid}"


def make_units(ids):
    return [
        RunUnit(
            unit_id=uid,
            payload={"id": uid},
            run=functools.partial(_value, uid),
            to_record=dict_record,
        )
        for uid in ids
    ]


def dict_record(value):
    return {"value": value}


#: How long a probe unit takes inside a pool worker, so the queue is
#: still full when the target's worker dies.
WORKER_DELAY_S = 0.25

#: Probe units executed in this process (a serial Runner, or the pool's
#: serial fallback); forked workers append to their own copies.
_parent_runs = []


def _probe(uid, failing):
    if multiprocessing.parent_process() is None:
        _parent_runs.append(uid)
    else:
        time.sleep(WORKER_DELAY_S)
    if uid == failing:
        raise RuntimeError(f"unit {uid} failed")
    return f"value:{uid}"


def probe_units(ids, failing=None):
    return [
        RunUnit(
            unit_id=uid,
            payload={"id": uid},
            run=functools.partial(_probe, uid, failing),
            to_record=dict_record,
        )
        for uid in ids
    ]


class TestPeakRss:
    def test_peak_rss_measurable_here(self):
        rss = peak_rss_bytes()
        assert rss is not None and rss > 1024 * 1024  # >1 MiB, surely


class TestDiskPreflight:
    def test_healthy_disk_passes(self, tmp_path):
        telemetry = Telemetry()
        free = preflight_disk(tmp_path, telemetry)
        assert free > 0
        (sample,) = [
            s
            for s in telemetry.registry.snapshot()
            if s["name"] == "repro_disk_free_bytes"
        ]
        assert sample["value"] == float(free)

    def test_full_disk_refused(self, tmp_path, full_disk):
        with pytest.raises(ResourceError, match="free space"):
            preflight_disk(tmp_path)

    def test_missing_path_measures_nearest_ancestor(self, tmp_path):
        free = preflight_disk(tmp_path / "not" / "yet" / "created")
        assert free > 0

    def test_report_refused_before_any_write(self, tmp_path, full_disk):
        out = tmp_path / "report"
        with pytest.raises(ResourceError):
            write_report(out, ids=["fig21"])
        assert list(out.iterdir()) == []

    def test_sweep_refused_before_any_write(self, tmp_path, full_disk):
        out = tmp_path / "sweep"
        with pytest.raises(ResourceError):
            run_sweep_dir(out, "espresso", SystemConfig(l1_bytes=4096), scale=0.01)
        assert list(out.iterdir()) == []

    def test_serve_refused_before_any_write(self, tmp_path, full_disk):
        store = tmp_path / "store"
        with pytest.raises(ResourceError):
            ServeApp(store)
        assert list(store.iterdir()) == []


@fork_only
class TestWorkerDeath:
    def setup_method(self):
        faults.clear()

    def teardown_method(self):
        faults.clear()

    def test_dead_worker_heals_without_watchdog(self, tmp_path, monkeypatch):
        ids = ["a", "b", "c"]
        serial = Runner(journal=None).run(make_units(ids))

        monkeypatch.setenv(faults.ENV_VAR, "killworker=b")
        runner = Runner(
            journal=RunJournal.open(tmp_path / "j.jsonl"), workers=2
        )
        result = runner.run(make_units(ids))
        # b kills every worker it reaches: one rebuild, then the second
        # death degrades to serial, where the fault is a no-op.
        assert runner.degraded_reason is not None
        assert "died" in runner.degraded_reason
        assert [o.status for o in result.outcomes] == ["ok"] * 3
        assert result.values() == serial.values()

    def test_broken_submit_is_a_death_not_an_escape(self, tmp_path, monkeypatch):
        """A worker that dies while units are still being submitted makes
        ``submit`` itself raise BrokenProcessPool; that is one death."""
        ids = [f"u{i}" for i in range(6)]
        serial = Runner(journal=None).run(make_units(ids))

        real_submit = ProcessPoolExecutor.submit
        calls = []

        def submit(executor, *args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise BrokenProcessPool("a worker died mid-submission")
            return real_submit(executor, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        pool = Runner(
            journal=RunJournal.open(tmp_path / "j.jsonl"), workers=2
        )
        result = pool.run(make_units(ids))
        # One death rebuilds the pool; the run never degrades.
        assert pool.degraded_reason is None
        assert [o.status for o in result.outcomes] == ["ok"] * len(ids)
        assert result.values() == serial.values()

    def test_degraded_run_resumes_cleanly(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "killworker=b")
        pool = Runner(journal=RunJournal.open(tmp_path / "j.jsonl"), workers=2)
        pool.run(make_units(["a", "b", "c"]))

        monkeypatch.delenv(faults.ENV_VAR)
        resumed = Runner(
            journal=RunJournal.open(tmp_path / "j.jsonl", resume=True), workers=2
        )
        result = resumed.run(make_units(["a", "b", "c"]))
        assert resumed.degraded_reason is None
        assert [o.status for o in result.outcomes] == ["skipped"] * 3


@fork_only
class TestDegradationCause:
    """A degraded pool exports its cause as a metric label."""

    def setup_method(self):
        faults.clear()

    def teardown_method(self):
        faults.clear()

    @pytest.mark.parametrize("cause", ["worker-death"])
    def test_cause_is_the_metric_label(self, tmp_path, monkeypatch, cause):
        monkeypatch.setenv(faults.ENV_VAR, "killworker=b")
        telemetry = Telemetry()
        pool = Runner(workers=2, telemetry=telemetry)
        result = pool.run(make_units(["a", "b", "c"]))
        assert [o.status for o in result.outcomes] == ["ok"] * 3
        assert pool.degraded_reason is not None
        samples = [
            sample
            for sample in telemetry.registry.snapshot()
            if sample["name"] == "repro_degradations_total"
        ]
        assert [(s["labels"], s["value"]) for s in samples] == [
            ({"reason": cause}, 1.0)
        ]
        assert (
            f'repro_degradations_total{{reason="{cause}"}} 1'
            in telemetry.registry.render_prometheus()
        )


@fork_only
@pytest.mark.parametrize("ladder, target", [("worker-death", "u02")])
class TestSerialFallback:
    """The degraded rung is the serial Runner: same journal, same stop.

    ``target`` is the unit whose worker is killed, so it always lands
    on the fallback.
    """

    IDS = [f"u{i:02d}" for i in range(16)]

    def setup_method(self):
        faults.clear()
        _parent_runs.clear()

    def teardown_method(self):
        faults.clear()

    def run_both(self, tmp_path, monkeypatch, ladder, target, **kwargs):
        units = probe_units(self.IDS, **kwargs)
        serial = Runner(journal=RunJournal.open(tmp_path / "serial.jsonl")).run(units)
        _parent_runs.clear()
        monkeypatch.setenv(faults.ENV_VAR, f"killworker={target}")
        pool = Runner(
            journal=RunJournal.open(tmp_path / "pool.jsonl"),
            workers=2,
            mp_context=multiprocessing.get_context("fork"),
        )
        result = pool.run(units)
        assert pool.degraded_reason is not None
        assert target in _parent_runs  # it really ran on the fallback
        return serial, result

    def test_degraded_run_journals_like_serial(
        self, tmp_path, monkeypatch, ladder, target
    ):
        serial, result = self.run_both(tmp_path, monkeypatch, ladder, target)
        assert [o.status for o in result.outcomes] == ["ok"] * len(self.IDS)
        assert result.values() == serial.values()
        assert normalized_journal(tmp_path / "pool.jsonl") == normalized_journal(
            tmp_path / "serial.jsonl"
        )

    def test_fallback_failure_stops_like_serial(
        self, tmp_path, monkeypatch, ladder, target
    ):
        serial, result = self.run_both(
            tmp_path, monkeypatch, ladder, target, failing=target
        )
        statuses = [(o.unit_id, o.status) for o in result.outcomes]
        assert statuses == [(o.unit_id, o.status) for o in serial.outcomes]
        assert statuses[-1] == (target, "failed")
        later = self.IDS[self.IDS.index(target) + 1 :]
        assert not set(later) & set(_parent_runs)
