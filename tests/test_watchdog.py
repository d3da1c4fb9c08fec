"""Resource watchdog: disk preflight, RSS shedding, serial degradation.

The degradation ladder under test (mildest rung first): a run on a
too-full filesystem is refused *before* anything is written; a worker
whose peak RSS breaches the policy ceiling sheds the queued work back
to the parent, which finishes serially with identical results; a worker
that dies outright (the ``killworker`` fault stands in for an OOM kill)
likewise degrades to serial instead of aborting the run.
"""

import functools
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest
from test_pool import normalized_journal

from repro.errors import ResourceError
from repro.obs.telemetry import Telemetry
from repro.runner import (
    PoolRunner,
    RunJournal,
    Runner,
    RunUnit,
    ResourceWatchdog,
    WatchdogPolicy,
    peak_rss_bytes,
)
from repro.runner import faults

FORK = "fork" in multiprocessing.get_all_start_methods()
fork_only = pytest.mark.skipif(
    not FORK, reason="needs the fork start method to inherit parent state"
)

#: A ceiling every real process breaches (any reply RSS exceeds 1 byte).
TINY_RSS = WatchdogPolicy(max_worker_rss_bytes=1)
#: A floor no real filesystem satisfies.
HUGE_FLOOR = 1 << 60


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


#: How long a probe unit takes inside a pool worker.  Long enough that
#: the first reply sheds the queue (TINY_RSS) before the later units
#: leave it, so those finish on the serial fallback.
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


class TestPolicy:
    def test_negative_floor_rejected(self):
        with pytest.raises(ResourceError):
            WatchdogPolicy(min_free_bytes=-1)

    def test_nonpositive_rss_ceiling_rejected(self):
        with pytest.raises(ResourceError):
            WatchdogPolicy(max_worker_rss_bytes=0)

    def test_peak_rss_measurable_here(self):
        rss = peak_rss_bytes()
        assert rss is not None and rss > 1024 * 1024  # >1 MiB, surely

    def test_over_rss(self):
        dog = ResourceWatchdog(TINY_RSS)
        assert dog.over_rss(2)
        assert not dog.over_rss(1)
        assert not dog.over_rss(None)  # unmeasurable: never sheds
        assert not ResourceWatchdog().over_rss(1 << 50)  # no ceiling


class TestDiskPreflight:
    def test_healthy_disk_passes(self, tmp_path):
        free = ResourceWatchdog().preflight_disk(tmp_path)
        assert free > 0

    def test_full_disk_refused(self, tmp_path):
        dog = ResourceWatchdog(WatchdogPolicy(min_free_bytes=HUGE_FLOOR))
        with pytest.raises(ResourceError):
            dog.preflight_disk(tmp_path)

    def test_explicit_need_overrides_policy(self, tmp_path):
        with pytest.raises(ResourceError):
            ResourceWatchdog().preflight_disk(tmp_path, need_bytes=HUGE_FLOOR)

    def test_missing_path_measures_nearest_ancestor(self, tmp_path):
        free = ResourceWatchdog().preflight_disk(
            tmp_path / "not" / "yet" / "created"
        )
        assert free > 0

    def test_pool_run_preflights_journal_directory(self, tmp_path):
        journal = RunJournal.open(tmp_path / "j.jsonl")
        runner = PoolRunner(
            journal=journal,
            workers=2,
            watchdog=ResourceWatchdog(WatchdogPolicy(min_free_bytes=HUGE_FLOOR)),
        )
        with pytest.raises(ResourceError):
            runner.run(make_units(["a", "b"]))
        # Refused before anything ran: no outcomes were journalled.
        assert RunJournal.open(tmp_path / "j.jsonl", resume=True).entries == []


@fork_only
class TestRssShedding:
    def test_breach_degrades_to_serial_with_identical_results(self, tmp_path):
        ids = [f"u{i}" for i in range(6)]
        serial = Runner(journal=None).run(make_units(ids))

        pool = PoolRunner(
            journal=RunJournal.open(tmp_path / "j.jsonl"),
            workers=2,
            watchdog=ResourceWatchdog(TINY_RSS),
        )
        result = pool.run(make_units(ids))
        assert pool.degraded_reason is not None
        assert "RSS" in pool.degraded_reason
        assert [o.unit_id for o in result.outcomes] == ids
        assert result.values() == serial.values()

    def test_no_ceiling_never_sheds(self, tmp_path):
        pool = PoolRunner(
            journal=RunJournal.open(tmp_path / "j.jsonl"),
            workers=2,
            watchdog=ResourceWatchdog(),
        )
        result = pool.run(make_units(["a", "b", "c"]))
        assert pool.degraded_reason is None
        assert [o.status for o in result.outcomes] == ["ok", "ok", "ok"]


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
        runner = PoolRunner(
            journal=RunJournal.open(tmp_path / "j.jsonl"), workers=2
        )
        result = runner.run(make_units(ids))
        # b kills every worker it reaches: one rebuild, then the second
        # death degrades to serial, where the fault is a no-op.
        assert runner.degraded_reason is not None
        assert "died" in runner.degraded_reason
        assert [o.status for o in result.outcomes] == ["ok"] * 3
        assert result.values() == serial.values()

    def test_dead_worker_degrades_with_watchdog(self, tmp_path, monkeypatch):
        ids = ["a", "b", "c", "d"]
        serial = Runner(journal=None).run(make_units(ids))

        monkeypatch.setenv(faults.ENV_VAR, "killworker=b")
        pool = PoolRunner(
            journal=RunJournal.open(tmp_path / "j.jsonl"),
            workers=2,
            watchdog=ResourceWatchdog(),
        )
        result = pool.run(make_units(ids))
        assert pool.degraded_reason is not None
        assert "died" in pool.degraded_reason
        # The killed unit itself completes on the serial rung: the
        # killworker fault only fires inside a pool worker process.
        assert [o.status for o in result.outcomes] == ["ok"] * 4
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
        pool = PoolRunner(
            journal=RunJournal.open(tmp_path / "j.jsonl"), workers=2
        )
        result = pool.run(make_units(ids))
        # One death rebuilds the pool; the run never degrades.
        assert pool.degraded_reason is None
        assert [o.status for o in result.outcomes] == ["ok"] * len(ids)
        assert result.values() == serial.values()

    def test_degraded_run_resumes_cleanly(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "killworker=b")
        pool = PoolRunner(
            journal=RunJournal.open(tmp_path / "j.jsonl"),
            workers=2,
            watchdog=ResourceWatchdog(),
        )
        pool.run(make_units(["a", "b", "c"]))

        monkeypatch.delenv(faults.ENV_VAR)
        resumed = PoolRunner(
            journal=RunJournal.open(tmp_path / "j.jsonl", resume=True),
            workers=2,
            watchdog=ResourceWatchdog(),
        )
        result = resumed.run(make_units(["a", "b", "c"]))
        assert resumed.degraded_reason is None
        assert [o.status for o in result.outcomes] == ["skipped"] * 3


@fork_only
class TestDegradationCause:
    """Each way a pool degrades exports its cause as a metric label."""

    def setup_method(self):
        faults.clear()

    def teardown_method(self):
        faults.clear()

    @pytest.mark.parametrize("cause", ["rss", "worker-death", "hung-worker"])
    def test_cause_is_the_metric_label(self, tmp_path, monkeypatch, cause):
        policy = TINY_RSS
        if cause == "worker-death":
            monkeypatch.setenv(faults.ENV_VAR, "killworker=b")
            policy = WatchdogPolicy()
        elif cause == "hung-worker":
            # b wedges every worker it reaches; the serial rung runs it.
            monkeypatch.setenv(faults.ENV_VAR, "hang=b:30")
            policy = WatchdogPolicy(hang_timeout_s=0.4)
        telemetry = Telemetry()
        pool = PoolRunner(
            workers=2, watchdog=ResourceWatchdog(policy), telemetry=telemetry
        )
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
@pytest.mark.parametrize(
    "ladder, target",
    [("rss", "u14"), ("worker-death", "u02")],
)
class TestSerialFallback:
    """The degraded rung is the serial Runner: same journal, same stop.

    ``target`` is a unit that always lands on the fallback: under RSS
    shedding it sits far down a queue of slow-in-worker units, and under
    worker death it is the unit whose worker is killed.
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
        if ladder == "rss":
            watchdog = ResourceWatchdog(TINY_RSS)
        else:
            monkeypatch.setenv(faults.ENV_VAR, f"killworker={target}")
            watchdog = ResourceWatchdog()
        pool = PoolRunner(
            journal=RunJournal.open(tmp_path / "pool.jsonl"),
            workers=2,
            mp_context=multiprocessing.get_context("fork"),
            watchdog=watchdog,
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
        if ladder == "rss":
            # Shed units never started in the pool, so nothing past the
            # failure ran anywhere: the journals match entry for entry.
            assert normalized_journal(tmp_path / "pool.jsonl") == normalized_journal(
                tmp_path / "serial.jsonl"
            )
