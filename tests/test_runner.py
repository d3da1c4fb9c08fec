"""Resilient execution engine: journal, isolation, retries, timeouts,
fault injection, and the kill-and-resume round trip through
``write_report`` and ``run_sweep``."""

import json
import threading
import time

import pytest

from repro.core.config import SystemConfig
from repro.core.explorer import (
    SweepPoint,
    as_point,
    design_space,
    run_sweep,
    run_sweep_dir,
)
from repro.errors import (
    CheckpointError,
    ModelError,
    RunnerError,
    UnitTimeoutError,
)
from repro.runner import (
    JOURNAL_SCHEMA,
    RetryPolicy,
    RunJournal,
    Runner,
    RunUnit,
    atomic_open,
    crashed_outcome,
    execute_attempts,
    record_outcome,
    unit_key,
    unit_timeout,
    verify_tree,
    write_text_atomic,
)
from repro.runner import faults
from repro.study.registry import _REGISTRY, ExperimentResult, Series, register
from repro.study.resultstore import load_result, write_report
from repro.units import kb


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


def no_tmp_leftovers(directory):
    return not list(directory.rglob("*.tmp"))


class TestAtomicWrites:
    def test_write_text_atomic(self, tmp_path):
        path = tmp_path / "a" / "b.txt"
        write_text_atomic(path, "hello")
        assert path.read_text() == "hello"
        assert no_tmp_leftovers(tmp_path)

    def test_failed_write_leaves_nothing(self, tmp_path):
        path = tmp_path / "x.json"
        with pytest.raises(RuntimeError):
            with atomic_open(path) as handle:
                handle.write("{half a docu")
                raise RuntimeError("simulated crash mid-write")
        assert not path.exists()
        assert no_tmp_leftovers(tmp_path)

    def test_failed_rewrite_keeps_previous_content(self, tmp_path):
        path = tmp_path / "x.json"
        write_text_atomic(path, "old complete artefact")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as handle:
                handle.write("new torn")
                raise RuntimeError("boom")
        assert path.read_text() == "old complete artefact"


class TestJournal:
    def test_record_and_reload(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal.open(path)
        key = unit_key({"id": "u1"})
        journal.record("u1", key, "ok", attempts=2, elapsed_s=0.5)
        reloaded = RunJournal.open(path, resume=True)
        assert reloaded.completed("u1", key)
        assert reloaded.entry("u1")["attempts"] == 2
        assert no_tmp_leftovers(tmp_path)

    def test_key_mismatch_not_completed(self, tmp_path):
        journal = RunJournal.open(tmp_path / "j.jsonl")
        journal.record("u1", unit_key({"scale": 0.1}), "ok")
        assert not journal.completed("u1", unit_key({"scale": 0.2}))

    def test_failed_entry_not_completed(self, tmp_path):
        journal = RunJournal.open(tmp_path / "j.jsonl")
        key = unit_key({"id": "u1"})
        journal.record("u1", key, "failed", error={"type": "ModelError"})
        assert not journal.completed("u1", key)

    def test_open_without_resume_discards_state(self, tmp_path):
        path = tmp_path / "j.jsonl"
        key = unit_key({"id": "u1"})
        RunJournal.open(path).record("u1", key, "ok")
        fresh = RunJournal.open(path, resume=False)
        assert not fresh.completed("u1", key)

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal.open(path)
        key = unit_key({"id": "u1"})
        journal.record("u1", key, "ok")
        with open(path, "a") as handle:
            handle.write('{"unit": "u2", "stat')  # torn append, no newline flush
        reloaded = RunJournal.open(path, resume=True)
        assert reloaded.completed("u1", key)
        assert reloaded.entry("u2") is None

    def test_record_appends_without_rewriting(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal.open(path)
        for uid in ("u1", "u2"):
            journal.record(uid, unit_key({"id": uid}), "ok")
        before = path.read_bytes()
        inode = path.stat().st_ino
        journal.record("u3", unit_key({"id": "u3"}), "ok")
        # The same file grew by one line: nothing before it was rewritten.
        assert path.stat().st_ino == inode
        after = path.read_bytes()
        assert after.startswith(before)
        assert after[len(before):].count(b"\n") == 1
        # The sidecar follows every append.
        assert verify_tree(tmp_path).clean

    def test_record_after_torn_tail_rewrites_the_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal.open(path)
        journal.record("u1", unit_key({"id": "u1"}), "ok")
        with open(path, "a") as handle:
            handle.write('{"unit": "u2", "stat')  # torn append
        resumed = RunJournal.open(path, resume=True)
        resumed.record("u3", unit_key({"id": "u3"}), "ok")
        resumed.record("u4", unit_key({"id": "u4"}), "ok")
        # The torn line is gone, not buried mid-file where a resume
        # would call it corruption.
        again = RunJournal.open(path, resume=True)
        assert [e["unit"] for e in again.entries] == ["u1", "u3", "u4"]
        assert b"stat\n" not in path.read_bytes()
        assert verify_tree(tmp_path).clean

    def test_resumed_schema1_journal_is_upgraded_on_write(self, tmp_path):
        path = tmp_path / "j.jsonl"
        entry = {"unit": "u1", "key": unit_key({"id": "u1"}), "status": "ok"}
        path.write_text(json.dumps({"journal": 1}) + "\n" + json.dumps(entry) + "\n")
        journal = RunJournal.open(path, resume=True)
        journal.record("u2", unit_key({"id": "u2"}), "ok")
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"journal": JOURNAL_SCHEMA}
        assert [json.loads(line)["unit"] for line in lines[1:]] == ["u1", "u2"]

    def test_failed_append_is_healed_by_the_next_write(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal.open(path)
        journal.record("u1", unit_key({"id": "u1"}), "ok")
        faults.install(faults.parse_plan("enospc=u2:1"))
        try:
            with faults.unit_scope("u2"):
                with pytest.raises(CheckpointError, match="disk full"):
                    journal.record("u2", unit_key({"id": "u2"}), "ok")
        finally:
            faults.clear()
        journal.record("u3", unit_key({"id": "u3"}), "ok")
        again = RunJournal.open(path, resume=True)
        assert [e["unit"] for e in again.entries] == ["u1", "u2", "u3"]
        assert verify_tree(tmp_path).clean

    def test_corrupt_header_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(CheckpointError, match="header"):
            RunJournal.open(path, resume=True)

    def test_corrupt_middle_entry_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal.open(path)
        journal.record("u1", unit_key({"id": "u1"}), "ok")
        lines = path.read_text().splitlines()
        lines[1] = "garbage {{{"
        path.write_text("\n".join(lines) + "\n" + '{"more": "after"}\n')
        with pytest.raises(CheckpointError, match="corrupt journal entry"):
            RunJournal.open(path, resume=True)

    def test_unit_key_deterministic_and_order_free(self):
        assert unit_key({"a": 1, "b": 2}) == unit_key({"b": 2, "a": 1})
        assert unit_key({"a": 1}) != unit_key({"a": 2})


class TestRetry:
    def test_retry_then_succeed(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ModelError("transient")
            return "done"

        delays = []
        runner = Runner(
            retry=RetryPolicy(max_attempts=3, backoff_s=0.01),
            sleep=delays.append,
        )
        result = runner.run([make_unit("u", flaky)])
        outcome = result.outcomes[0]
        assert outcome.status == "ok"
        assert outcome.value == "done"
        assert outcome.attempts == 3
        assert delays == [0.01, 0.02]  # exponential backoff

    def test_retries_exhausted(self):
        runner = Runner(
            retry=RetryPolicy(max_attempts=2, backoff_s=0),
            keep_going=True,
            sleep=lambda _: None,
        )

        def always_fails():
            raise ModelError("permanent")

        result = runner.run([make_unit("u", always_fails)])
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert outcome.error["type"] == "ModelError"

    def test_backoff_capped(self):
        policy = RetryPolicy(backoff_s=1.0, backoff_factor=10.0, max_backoff_s=3.0)
        assert policy.delay(1) == 1.0
        assert policy.delay(2) == 3.0

    def test_invalid_policy_rejected(self):
        with pytest.raises(RunnerError):
            RetryPolicy(max_attempts=0)

    def test_injected_fault_retried_via_hook(self):
        faults.install(faults.FaultPlan(fail_unit="u", fail_times=2))
        calls = []
        runner = Runner(
            retry=RetryPolicy(max_attempts=3, backoff_s=0), sleep=lambda _: None
        )
        result = runner.run([make_unit("u", lambda: calls.append(1) or "ok")])
        assert result.outcomes[0].status == "ok"
        assert result.outcomes[0].attempts == 3
        assert len(calls) == 1  # the first two attempts died in the hook


class TestIsolation:
    def test_one_failure_does_not_kill_the_run(self):
        def boom():
            raise ModelError("degenerate configuration")

        units = [make_unit("a"), make_unit("b", boom), make_unit("c")]
        result = Runner(keep_going=True).run(units)
        assert [o.status for o in result.outcomes] == ["ok", "failed", "ok"]
        record = result.failed[0].error
        assert record["unit"] == "b"
        assert record["type"] == "ModelError"
        assert record["message"] == "degenerate configuration"
        assert record["config"] == {"id": "b"}
        assert record["elapsed_s"] >= 0

    def test_crashed_outcome_journals_its_true_times(self, tmp_path):
        # A worker that dies without replying still leaves a journal
        # entry timed from when the unit was handed over, not from 0.
        unit = make_unit("lost")
        handed_at = time.time() - 2.0
        outcome = crashed_outcome(unit, RunnerError("worker died"), 2, handed_at)
        assert outcome.status == "failed" and outcome.attempts == 2
        assert outcome.started_at == handed_at
        assert outcome.ended_at >= handed_at + 2.0
        assert outcome.elapsed_s == pytest.approx(outcome.ended_at - handed_at)
        assert outcome.error["elapsed_s"] >= 2.0
        assert outcome.error["type"] == "RunnerError"
        journal = RunJournal.open(tmp_path / "j.jsonl")
        record_outcome(journal, unit, outcome, None)
        entry = journal.entry("lost")
        assert entry["started_at"] == round(handed_at, 6)
        assert entry["duration_s"] >= 2.0

    def test_without_keep_going_stops_at_failure(self):
        ran = []

        def boom():
            raise ModelError("nope")

        units = [
            make_unit("a", lambda: ran.append("a")),
            make_unit("b", boom),
            make_unit("c", lambda: ran.append("c")),
        ]
        result = Runner(keep_going=False).run(units)
        assert ran == ["a"]
        assert len(result.outcomes) == 2
        with pytest.raises(ModelError):
            result.raise_first_failure()


class TestTimeout:
    def test_slow_unit_aborted(self):
        faults.install(faults.FaultPlan(delay_unit="slow", delay_s=5.0))
        runner = Runner(timeout_s=0.2, keep_going=True)
        result = runner.run([make_unit("slow"), make_unit("fast")])
        slow, fast = result.outcomes
        assert slow.status == "failed"
        assert slow.error["type"] == "UnitTimeoutError"
        assert slow.elapsed_s < 2.0
        assert fast.status == "ok"

    def test_timeout_not_retried(self):
        faults.install(faults.FaultPlan(delay_unit="slow", delay_s=5.0))
        runner = Runner(
            timeout_s=0.2,
            retry=RetryPolicy(max_attempts=3, backoff_s=0),
            keep_going=True,
            sleep=lambda _: None,
        )
        result = runner.run([make_unit("slow")])
        assert result.outcomes[0].attempts == 1


def off_main_thread(body):
    """Run ``body`` on a worker thread, where no SIGALRM can reach it:
    the condition the deadline fallback exists for.  Returns its value,
    or re-raises what it raised."""
    box = {}

    def run():
        try:
            box["value"] = body()
        except BaseException as error:  # re-raised on the calling thread
            box["error"] = error

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    if "error" in box:
        raise box["error"]
    return box.get("value")


class TestTimeoutPortability:
    """The budget is enforced by *both* mechanisms: pre-emptive SIGALRM
    on a POSIX main thread, and the post-hoc deadline check everywhere
    else (worker threads, platforms without SIGALRM).  Historically
    the context silently skipped enforcement off the main thread."""

    def test_deadline_path_raises_after_completion(self):
        def overrun():
            with unit_timeout(0.05):
                time.sleep(0.12)

        with pytest.raises(UnitTimeoutError, match="deadline check"):
            off_main_thread(overrun)

    def test_deadline_path_passes_within_budget(self):
        def within():
            with unit_timeout(5.0):
                pass

        off_main_thread(within)

    def test_preemptive_path_aborts_midflight(self):
        started = time.monotonic()
        with pytest.raises(UnitTimeoutError):
            with unit_timeout(0.1):
                time.sleep(5.0)
        assert time.monotonic() - started < 2.0

    def test_runner_enforces_timeout_off_main_thread(self):
        """A Runner driven from a worker thread (no SIGALRM there) must
        still fail an overrunning unit via the deadline fallback."""
        box = {}

        def drive():
            runner = Runner(timeout_s=0.05, keep_going=True)
            box["result"] = runner.run(
                [make_unit("slow", fn=lambda: time.sleep(0.15))]
            )

        thread = threading.Thread(target=drive)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        (outcome,) = box["result"].outcomes
        assert outcome.status == "failed"
        assert outcome.error["type"] == "UnitTimeoutError"

    def test_execute_attempts_deadline_not_retried(self):
        outcome = off_main_thread(
            lambda: execute_attempts(
                make_unit("slow", fn=lambda: time.sleep(0.12)),
                retry=RetryPolicy(max_attempts=3, backoff_s=0),
                timeout_s=0.05,
                sleep=lambda _: None,
            )
        )
        assert outcome.status == "failed"
        assert outcome.attempts == 1
        assert outcome.error["type"] == "UnitTimeoutError"


class TestFaultPlans:
    def test_parse_full_spec(self):
        plan = faults.parse_plan("fail=fig5:2,crash=fig7,delay=fig3:0.5,corrupt=fig9")
        assert plan.fail_unit == "fig5" and plan.fail_times == 2
        assert plan.crash_unit == "fig7"
        assert plan.delay_unit == "fig3" and plan.delay_s == 0.5
        assert plan.corrupt_unit == "fig9"

    def test_bad_spec_rejected(self):
        with pytest.raises(RunnerError):
            faults.parse_plan("explode=fig5")
        with pytest.raises(RunnerError):
            faults.parse_plan("fail=fig5:lots")

    def test_colon_bearing_unit_ids(self):
        """Sweep unit ids contain colons; the arg splits off the last one."""
        plan = faults.parse_plan("fail=0007:8:64:2,crash=0001:1:0,delay=0002:2:4:0.5")
        assert plan.fail_unit == "0007:8:64" and plan.fail_times == 2
        assert plan.crash_unit == "0001:1:0"
        assert plan.delay_unit == "0002:2:4" and plan.delay_s == 0.5

    def test_parse_extended_grammar(self):
        plan = faults.parse_plan(
            "bitflip=fig5:8,partial=fig7:16,enospc=fig3:2,killworker=fig9"
        )
        assert plan.bitflip_unit == "fig5" and plan.bitflip_offset == 8
        assert plan.partial_unit == "fig7" and plan.partial_bytes == 16
        assert plan.enospc_unit == "fig3" and plan.enospc_times == 2
        assert plan.killworker_unit == "fig9"

    def test_extended_grammar_defaults(self):
        plan = faults.parse_plan("bitflip=u,partial=v,enospc=w")
        assert plan.bitflip_unit == "u" and plan.bitflip_offset is None
        assert plan.partial_unit == "v" and plan.partial_bytes is None
        assert plan.enospc_unit == "w" and plan.enospc_times == 1

    def test_extended_grammar_bad_args_rejected(self):
        for spec in ("bitflip=u:mid", "partial=u:half", "enospc=u:forever"):
            with pytest.raises(RunnerError):
                faults.parse_plan(spec)

    def test_env_var_plan(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "fail=u:1")
        runner = Runner(keep_going=True)
        result = runner.run([make_unit("u")])
        assert result.outcomes[0].status == "failed"
        assert result.outcomes[0].error["type"] == "InjectedFault"

    def test_crash_is_not_isolated(self):
        faults.install(faults.FaultPlan(crash_unit="b"))
        with pytest.raises(faults.InjectedCrash):
            Runner(keep_going=True).run([make_unit("a"), make_unit("b")])


class TestKillAndResume:
    def test_journal_replay_skips_completed_units(self, tmp_path):
        path = tmp_path / "j.jsonl"
        calls = {"a": 0, "b": 0, "c": 0}

        def units():
            def bump(uid):
                calls[uid] += 1
                return uid

            return [make_unit(uid, lambda uid=uid: bump(uid)) for uid in "abc"]

        faults.install(faults.FaultPlan(crash_unit="b"))
        with pytest.raises(faults.InjectedCrash):
            Runner(journal=RunJournal.open(path)).run(units())
        assert calls == {"a": 1, "b": 0, "c": 0}

        faults.clear()
        result = Runner(journal=RunJournal.open(path, resume=True)).run(units())
        assert calls == {"a": 1, "b": 1, "c": 1}
        assert [o.status for o in result.outcomes] == ["skipped", "ok", "ok"]

    def test_resume_restores_recorded_values(self, tmp_path):
        path = tmp_path / "j.jsonl"
        unit = make_unit(
            "u",
            lambda: 41 + 1,
            to_record=lambda v: {"value": v},
            from_record=lambda r: r["value"],
        )
        Runner(journal=RunJournal.open(path)).run([unit])
        result = Runner(journal=RunJournal.open(path, resume=True)).run([unit])
        assert result.outcomes[0].status == "skipped"
        assert result.outcomes[0].value == 42

    def test_check_skip_forces_rerun(self, tmp_path):
        path = tmp_path / "j.jsonl"
        calls = []
        unit = make_unit("u", lambda: calls.append(1))
        Runner(journal=RunJournal.open(path)).run([unit])
        stale = make_unit("u", lambda: calls.append(1), check_skip=lambda: False)
        Runner(journal=RunJournal.open(path, resume=True)).run([stale])
        assert len(calls) == 2


class TestOnePath:
    def test_duplicate_unit_ids_rejected_without_a_pool(self):
        with pytest.raises(RunnerError, match="duplicate"):
            Runner().run([make_unit("dup"), make_unit("dup")])

    def test_serial_journal_is_written_once(self, tmp_path, monkeypatch):
        rewrites = []
        monkeypatch.setattr(
            RunJournal, "rewrite_ordered", lambda self, ids: rewrites.append(ids)
        )
        journal = RunJournal.open(tmp_path / "j.jsonl")
        result = Runner(journal=journal).run([make_unit("a"), make_unit("b")])
        assert [o.status for o in result.outcomes] == ["ok", "ok"]
        assert rewrites == []
        lines = (tmp_path / "j.jsonl").read_text().splitlines()[1:]
        assert [json.loads(line)["unit"] for line in lines] == ["a", "b"]


class TestEnospcWrites:
    """Injected disk exhaustion surfaces as a retryable CheckpointError."""

    def writing_unit(self, path):
        return make_unit("u", lambda: write_text_atomic(path, "artefact body"))

    def test_exhausted_retries_fail_with_checkpoint_error(self, tmp_path):
        faults.install(faults.FaultPlan(enospc_unit="u", enospc_times=2))
        result = Runner(keep_going=True).run([self.writing_unit(tmp_path / "a.txt")])
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.error["type"] == "CheckpointError"
        assert isinstance(outcome.exception, CheckpointError)
        assert not (tmp_path / "a.txt").exists()
        assert no_tmp_leftovers(tmp_path)

    def test_transient_enospc_is_retried_to_success(self, tmp_path):
        faults.install(faults.FaultPlan(enospc_unit="u", enospc_times=1))
        runner = Runner(
            retry=RetryPolicy(max_attempts=2, backoff_s=0), sleep=lambda _: None
        )
        result = runner.run([self.writing_unit(tmp_path / "a.txt")])
        outcome = result.outcomes[0]
        assert outcome.status == "ok"
        assert outcome.attempts == 2
        assert (tmp_path / "a.txt").read_text() == "artefact body"

    def test_enospc_targets_only_the_named_unit(self, tmp_path):
        faults.install(faults.FaultPlan(enospc_unit="other", enospc_times=99))
        result = Runner().run([self.writing_unit(tmp_path / "a.txt")])
        assert result.outcomes[0].status == "ok"
        assert result.outcomes[0].attempts == 1


class TestRewriteOrdered:
    """The canonical-reorder pass and the kill windows around it.

    A parallel run appends outcomes in arrival order and reorders them
    only on successful completion, so a kill *before* the rewrite must
    leave a journal the resume path accepts, and the rewrite itself
    must never reorder entries replayed from a previous run.
    """

    def record_ok(self, journal, unit_id):
        journal.record(unit_id, unit_key({"id": unit_id}), "ok")

    def test_rewrite_orders_current_run_entries(self, tmp_path):
        journal = RunJournal.open(tmp_path / "j.jsonl")
        for uid in ("c", "a", "b"):  # arrival order under 3 workers
            self.record_ok(journal, uid)
        journal.rewrite_ordered(["a", "b", "c"])
        assert [e["unit"] for e in journal.entries] == ["a", "b", "c"]
        reloaded = RunJournal.open(tmp_path / "j.jsonl", resume=True)
        assert [e["unit"] for e in reloaded.entries] == ["a", "b", "c"]

    def test_kill_before_rewrite_still_resumes(self, tmp_path):
        # Arrival-ordered journal with no canonical pass = a run killed
        # in the window between the last append and rewrite_ordered.
        path = tmp_path / "j.jsonl"
        journal = RunJournal.open(path)
        for uid in ("b", "a"):
            self.record_ok(journal, uid)

        resumed = RunJournal.open(path, resume=True)
        for uid in ("a", "b", "c"):
            assert resumed.completed(uid, unit_key({"id": uid})) == (uid != "c")

    def test_rewrite_never_moves_replayed_entries(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal.open(path)
        for uid in ("b", "a"):
            self.record_ok(journal, uid)

        resumed = RunJournal.open(path, resume=True)
        self.record_ok(resumed, "d")
        self.record_ok(resumed, "c")
        resumed.rewrite_ordered(["a", "b", "c", "d"])
        # Replayed prefix keeps its (arrival) order; only this run's
        # tail is canonicalised — matching what the serial engine would
        # have appended after the same resume.
        assert [e["unit"] for e in resumed.entries] == ["b", "a", "c", "d"]

    def test_rewrite_after_kill_converges_with_clean_run(self, tmp_path):
        killed = RunJournal.open(tmp_path / "killed.jsonl")
        for uid in ("b", "a"):
            self.record_ok(killed, uid)
        resumed = RunJournal.open(tmp_path / "killed.jsonl", resume=True)
        self.record_ok(resumed, "c")
        resumed.rewrite_ordered(["a", "b", "c"])

        reloaded = RunJournal.open(tmp_path / "killed.jsonl", resume=True)
        for uid in ("a", "b", "c"):
            assert reloaded.completed(uid, unit_key({"id": uid}))
        assert len(reloaded.entries) == 3

    def test_unknown_units_sort_after_known(self, tmp_path):
        journal = RunJournal.open(tmp_path / "j.jsonl")
        for uid in ("stray", "b", "a"):
            self.record_ok(journal, uid)
        journal.rewrite_ordered(["a", "b"])
        assert [e["unit"] for e in journal.entries] == ["a", "b", "stray"]

    def test_torn_final_append_is_dropped_on_resume(self, tmp_path):
        # A kill *during* a journal append leaves a half-written final
        # line; replay drops exactly that entry and re-runs its unit.
        path = tmp_path / "j.jsonl"
        journal = RunJournal.open(path)
        self.record_ok(journal, "a")
        with open(path, "a") as handle:  # repro: lint-ok[REP001] deliberately tears the journal tail to emulate a mid-append kill
            handle.write('{"unit": "b", "status"')
        resumed = RunJournal.open(path, resume=True)
        assert resumed.completed("a", unit_key({"id": "a"}))
        assert not resumed.completed("b", unit_key({"id": "b"}))


# --- write_report integration -------------------------------------------


@pytest.fixture
def fake_experiments():
    """Register three tiny experiments; deregister on teardown."""

    ids = ["unitA", "unitB", "unitC"]
    calls = {eid: 0 for eid in ids}

    def make(eid):
        def runner(scale):
            calls[eid] += 1
            return ExperimentResult(
                experiment_id=eid,
                title=f"fake {eid}",
                series=(
                    Series(name="s", columns=("x", "y"), rows=((1, 2.0), (3, 4.0))),
                ),
            )

        register(eid, f"fake {eid}", "test")(runner)

    for eid in ids:
        make(eid)
    try:
        yield ids, calls
    finally:
        for eid in ids:
            _REGISTRY.pop(eid, None)


class TestWriteReportResilience:
    def test_kill_and_resume_round_trip(self, tmp_path, fake_experiments):
        ids, calls = fake_experiments
        out = tmp_path / "report"

        faults.install(faults.FaultPlan(crash_unit="unitB"))
        with pytest.raises(faults.InjectedCrash):
            write_report(out, ids=ids)
        assert calls == {"unitA": 1, "unitB": 0, "unitC": 0}
        assert load_result(out / "unitA.json").experiment_id == "unitA"
        assert not (out / "unitB.json").exists()
        assert no_tmp_leftovers(out)

        faults.clear()
        written = write_report(out, ids=ids, resume=True)
        assert written == ids
        assert calls == {"unitA": 1, "unitB": 1, "unitC": 1}
        index = (out / "INDEX.tsv").read_text()
        for eid in ids:
            assert eid in index

    def test_keep_going_partial_report_and_manifest(self, tmp_path, fake_experiments):
        ids, calls = fake_experiments
        out = tmp_path / "report"
        faults.install(faults.FaultPlan(fail_unit="unitB", fail_times=99))

        written = write_report(out, ids=ids, keep_going=True)
        assert written == ["unitA", "unitC"]
        manifest = json.loads((out / "FAILURES.json").read_text())
        assert manifest["schema"] == 1
        (entry,) = manifest["failures"]
        assert entry["unit"] == "unitB"
        assert entry["type"] == "InjectedFault"
        assert entry["config"]["experiment_id"] == "unitB"
        assert "unitB" not in (out / "INDEX.tsv").read_text()

        # The failure is journalled too, so resume retries only unitB.
        faults.clear()
        written = write_report(out, ids=ids, resume=True)
        assert written == ids
        assert calls == {"unitA": 1, "unitB": 1, "unitC": 1}
        assert not (out / "FAILURES.json").exists()

    @pytest.mark.parametrize("kind", ["write_report", "run_sweep_dir"])
    def test_failures_manifest_lifecycle(self, tmp_path, request, kind):
        """Both run-directory kinds share one ``FAILURES.json`` lifecycle.

        A keep_going run with a failing unit writes the manifest and its
        sidecar, a healing resume removes both, and the directory then
        verifies clean.
        """
        out = tmp_path / kind
        if kind == "write_report":
            ids, _ = request.getfixturevalue("fake_experiments")
            failing = "unitB"

            def run(**kwargs):
                write_report(out, ids=ids, **kwargs)

        else:
            template = SystemConfig(l1_bytes=kb(4))
            failing = f"0006:{design_space(template)[6].label}"

            def run(**kwargs):
                run_sweep_dir(out, "gcc1", template, scale=0.01, **kwargs)

        failures = out / "FAILURES.json"
        sidecar = out / "FAILURES.json.sha256"
        faults.install(faults.FaultPlan(fail_unit=failing, fail_times=99))
        run(keep_going=True)
        (entry,) = json.loads(failures.read_text())["failures"]
        assert entry["unit"] == failing
        assert sidecar.exists()

        faults.clear()
        run(resume=True)
        assert not failures.exists()
        assert not sidecar.exists()
        assert verify_tree(out).clean

    def test_failure_without_keep_going_raises_but_journals(
        self, tmp_path, fake_experiments
    ):
        ids, _ = fake_experiments
        out = tmp_path / "report"
        faults.install(faults.FaultPlan(fail_unit="unitB", fail_times=99))
        with pytest.raises(faults.InjectedFault):
            write_report(out, ids=ids)
        assert (out / "unitA.json").exists()
        assert json.loads((out / "FAILURES.json").read_text())["failures"]

    def test_retry_then_succeed(self, tmp_path, fake_experiments):
        ids, calls = fake_experiments
        out = tmp_path / "report"
        faults.install(faults.FaultPlan(fail_unit="unitA", fail_times=2))
        written = write_report(out, ids=["unitA"], retries=2)
        assert written == ["unitA"]
        journal = json.loads((out / "journal.jsonl").read_text().splitlines()[-1])
        assert journal["status"] == "ok"
        assert journal["attempts"] == 3

    def test_timeout_recorded_in_manifest(self, tmp_path, fake_experiments):
        ids, _ = fake_experiments
        out = tmp_path / "report"
        faults.install(faults.FaultPlan(delay_unit="unitA", delay_s=5.0))
        written = write_report(out, ids=ids, keep_going=True, timeout_s=0.2)
        assert written == ["unitB", "unitC"]
        (entry,) = json.loads((out / "FAILURES.json").read_text())["failures"]
        assert entry["type"] == "UnitTimeoutError"

    def test_corrupt_artifact_rerun_on_resume(self, tmp_path, fake_experiments):
        ids, calls = fake_experiments
        out = tmp_path / "report"
        faults.install(faults.FaultPlan(corrupt_unit="unitA"))
        write_report(out, ids=["unitA"])
        with pytest.raises(Exception):
            load_result(out / "unitA.json")

        # Journal says OK, but resume validates artefacts and re-runs.
        faults.clear()
        written = write_report(out, ids=["unitA"], resume=True)
        assert written == ["unitA"]
        assert calls["unitA"] == 2
        assert load_result(out / "unitA.json").experiment_id == "unitA"

    def test_resume_skips_valid_artifacts(self, tmp_path, fake_experiments):
        ids, calls = fake_experiments
        out = tmp_path / "report"
        write_report(out, ids=ids)
        written = write_report(out, ids=ids, resume=True)
        assert written == ids
        assert all(count == 1 for count in calls.values())

    def test_scale_change_invalidates_journal_entries(
        self, tmp_path, fake_experiments
    ):
        ids, calls = fake_experiments
        out = tmp_path / "report"
        write_report(out, ids=["unitA"], scale=0.1)
        write_report(out, ids=["unitA"], scale=0.2, resume=True)
        assert calls["unitA"] == 2


# --- sweep integration --------------------------------------------------


class TestSweepResilience:
    def configs(self):
        return [
            SystemConfig(l1_bytes=kb(1)),
            SystemConfig(l1_bytes=kb(2)),
            SystemConfig(l1_bytes=kb(4)),
        ]

    def test_keep_going_isolates_one_point(self):
        configs = self.configs()
        unit_id = f"0001:{configs[1].label}"
        faults.install(faults.FaultPlan(fail_unit=unit_id, fail_times=99))
        result = run_sweep("espresso", configs, scale=0.02, keep_going=True)
        assert len(result.completed) == 2
        assert result.failed[0].error["unit"] == unit_id

    def test_journal_resume_restores_points(self, tmp_path):
        configs = self.configs()
        journal = tmp_path / "sweep.jsonl"
        first = run_sweep("espresso", configs, scale=0.02, journal_path=journal)
        fresh_points = [as_point(value) for value in first.values()]

        resumed = run_sweep(
            "espresso", configs, scale=0.02, journal_path=journal, resume=True
        )
        assert all(o.status == "skipped" for o in resumed.outcomes)
        restored = resumed.values()
        assert all(isinstance(p, SweepPoint) for p in restored)
        assert [(p.label, round(p.tpi_ns, 6)) for p in restored] == [
            (p.label, round(p.tpi_ns, 6)) for p in fresh_points
        ]
