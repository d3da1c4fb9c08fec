"""Differential equivalence and fault behaviour of the pool backend.

The process-pool execution engine (``repro.runner.pool``) promises the
*same output* as the serial engine — journal contents, report rows,
envelope points, failure manifests — regardless of worker count,
submission order, or completion order.  The only volatile fields are
the wall-clock ``elapsed_s`` measurements, which these tests normalise
before comparing byte-for-byte.
"""

import ast
import json
import multiprocessing
import random
from dataclasses import dataclass
from pathlib import Path

import pytest
from conftest import REPO_ROOT

from repro.core.config import SystemConfig
from repro.core.envelope import best_envelope
from repro.core.explorer import as_point, design_space, run_sweep, sweep
from repro.errors import RunnerError
from repro.runner import (
    Runner,
    RetryPolicy,
    RunJournal,
    RunUnit,
    resolve_workers,
)
from repro.runner import faults
from repro.study.registry import _REGISTRY, ExperimentResult, Series, register
from repro.study.resultstore import write_report
from repro.traces.store import get_trace
from repro.units import kb

#: Parent-registered state (fake experiments, in-memory fault plans,
#: test-module callables) reaches workers only under fork.
FORK = "fork" in multiprocessing.get_all_start_methods()
fork_only = pytest.mark.skipif(
    not FORK, reason="needs the fork start method to inherit parent state"
)

SCALE = 0.02


@pytest.fixture(autouse=True)
def clean_faults():
    faults.clear()
    yield
    faults.clear()


def small_design_space():
    """A 9-point grid: 3 L1 sizes x {no L2, 8K, 16K}."""
    return design_space(
        SystemConfig(l1_bytes=kb(1)),
        l1_sizes=[kb(1), kb(2), kb(4)],
        l2_sizes=[0, kb(8), kb(16)],
    )


VOLATILE_ENTRY_FIELDS = ("elapsed_s", "duration_s", "started_at", "ended_at")


def normalized_journal(path):
    """Journal text with the volatile wall-clock fields zeroed."""
    lines = Path(path).read_text().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        entry = json.loads(line)
        for field in VOLATILE_ENTRY_FIELDS:
            entry.pop(field, None)
        if "error" in entry:
            entry["error"].pop("elapsed_s", None)
        out.append(json.dumps(entry, sort_keys=True))
    return "\n".join(out)


def normalized_manifest(doc):
    """A FAILURES manifest (dict or path) with elapsed_s zeroed."""
    if not isinstance(doc, dict):
        doc = json.loads(Path(doc).read_text())
    doc = json.loads(json.dumps(doc))  # deep copy
    for failure in doc["failures"]:
        failure.pop("elapsed_s", None)
    return json.dumps(doc, sort_keys=True)


def point_tuples(result):
    return [
        (p.label, p.workload, p.area_rbe, p.tpi_ns, p.levels)
        for p in (as_point(v) for v in result.values())
    ]


class TestResolveWorkers:
    def test_serial_forms(self):
        assert resolve_workers(None) is None
        assert resolve_workers(0) is None
        assert resolve_workers("") is None
        assert resolve_workers("0") is None
        assert resolve_workers("serial") is None

    def test_counts(self):
        assert resolve_workers(3) == 3
        assert resolve_workers("4") == 4
        assert resolve_workers("auto") >= 1

    def test_rejects_garbage(self):
        with pytest.raises(RunnerError):
            resolve_workers("many")
        with pytest.raises(RunnerError):
            resolve_workers(-2)


class TestDifferentialSweep:
    """--workers N output must be byte-equal to the serial run."""

    def test_points_and_envelope_identical(self):
        configs = small_design_space()
        serial = run_sweep("espresso", configs, scale=SCALE)
        parallel = run_sweep("espresso", configs, scale=SCALE, workers=4)
        assert point_tuples(serial) == point_tuples(parallel)
        assert [o.status for o in serial.outcomes] == [
            o.status for o in parallel.outcomes
        ]
        serial_env = best_envelope(serial.values())
        parallel_env = best_envelope(parallel.values())
        assert [(e.label, e.area_rbe, e.tpi_ns) for e in serial_env] == [
            (e.label, e.area_rbe, e.tpi_ns) for e in parallel_env
        ]

    def test_journal_identical(self, tmp_path):
        configs = small_design_space()
        run_sweep(
            "espresso", configs, scale=SCALE, journal_path=tmp_path / "serial.jsonl"
        )
        run_sweep(
            "espresso",
            configs,
            scale=SCALE,
            journal_path=tmp_path / "pool.jsonl",
            workers=4,
        )
        assert normalized_journal(tmp_path / "serial.jsonl") == normalized_journal(
            tmp_path / "pool.jsonl"
        )

    def test_seeded_shuffle_of_submission_order(self, tmp_path):
        """Any submission permutation produces identical artefacts."""
        configs = small_design_space()
        run_sweep(
            "espresso", configs, scale=SCALE, journal_path=tmp_path / "serial.jsonl"
        )
        order = list(range(len(configs)))
        random.Random(1234).shuffle(order)
        shuffled = run_sweep(
            "espresso",
            configs,
            scale=SCALE,
            journal_path=tmp_path / "shuffled.jsonl",
            workers=3,
            submit_order=order,
        )
        serial = run_sweep("espresso", configs, scale=SCALE)
        assert point_tuples(serial) == point_tuples(shuffled)
        assert normalized_journal(tmp_path / "serial.jsonl") == normalized_journal(
            tmp_path / "shuffled.jsonl"
        )

    def test_failures_manifest_identical(self, tmp_path, monkeypatch):
        configs = small_design_space()
        victim = f"0004:{configs[4].label}"
        monkeypatch.setenv(faults.ENV_VAR, f"fail={victim}:99")
        serial = run_sweep("espresso", configs, scale=SCALE, keep_going=True)
        faults.clear()  # forked workers must not inherit the serial run's fail counters
        parallel = run_sweep(
            "espresso", configs, scale=SCALE, keep_going=True, workers=4
        )
        assert [o.status for o in serial.outcomes] == [
            o.status for o in parallel.outcomes
        ]
        assert normalized_manifest(serial.failures_manifest()) == normalized_manifest(
            parallel.failures_manifest()
        )
        assert parallel.failed[0].error["unit"] == victim
        assert parallel.failed[0].error["type"] == "InjectedFault"

    def test_sweep_convenience_wrapper(self):
        configs = small_design_space()[:4]
        serial = sweep("espresso", configs, scale=SCALE)
        parallel = sweep("espresso", configs, scale=SCALE, workers=2)
        assert [as_point(p) for p in serial] == [as_point(p) for p in parallel]

    def test_explicit_trace_workload(self):
        """A Trace object workload is shared via the pool initializer."""
        trace = get_trace("li", SCALE)
        configs = small_design_space()[:4]
        serial = run_sweep(trace, configs)
        parallel = run_sweep(trace, configs, workers=2)
        assert point_tuples(serial) == point_tuples(parallel)

    def test_resume_skips_parallel_completed_units(self, tmp_path):
        configs = small_design_space()
        journal = tmp_path / "j.jsonl"
        first = run_sweep(
            "espresso", configs, scale=SCALE, journal_path=journal, workers=4
        )
        resumed = run_sweep(
            "espresso",
            configs,
            scale=SCALE,
            journal_path=journal,
            resume=True,
            workers=4,
        )
        assert all(o.status == "skipped" for o in resumed.outcomes)
        assert point_tuples(first) == point_tuples(resumed)


@fork_only
class TestDifferentialReport:
    @pytest.fixture
    def fake_experiments(self):
        ids = ["diffA", "diffB", "diffC"]

        def make(eid):
            def runner(scale):
                return ExperimentResult(
                    experiment_id=eid,
                    title=f"fake {eid}",
                    series=(
                        Series(
                            name="s",
                            columns=("x", "y"),
                            rows=((1, 2.0), (3, 4.0)),
                        ),
                    ),
                )

            register(eid, f"fake {eid}", "test")(runner)

        for eid in ids:
            make(eid)
        try:
            yield ids
        finally:
            for eid in ids:
                _REGISTRY.pop(eid, None)

    def test_artifacts_byte_identical(self, tmp_path, fake_experiments):
        ids = fake_experiments
        serial_out, pool_out = tmp_path / "serial", tmp_path / "pool"
        assert write_report(serial_out, ids=ids) == ids
        assert write_report(pool_out, ids=ids, workers=2) == ids
        for eid in ids:
            assert (serial_out / f"{eid}.json").read_bytes() == (
                pool_out / f"{eid}.json"
            ).read_bytes()
            assert (serial_out / f"{eid}.txt").read_bytes() == (
                pool_out / f"{eid}.txt"
            ).read_bytes()
        assert (serial_out / "INDEX.tsv").read_bytes() == (
            pool_out / "INDEX.tsv"
        ).read_bytes()
        assert normalized_journal(serial_out / "journal.jsonl") == normalized_journal(
            pool_out / "journal.jsonl"
        )

    def test_partial_report_and_manifest_identical(
        self, tmp_path, fake_experiments, monkeypatch
    ):
        ids = fake_experiments
        monkeypatch.setenv(faults.ENV_VAR, "fail=diffB:99")
        serial_out, pool_out = tmp_path / "serial", tmp_path / "pool"
        assert write_report(serial_out, ids=ids, keep_going=True) == ["diffA", "diffC"]
        faults.clear()  # forked workers must not inherit the serial run's fail counters
        assert write_report(pool_out, ids=ids, keep_going=True, workers=2) == [
            "diffA",
            "diffC",
        ]
        assert normalized_manifest(serial_out / "FAILURES.json") == normalized_manifest(
            pool_out / "FAILURES.json"
        )
        assert (serial_out / "INDEX.tsv").read_bytes() == (
            pool_out / "INDEX.tsv"
        ).read_bytes()


# --- fault injection in workers (REPRO_FAULTS) --------------------------


@dataclass(frozen=True)
class _TouchRun:
    """Picklable unit body: append one line per execution (cross-process
    execution counter), then return the unit id."""

    marker_dir: str
    unit_id: str

    def __call__(self):
        with open(Path(self.marker_dir) / self.unit_id, "a") as handle:
            handle.write("ran\n")
        return self.unit_id


def touch_unit(marker_dir, unit_id):
    return RunUnit(
        unit_id=unit_id,
        payload={"id": unit_id},
        run=_TouchRun(str(marker_dir), unit_id),
    )


def executions(marker_dir, unit_id):
    path = Path(marker_dir) / unit_id
    return len(path.read_text().splitlines()) if path.exists() else 0


class TestPoolFaults:
    def test_injected_fault_retried_in_worker(self, monkeypatch):
        configs = small_design_space()[:3]
        victim = f"0001:{configs[1].label}"
        monkeypatch.setenv(faults.ENV_VAR, f"fail={victim}:2")
        result = run_sweep("espresso", configs, scale=SCALE, retries=2, workers=2)
        outcome = result.outcomes[1]
        assert outcome.status == "ok"
        assert outcome.attempts == 3

    def test_worker_timeout_structured_record(self, monkeypatch, tmp_path):
        configs = small_design_space()[:3]
        victim = f"0000:{configs[0].label}"
        monkeypatch.setenv(faults.ENV_VAR, f"delay={victim}:5.0")
        result = run_sweep(
            "espresso",
            configs,
            scale=SCALE,
            keep_going=True,
            timeout_s=0.5,
            workers=2,
            journal_path=tmp_path / "j.jsonl",
        )
        slow = result.outcomes[0]
        assert slow.status == "failed"
        assert slow.error["type"] == "UnitTimeoutError"
        assert slow.attempts == 1  # timeouts are never retried
        assert slow.elapsed_s < 5.0  # pre-emptive abort, not a full sleep
        assert all(o.status == "ok" for o in result.outcomes[1:])
        entry = json.loads(
            (tmp_path / "j.jsonl").read_text().splitlines()[1]
        )
        assert entry["unit"] == victim and entry["status"] == "failed"

    def test_error_record_matches_serial_engine(self, monkeypatch):
        configs = small_design_space()[:3]
        victim = f"0002:{configs[2].label}"
        monkeypatch.setenv(faults.ENV_VAR, f"fail={victim}:99")
        serial = run_sweep("espresso", configs, scale=SCALE, keep_going=True)
        faults.clear()  # forked workers must not inherit the serial run's fail counters
        parallel = run_sweep(
            "espresso", configs, scale=SCALE, keep_going=True, workers=2
        )
        s_rec = dict(serial.failed[0].error)
        p_rec = dict(parallel.failed[0].error)
        s_rec.pop("elapsed_s"), p_rec.pop("elapsed_s")
        assert s_rec == p_rec

    def test_failure_without_keep_going_raises_original(self, monkeypatch):
        configs = small_design_space()[:3]
        monkeypatch.setenv(faults.ENV_VAR, f"fail=0000:{configs[0].label}:99")
        result = run_sweep("espresso", configs, scale=SCALE, workers=2)
        with pytest.raises(faults.InjectedFault):
            result.raise_first_failure()


@fork_only
class TestPoolKillAndResume:
    def test_crash_propagates_and_resume_never_reexecutes(
        self, tmp_path, monkeypatch
    ):
        """An injected worker crash kills the run (journal intact); the
        resumed run re-executes only what was never journalled."""
        journal = tmp_path / "j.jsonl"
        markers = tmp_path / "markers"
        markers.mkdir()
        ids = ["a", "b", "c", "d"]
        units = lambda: [touch_unit(markers, uid) for uid in ids]  # noqa: E731

        monkeypatch.setenv(faults.ENV_VAR, "crash=c")
        with pytest.raises(faults.InjectedCrash):
            Runner(journal=RunJournal.open(journal), workers=1).run(units())
        # The crash fires before c runs; a and b finished and were
        # journalled on arrival.  (d may or may not have been prefetched
        # into the worker's queue before the run died — like a real
        # kill, in-flight work that never reported is simply lost.)
        assert executions(markers, "a") == 1
        assert executions(markers, "b") == 1
        assert executions(markers, "c") == 0
        journalled = {
            json.loads(line)["unit"]
            for line in journal.read_text().splitlines()[1:]
        }
        assert journalled == {"a", "b"}

        monkeypatch.delenv(faults.ENV_VAR)
        resumed = Runner(
            journal=RunJournal.open(journal, resume=True), workers=1
        ).run(units())
        assert [o.status for o in resumed.outcomes] == [
            "skipped",
            "skipped",
            "ok",
            "ok",
        ]
        # The journalled units ran exactly once across both runs.
        assert executions(markers, "a") == 1
        assert executions(markers, "b") == 1
        assert executions(markers, "c") == 1

    def test_journalled_units_survive_multiworker_crash(
        self, tmp_path, monkeypatch
    ):
        journal = tmp_path / "j.jsonl"
        markers = tmp_path / "markers"
        markers.mkdir()
        ids = [f"u{i}" for i in range(8)]
        units = lambda: [touch_unit(markers, uid) for uid in ids]  # noqa: E731

        monkeypatch.setenv(faults.ENV_VAR, "crash=u5")
        with pytest.raises(faults.InjectedCrash):
            Runner(journal=RunJournal.open(journal), workers=3).run(units())
        journalled = {
            json.loads(line)["unit"]
            for line in journal.read_text().splitlines()[1:]
        }

        monkeypatch.delenv(faults.ENV_VAR)
        Runner(journal=RunJournal.open(journal, resume=True), workers=3).run(
            units()
        )
        # Whatever made it to the journal before the crash must not have
        # been executed a second time by the resumed run.
        for uid in journalled:
            assert executions(markers, uid) == 1
        assert all(executions(markers, uid) >= 1 for uid in ids)


@fork_only
class TestPoolRunnerSemantics:
    def test_outcomes_in_unit_order_not_arrival_order(self, tmp_path, monkeypatch):
        markers = tmp_path / "markers"
        markers.mkdir()
        ids = [f"u{i}" for i in range(6)]
        # Delay the first-submitted unit so it completes last.
        monkeypatch.setenv(faults.ENV_VAR, "delay=u0:0.3")
        result = Runner(workers=3).run([touch_unit(markers, uid) for uid in ids])
        assert [o.unit_id for o in result.outcomes] == ids

    def test_keep_going_false_truncates_like_serial(self, tmp_path, monkeypatch):
        markers = tmp_path / "markers"
        markers.mkdir()
        monkeypatch.setenv(faults.ENV_VAR, "fail=b:99")
        result = Runner(workers=1).run(
            [touch_unit(markers, uid) for uid in "abc"]
        )
        # c is cancelled (or, if already prefetched by the worker, its
        # outcome dropped): the result truncates at the failure exactly
        # like the serial engine's.
        assert [o.status for o in result.outcomes] == ["ok", "failed"]
        assert result.failed[0].error["type"] == "InjectedFault"

    def test_duplicate_unit_ids_rejected(self, tmp_path):
        units = [touch_unit(tmp_path, "dup"), touch_unit(tmp_path, "dup")]
        with pytest.raises(RunnerError, match="duplicate"):
            Runner(workers=1).run(units)

    def test_bad_submit_order_rejected(self, tmp_path):
        units = [touch_unit(tmp_path, "a"), touch_unit(tmp_path, "b")]
        with pytest.raises(RunnerError, match="permutation"):
            Runner(workers=1, submit_order=[0, 0]).run(units)

    def test_zero_workers_rejected(self):
        with pytest.raises(RunnerError):
            Runner(workers=0)


def test_only_the_worker_pool_builds_a_process_pool():
    """Batch runs and serve share one WorkerPool: no other module of
    ``src/repro`` constructs a ProcessPoolExecutor of its own."""
    src = REPO_ROOT / "src"
    sites = []
    for path in sorted((src / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "ProcessPoolExecutor":
                sites.append(path.relative_to(src).as_posix())
    assert sites == ["repro/runner/pool.py"]


def _top_level_defs(tree):
    """(qualified name, node) of every module function and class method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_one_runner_runs_units_in_process():
    """``class Runner`` is defined once in ``src/repro``, and only its
    in-process loop and the worker entry point call execute_attempts."""
    src = REPO_ROOT / "src"
    runners = []
    callers = []
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text(), str(path))
        runners += [
            rel
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "Runner"
        ]
        for name, node in _top_level_defs(tree):
            if any(
                isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "execute_attempts"
                for call in ast.walk(node)
            ):
                callers.append(f"{rel}::{name}")
    assert runners == ["repro/runner/pool.py"]
    assert callers == [
        "repro/runner/pool.py::execute_task",
        "repro/runner/pool.py::Runner._run_here",
    ]
