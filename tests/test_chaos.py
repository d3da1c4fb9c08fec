"""Chaos soak: seeded fault schedules, bit rot, byte-identical convergence.

These tests run the *composition* of every robustness mechanism in the
repository — journalled resume, retryable checkpoint errors, sidecar
verification, quarantine, and recipe-driven re-runs — against randomized
but seed-reproducible damage, and assert the one property that matters:
the soaked tree converges byte-identical with an undisturbed run.
"""

import json
import multiprocessing
import os
import random
import shutil

import pytest

from repro.cli import main
from repro.obs.telemetry import Telemetry
from repro.runner import faults, tree_fingerprint, verify_tree
from repro.runner.integrity import SIDECAR_SUFFIX, is_volatile
from repro.study import chaos
from repro.study.chaos import ChaosResult, _random_schedule, run_chaos
from repro.study.registry import _REGISTRY, ExperimentResult, Series, register
from repro.study.repair import verify_and_repair
from repro.study.resultstore import write_report

FORK = "fork" in multiprocessing.get_all_start_methods()
fork_only = pytest.mark.skipif(
    not FORK, reason="needs the fork start method to inherit parent state"
)


@pytest.fixture
def fake_experiments():
    """Register two tiny deterministic experiments; deregister after."""
    ids = ["unitA", "unitB"]

    def make(eid):
        def runner(scale):
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
        yield ids
    finally:
        for eid in ids:
            _REGISTRY.pop(eid, None)


class TestSoakConvergence:
    def test_serial_soak_converges(self, tmp_path, fake_experiments):
        result = run_chaos(
            tmp_path, seed=1, rounds=3, ids=fake_experiments, scale=None
        )
        assert result.converged, result.render()
        assert result.mismatches == []
        assert len(result.schedules) == 3
        # The converged soak tree is itself verifiably intact.
        assert verify_tree(tmp_path / "soak").clean

    def test_same_seed_reproduces_exactly(self, tmp_path, fake_experiments):
        first = run_chaos(
            tmp_path / "one", seed=7, rounds=3, ids=fake_experiments, scale=None
        )
        second = run_chaos(
            tmp_path / "two", seed=7, rounds=3, ids=fake_experiments, scale=None
        )
        assert first.schedules == second.schedules
        assert first.bitrot == second.bitrot
        assert first.converged and second.converged

    def test_distinct_seeds_draw_distinct_schedules(self, tmp_path, fake_experiments):
        drawn = set()
        for seed in (1, 2, 3):
            result = run_chaos(
                tmp_path / str(seed),
                seed=seed,
                rounds=3,
                ids=fake_experiments,
                scale=None,
            )
            assert result.converged, result.render()
            drawn.add(tuple(result.schedules))
        assert len(drawn) > 1

    @fork_only
    def test_pool_soak_converges(self, tmp_path, fake_experiments):
        result = run_chaos(
            tmp_path,
            seed=5,
            rounds=2,
            ids=fake_experiments,
            scale=None,
            workers=2,
        )
        assert result.converged, result.render()


#: The schedules CI's batch soaks draw (``--rounds 4 --ids fig5,table1
#: --workers 4``) for seeds 1-3.  Seeds 1 and 3 carry the ``sigterm=``,
#: ``killworker=`` and ``hang=`` rounds CI's fault coverage step runs.
CI_SCHEDULES = {
    1: ["", "crash=table1", "killworker=table1", "sigterm=fig5,crash=table1"],
    2: ["", "", "", "corrupt=table1"],
    3: ["", "hang=fig5:30,enospc=table1:1", "fail=table1:2,hang=fig5:30", ""],
}


class TestScheduleDraws:
    @pytest.mark.parametrize("seed", sorted(CI_SCHEDULES))
    def test_ci_seeds_draw_pinned_schedules(self, seed):
        rng = random.Random(seed)
        drawn = [_random_schedule(rng, ["fig5", "table1"], True) for _ in range(4)]
        assert drawn == CI_SCHEDULES[seed]


@fork_only
class TestFaultedRoundsRun:
    """Each faulted CI round runs the units its schedule names.

    A round resumes the soak tree.  Once a clean round has completed
    every unit, a resume alone has nothing left to run and the round's
    faults never fire, so the soak drops the named units' journal
    entries first.
    """

    #: Short stand-in for the soak's unit budget; the wedge still sleeps 30 s.
    BUDGET_S = 1.0

    @pytest.mark.parametrize("seed", sorted(CI_SCHEDULES))
    def test_each_faulted_round_runs_its_named_units(
        self, tmp_path, fake_experiments, monkeypatch, seed
    ):
        ran = tmp_path / "ran.tsv"
        before_unit = faults.before_unit

        def logged(unit_id):
            # Forked workers append to the same file: one short line each.
            with open(ran, "a") as log:
                log.write(f"{os.environ.get(faults.ENV_VAR, '')}\t{unit_id}\n")
            before_unit(unit_id)

        monkeypatch.setattr(faults, "before_unit", logged)
        monkeypatch.setattr(chaos, "_SOAK_UNIT_BUDGET_S", self.BUDGET_S)
        telemetry = Telemetry()
        result = run_chaos(
            tmp_path / "soak",
            seed=seed,
            rounds=4,
            ids=fake_experiments,
            scale=None,
            workers=2,
            telemetry=telemetry,
        )
        assert result.converged, result.render()
        # The fakes stand in for fig5 and table1 position for position,
        # so the seed draws CI's pinned schedules.
        assert [
            schedule.replace("unitA", "fig5").replace("unitB", "table1")
            for schedule in result.schedules
        ] == CI_SCHEDULES[seed]
        runs = {}
        for line in ran.read_text().splitlines():
            schedule, unit = line.split("\t")
            runs.setdefault(schedule, set()).add(unit)
        spans = [r for r in telemetry.tracer.records() if r["name"] == "chaos_round"]
        for schedule, span in zip(result.schedules, spans):
            parts = [part.split("=") for part in schedule.split(",") if part]
            named = {value.split(":")[0] for _, value in parts}
            assert named <= runs.get(schedule, set()), (schedule, runs)
            if "hang=" in schedule:
                # The wedge ends at the unit budget, not after its 30 s.
                assert self.BUDGET_S <= span["duration_s"] < 10.0, schedule
        assert set(fake_experiments) <= runs[""]  # the reference, the finish pass


class TestDetection:
    """Acceptance bar: verification flags 100% of injected damage."""

    def _targets(self, tree):
        targets = []
        for path in sorted(tree.rglob("*")):
            base = path.name
            if base.endswith(SIDECAR_SUFFIX):
                base = base[: -len(SIDECAR_SUFFIX)]
            if path.is_file() and not is_volatile(base):
                targets.append(path)
        return targets

    @pytest.mark.parametrize("mode", ["bitflip", "truncate"])
    def test_every_artifact_damage_is_detected(
        self, tmp_path, fake_experiments, mode
    ):
        pristine = tmp_path / "pristine"
        write_report(pristine, ids=fake_experiments)
        targets = self._targets(pristine)
        assert len(targets) >= 8  # json+txt+sidecars+RUN.json+INDEX+manifest

        for index, target in enumerate(targets):
            tree = tmp_path / f"case{mode}{index}"
            shutil.copytree(pristine, tree)
            victim = tree / target.relative_to(pristine)
            data = bytearray(victim.read_bytes())
            if mode == "bitflip":
                data[len(data) // 2] ^= 0x40
                victim.write_bytes(bytes(data))
            else:
                victim.write_bytes(bytes(data[: max(1, len(data) // 2)]))
            report = verify_tree(tree, repair=False)
            assert not report.clean, f"undetected {mode}: {victim.name}"

    def test_sidecar_name_field_flip_is_detected_and_healed(
        self, tmp_path, fake_experiments
    ):
        # A flip in the *name* portion of a sidecar leaves the digest
        # parsable and the artefact verifiable — only full-content
        # canonical-form checking catches it (chaos seed regression).
        tree = tmp_path / "report"
        write_report(tree, ids=fake_experiments)
        sidecar = tree / "unitA.txt.sha256"
        data = bytearray(sidecar.read_bytes())
        data[-3] ^= 0x20  # 'x' in ".txt" changes case
        sidecar.write_bytes(bytes(data))

        report = verify_tree(tree, repair=False)
        assert [f.kind for f in report.findings] == ["corrupt-sidecar"]
        assert verify_and_repair(tree).clean
        reference = tmp_path / "reference"
        write_report(reference, ids=fake_experiments)
        assert tree_fingerprint(tree) == tree_fingerprint(reference)

    def test_detected_damage_is_repairable(self, tmp_path, fake_experiments):
        tree = tmp_path / "report"
        write_report(tree, ids=fake_experiments)
        victim = tree / "unitA.json"
        victim.write_bytes(victim.read_bytes()[:10])
        before = tree_fingerprint(tmp_path / "report")

        outcome = verify_and_repair(tree)
        assert outcome.clean
        after = tree_fingerprint(tmp_path / "report")
        assert before != after  # the damaged artefact really was replaced
        reference = tmp_path / "reference"
        write_report(reference, ids=fake_experiments)
        assert after == tree_fingerprint(reference)


class TestChaosRecord:
    def test_record_round_trips_as_json(self, tmp_path):
        result = ChaosResult(
            seed=3,
            rounds=2,
            schedules=["fail=unitA:1", ""],
            bitrot=["unitA.json"],
            reran=["soak"],
            quarantined=1,
            converged=True,
        )
        payload = json.loads(json.dumps(result.to_record()))
        assert payload["schema"] == 1
        assert payload["seed"] == 3
        assert payload["converged"] is True
        assert payload["schedules"] == ["fail=unitA:1", ""]

    def test_render_mentions_verdict(self):
        good = ChaosResult(seed=0, rounds=1, schedules=[""], converged=True)
        assert "converged" in good.render()
        bad = ChaosResult(
            seed=0, rounds=1, schedules=["crash=u"], mismatches=["u.json"]
        )
        assert "DIVERGED" in bad.render()
        assert "u.json" in bad.render()


class TestChaosCli:
    def test_cli_converges_and_exits_zero(self, tmp_path, fake_experiments, capsys):
        code = main(
            [
                "chaos",
                "--out",
                str(tmp_path),
                "--seed",
                "2",
                "--rounds",
                "2",
                "--ids",
                "unitA,unitB",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "converged" in out
