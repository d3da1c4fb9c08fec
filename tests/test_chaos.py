"""Chaos soak: seeded fault schedules, bit rot, byte-identical convergence.

These tests run the *composition* of every robustness mechanism in the
repository — journalled resume, retryable checkpoint errors, sidecar
verification, quarantine, and recipe-driven re-runs — against randomized
but seed-reproducible damage, and assert the one property that matters:
the soaked tree converges byte-identical with an undisturbed run.
"""

import json
import multiprocessing
import shutil

import pytest

from repro.cli import main
from repro.runner import tree_fingerprint, verify_tree
from repro.runner.integrity import SIDECAR_SUFFIX, is_volatile
from repro.study.chaos import ChaosResult, run_chaos
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
