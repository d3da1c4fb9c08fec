"""Artifact integrity: sidecars, manifests, verify_tree, verify --repair.

The contract under test: every tracked artefact can be *proved* intact
(sha256 sidecar + per-directory MANIFEST.json), any single-record
corruption is arbitrated to the right culprit (artefact vs sidecar vs
manifest), damaged artefacts are quarantined rather than trusted, and a
directory carrying a ``RUN.json`` recipe can be regenerated end to end
through ``repro verify --repair``.
"""

import json

import pytest

from repro.cli import main
from repro.core.config import SystemConfig
from repro.core.explorer import run_sweep_dir
from repro.errors import IntegrityError
from repro.runner import (
    MANIFEST_NAME,
    RUN_METADATA_NAME,
    hash_file,
    matches_sidecar,
    read_sidecar,
    tree_fingerprint,
    untrack,
    verify_tree,
    write_manifest,
    write_sidecar,
    write_text_atomic,
)
from repro.runner.integrity import is_volatile, load_manifest, refresh_manifest_entry
from repro.study.registry import _REGISTRY, ExperimentResult, Series, register
from repro.study.repair import rerun_directory, verify_and_repair
from repro.study.resultstore import write_report
from repro.units import kb


@pytest.fixture
def fake_experiments():
    """Register two tiny experiments; deregister on teardown."""
    ids = ["unitA", "unitB"]
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


def tracked(path, text):
    write_text_atomic(path, text, track=True)
    return path


class TestSidecars:
    def test_tracked_write_records_digest(self, tmp_path):
        path = tracked(tmp_path / "a.txt", "artefact body\n")
        assert read_sidecar(path) == hash_file(path)
        sidecar_text = (tmp_path / "a.txt.sha256").read_text()
        assert sidecar_text == f"{hash_file(path)}  a.txt\n"  # sha256sum format
        assert matches_sidecar(path)

    def test_untracked_write_records_nothing(self, tmp_path):
        write_text_atomic(tmp_path / "scratch.txt", "x", track=False)
        assert not (tmp_path / "scratch.txt.sha256").exists()
        assert read_sidecar(tmp_path / "scratch.txt") is None
        assert matches_sidecar(tmp_path / "scratch.txt")  # legacy pass

    def test_modified_artifact_fails_match(self, tmp_path):
        path = tracked(tmp_path / "a.txt", "original")
        path.write_bytes(b"tampered")
        assert not matches_sidecar(path)

    def test_corrupt_sidecar_fails_match_and_raises(self, tmp_path):
        path = tracked(tmp_path / "a.txt", "original")
        (tmp_path / "a.txt.sha256").write_text("not a digest\n")
        assert not matches_sidecar(path)
        with pytest.raises(IntegrityError):
            read_sidecar(path)

    def test_binary_garbage_sidecar_raises_typed_error(self, tmp_path):
        path = tracked(tmp_path / "a.txt", "original")
        (tmp_path / "a.txt.sha256").write_bytes(b"\xae\xff\x00garbage")
        with pytest.raises(IntegrityError):
            read_sidecar(path)

    def test_untrack_removes_sidecar(self, tmp_path):
        path = tracked(tmp_path / "a.txt", "x")
        untrack(path)
        assert not (tmp_path / "a.txt.sha256").exists()


class TestManifest:
    def test_manifest_from_sidecars(self, tmp_path):
        a = tracked(tmp_path / "a.txt", "A")
        tracked(tmp_path / "b.journal.jsonl", "volatile journal\n")
        write_manifest(tmp_path)
        doc = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert doc["manifest"] == 1
        assert doc["artifacts"]["a.txt"]["sha256"] == hash_file(a)
        assert doc["artifacts"]["a.txt"]["size"] == 1
        # Journals are listed by name only: their bytes are volatile.
        assert "b.journal.jsonl" in doc["volatile"]
        assert "b.journal.jsonl" not in doc["artifacts"]

    def test_manifest_bytes_deterministic(self, tmp_path):
        tracked(tmp_path / "b.txt", "B")
        tracked(tmp_path / "a.txt", "A")
        write_manifest(tmp_path)
        first = (tmp_path / MANIFEST_NAME).read_bytes()
        write_manifest(tmp_path)
        assert (tmp_path / MANIFEST_NAME).read_bytes() == first

    def test_manifest_never_blesses_damage(self, tmp_path):
        """The manifest is built from sidecars, not by re-hashing files,
        so post-write corruption cannot be laundered into the records."""
        path = tracked(tmp_path / "a.txt", "original")
        good = hash_file(path)
        path.write_bytes(b"rotten")
        write_manifest(tmp_path)
        doc = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert doc["artifacts"]["a.txt"]["sha256"] == good

    def test_refreshing_one_entry_equals_a_rebuild(self, tmp_path):
        """Every way one artefact changes, re-entering it alone leaves the
        bytes a full rebuild writes."""

        a, c = tmp_path / "a.txt", tmp_path / "c.txt"
        tracked(a, "A")
        journal = tracked(tmp_path / "b.journal.jsonl", "volatile journal\n")
        write_manifest(tmp_path)
        changes = [
            (c, lambda: tracked(c, "new")),  # added
            (a, lambda: tracked(a, "AAA")),  # rewritten
            (a, lambda: a.write_bytes(b"rot")),  # damaged after the write
            (journal, lambda: (journal.unlink(), untrack(journal))),  # a volatile one gone
            (journal, lambda: tracked(journal, "journal again\n")),  # and back
            (c, lambda: (c.unlink(), untrack(c))),  # removed
        ]
        for path, change in changes:
            change()
            refresh_manifest_entry(path)
            refreshed = (tmp_path / MANIFEST_NAME).read_bytes()
            write_manifest(tmp_path)
            assert refreshed == (tmp_path / MANIFEST_NAME).read_bytes(), path.name

    def test_refresh_rebuilds_a_missing_or_unreadable_manifest(self, tmp_path):
        tracked(tmp_path / "a.txt", "A")
        tracked(tmp_path / "b.txt", "B")
        refresh_manifest_entry(tmp_path / "b.txt")  # no manifest yet
        assert sorted(json.loads((tmp_path / MANIFEST_NAME).read_text())["artifacts"]) == [
            "a.txt", "b.txt"
        ]
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        refresh_manifest_entry(tmp_path / "b.txt")
        kept = (tmp_path / MANIFEST_NAME).read_bytes()
        write_manifest(tmp_path)
        assert kept == (tmp_path / MANIFEST_NAME).read_bytes()

    def test_an_indented_manifest_still_verifies(self, tmp_path):
        """Manifests were once written with ``indent=2``: such a tree
        loads, verifies clean, and a refresh rewrites it one-line."""
        a = tracked(tmp_path / "a.txt", "A")
        tracked(tmp_path / "b.journal.jsonl", "volatile journal\n")
        doc = write_manifest(tmp_path)
        one_line = (tmp_path / MANIFEST_NAME).read_bytes()
        assert one_line.count(b"\n") == 1
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        assert load_manifest(tmp_path) == doc
        assert verify_tree(tmp_path).clean
        refresh_manifest_entry(a)
        assert (tmp_path / MANIFEST_NAME).read_bytes() == one_line

    def test_a_damaged_entry_key_is_a_corrupt_manifest(self, tmp_path):
        tracked(tmp_path / "a.txt", "A")
        manifest = tmp_path / MANIFEST_NAME
        for key in ("sha256", "size"):
            write_manifest(tmp_path)
            manifest.write_text(manifest.read_text().replace(f'"{key}"', f'"3{key[1:]}"'))
            with pytest.raises(IntegrityError):
                load_manifest(tmp_path)
            kinds = [f.kind for f in verify_tree(tmp_path).findings]
            assert kinds == ["corrupt-manifest"]

    def test_volatile_classification(self):
        assert is_volatile("journal.jsonl")
        assert is_volatile("sweep.journal.jsonl")
        assert not is_volatile("sweep.tsv")
        assert not is_volatile("result.json")


class TestEveryArtefactTracked:
    """A real report leaves no file outside integrity tracking.

    ``repro verify`` only judges what sidecars and the manifest name, so
    an artefact written without ``track=True`` (or around the atomic
    helpers) verifies clean while being unprotected; this walk is the
    check that notices.
    """

    #: The integrity records themselves (a sidecar has no sidecar).
    INTEGRITY = {MANIFEST_NAME}
    #: Volatile by design: tracked by sidecar and listed by name, never
    #: by digest (run journal, telemetry snapshots).
    VOLATILE = {"journal.jsonl", "METRICS.jsonl", "SPANS.jsonl"}

    def test_report_tree_is_fully_tracked(self, tmp_path):
        write_report(tmp_path, ids=["table1", "ext1"], scale=0.05, telemetry=True)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        names = sorted(
            path.name
            for path in tmp_path.iterdir()
            if not path.name.endswith(".sha256") and path.name not in self.INTEGRITY
        )
        assert {"table1.json", "table1.txt", "ext1.json", "ext1.txt"} <= set(names)
        assert not [p for p in tmp_path.iterdir() if p.is_dir()]
        for name in names:
            assert read_sidecar(tmp_path / name) == hash_file(tmp_path / name), name
            if name in self.VOLATILE:
                assert name in manifest["volatile"], name
            else:
                assert manifest["artifacts"][name]["sha256"] == hash_file(
                    tmp_path / name
                ), name
        assert sorted(manifest["volatile"]) == sorted(self.VOLATILE & set(names))


class TestVerifyTree:
    def managed(self, tmp_path):
        tracked(tmp_path / "a.txt", "alpha artefact\n")
        tracked(tmp_path / "b.json", '{"k": 1}\n')
        write_manifest(tmp_path)
        return tmp_path

    def test_clean_tree(self, tmp_path):
        report = verify_tree(self.managed(tmp_path))
        assert report.clean
        assert report.n_artifacts == 2

    @pytest.mark.parametrize("offset", [0, 1, 7, 14])
    def test_every_bitflip_detected(self, tmp_path, offset):
        root = self.managed(tmp_path)
        data = bytearray((root / "a.txt").read_bytes())
        data[offset] ^= 0x40
        (root / "a.txt").write_bytes(bytes(data))
        report = verify_tree(root)
        assert [f.kind for f in report.findings] == ["corrupt-artifact"]
        assert report.corrupt

    def test_truncation_detected(self, tmp_path):
        root = self.managed(tmp_path)
        data = (root / "b.json").read_bytes()
        (root / "b.json").write_bytes(data[: len(data) // 2])
        report = verify_tree(root)
        assert [f.kind for f in report.findings] == ["corrupt-artifact"]

    def test_missing_artifact_detected(self, tmp_path):
        root = self.managed(tmp_path)
        (root / "a.txt").unlink()
        report = verify_tree(root)
        assert [f.kind for f in report.findings] == ["missing-artifact"]

    def test_corrupt_artifact_quarantined_on_repair(self, tmp_path):
        root = self.managed(tmp_path)
        (root / "a.txt").write_bytes(b"rotten")
        report = verify_tree(root, repair=True)
        (finding,) = report.findings
        assert finding.action.startswith("quarantined")
        assert (root / "quarantine" / "a.txt").read_bytes() == b"rotten"
        assert not (root / "a.txt").exists()
        # The records no longer claim the artefact exists.
        assert verify_tree(root).clean

    def test_quarantine_dedups_names(self, tmp_path):
        root = self.managed(tmp_path)
        for _ in range(2):
            (root / "a.txt").write_bytes(b"rotten")
            write_sidecar(root / "b.json")  # keep b intact
            tracked(root / "a.txt.probe", "")  # force another walk target
            (root / "a.txt.probe").unlink()
            untrack(root / "a.txt.probe")
            write_manifest(root)
            # re-damage after rebuilding records
            (root / "a.txt").write_bytes(b"still rotten")
            verify_tree(root, repair=True)
            tracked(root / "a.txt", "regenerated")
            write_manifest(root)
        corpses = sorted(p.name for p in (root / "quarantine").iterdir())
        assert corpses == ["a.txt", "a.txt.1"]

    def test_stale_sidecar_arbitrated_to_record(self, tmp_path):
        """File and manifest agree, sidecar differs: the sidecar is the
        liar; repair rewrites it and the artefact is left alone."""
        root = self.managed(tmp_path)
        wrong = "0" * 64
        (root / "a.txt.sha256").write_text(f"{wrong}  a.txt\n")
        report = verify_tree(root, repair=True)
        (finding,) = report.findings
        assert finding.kind == "stale-sidecar"
        assert (root / "a.txt").exists()
        assert verify_tree(root).clean

    def test_corrupt_sidecar_rebuilt_on_repair(self, tmp_path):
        root = self.managed(tmp_path)
        (root / "a.txt.sha256").write_text("garbage, not a digest\n")
        report = verify_tree(root, repair=True)
        (finding,) = report.findings
        assert finding.kind == "corrupt-sidecar"
        assert verify_tree(root).clean

    def test_corrupt_manifest_rebuilt_from_sidecars(self, tmp_path):
        root = self.managed(tmp_path)
        (root / MANIFEST_NAME).write_text("{torn json")
        report = verify_tree(root, repair=True)
        assert any(f.kind == "corrupt-manifest" for f in report.findings)
        assert verify_tree(root).clean
        doc = json.loads((root / MANIFEST_NAME).read_text())
        assert set(doc["artifacts"]) == {"a.txt", "b.json"}

    def test_stale_manifest_arbitrated_to_record(self, tmp_path):
        """File and sidecar agree, manifest entry differs: the manifest
        is stale; repair rewrites it from the surviving records."""
        root = self.managed(tmp_path)
        doc = json.loads((root / MANIFEST_NAME).read_text())
        doc["artifacts"]["a.txt"]["sha256"] = "f" * 64
        (root / MANIFEST_NAME).write_text(json.dumps(doc))
        report = verify_tree(root, repair=True)
        assert any(f.kind == "stale-manifest" for f in report.findings)
        assert (root / "a.txt").exists()
        assert verify_tree(root).clean

    def test_journal_never_quarantined(self, tmp_path):
        root = tmp_path
        journal = tracked(root / "sweep.journal.jsonl", '{"schema": 1}\n')
        write_manifest(root)
        journal.write_text('{"schema": 1}\n{"unit": "extra"}\n')
        report = verify_tree(root, repair=True)
        assert all(f.kind == "stale-sidecar" for f in report.findings)
        assert journal.exists()
        assert verify_tree(root).clean


class TestTreeFingerprint:
    def test_excludes_volatile_and_quarantine(self, tmp_path):
        tracked(tmp_path / "a.txt", "A")
        tracked(tmp_path / "journal.jsonl", "volatile\n")
        (tmp_path / "quarantine").mkdir()
        (tmp_path / "quarantine" / "corpse.txt").write_text("dead")
        (tmp_path / "half.tmp").write_text("in flight")
        write_manifest(tmp_path)
        fp = tree_fingerprint(tmp_path)
        assert set(fp) == {"a.txt", "a.txt.sha256", "MANIFEST.json"}

    def test_identical_runs_fingerprint_identically(self, tmp_path, fake_experiments):
        ids, _ = fake_experiments
        write_report(tmp_path / "one", ids=ids)
        write_report(tmp_path / "two", ids=ids)
        assert tree_fingerprint(tmp_path / "one") == tree_fingerprint(tmp_path / "two")


class TestRepair:
    def test_report_corruption_repaired_via_recipe(self, tmp_path, fake_experiments):
        ids, calls = fake_experiments
        out = tmp_path / "report"
        write_report(out, ids=ids)
        assert json.loads((out / RUN_METADATA_NAME).read_text())["kind"] == "report"
        (out / "unitA.json").write_bytes(b'{"schema": 1, "tampered": true}')

        outcome = verify_and_repair(out)
        assert outcome.clean
        assert outcome.reran == [out]
        assert calls["unitA"] == 2  # regenerated
        assert calls["unitB"] == 1  # restored from journal, not re-run
        assert verify_tree(out).clean

    def test_sweep_corruption_repaired_via_recipe(self, tmp_path):
        out = tmp_path / "sweep"
        template = SystemConfig(l1_bytes=kb(4))
        _, points = run_sweep_dir(out, "gcc1", template, scale=0.02)
        original = (out / "sweep.tsv").read_bytes()
        (out / "sweep.tsv").write_bytes(original[:10])

        outcome = verify_and_repair(out)
        assert outcome.clean
        assert (out / "sweep.tsv").read_bytes() == original
        assert (out / "quarantine" / "sweep.tsv").read_bytes() == original[:10]

    def test_directory_without_recipe_is_skipped(self, tmp_path):
        tracked(tmp_path / "orphan.txt", "no recipe here")
        write_manifest(tmp_path)
        (tmp_path / "orphan.txt").write_bytes(b"rot")
        outcome = verify_and_repair(tmp_path)
        assert not outcome.clean
        assert outcome.skipped and "RUN.json" in outcome.skipped[0]

    def test_unknown_recipe_kind_rejected(self, tmp_path):
        write_text_atomic(
            tmp_path / RUN_METADATA_NAME,
            '{"run": 1, "kind": "mystery"}\n',
            track=True,
        )
        with pytest.raises(IntegrityError):
            rerun_directory(tmp_path)

    def test_rerun_skips_when_artifacts_intact(self, tmp_path, fake_experiments):
        ids, calls = fake_experiments
        out = tmp_path / "report"
        write_report(out, ids=ids)
        rerun_directory(out)
        assert calls == {"unitA": 1, "unitB": 1}  # journal resume, no recompute


class TestVerifyCli:
    def test_exit_codes_and_repair(self, tmp_path, fake_experiments, capsys):
        ids, _ = fake_experiments
        out = tmp_path / "report"
        write_report(out, ids=ids)
        assert main(["verify", str(out)]) == 0
        assert "clean" in capsys.readouterr().out

        (out / "unitA.json").write_bytes(b"rot")
        assert main(["verify", str(out)]) == 1
        assert "corrupt-artifact" in capsys.readouterr().out

        assert main(["verify", str(out), "--repair"]) == 0
        assert main(["verify", str(out)]) == 0

    def test_json_format(self, tmp_path, fake_experiments, capsys):
        ids, _ = fake_experiments
        out = tmp_path / "report"
        write_report(out, ids=ids)
        assert main(["verify", str(out), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["n_artifacts"] > 0
