"""Command-line interface."""

import os
import shutil

import pytest
from conftest import inject_eio

from repro.cli import main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "fig26" in out and "table1" in out


class TestRun:
    def test_runs_scale_free_experiment(self, capsys):
        assert main(["run", "fig21"]) == 0
        out = capsys.readouterr().out
        assert "Exclusion vs. inclusion" in out

    def test_runs_trace_experiment_at_scale(self, capsys):
        assert main(["run", "table1", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "tomcatv" in out

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown experiment" in err

    def test_debug_flag_raises(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            main(["--debug", "run", "fig99"])


class TestEval:
    def test_eval_two_level(self, capsys):
        code = main(
            [
                "eval",
                "--workload",
                "espresso",
                "--l1-kb",
                "4",
                "--l2-kb",
                "32",
                "--exclusive",
                "--scale",
                "0.02",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "exclusive" in out
        assert "TPI" in out

    def test_eval_single_level_dual_ported(self, capsys):
        code = main(
            ["eval", "--l1-kb", "8", "--dual-ported", "--scale", "0.02"]
        )
        assert code == 0
        assert "2-port" in capsys.readouterr().out


class TestEnvelope:
    def test_envelope_output(self, capsys):
        code = main(
            ["envelope", "--workload", "espresso", "--scale", "0.02"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1-level" in out
        assert "config" in out


class TestWorkloads:
    def test_workload_table(self, capsys):
        assert main(["workloads", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        for name in ("gcc1", "espresso", "fpppp", "tomcatv"):
            assert name in out


class TestErrorHandling:
    def test_invalid_geometry_exits_2(self, capsys):
        assert main(["eval", "--l1-kb", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_invalid_geometry_debug_raises(self):
        from repro.errors import GeometryError

        with pytest.raises(GeometryError):
            main(["--debug", "eval", "--l1-kb", "3"])

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["eval", "--workload", "nope", "--scale", "0.02"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_prints_table(self, capsys, tmp_path):
        code = main(
            [
                "sweep",
                "--workload",
                "espresso",
                "--scale",
                "0.02",
                "--out",
                str(tmp_path / "sw"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "config" in out and "tpi_ns" in out
        assert (tmp_path / "sw" / "sweep.tsv").exists()
        assert (tmp_path / "sw" / "sweep.journal.jsonl").exists()

    def test_sweep_resume_reuses_journal(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--workload",
            "espresso",
            "--scale",
            "0.02",
            "--out",
            str(tmp_path / "sw"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first


class TestReportFlags:
    def test_keep_going_clean_run_exits_0(self, capsys, tmp_path):
        out = tmp_path / "r"
        code = main(
            ["report", "--out", str(out), "--ids", "fig21", "--keep-going"]
        )
        assert code == 0
        assert "wrote 1 experiments" in capsys.readouterr().out
        assert not (out / "FAILURES.json").exists()

    def test_resume_skips_completed(self, capsys, tmp_path):
        out = tmp_path / "r"
        assert main(["report", "--out", str(out), "--ids", "fig21"]) == 0
        capsys.readouterr()
        assert main(
            ["report", "--out", str(out), "--ids", "fig21", "--resume"]
        ) == 0
        assert "wrote 1 experiments" in capsys.readouterr().out


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0


class TestLint:
    BAD = 'from pathlib import Path\n\n\ndef save(path: Path, text: str) -> None:\n    path.write_text(text)\n'
    GOOD = (
        "from repro.runner import write_text_atomic\n\n\n"
        "def save(path, text):\n    write_text_atomic(path, text, track=True)\n"
    )

    def _package_file(self, tmp_path, name, source):
        target = tmp_path / "src" / "repro" / "study"
        target.mkdir(parents=True, exist_ok=True)
        (target / name).write_text(source)
        return target / name

    def test_clean_tree_exits_0(self, capsys, tmp_path):
        path = self._package_file(tmp_path, "clean.py", self.GOOD)
        assert main(["lint", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_1(self, capsys, tmp_path):
        path = self._package_file(tmp_path, "dirty.py", self.BAD)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "write_text" in out

    def test_missing_target_exits_2(self, capsys, tmp_path):
        assert main(["lint", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_unknown_rule_filter_exits_2(self, capsys, tmp_path):
        path = self._package_file(tmp_path, "clean.py", self.GOOD)
        assert main(["lint", str(path), "--select", "REP999"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_json_format(self, capsys, tmp_path):
        import json as json_module

        path = self._package_file(tmp_path, "dirty.py", self.BAD)
        assert main(["lint", str(path), "--format", "json"]) == 1
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 3
        assert payload["version"]
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "REP001"

    def test_select_filters_rules(self, capsys, tmp_path):
        path = self._package_file(tmp_path, "dirty.py", self.BAD)
        # REP001 not selected: the write is invisible to REP003
        assert main(["lint", str(path), "--select", "REP003"]) == 0
        capsys.readouterr()

    def test_ignore_filters_rules(self, capsys, tmp_path):
        path = self._package_file(tmp_path, "dirty.py", self.BAD)
        assert main(["lint", str(path), "--ignore", "REP001"]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "REP000", "REP001", "REP002", "REP003", "REP006", "REP013",
        ):
            assert rule_id in out


class TestSweepDefaultOut:
    """Satellite: sweeping without --out gets a managed run directory."""

    def test_default_directory_is_deterministic_and_managed(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "--workload", "espresso", "--scale", "0.02"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sweep directory: " in out
        named = out.splitlines()[0].partition(": ")[2]
        run_dir = tmp_path / named
        assert run_dir.parent.name == "runs"
        assert run_dir.name.startswith("sweep-espresso-")
        # A managed run directory, not journal files scattered in cwd.
        assert (run_dir / "RUN.json").exists()
        assert (run_dir / "sweep.journal.jsonl").exists()
        assert not list(tmp_path.glob("*.journal.jsonl"))
        # Deterministic: the same sweep resumes the same directory.
        assert main(argv + ["--resume"]) == 0
        again = capsys.readouterr().out.splitlines()[0].partition(": ")[2]
        assert again == named
        assert len(list((tmp_path / "runs").iterdir())) == 1

    def test_different_sweeps_get_different_directories(self):
        from repro.core.config import SystemConfig
        from repro.core.explorer import default_sweep_dir

        template = SystemConfig(l1_bytes=1024)
        a = default_sweep_dir("espresso", template, 0.02)
        b = default_sweep_dir("gcc1", template, 0.02)
        c = default_sweep_dir("espresso", template, 0.05)
        assert len({a, b, c}) == 3


class TestVerifyCommand:
    """Satellite: verify on a missing/empty directory is a typed error."""

    def test_missing_directory_exits_2(self, capsys, tmp_path):
        assert main(["verify", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not a directory" in err

    def test_empty_directory_exits_2(self, capsys, tmp_path):
        assert main(["verify", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no integrity records" in err

    def test_missing_directory_debug_raises_typed(self, tmp_path):
        from repro.errors import IntegrityError

        with pytest.raises(IntegrityError):
            main(["--debug", "verify", str(tmp_path / "nope")])


class TestMetricsSpansCommands:
    """Satellite: every journalled run directory is inspectable."""

    @pytest.fixture(scope="class")
    def telemetry_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("runs") / "sweep"
        argv = [
            "sweep", "--workload", "espresso", "--scale", "0.01",
            "--out", str(out), "--telemetry",
        ]
        assert main(argv) == 0
        return out

    def test_metrics_renders_a_snapshot(self, capsys, telemetry_dir):
        assert main(["metrics", str(telemetry_dir)]) == 0
        out = capsys.readouterr().out
        assert "series (metrics)" in out
        assert "repro_units_total" in out
        assert "repro_refs_total" in out

    def test_metrics_json_format(self, capsys, telemetry_dir):
        import json

        assert main(["metrics", str(telemetry_dir), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["source"] == "metrics"
        names = {sample["name"] for sample in document["metrics"]}
        assert "repro_unit_duration_seconds" in names

    def test_spans_renders_the_tree(self, capsys, telemetry_dir):
        assert main(["spans", str(telemetry_dir), "--limit", "6"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# ")
        assert "unit " in out and "simulate" in out
        assert "more spans" in out

    def test_metrics_synthesises_from_a_plain_journal(self, capsys, tmp_path):
        out = tmp_path / "plain"
        argv = [
            "sweep", "--workload", "espresso", "--scale", "0.01",
            "--out", str(out),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["metrics", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "series (journal)" in rendered
        assert "repro_units_total" in rendered

    def test_spans_without_telemetry_exits_2(self, capsys, tmp_path):
        assert main(["spans", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--telemetry" in err

    def test_metrics_on_a_missing_directory_exits_2(self, capsys, tmp_path):
        assert main(["metrics", str(tmp_path / "nope")]) == 2
        assert "not a run directory" in capsys.readouterr().err


#: Each CLI I/O boundary: the argv (``{d}`` is the run directory, a copy
#: of a telemetry-recorded ``report`` of fig21), the audit event that
#: fails with EIO and the file name it fails on, and the files removed
#: from the copy first.
IO_BOUNDARIES = {
    "report-atomic-write": (["report", "--out", "{d}", "--ids", "fig21"], "open", ".tmp", ()),
    "report-atomic-rename": (
        ["report", "--out", "{d}", "--ids", "fig21"], "os.rename", ".tmp", ()
    ),
    "sweep-atomic-write": (
        ["sweep", "--workload", "espresso", "--scale", "0.01", "--out", "{d}"],
        "open",
        ".tmp",
        (),
    ),
    "verify-sidecar-read": (["verify", "{d}"], "open", ".sha256", ()),
    "report-resume-journal": (
        ["report", "--out", "{d}", "--ids", "fig21", "--resume"],
        "open",
        "journal.jsonl",
        (),
    ),
    "metrics-snapshot": (["metrics", "{d}"], "open", "METRICS.jsonl", ()),
    "metrics-journal": (["metrics", "{d}"], "open", "journal.jsonl", ("METRICS.jsonl",)),
    "spans": (["spans", "{d}"], "open", "SPANS.jsonl", ()),
}


class TestIOBoundaryFaults:
    """An I/O error under a CLI command is a typed ``error:`` with exit 2,
    never a traceback: an ``OSError(EIO)`` is injected at the file system
    call beneath each boundary the command crosses."""

    @pytest.fixture(scope="class")
    def recorded_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("runs") / "report"
        assert main(["report", "--out", str(out), "--ids", "fig21", "--telemetry"]) == 0
        return out

    @pytest.mark.parametrize("boundary", sorted(IO_BOUNDARIES))
    def test_eio_is_a_typed_error(self, boundary, recorded_run, tmp_path, capsys):
        argv, event, failing, removed = IO_BOUNDARIES[boundary]
        run_dir = tmp_path / "run"
        shutil.copytree(recorded_run, run_dir)
        for name in removed:
            (run_dir / name).unlink()
        capsys.readouterr()
        inside = str(run_dir) + os.sep
        with inject_eio(event, lambda path: path.startswith(inside) and path.endswith(failing)):
            code = main([arg.format(d=run_dir) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error:") and "input/output error" in err, err
        assert not list(run_dir.rglob("*.tmp"))
