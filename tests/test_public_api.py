"""Public API surface: everything advertised must resolve and work."""

import importlib
import multiprocessing

import pytest

from conftest import fresh_json, run_fresh
import repro


class TestTopLevelSurface:
    def test_all_symbols_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_docstring_quickstart_runs(self):
        """The module docstring promises this snippet works."""
        config = repro.SystemConfig(l1_bytes=repro.kb(8), l2_bytes=repro.kb(64))
        perf = repro.evaluate(config, "gcc1", scale=0.02)
        assert perf.tpi_ns > 0

    @pytest.mark.parametrize(
        "module",
        [
            "repro.traces",
            "repro.traces.io",
            "repro.cache",
            "repro.timing",
            "repro.area",
            "repro.power",
            "repro.core",
            "repro.ext",
            "repro.study",
            "repro.study.plot",
            "repro.study.sensitivity",
            "repro.cli",
        ],
    )
    def test_subpackages_importable_with_docstrings(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__) > 40

    def test_subpackage_alls_resolve(self):
        for module_name in ("repro.traces", "repro.cache", "repro.ext", "repro.power"):
            mod = importlib.import_module(module_name)
            for name in mod.__all__:
                assert hasattr(mod, name), f"{module_name}.{name}"


class TestWorkloadNamesStable:
    def test_the_seven_benchmarks(self):
        assert repro.workload_names() == [
            "gcc1",
            "espresso",
            "fpppp",
            "doduc",
            "li",
            "eqntott",
            "tomcatv",
        ]


class TestLazyFacades:
    """The package facades resolve names on first access (PEP 562)."""

    def test_star_import_binds_every_public_name(self, tmp_path):
        names, listed, public = fresh_json(
            "import json, repro\n"
            "scope = {}\n"
            "exec('from repro import *', scope)\n"
            "print(json.dumps([sorted(scope), dir(repro), repro.__all__]))",
            tmp_path,
        )
        assert set(public) <= set(names)
        assert set(public) <= set(listed)

    def test_core_facade_resolves_explorer_names(self):
        import repro.core
        from repro.core import explorer

        for name in ("design_space", "standard_l1_sizes", "standard_l2_sizes", "sweep"):
            assert getattr(repro.core, name) is getattr(explorer, name)
            assert name in dir(repro.core)

    @pytest.mark.parametrize("module", ["repro", "repro.core"])
    def test_unknown_name_is_an_attribute_error(self, module):
        with pytest.raises(AttributeError, match="no_such_name"):
            importlib.import_module(module).no_such_name

    def test_experiment_ids_register_on_first_call(self, tmp_path):
        from repro.study import experiment_ids

        ids = fresh_json(
            "import json, repro.study\n"
            "print(json.dumps(repro.study.experiment_ids()))",
            tmp_path,
        )
        assert ids == experiment_ids()
        assert len(ids) == 37

    def test_unknown_experiment_names_the_known_ids(self, tmp_path):
        message = fresh_json(
            "import json\n"
            "from repro.errors import ExperimentError\n"
            "from repro.study import get_experiment\n"
            "try:\n"
            "    get_experiment('nope')\n"
            "except ExperimentError as error:\n"
            "    print(json.dumps(str(error)))",
            tmp_path,
        )
        assert message.startswith("unknown experiment 'nope'; known: ext1, ")
        assert "fig26" in message and message.endswith("table1")


class TestLazyRegistrationInWorkers:
    IDS = "table1,fig21,ext4"

    def test_parallel_report_matches_serial(self, tmp_path):
        from repro.runner.integrity import tree_fingerprint

        trees = {}
        for label, extra in (("serial", []), ("pool", ["--workers", "2"])):
            out = tmp_path / label
            done = run_fresh(
                "-m", "repro", "report", "--out", str(out), "--ids", self.IDS,
                "--scale", "0.02", *extra, cwd=tmp_path,
            )
            assert done.returncode == 0, done.stderr
            trees[label] = tree_fingerprint(out)
        assert trees["serial"] == trees["pool"]
        assert "fig21.json" in trees["serial"]

    def test_spawned_worker_registers_on_first_lookup(self, tmp_path):
        """A spawned worker inherits no registry: its first lookup fills it."""
        from repro.runner import RunUnit
        from repro.runner.pool import Runner
        from repro.study.resultstore import _ReportRun

        runner = Runner(workers=1, mp_context=multiprocessing.get_context("spawn"))
        unit = RunUnit("fig21", {"id": "fig21"}, _ReportRun(str(tmp_path), "fig21", None))
        result = runner.run([unit])
        assert result.failed == []
        assert (tmp_path / "fig21.json").exists()
