"""Whole-program analysis: call graph, taint, the program rules, cache."""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import lint_paths
from repro.analysis.cache import LintCache, ruleset_key
from repro.analysis.program import SUMMARY_SCHEMA, link_program, summarize_source
from repro.errors import LintError

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint" / "program"
PROGRAM_RULES = ("REP007", "REP009")


def build(files):
    """Link a program from {path: source} inline fixtures."""
    summaries = [
        summarize_source(source, path) for path, source in files.items()
    ]
    return link_program(summaries)


# ---------------------------------------------------------------------------
# Rule fixtures: one true positive, one avoided false positive, one
# documented suppression per interprocedural rule.


@pytest.mark.parametrize("rule", PROGRAM_RULES)
class TestProgramRuleFixtures:
    def test_fires_on_violations(self, rule):
        report = lint_paths(
            [FIXTURES / rule.lower() / "bad"], select=[rule], program=True
        )
        assert report.findings
        assert all(f.rule == rule for f in report.findings)
        assert all(f.line > 0 and f.col > 0 for f in report.findings)
        # Interprocedural findings carry the witness chain.
        assert any("->" in f.message or "repro." in f.message
                   for f in report.findings)

    def test_silent_on_fixed_form(self, rule):
        report = lint_paths(
            [FIXTURES / rule.lower() / "good"], select=[rule], program=True
        )
        assert report.clean

    def test_suppressed_with_reason(self, rule):
        # REP000 active too: a used program-rule suppression must not
        # be reported as unused by either audit.
        report = lint_paths(
            [FIXTURES / rule.lower() / "suppressed"],
            select=[rule, "REP000"],
            program=True,
        )
        assert report.clean
        assert report.suppressed
        for finding in report.suppressed:
            assert finding.rule == rule
            assert finding.suppression_reason


class TestBlockingSinks:
    def test_pathlib_metadata_calls_block(self):
        report = lint_paths(
            [FIXTURES / "rep007" / "bad"], select=["REP007"], program=True
        )
        messages = [f.message for f in report.findings if f.path.endswith("serve/store.py")]
        assert len(messages) == 2
        assert any(m.startswith("blocking .exists() inside async is_memoized") for m in messages)
        assert any("entry_size() called from async size" in m and ".stat()" in m for m in messages)


class TestProgramSuppressionAudit:
    def test_unused_program_suppression_reported(self, tmp_path):
        tree = tmp_path / "src" / "repro" / "serve"
        tree.mkdir(parents=True)
        (tree / "app.py").write_text(
            "async def handle(x):\n"
            "    return x  # repro: lint-ok[REP007] nothing blocks here\n"
        )
        report = lint_paths(
            [tmp_path / "src"], select=["REP007", "REP000"], program=True
        )
        assert [f.rule for f in report.findings] == ["REP000"]
        assert "masks nothing" in report.findings[0].message

    def test_program_suppression_not_audited_without_program(self, tmp_path):
        # The per-file phase must not judge a REP007 suppression it
        # cannot evaluate: without --program the suppression is neither
        # used nor reported unused.
        tree = tmp_path / "src" / "repro" / "serve"
        tree.mkdir(parents=True)
        (tree / "app.py").write_text(
            "async def handle(x):\n"
            "    return x  # repro: lint-ok[REP007] judged only by the program phase\n"
        )
        report = lint_paths([tmp_path / "src"], select=["REP000"])
        assert report.clean


class TestEngineContract:
    def test_program_rule_requires_program_flag(self, tmp_path):
        target = tmp_path / "x.py"
        target.write_text("x = 1\n")
        with pytest.raises(LintError) as excinfo:
            lint_paths([target], select=["REP007"])
        assert "--program" in str(excinfo.value)

    def test_program_rules_skipped_by_default(self):
        # Full rule set, no --program: the bad trees' violations are
        # interprocedural only, so nothing fires.
        report = lint_paths(
            [FIXTURES / "rep007" / "bad"], select=["REP007"], program=True
        )
        assert report.findings
        silent = lint_paths([FIXTURES / "rep007" / "bad"], ignore=["REP001"])
        assert not [f for f in silent.findings if f.rule in PROGRAM_RULES]

    def test_syntax_error_in_program_phase_is_lint_error(self, tmp_path):
        tree = tmp_path / "src" / "repro"
        tree.mkdir(parents=True)
        (tree / "broken.py").write_text("def oops(:\n")
        with pytest.raises(LintError) as excinfo:
            lint_paths([tmp_path / "src"], select=["REP007"], program=True)
        assert "broken.py" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Call-graph edge cases: conservative, never false-"safe".


class TestCallGraphEdgeCases:
    def test_decorated_function_still_resolves(self):
        program = build({
            "src/repro/serve/app.py": (
                "from . import util\n"
                "async def handle(x):\n"
                "    return util.slow(x)\n"
            ),
            "src/repro/serve/util.py": (
                "import functools, time\n"
                "def logged(fn):\n"
                "    return fn\n"
                "@logged\n"
                "def slow(x):\n"
                "    time.sleep(1)\n"
                "    return x\n"
            ),
        })
        handler = program.functions["repro.serve.app:handle"]
        (call,) = [c for c in handler.calls if c.kind == "call"]
        assert call.target == "repro.serve.util:slow"
        node = program.functions["repro.serve.util:slow"]
        assert "logged" in node.decorators

    def test_method_resolution_through_self(self):
        program = build({
            "src/repro/serve/app.py": (
                "from .memo import MemoStore\n"
                "class App:\n"
                "    def __init__(self):\n"
                "        self.memo = MemoStore()\n"
                "    def lookup(self, key):\n"
                "        return self.memo.load(key)\n"
            ),
            "src/repro/serve/memo.py": (
                "class MemoStore:\n"
                "    def load(self, key):\n"
                "        return None\n"
            ),
        })
        lookup = program.functions["repro.serve.app:App.lookup"]
        (call,) = [c for c in lookup.calls if c.kind == "call"]
        assert call.target == "repro.serve.memo:MemoStore.load"

    def test_reexported_name_chases_to_definition(self):
        program = build({
            "src/repro/runner/__init__.py": (
                "from .atomic import write_text_atomic\n"
            ),
            "src/repro/runner/atomic.py": (
                "def write_text_atomic(path, text):\n"
                "    return None\n"
            ),
            "src/repro/study/save.py": (
                "from repro.runner import write_text_atomic\n"
                "def save(path, text):\n"
                "    write_text_atomic(path, text)\n"
            ),
        })
        save = program.functions["repro.study.save:save"]
        (call,) = [c for c in save.calls if c.kind == "call"]
        assert call.target == "repro.runner.atomic:write_text_atomic"

    def test_dynamic_getattr_degrades_to_unknown(self):
        program = build({
            "src/repro/serve/app.py": (
                "from . import util\n"
                "def dispatch(name, x):\n"
                "    fn = getattr(util, name)\n"
                "    return fn(x)\n"
            ),
            "src/repro/serve/util.py": "def a(x):\n    return x\n",
        })
        dispatch = program.functions["repro.serve.app:dispatch"]
        targets = {
            (c.raw, c.target_kind) for c in dispatch.calls if c.kind == "call"
        }
        # getattr itself is external; fn(x) must stay unknown — an
        # unresolved callee is "not proven", never "safe".
        assert ("fn", "unknown") in targets

    def test_partial_argument_is_traversed_not_invoked(self):
        program = build({
            "src/repro/study/driver.py": (
                "import functools\n"
                "from . import bodies\n"
                "def launch(pool):\n"
                "    task = functools.partial(bodies.work, 1)\n"
                "    return pool.submit(task)\n"
            ),
            "src/repro/study/bodies.py": "def work(n):\n    return n\n",
        })
        launch = program.functions["repro.study.driver:launch"]
        kinds = {(c.raw, c.kind) for c in launch.calls}
        # bodies.work is referenced (reachability must see it) but not
        # called at this site.
        assert ("bodies.work", "ref") in kinds
        assert ("bodies.work", "call") not in kinds

    def test_collision_between_module_names_is_rekeyed(self):
        # Two files mapping to the same module name must not silently
        # merge their symbols.
        program = build({
            "a/src/repro/serve/app.py": "def one():\n    return 1\n",
            "b/src/repro/serve/app.py": "def two():\n    return 2\n",
        })
        names = {node.name for node in program.functions.values()}
        assert names == {"one", "two"}


class TestSummaryRoundTrip:
    def test_to_record_round_trips_through_json(self):
        source = (
            "import time\n"
            "from . import util\n"
            "class App:\n"
            "    def __init__(self):\n"
            "        self.x = util.Helper()\n"
            "    async def handle(self, req):\n"
            "        return self.x.go(req)\n"
            "def stamp():\n"
            "    return time.time()  # repro: lint-ok[REP002] fixture\n"
        )
        summary = summarize_source(source, "src/repro/serve/app.py")
        record = json.loads(json.dumps(summary.to_record()))
        restored = type(summary).from_record(record)
        assert restored == summary


# ---------------------------------------------------------------------------
# Seeded injection: the CI-style self-check catches a planted violation.


class TestSeededInjection:
    def test_injected_blocking_call_is_caught(self, tmp_path):
        src = tmp_path / "src"
        shutil.copytree(REPO_ROOT / "src", src)
        app = src / "repro" / "serve" / "app.py"
        injected = (
            "\n\n"
            "def _injected_helper_two():\n"
            "    import time\n"
            "    time.sleep(0.001)\n"
            "\n\n"
            "def _injected_helper_one():\n"
            "    _injected_helper_two()\n"
            "\n\n"
            "async def _injected_handler():\n"
            "    _injected_helper_one()\n"
        )
        app.write_text(app.read_text() + injected)
        report = lint_paths([src], select=["REP007"], program=True)
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule == "REP007"
        assert finding.path.endswith("serve/app.py")
        assert "_injected_helper_one" in finding.message

    def test_pristine_tree_is_program_clean(self):
        targets = [
            REPO_ROOT / "src",
            REPO_ROOT / "benchmarks",
            REPO_ROOT / "examples",
        ]
        report = lint_paths(targets, program=True)
        assert report.clean, "\n".join(
            f"{f.path}:{f.line} {f.rule} {f.message}" for f in report.findings
        )
        for finding in report.suppressed:
            assert finding.suppression_reason


# ---------------------------------------------------------------------------
# Content-hash cache.


class TestLintCache:
    def _tree(self, tmp_path):
        tree = tmp_path / "src" / "repro" / "study"
        tree.mkdir(parents=True)
        (tree / "a.py").write_text("def a():\n    return 1\n")
        (tree / "b.py").write_text(
            'def b(path):\n    path.write_text("x")\n'
        )
        return tmp_path / "src"

    def test_warm_run_hits_and_matches_cold(self, tmp_path):
        target = self._tree(tmp_path)
        cache = tmp_path / "cache.json"
        cold = lint_paths([target], cache=cache, program=True)
        assert cold.n_cached == 0
        assert cache.exists()
        warm = lint_paths([target], cache=cache, program=True)
        assert warm.n_cached == warm.n_files == 2
        assert warm.findings == cold.findings
        assert warm.suppressed == cold.suppressed

    def test_edit_invalidates_only_that_entry(self, tmp_path):
        target = self._tree(tmp_path)
        cache = tmp_path / "cache.json"
        lint_paths([target], cache=cache)
        (target / "repro" / "study" / "a.py").write_text(
            "def a():\n    return 2\n"
        )
        warm = lint_paths([target], cache=cache)
        assert warm.n_cached == 1  # b.py still cached, a.py re-linted

    def test_ruleset_change_discards_cache(self, tmp_path):
        target = self._tree(tmp_path)
        cache = tmp_path / "cache.json"
        lint_paths([target], cache=cache, select=["REP001"])
        warm = lint_paths([target], cache=cache, select=["REP002"])
        assert warm.n_cached == 0

    def test_corrupt_cache_is_a_miss_not_an_error(self, tmp_path):
        target = self._tree(tmp_path)
        cache = tmp_path / "cache.json"
        cache.write_text("{ not json")
        report = lint_paths([target], cache=cache)
        assert report.n_cached == 0
        assert cache.exists()  # rewritten atomically afterwards

    def test_summary_of_another_schema_is_a_miss(self, tmp_path):
        # A cache written before the summary record changed must be
        # re-summarized, never read with the new field layout.
        target = self._tree(tmp_path)
        cache = tmp_path / "cache.json"
        lint_paths([target], cache=cache, program=True)
        payload = json.loads(cache.read_text())
        for entry in payload["files"].values():
            entry["summary"]["schema"] = SUMMARY_SCHEMA - 1
        cache.write_text(json.dumps(payload))
        loaded = LintCache.load(cache, payload["key"])
        assert len(loaded.entries) == 2
        for file, entry in payload["files"].items():
            assert loaded.lookup_summary(file, entry["sha256"]) is None

    def test_ruleset_key_is_order_insensitive(self):
        assert ruleset_key("1.0.0", ["REP002", "REP001"]) == ruleset_key(
            "1.0.0", ["REP001", "REP002"]
        )
        assert ruleset_key("1.0.0", ["REP001"]) != ruleset_key(
            "1.0.1", ["REP001"]
        )

    def test_loaded_cache_rejects_wrong_key(self, tmp_path):
        path = tmp_path / "cache.json"
        first = LintCache.load(path, "key-a")
        first.store_findings("x.py", "sha", [], [])
        first.save()
        reloaded = LintCache.load(path, "key-b")
        assert not reloaded.entries
