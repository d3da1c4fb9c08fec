"""The exit rule: only the process entry point freezes the heap.

``repro.cli.run`` is what ``python -m repro`` calls: ``main()``, then
``gc.freeze()``, then ``sys.exit`` with main's code, so the interpreter's
exit-time collections skip a heap that dies with the process anyway
(DESIGN.md §7).  These checks pin the order, that ``main()`` run
in-process never freezes, that no other code in ``src/repro`` touches
the collector, and the assumption the freeze rests on: a command closes
every file it opens before ``main()`` returns, so nothing is left for a
finaliser to close at exit.
"""

from __future__ import annotations

import ast
import gc
import json
import warnings

import pytest

import repro.cli as cli
from conftest import REPO_ROOT, run_fresh
from repro.cli import main


@pytest.mark.parametrize("code", [0, 2, 75])
def test_run_freezes_after_main_then_exits_with_its_code(monkeypatch, code):
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or code)
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as stop:
        cli.run()
    assert calls == ["main", "freeze"]
    assert stop.value.code == code


def test_python_dash_m_exits_through_run(tmp_path):
    """Piped stdout arrives whole through the frozen exit, and the exit
    code is main's."""
    assert main(["report", "--out", str(tmp_path / "r"), "--ids", "table1", "--scale", "0.02"]) == 0
    done = run_fresh("-m", "repro", "verify", str(tmp_path / "r"), "--format", "json", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["clean"] is True
    missing = run_fresh("-m", "repro", "verify", str(tmp_path / "nope"), cwd=tmp_path)
    assert missing.returncode == 2


_COLLECTOR_CALLS = {"freeze", "disable", "set_threshold"}


def _collector_calls(tree: ast.Module):
    """(qualified scope, name) of each ``gc.freeze``/``disable``/``set_threshold``
    call, however ``gc`` or the function was imported."""
    modules = {"gc"}
    functions = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "gc"}
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            functions.update({a.asname or a.name: a.name for a in node.names})

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                func = child.func
                name = None
                if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in modules:
                    name = func.attr
                elif isinstance(func, ast.Name):
                    name = functions.get(func.id)
                if name in _COLLECTOR_CALLS:
                    yield scope, name
            yield from visit(child, inner)

    return list(visit(tree, ""))


def test_only_run_freezes_and_nothing_tunes_the_collector():
    src = REPO_ROOT / "src"
    found = []
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{rel}::{scope}: gc.{name}" for scope, name in _collector_calls(tree)]
    assert found == ["repro/cli.py::run: gc.freeze"]


def test_the_scan_sees_every_spelling():
    tree = ast.parse(
        "import gc as g\nfrom gc import disable as off\n"
        "def f():\n    g.set_threshold(0)\n"
        "class C:\n    def m(self):\n        off()\n        self.p.disable()\n"
    )
    assert _collector_calls(tree) == [("f", "set_threshold"), ("C.m", "disable")]


#: In-process commands whose every file must be closed when main returns.
COMMANDS = {
    "report": ["report", "--out", "{tmp}/r", "--ids", "table1,ext6", "--scale", "0.02"],
    "sweep-pooled": [
        "sweep", "--workload", "espresso", "--scale", "0.02", "--out", "{tmp}/sw",
        "--workers", "2",
    ],
    "eval": ["eval", "--scale", "0.02", "--l1-kb", "4", "--l2-kb", "32"],
    "verify": ["verify", "{tmp}/r"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_main_leaves_no_open_file_and_no_frozen_heap(command, tmp_path, capsys):
    if command == "verify":
        assert main([a.format(tmp=tmp_path) for a in COMMANDS["report"]]) == 0
    argv = [a.format(tmp=tmp_path) for a in COMMANDS[command]]
    frozen = gc.get_freeze_count()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(argv) == 0
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert gc.get_freeze_count() == frozen
