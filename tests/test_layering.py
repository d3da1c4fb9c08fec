"""Import layering: each CLI command loads only the layers it runs.

A cold ``repro eval`` is the reproduction's unit of work, and most of
its wall time used to be interpreter start-up spent importing the lint,
serve, chaos, runner and telemetry layers it never calls.  These checks
pin the layering down deterministically: each runs in a fresh
interpreter and inspects ``sys.modules`` afterwards, so a stray
top-level import fails here instead of showing up as a slower
benchmark (DESIGN.md §7).  Two static checks read the source instead:
no program module imports the ``repro.cache.reference`` test oracle,
and ``repro.serve`` keeps no attempt loop or journal writer of its own.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Sequence, Set

import pytest

from conftest import REPO_ROOT, fresh_json

SRC = REPO_ROOT / "src"

#: A test oracle kept in the package for the tests; the program never runs it.
TEST_ORACLE = "repro.cache.reference"

#: Layers no command needs merely to parse its arguments.
NOT_ON_IMPORT = (
    "repro.analysis",
    "repro.serve",
    "repro.runner",
    "repro.obs",
    "repro.study.experiments",
    "repro.study.chaos",
    "asyncio",
    TEST_ORACLE,
)

#: Layers a single-point evaluation never calls.
NOT_ON_EVAL = (
    "repro.runner",
    "repro.obs",
    "repro.serve",
    "repro.analysis",
    "repro.study.experiments",
    TEST_ORACLE,
)

#: (code run in a fresh interpreter, modules it must load, layers it must not).
CASES = {
    "import-cli": ("import repro.cli", ("repro.cli",), NOT_ON_IMPORT),
    "eval": (
        "from repro.cli import main\n"
        "assert main(['eval', '--scale', '0.02', '--l1-kb', '4', '--l2-kb', '32']) == 0",
        ("repro.core.evaluate", "repro.cache.hierarchy", "repro.timing"),
        NOT_ON_EVAL,
    ),
    "model-facades": (
        "import repro, repro.core, repro.study\n"
        "from repro.core import evaluate, SystemConfig",
        ("repro.core.evaluate", "repro.study.registry"),
        NOT_ON_EVAL,
    ),
}


def offenders(modules: List[str], forbidden: Sequence[str]) -> List[str]:
    """Loaded modules that are, or live under, a forbidden package."""
    return [
        name
        for name in modules
        if any(name == root or name.startswith(root + ".") for root in forbidden)
    ]


@pytest.mark.parametrize("case", sorted(CASES))
def test_loads_only_its_own_layers(case, tmp_path):
    code, needed, forbidden = CASES[case]
    modules = fresh_json(
        code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))", tmp_path
    )
    # The code really loaded the layers it runs...
    assert [name for name in needed if name not in modules] == []
    # ...and nothing else.
    assert offenders(modules, forbidden) == []


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_modules(path: Path) -> Set[str]:
    """Absolute names of every module (or module attribute) ``path`` imports."""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    names: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_no_program_module_imports_the_test_oracle():
    importers = [
        _module_name(path)
        for path in sorted((SRC / "repro").rglob("*.py"))
        if _module_name(path) != TEST_ORACLE
        and offenders(sorted(imported_modules(path)), (TEST_ORACLE,))
    ]
    assert importers == []


#: Runner machinery a served point reaches only through ``execute_task``
#: and ``record_outcome``: serve keeps no attempt loop or journal writer.
RUNNER_ONLY = {"before_unit", "unit_scope", "unit_timeout"}


def test_serve_keeps_no_attempt_loop_or_journal_writer():
    found = []
    for path in sorted((SRC / "repro" / "serve").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = None
            if isinstance(node, ast.Name) and node.id in RUNNER_ONLY:
                name = node.id
            elif isinstance(node, ast.Attribute):
                if node.attr in RUNNER_ONLY:
                    name = node.attr
                elif node.attr == "record" and ast.unparse(node.value).endswith(
                    "journal"
                ):
                    name = "journal.record"
            if name is not None:
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []
