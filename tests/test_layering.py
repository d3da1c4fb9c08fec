"""Import layering: each CLI command loads only the layers it runs.

A cold ``repro eval`` is the reproduction's unit of work, and most of
its wall time used to be interpreter start-up spent importing the lint,
serve, chaos, runner and telemetry layers it never calls.  These checks
pin the layering down deterministically: each runs in a fresh
interpreter and inspects ``sys.modules`` afterwards, so a stray
top-level import fails here instead of showing up as a slower
benchmark (DESIGN.md §7).  Two static checks read the source tree instead:
the package holds no test oracle (they live in ``tests/``), and
``repro.serve`` keeps no attempt loop or journal writer of its own.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Sequence

import pytest

from conftest import REPO_ROOT, fresh_json

SRC = REPO_ROOT / "src"

#: Layers no command needs merely to parse its arguments.
NOT_ON_IMPORT = (
    "repro.analysis",
    "repro.serve",
    "repro.runner",
    "repro.obs",
    "repro.study.experiments",
    "repro.study.chaos",
    "asyncio",
)

#: Layers a single-point evaluation never calls.
NOT_ON_EVAL = (
    "repro.runner",
    "repro.obs",
    "repro.serve",
    "repro.analysis",
    "repro.study.experiments",
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
    # The batch soak never loads the serve soak's server or event loop.
    "chaos": (
        "from repro.cli import main\n"
        "assert main(['chaos', '--out', 'soak', '--ids', 'table1', '--rounds', '0',"
        " '--scale', '0.02']) == 0",
        ("repro.study.chaos", "repro.study.repair"),
        ("repro.serve", "asyncio"),
    ),
    # A run without a pool loads neither the process pool nor the profiler.
    "serial-report": (
        "from repro.cli import main\n"
        "assert main(['report', '--out', 'r', '--ids', 'table1', '--scale', '0.02']) == 0",
        ("repro.runner", "repro.runner.pool"),
        ("multiprocessing", "concurrent.futures.process", "cProfile"),
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


def test_the_package_holds_no_test_oracle():
    # The slow reference simulators live in tests/cache_reference.py.
    oracles = [
        _module_name(path)
        for path in sorted((SRC / "repro").rglob("*.py"))
        if "reference" in path.stem
    ]
    assert oracles == []


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
