"""Import layering: each CLI command loads only the layers it runs.

A cold ``repro eval`` is the reproduction's unit of work, and most of
its wall time used to be interpreter start-up spent importing the lint,
serve, chaos, runner and telemetry layers it never calls.  These checks
pin the layering down deterministically: each runs in a fresh
interpreter and inspects ``sys.modules`` afterwards, so a stray
top-level import fails here instead of showing up as a slower
benchmark (DESIGN.md §7).
"""

from __future__ import annotations

from typing import List, Sequence

import pytest

from conftest import fresh_json

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
