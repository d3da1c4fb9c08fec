"""Shared infrastructure for the gate benchmarks.

Each ``bench_*.py`` here measures one operational property (telemetry
overhead, serve load, integrity, parallel sweep) and gates
it; :func:`bench_record` writes its ``BENCH_<name>.json`` under
``benchmarks/output/`` with the :func:`bench_context` provenance block,
which ``benchmarks/suite/run.py`` also attaches to its results.

The paper's exhibits are not benchmarked here: their shapes are checked
by ``tests/test_exhibit_shapes.py``, their series are written by
``repro report``, and their wall time is traced by
``repro report --telemetry`` and read back with ``repro spans``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

import pytest

from repro.runner import write_text_atomic

_OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def output_dir() -> Path:
    _OUTPUT_DIR.mkdir(exist_ok=True)
    return _OUTPUT_DIR


def bench_context() -> dict:
    """Shared provenance block attached to every ``BENCH_*.json``.

    Machine and toolchain identity (python, platform, CPU count), the
    trace-scale environment knob, and the git commit — so a bench
    trajectory is comparable across machines and commits instead of a
    bare number with no provenance.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
        git_sha = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "trace_scale_env": os.environ.get("REPRO_TRACE_SCALE"),
        "git_sha": git_sha,
    }


@pytest.fixture
def bench_record(output_dir):
    """Write one ``BENCH_<name>.json`` with the shared context block."""

    def write(name: str, record: dict) -> dict:
        document = dict(record)
        document["context"] = bench_context()
        write_text_atomic(
            output_dir / name, json.dumps(document, indent=2) + "\n"
        )
        print()
        print(json.dumps(document, indent=2))
        return document

    return write

