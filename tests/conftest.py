"""Shared fixtures and helpers for the test suite.

Traces are expensive, so fixtures are session-scoped and the library's
own memoisation (the trace store, the L1 miss-stream cache) is relied
on heavily: tests asking for the same (workload, scale) pair share one
generated trace.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.traces.address import Trace
from repro.traces.store import get_trace

#: Tiny scale for correctness tests (2 % of the base instruction count).
TINY = 0.02

#: Moderate scale for qualitative shape checks.
MEDIUM = 0.2

#: Full scale for the calibration anchors.
FULL = 1.0

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_random_trace(
    seed: int,
    n_instructions: int = 400,
    n_lines: int = 64,
    data_ratio: float = 0.4,
    name: str = "random",
) -> Trace:
    """A small uniformly-random trace for oracle comparisons.

    Uniform random addresses are the adversarial case for the
    vectorised simulators (no locality structure to hide behind).
    """
    rng = np.random.default_rng(seed)
    i_addrs = rng.integers(0, n_lines, size=n_instructions) * 16
    mask = rng.random(n_instructions) < data_ratio
    d_times = np.nonzero(mask)[0]
    d_addrs = rng.integers(0, n_lines, size=len(d_times)) * 16 + (1 << 40)
    return Trace(name, i_addrs, d_addrs, d_times)


def run_fresh(*argv: str, cwd: Path) -> subprocess.CompletedProcess:
    """``python argv...`` in a fresh interpreter with nothing imported yet."""
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def fresh_json(code: str, cwd: Path):
    """The JSON value ``code`` prints last, run in a fresh interpreter."""
    done = run_fresh("-c", code, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="session")
def gcc1_tiny() -> Trace:
    return get_trace("gcc1", TINY)


@pytest.fixture(scope="session")
def li_tiny() -> Trace:
    return get_trace("li", TINY)


@pytest.fixture(scope="session")
def gcc1_full() -> Trace:
    return get_trace("gcc1", FULL)
