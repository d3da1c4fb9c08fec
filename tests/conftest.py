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
from hypothesis import strategies as st

from repro.cache.directmap import NO_VICTIM
from repro.cache.hierarchy import MissStream
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


def make_miss_stream(lines, victims, is_instruction=None, times=None) -> MissStream:
    """A merged L1 miss stream from its columns (all instructions, one per
    cycle, unless given; ``times`` must not decrease)."""
    n = len(lines)
    is_instruction = np.ones(n, bool) if is_instruction is None else np.array(is_instruction, bool)
    times = np.arange(n, dtype=np.int64) if times is None else np.array(times, dtype=np.int64)
    n_instructions = int(np.count_nonzero(is_instruction))
    return MissStream(
        times=times,
        lines=np.array(lines, dtype=np.int64),
        victims=np.array(victims, dtype=np.int64),
        is_instruction=is_instruction,
        l1i_misses=n_instructions,
        l1d_misses=n - n_instructions,
        n_instructions=int(times[-1]) + 1 if n else 0,
        n_data_refs=n - n_instructions,
    )


@st.composite
def miss_streams(draw, max_line: int = 12) -> MissStream:
    """Random merged L1 miss streams for differentials of the stages below.

    Each line either follows the one before it (so sequential runs occur)
    or is drawn from ``[0, max_line]``, as are the victims, so lines and
    victims repeat; victims include ``NO_VICTIM``; a stream is all data,
    all instructions or mixed.
    """
    steps = draw(st.lists(st.one_of(st.none(), st.integers(0, max_line)), max_size=80))
    n = len(steps)
    lines, line = [], 0
    for step in steps:
        line = line + 1 if step is None else step
        lines.append(line)
    victims = draw(
        st.lists(st.one_of(st.just(NO_VICTIM), st.integers(0, max_line)), min_size=n, max_size=n)
    )
    kind = draw(st.sampled_from(["mixed", "data", "instructions"]))
    if kind == "mixed":
        is_instruction = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        is_instruction = [kind == "instructions"] * n
    gaps = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return make_miss_stream(lines, victims, is_instruction, np.cumsum(gaps, dtype=np.int64))


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
