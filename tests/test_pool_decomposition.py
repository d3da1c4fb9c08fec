"""Cross-process equivalence of the L1-filter / L2-replay decomposition.

The pool backend computes the memoised L1 filter pass inside worker
processes (pre-warmed by the sweep initializer), which means a
:class:`~repro.cache.hierarchy.MissStream` produced in one process may
feed an L2 replay in another.  These property tests prove that split
changes nothing: a stream computed in a child process is bit-identical
to the locally computed one, and a hierarchy result assembled from it
matches both the in-process fast path and the reference oracle.

Uses hypothesis when available, otherwise (and additionally, for
deterministic CI coverage) a seeded randomised grid.
"""

import atexit
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import (
    DEFAULT_WARMUP_FRACTION,
    Policy,
    cache_stage,
    l1_miss_stream,
    replay_stages,
    simulate_hierarchy,
)
from repro.cache.reference import reference_simulate_hierarchy
from repro.cache.results import HierarchyStats
from repro.traces.address import Trace

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional extra
    HAVE_HYPOTHESIS = False

LINE_SIZE = 16

_CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)
_EXECUTOR = None


def child_executor() -> ProcessPoolExecutor:
    """A single shared one-worker pool (fresh process, own caches)."""
    global _EXECUTOR
    if _EXECUTOR is None:
        _EXECUTOR = ProcessPoolExecutor(max_workers=1, mp_context=_CTX)
        atexit.register(_EXECUTOR.shutdown)
    return _EXECUTOR


def _remote_l1_stream(trace: Trace, l1_bytes: int, line_size: int):
    """Child-process entry: run the L1 filter pass over a shipped trace."""
    return l1_miss_stream(trace, l1_bytes, line_size)


def make_trace(seed, n_instructions=300, n_lines=96, data_ratio=0.4):
    """A small uniformly-random trace (the adversarial no-locality case)."""
    rng = np.random.default_rng(seed)
    i_addrs = rng.integers(0, n_lines, size=n_instructions) * LINE_SIZE
    mask = rng.random(n_instructions) < data_ratio
    d_times = np.nonzero(mask)[0]
    d_addrs = rng.integers(0, n_lines, size=len(d_times)) * LINE_SIZE + (1 << 40)
    return Trace(f"rand{seed}", i_addrs, d_addrs, d_times)


def stats_from_stream(
    trace, stream, l2_bytes, l2_associativity, policy
) -> HierarchyStats:
    """Assemble hierarchy stats from an externally computed miss stream.

    Mirrors :func:`simulate_hierarchy` after its own L1 pass — the
    in-process comparison below fails loudly if the two ever drift.
    """
    warmup_time = int(trace.n_instructions * DEFAULT_WARMUP_FRACTION)
    counted = stream.times >= warmup_time
    l1i_misses = int((counted & stream.is_instruction).sum())
    l1d_misses = int((counted & ~stream.is_instruction).sum())
    n_instructions = trace.n_instructions - warmup_time
    n_data_refs = int(
        len(trace.d_times) - np.searchsorted(trace.d_times, warmup_time, side="left")
    )
    if l2_bytes == 0:
        return HierarchyStats(
            n_instructions=n_instructions,
            n_data_refs=n_data_refs,
            l1i_misses=l1i_misses,
            l1d_misses=l1d_misses,
            l2_hits=0,
            l2_misses=0,
            has_l2=False,
        )
    geometry = CacheGeometry(
        l2_bytes, line_size=LINE_SIZE, associativity=l2_associativity
    )
    [(hits, misses)] = replay_stages(stream, [cache_stage(geometry, policy)], warmup_time)
    return HierarchyStats(
        n_instructions=n_instructions,
        n_data_refs=n_data_refs,
        l1i_misses=l1i_misses,
        l1d_misses=l1d_misses,
        l2_hits=hits,
        l2_misses=misses,
        has_l2=True,
    )


def check_cross_process_equivalence(seed, l1_bytes, l2_bytes, assoc, policy):
    """The core property: child-computed L1 stream + parent L2 replay
    equals the in-process fast path equals the reference oracle."""
    trace = make_trace(seed)
    local_stream = l1_miss_stream(trace, l1_bytes, LINE_SIZE)
    remote_stream = child_executor().submit(
        _remote_l1_stream, trace, l1_bytes, LINE_SIZE
    ).result()

    # The stream survives the process boundary bit-identically.
    np.testing.assert_array_equal(local_stream.times, remote_stream.times)
    np.testing.assert_array_equal(local_stream.lines, remote_stream.lines)
    np.testing.assert_array_equal(local_stream.victims, remote_stream.victims)
    np.testing.assert_array_equal(
        local_stream.is_instruction, remote_stream.is_instruction
    )
    assert local_stream.l1i_misses == remote_stream.l1i_misses
    assert local_stream.l1d_misses == remote_stream.l1d_misses

    decomposed = stats_from_stream(trace, remote_stream, l2_bytes, assoc, policy)
    fast = simulate_hierarchy(
        trace,
        l1_bytes,
        l2_bytes,
        l2_associativity=assoc,
        policy=policy,
        line_size=LINE_SIZE,
    )
    oracle = reference_simulate_hierarchy(
        trace,
        l1_bytes,
        l2_bytes,
        l2_associativity=assoc,
        policy=policy,
        line_size=LINE_SIZE,
    )
    assert decomposed == fast
    assert decomposed == oracle


#: Deterministic seeded grid — always runs, and is the full coverage
#: when hypothesis is unavailable.
GRID = [
    (1, 256, 0, 1, Policy.CONVENTIONAL),
    (2, 256, 1024, 1, Policy.CONVENTIONAL),
    (3, 512, 2048, 4, Policy.CONVENTIONAL),
    (4, 512, 1024, 2, Policy.EXCLUSIVE),
    (5, 1024, 4096, 4, Policy.EXCLUSIVE),
    (6, 256, 4096, 1, Policy.EXCLUSIVE),
]


@pytest.mark.parametrize("seed,l1_bytes,l2_bytes,assoc,policy", GRID)
def test_cross_process_equivalence_grid(seed, l1_bytes, l2_bytes, assoc, policy):
    check_cross_process_equivalence(seed, l1_bytes, l2_bytes, assoc, policy)


if HAVE_HYPOTHESIS:

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        l1_bytes=st.sampled_from([256, 512, 1024]),
        l2_bytes=st.sampled_from([0, 1024, 2048, 4096]),
        assoc=st.sampled_from([1, 2, 4]),
        policy=st.sampled_from([Policy.CONVENTIONAL, Policy.EXCLUSIVE]),
    )
    def test_cross_process_equivalence_property(
        seed, l1_bytes, l2_bytes, assoc, policy
    ):
        check_cross_process_equivalence(seed, l1_bytes, l2_bytes, assoc, policy)


def test_workload_trace_round_trips_through_child(gcc1_tiny):
    """A realistic synthetic workload trace (not just random addresses)
    decomposes identically across the process boundary."""
    for policy in (Policy.CONVENTIONAL, Policy.EXCLUSIVE):
        remote_stream = child_executor().submit(
            _remote_l1_stream, gcc1_tiny, 1024, LINE_SIZE
        ).result()
        decomposed = stats_from_stream(gcc1_tiny, remote_stream, 8192, 4, policy)
        fast = simulate_hierarchy(
            gcc1_tiny, 1024, 8192, l2_associativity=4, policy=policy
        )
        assert decomposed == fast
