"""Trace statistics used by the Table 1 reproduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.address import Trace
from repro.traces.stats import compute_stats


def test_counts_and_footprints():
    trace = Trace(
        "t",
        np.array([0, 4, 16, 20]),      # lines 0,0,1,1 -> 2 unique
        np.array([1000, 1000, 1048]),  # lines 62,62,65 -> 2 unique
        np.array([0, 1, 3]),
    )
    stats = compute_stats(trace)
    assert stats.n_instructions == 4
    assert stats.n_data_refs == 3
    assert stats.n_refs == 7
    assert stats.instruction_footprint_bytes == 2 * 16
    assert stats.data_footprint_bytes == 2 * 16
    assert stats.total_footprint_bytes == 4 * 16
    assert stats.data_ratio == pytest.approx(0.75)


def test_no_data_refs():
    trace = Trace("t", np.array([0, 16]), np.array([]), np.array([]))
    stats = compute_stats(trace)
    assert stats.data_footprint_bytes == 0
    assert stats.n_refs == 2


def test_line_size_changes_footprint():
    trace = Trace("t", np.array([0, 16, 32, 48]), np.array([]), np.array([]))
    assert compute_stats(trace, line_size=16).instruction_footprint_bytes == 64
    assert compute_stats(trace, line_size=64).instruction_footprint_bytes == 64
    # One 64-byte line vs four 16-byte lines:
    assert compute_stats(trace, line_size=64).instruction_footprint_bytes // 64 == 1


@settings(max_examples=100, deadline=None)
@given(
    i_lines=st.lists(st.integers(0, 1 << 40), min_size=1, max_size=300),
    d_lines=st.lists(st.integers(0, 40), max_size=300),
)
def test_footprints_match_np_unique(i_lines, d_lines):
    """Sorted change counting equals ``np.unique``, an empty D stream included."""
    i_addrs = np.array(i_lines, dtype=np.int64) * 16
    d_addrs = np.array(d_lines, dtype=np.int64) * 16
    d_times = np.sort(np.arange(len(d_lines)) % len(i_lines))
    stats = compute_stats(Trace("t", i_addrs, d_addrs, d_times))
    assert stats.instruction_footprint_bytes == len(np.unique(i_addrs // 16)) * 16
    assert stats.data_footprint_bytes == len(np.unique(d_addrs // 16)) * 16
