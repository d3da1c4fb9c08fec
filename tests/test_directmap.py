"""Vectorised direct-mapped filter vs the reference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cache_reference import reference_direct_mapped_filter
from repro.cache.directmap import (
    NO_VICTIM,
    direct_mapped_filter,
    direct_mapped_misses,
    dirty_victim_mask,
)
from repro.errors import GeometryError

#: Set counts of both kinds: powers of two and not.
SET_COUNTS = [1, 2, 3, 4, 5, 7, 8, 12, 16]


def with_runs(lines: st.SearchStrategy) -> st.SearchStrategy:
    """Streams of lines drawn from ``lines``, each repeated 1-4 times in a row."""
    runs = st.lists(
        st.tuples(lines, st.integers(min_value=1, max_value=4)), min_size=1, max_size=150
    )
    return runs.map(lambda pairs: [line for line, times in pairs for _ in range(times)])


def assert_matches_reference(lines, n_sets):
    fast = direct_mapped_filter(np.array(lines, dtype=np.int64), n_sets)
    ref_miss, ref_victims = reference_direct_mapped_filter(lines, n_sets)
    assert fast.miss_mask.tolist() == ref_miss
    assert fast.victims.tolist() == ref_victims
    positions, victims = direct_mapped_misses(np.array(lines, dtype=np.int64), n_sets)
    assert positions.tolist() == [i for i, miss in enumerate(ref_miss) if miss]
    assert victims.tolist() == [ref_victims[i] for i in positions.tolist()]


def reference_dirty_victims(lines, is_store, n_sets):
    """Per reference: does it evict a line stored to during its residency?"""
    resident, dirty, result = {}, {}, []
    for line, store in zip(lines, is_store):
        set_index = line % n_sets
        evicts_dirty = resident.get(set_index, line) != line and dirty[set_index]
        if resident.get(set_index) != line:
            resident[set_index], dirty[set_index] = line, False
        dirty[set_index] |= store
        result.append(evicts_dirty)
    return result


class TestBasics:
    def test_empty_stream(self):
        result = direct_mapped_filter(np.array([], dtype=np.int64), 4)
        assert result.n_refs == 0
        assert result.n_misses == 0
        assert result.miss_rate == 0.0

    def test_single_reference_is_cold_miss(self):
        result = direct_mapped_filter(np.array([7]), 4)
        assert result.miss_mask.tolist() == [True]
        assert result.victims.tolist() == [NO_VICTIM]

    def test_repeat_hits(self):
        result = direct_mapped_filter(np.array([5, 5, 5]), 4)
        assert result.miss_mask.tolist() == [True, False, False]

    def test_conflict_evicts_and_reports_victim(self):
        # lines 1 and 5 share set 1 of a 4-set cache
        result = direct_mapped_filter(np.array([1, 5, 1]), 4)
        assert result.miss_mask.tolist() == [True, True, True]
        assert result.victims.tolist() == [NO_VICTIM, 1, 5]

    def test_distinct_sets_do_not_conflict(self):
        result = direct_mapped_filter(np.array([0, 1, 2, 3, 0, 1, 2, 3]), 4)
        assert result.n_misses == 4

    def test_single_set_cache(self):
        result = direct_mapped_filter(np.array([3, 9, 3]), 1)
        assert result.miss_mask.tolist() == [True, True, True]
        assert result.victims.tolist() == [NO_VICTIM, 3, 9]

    def test_wide_set_keys_do_not_alias(self):
        # Sets 5 and 65,541 of a 70,001-set cache agree in their low 16 bits.
        result = direct_mapped_filter(np.array([5, 65_541, 5]), 70_001)
        assert result.miss_mask.tolist() == [True, True, False]

    def test_rejects_bad_set_count(self):
        with pytest.raises(GeometryError):
            direct_mapped_filter(np.array([1]), 0)

    def test_miss_rate(self):
        result = direct_mapped_filter(np.array([1, 1, 1, 2]), 4)
        assert result.miss_rate == pytest.approx(0.5)


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=300)
        | with_runs(st.integers(min_value=0, max_value=40)),
        n_sets=st.sampled_from(SET_COUNTS),
    )
    def test_matches_reference_on_random_streams(self, lines, n_sets):
        assert_matches_reference(lines, n_sets)

    @settings(max_examples=50, deadline=None)
    @given(
        lines=st.lists(
            st.integers(min_value=0, max_value=2**40), min_size=1, max_size=100
        )
        | with_runs(st.integers(min_value=0, max_value=2**40)),
        n_sets=st.sampled_from([8, 12, 70_001]),
    )
    def test_huge_addresses(self, lines, n_sets):
        assert_matches_reference(lines, n_sets)

    @settings(max_examples=50, deadline=None)
    @given(
        lines=with_runs(
            st.builds(lambda hi, lo: hi * 65_536 + lo, st.integers(0, 3), st.integers(0, 3))
        ),
    )
    def test_wide_set_keys(self, lines):
        # 70,001 sets need a set key wider than 16 bits; these lines are
        # 65,536 apart, so their sets share the low 16 bits.
        assert_matches_reference(lines, 70_001)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        lines=with_runs(st.integers(min_value=0, max_value=40)),
        n_sets=st.sampled_from(SET_COUNTS + [70_001]),
    )
    def test_dirty_victims_match_reference(self, data, lines, n_sets):
        is_store = data.draw(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)))
        fast = dirty_victim_mask(np.array(lines), np.array(is_store), n_sets)
        assert fast.tolist() == reference_dirty_victims(lines, is_store, n_sets)


class TestInvariants:
    @settings(max_examples=100, deadline=None)
    @given(
        lines=st.lists(st.integers(min_value=0, max_value=64), min_size=1, max_size=200),
        n_sets=st.sampled_from([1, 2, 4, 8]),
    )
    def test_victims_only_on_misses_and_differ_from_line(self, lines, n_sets):
        arr = np.array(lines, dtype=np.int64)
        result = direct_mapped_filter(arr, n_sets)
        for i in range(len(arr)):
            if not result.miss_mask[i]:
                assert result.victims[i] == NO_VICTIM
            elif result.victims[i] != NO_VICTIM:
                # victim shares the set but is a different line
                assert result.victims[i] % n_sets == arr[i] % n_sets
                assert result.victims[i] != arr[i]

    @settings(max_examples=100, deadline=None)
    @given(
        lines=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=200),
    )
    def test_fully_sized_cache_only_cold_misses(self, lines):
        # With >= one set per possible line, misses == unique lines.
        arr = np.array(lines, dtype=np.int64)
        result = direct_mapped_filter(arr, 31)
        assert result.n_misses == len(set(lines))
