"""The side-split organisation search against a pairing-by-pairing scan.

The oracle is the original search, frozen here: run the scalar model on
every organisation in ``enumerate_organizations`` order and keep the
first strictly smaller (cycle, access, subarrays) key.  The fast search
must return an equal :class:`TimingResult` — same organisation, same
floats, same breakdown — with no tolerance.
"""

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.timing.model import access_and_cycle_time
from repro.timing.optimal import lexicographic_argmin, optimal_timing
from repro.timing.organization import enumerate_organizations
from repro.timing.technology import TECH_05UM, TECH_08UM
from repro.units import kb

#: The paper's design space: 1 KB-256 KB, direct-mapped and 4-way, 16 B lines.
PAPER_SHAPES = [
    (kb(size), assoc, 16, TECH_05UM)
    for size in (1, 2, 4, 8, 16, 32, 64, 128, 256)
    for assoc in (1, 4)
]

#: Other line sizes, associativities and the unscaled 0.8 um process.
#: At 4 KB 4-way with 32 B lines two organisations tie on cycle and
#: access time exactly, so the subarray count decides.
EXTRA_SHAPES = [
    (kb(4), 4, 32, TECH_05UM),
    (kb(32), 8, 64, TECH_05UM),
    (kb(2), 1, 64, TECH_08UM),
    (kb(16), 2, 16, TECH_08UM),
    (kb(64), 4, 32, TECH_08UM),
    (kb(128), 8, 16, TECH_08UM),
]


def scan_search(size_bytes, associativity, line_size, tech):
    geometry = CacheGeometry(size_bytes, line_size=line_size, associativity=associativity)
    best, best_key = None, None
    for organization in enumerate_organizations(geometry):
        result = access_and_cycle_time(geometry, organization, tech)
        key = (
            result.cycle_ns,
            result.access_ns,
            organization.data_subarrays + organization.tag_subarrays,
        )
        if best_key is None or key < best_key:
            best, best_key = result, key
    return best


@pytest.mark.parametrize(
    "size_bytes,associativity,line_size,tech", PAPER_SHAPES + EXTRA_SHAPES
)
def test_search_equals_scan(size_bytes, associativity, line_size, tech):
    fast = optimal_timing(size_bytes, associativity, line_size, tech)
    slow = scan_search(size_bytes, associativity, line_size, tech)
    assert fast == slow
    assert list(fast.breakdown) == list(slow.breakdown)


class TestLexicographicArgmin:
    def test_first_key_decides(self):
        assert lexicographic_argmin(np.array([3.0, 1.0, 2.0]), np.array([0, 9, 0])) == 1

    def test_tie_in_first_key_goes_to_second(self):
        first = np.array([[1.0, 0.5], [0.5, 0.5]])
        second = np.array([[0, 7], [6, 5]])
        assert lexicographic_argmin(first, second) == 3

    def test_tie_in_two_keys_goes_to_third(self):
        cycle = np.array([2.0, 1.0, 1.0, 1.0])
        access = np.array([0.0, 0.7, 0.7, 0.7])
        subarrays = np.array([1, 9, 4, 8])
        assert lexicographic_argmin(cycle, access, subarrays) == 2

    def test_full_tie_goes_to_first_in_c_order(self):
        cycle = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 3.0]])
        access = np.array([[0.0, 0.5, 0.5], [0.5, 0.5, 0.0]])
        subarrays = np.array([[1, 4, 4], [4, 4, 1]])
        assert lexicographic_argmin(cycle, access, subarrays) == 1

    def test_later_keys_ignore_losers_of_earlier_ones(self):
        # The smallest access and subarray counts sit at an index that
        # loses on the first key, so they must not pull the choice.
        cycle = np.array([5.0, 1.0, 1.0])
        access = np.array([0.0, 0.9, 0.8])
        subarrays = np.array([0, 3, 4])
        assert lexicographic_argmin(cycle, access, subarrays) == 2
