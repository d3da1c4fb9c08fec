"""Replacement policies: LFSR pseudo-random and LRU extension."""

import pytest

from repro.cache.replacement import LfsrReplacement, LruReplacement, _way_table
from repro.errors import ConfigurationError, GeometryError
from repro.lfsr import Lfsr16


class TestLfsrReplacement:
    def test_victims_in_range(self):
        policy = LfsrReplacement(4)
        for _ in range(100):
            assert 0 <= policy.victim_way(0) < 4

    def test_deterministic_sequence(self):
        a = LfsrReplacement(4, seed=99)
        b = LfsrReplacement(4, seed=99)
        assert [a.victim_way(0) for _ in range(50)] == [
            b.victim_way(0) for _ in range(50)
        ]

    def test_touch_is_stateless(self):
        policy = LfsrReplacement(4)
        policy.touch(0, 2)  # must not raise or change the stream
        a = policy.victim_way(0)
        assert isinstance(a, int)

    def test_rejects_bad_associativity(self):
        with pytest.raises(GeometryError):
            LfsrReplacement(0)

    def test_rejects_zero_seed(self):
        with pytest.raises(ConfigurationError):
            LfsrReplacement(4, seed=0x10000)

    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    def test_table_replays_the_shared_register(self, assoc):
        """Three full periods, so the cursor wraps twice; at one way the
        register never steps but the table must still read 0."""
        policy = LfsrReplacement(assoc)
        register = Lfsr16()
        n = 3 * Lfsr16.period() + 7
        assert [policy.victim_way(0) for _ in range(n)] == [
            register.next_way(assoc) for _ in range(n)
        ]

    @pytest.mark.parametrize("seed", [0xACE1, 0x0001, 0x8000, 0xFFFF])
    @pytest.mark.parametrize("assoc", [1, 2, 3, 4, 8])
    def test_numpy_built_table_is_one_register_period(self, assoc, seed):
        register = Lfsr16(seed)
        assert list(_way_table(assoc, seed)) == [
            register.next_way(assoc) for _ in range(Lfsr16.period())
        ]

    def test_caches_sharing_a_table_keep_their_own_cursor(self):
        a, b = LfsrReplacement(4), LfsrReplacement(4)
        first = [a.victim_way(0) for _ in range(20)]
        assert [b.victim_way(0) for _ in range(20)] == first
        register = Lfsr16()
        assert first == [register.next_way(4) for _ in range(20)]


class TestLruReplacement:
    def test_initial_victim_is_highest_way(self):
        policy = LruReplacement(4, n_sets=2)
        assert policy.victim_way(0) == 3

    def test_touch_moves_to_front(self):
        policy = LruReplacement(4, n_sets=1)
        policy.touch(0, 3)
        assert policy.recency_order(0) == (3, 0, 1, 2)
        assert policy.victim_way(0) == 2

    def test_sets_independent(self):
        policy = LruReplacement(2, n_sets=2)
        policy.touch(0, 1)
        assert policy.victim_way(0) == 0
        assert policy.victim_way(1) == 1

    def test_lru_sequence(self):
        policy = LruReplacement(3, n_sets=1)
        for way in (0, 1, 2, 0):
            policy.touch(0, way)
        # access order 0,1,2,0 -> LRU is 1
        assert policy.victim_way(0) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(GeometryError):
            LruReplacement(0, 1)
        with pytest.raises(GeometryError):
            LruReplacement(2, 0)
