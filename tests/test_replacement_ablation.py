"""The l2_replacement knob (LFSR vs LRU ablation support)."""

import pytest

from repro.cache.hierarchy import Policy, simulate_hierarchy
from repro.errors import ConfigurationError
from repro.units import kb


class TestReplacementKnob:
    def test_lru_beats_pseudo_random_on_locality(self, gcc1_tiny):
        """With real temporal locality, LRU should not lose to random —
        the usual reason hardware accepts random is cost, not quality."""
        lfsr = simulate_hierarchy(
            gcc1_tiny, kb(2), kb(16), 4, l2_replacement="lfsr"
        )
        lru = simulate_hierarchy(
            gcc1_tiny, kb(2), kb(16), 4, l2_replacement="lru"
        )
        assert lru.l2_misses <= lfsr.l2_misses

    def test_direct_mapped_l2_ignores_replacement(self, gcc1_tiny):
        a = simulate_hierarchy(gcc1_tiny, kb(2), kb(16), 1, l2_replacement="lfsr")
        b = simulate_hierarchy(gcc1_tiny, kb(2), kb(16), 1, l2_replacement="lru")
        assert a == b

    def test_exclusive_policy_supports_lru(self, gcc1_tiny):
        stats = simulate_hierarchy(
            gcc1_tiny, kb(2), kb(16), 4, Policy.EXCLUSIVE, l2_replacement="lru"
        )
        assert stats.l2_hits + stats.l2_misses == stats.l1_misses

    def test_unknown_policy_rejected(self, gcc1_tiny):
        with pytest.raises(ConfigurationError, match="unknown replacement"):
            simulate_hierarchy(
                gcc1_tiny, kb(2), kb(16), 4, l2_replacement="fifo"
            )

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("assoc", [1, 4])
    def test_unknown_policy_rejected_at_any_associativity(
        self, gcc1_tiny, policy, assoc
    ):
        # The direct-mapped conventional L2 takes a filter shortcut that
        # never builds a policy; the name must still be checked.
        with pytest.raises(ConfigurationError, match="unknown replacement"):
            simulate_hierarchy(
                gcc1_tiny, kb(2), kb(16), assoc, policy, l2_replacement="bogus"
            )

    def test_default_is_lfsr(self, gcc1_tiny):
        default = simulate_hierarchy(gcc1_tiny, kb(2), kb(16), 4)
        explicit = simulate_hierarchy(
            gcc1_tiny, kb(2), kb(16), 4, l2_replacement="lfsr"
        )
        assert default == explicit
