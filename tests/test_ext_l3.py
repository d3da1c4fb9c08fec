"""Board-level cache (L3) extension."""

import numpy as np
import pytest

from conftest import MEDIUM, make_random_trace
from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import (
    Policy,
    cache_stage,
    counted_split,
    l1_miss_stream,
    replay_stages,
)
from repro.cache.l2 import SetAssociativeCache
from repro.core.config import SystemConfig
from repro.core.evaluate import evaluate
from repro.errors import ConfigurationError
from repro.ext.l3 import evaluate_with_board_cache
from repro.units import kb


class TestModel:
    def test_counts_partition(self, gcc1_tiny):
        config = SystemConfig(l1_bytes=kb(4), l2_bytes=kb(32))
        result = evaluate_with_board_cache(config, gcc1_tiny)
        baseline = evaluate(config, gcc1_tiny)
        assert result.l3_hits + result.l3_misses == baseline.stats.l2_misses

    def test_effective_latency_between_bounds(self, gcc1_tiny):
        result = evaluate_with_board_cache(
            SystemConfig(l1_bytes=kb(4)), gcc1_tiny
        )
        assert result.board_hit_ns <= result.effective_off_chip_ns
        assert result.effective_off_chip_ns <= result.dram_ns

    def test_tpi_between_constant_models(self, gcc1_tiny):
        """The mixed latency sits between the paper's 50 ns and 200 ns
        constant abstractions."""
        config = SystemConfig(l1_bytes=kb(4), l2_bytes=kb(32))
        mixed = evaluate_with_board_cache(
            config, gcc1_tiny, board_hit_ns=50.0, dram_ns=200.0
        )
        fast = evaluate(config, gcc1_tiny)  # 50 ns constant
        slow = evaluate(
            SystemConfig(
                l1_bytes=kb(4), l2_bytes=kb(32), off_chip_ns=200.0
            ),
            gcc1_tiny,
        )
        assert fast.tpi_ns <= mixed.tpi_ns + 1e-9
        assert mixed.tpi_ns <= slow.tpi_ns + 1e-9

    def test_constant_model_matches_core_evaluate(self, gcc1_tiny):
        """With a never-missing L3 the model collapses to the paper's
        50 ns abstraction — and must agree with the core TPI engine."""
        config = SystemConfig(l1_bytes=kb(4), l2_bytes=kb(32))
        result = evaluate_with_board_cache(config, gcc1_tiny)
        baseline = evaluate(config, gcc1_tiny)
        assert result.constant_model_tpi_ns == pytest.approx(baseline.tpi_ns)

    def test_bigger_l3_fewer_misses(self):
        config = SystemConfig(l1_bytes=kb(4), l2_bytes=kb(32))
        small = evaluate_with_board_cache(
            config, "gcc1", l3_bytes=kb(256), scale=MEDIUM
        )
        large = evaluate_with_board_cache(
            config, "gcc1", l3_bytes=4 << 20, scale=MEDIUM
        )
        assert large.l3_misses <= small.l3_misses
        assert large.tpi_ns <= small.tpi_ns + 1e-9

    def test_single_level_supported(self, gcc1_tiny):
        result = evaluate_with_board_cache(
            SystemConfig(l1_bytes=kb(4)), gcc1_tiny
        )
        assert result.tpi_ns > 0

    def test_exclusive_policy_supported(self, gcc1_tiny):
        from repro.cache.hierarchy import Policy

        config = SystemConfig(
            l1_bytes=kb(4), l2_bytes=kb(32), policy=Policy.EXCLUSIVE
        )
        result = evaluate_with_board_cache(config, gcc1_tiny)
        baseline = evaluate(config, gcc1_tiny)
        assert result.l3_hits + result.l3_misses == baseline.stats.l2_misses

    def test_validation(self, gcc1_tiny):
        config = SystemConfig(l1_bytes=kb(4))
        with pytest.raises(ConfigurationError):
            evaluate_with_board_cache(config, gcc1_tiny, l3_bytes=0)
        with pytest.raises(ConfigurationError):
            evaluate_with_board_cache(
                config, gcc1_tiny, board_hit_ns=100.0, dram_ns=50.0
            )


def reference_board_counts(stream, warmup_time, l2, policy, l3):
    """The two explicit replays the [L2, L3] stages replaced, kept as their oracle.

    ``l2`` is the L2 geometry or None.  Returns counted
    (L2 hits, L3 hits, L3 misses).
    """
    fetched = np.arange(len(stream))
    l2_hits = 0
    if l2 is not None:
        exclusive = policy is Policy.EXCLUSIVE
        fetched = SetAssociativeCache(l2).replay(
            stream.lines, stream.victims if exclusive else None
        )
        l2_hits, _ = counted_split(stream.times, fetched, warmup_time)
    l3_missed = SetAssociativeCache(l3).replay(stream.lines[fetched])
    l3_hits, l3_misses = counted_split(stream.times[fetched], l3_missed, warmup_time)
    return l2_hits, l3_hits, l3_misses


#: (L2 bytes or 0, L2 ways, policy): a conventional L2 (DM and 4-way), an
#: exclusive L2 (DM and 4-way) and no L2.
L2_CASES = [
    (512, 1, Policy.CONVENTIONAL),
    (512, 4, Policy.CONVENTIONAL),
    (256, 1, Policy.EXCLUSIVE),
    (512, 4, Policy.EXCLUSIVE),
    (0, 1, Policy.CONVENTIONAL),
]


class TestAgainstExplicitReplays:
    @pytest.mark.parametrize("l3_ways", [1, 2])
    @pytest.mark.parametrize("l2_bytes,l2_ways,policy", L2_CASES)
    @pytest.mark.parametrize("seed", range(4))
    def test_stages_match_on_random_traces(self, seed, l2_bytes, l2_ways, policy, l3_ways):
        trace = make_random_trace(seed, n_instructions=1500, n_lines=160)
        stream = l1_miss_stream(trace, 128)
        warmup_time = int(trace.n_instructions * 0.25)
        l2 = CacheGeometry(l2_bytes, 16, l2_ways) if l2_bytes else None
        l3 = CacheGeometry(1024, 16, l3_ways)
        stages = [cache_stage(l3)]
        if l2 is not None:
            stages.insert(0, cache_stage(l2, policy))
        counts = replay_stages(stream, stages, warmup_time)
        l2_hits, l3_hits, l3_misses = reference_board_counts(
            stream, warmup_time, l2, policy, l3
        )
        assert counts[-1] == (l3_hits, l3_misses)
        assert l3_misses > 0
        if l2 is not None:
            assert counts[0][0] == l2_hits

    @pytest.mark.parametrize("l2_bytes,l2_ways,policy", L2_CASES)
    def test_board_cache_matches_on_a_workload(self, l2_bytes, l2_ways, policy, gcc1_tiny):
        l2_bytes = kb(32) if l2_bytes else 0
        config = SystemConfig(
            l1_bytes=kb(4), l2_bytes=l2_bytes, l2_associativity=l2_ways, policy=policy
        )
        result = evaluate_with_board_cache(config, gcc1_tiny, l3_bytes=kb(64))
        warmup_time = int(gcc1_tiny.n_instructions * 0.25)
        l2 = CacheGeometry(l2_bytes, 16, l2_ways) if l2_bytes else None
        _, l3_hits, l3_misses = reference_board_counts(
            l1_miss_stream(gcc1_tiny, kb(4)), warmup_time, l2, policy, CacheGeometry(kb(64))
        )
        assert (result.l3_hits, result.l3_misses) == (l3_hits, l3_misses)
