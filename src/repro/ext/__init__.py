"""Extensions beyond the paper's baseline study.

These modules implement the directions the paper itself points at:

* :mod:`repro.ext.multicycle` — §10's first conjecture: multicycle
  (pipelined) first-level caches decouple the clock from L1 size and
  should *reduce* the benefit of two-level caching.
* :mod:`repro.ext.nonblocking` — §10's second conjecture: non-blocking
  loads overlap part of the miss latency and should *increase* the
  benefit of a large on-chip second level.
* :mod:`repro.ext.inclusion` — the strict-inclusion (back-invalidation)
  policy of Baer & Wang (the paper's reference [1]), for comparison
  against the paper's non-inclusive baseline and exclusive scheme.
* :mod:`repro.ext.victim` — the fully-associative victim cache of
  Jouppi 1990 (the paper's reference [4]); the paper notes exclusive
  caching with ``y < x`` degenerates into "a shared direct-mapped
  victim cache".
* :mod:`repro.ext.multiprogramming` — context-switch interference, the
  effect §2.2 declares out of scope (cf. Mogul & Borg, WRL TN-16).
* :mod:`repro.ext.writes` — write-back traffic accounting, quantifying
  the cost §2.2's writes-as-reads abstraction hides.
* :mod:`repro.ext.stream_buffer` — Jouppi 1990's sequential-prefetch
  stream buffers (the second half of the paper's reference [4]).
* :mod:`repro.ext.l3` — an explicit board-level cache behind the chip,
  replacing the paper's constant 50/200 ns off-chip abstraction.
* :mod:`repro.ext.banking` — banked vs dual-ported L1s, the §6 remark
  (Sohi & Franklin, the paper's reference [8]).
* :mod:`repro.ext.associative_l1` — set-associative L1s, testing Hill's
  direct-mapped-L1 recommendation (the paper's reference [3]).
* :mod:`repro.ext.unified_l1` — unified vs split L1s, quantifying the
  introduction's dynamic-allocation argument (advantage #1).

The victim buffer, stream buffers and board cache are stages below the
L1s (:func:`repro.cache.hierarchy.replay_stages`).
"""

from .associative_l1 import AssociativeL1Result, evaluate_associative_l1
from .banking import BankedResult, evaluate_banked
from .inclusion import simulate_strict_inclusion
from .l3 import BoardCacheResult, evaluate_with_board_cache
from .multicycle import MulticycleResult, evaluate_multicycle
from .multiprogramming import (
    MultiprogrammingResult,
    interleave_traces,
    multiprogramming_study,
)
from .nonblocking import NonBlockingResult, evaluate_non_blocking
from .stream_buffer import StreamBufferStats, simulate_stream_buffer
from .unified_l1 import SplitVsUnified, compare_split_vs_unified
from .victim import VictimCacheStats, simulate_victim_cache
from .writes import WriteTraffic, count_write_traffic, evaluate_with_writes

__all__ = [
    "evaluate_multicycle",
    "MulticycleResult",
    "evaluate_non_blocking",
    "NonBlockingResult",
    "simulate_strict_inclusion",
    "simulate_victim_cache",
    "VictimCacheStats",
    "interleave_traces",
    "multiprogramming_study",
    "MultiprogrammingResult",
    "count_write_traffic",
    "evaluate_with_writes",
    "WriteTraffic",
    "simulate_stream_buffer",
    "StreamBufferStats",
    "evaluate_with_board_cache",
    "BoardCacheResult",
    "evaluate_banked",
    "BankedResult",
    "evaluate_associative_l1",
    "AssociativeL1Result",
    "compare_split_vs_unified",
    "SplitVsUnified",
]
