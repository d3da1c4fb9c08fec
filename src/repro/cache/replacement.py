"""Replacement policies for the set-associative second-level cache.

The paper evaluates *pseudo-random* replacement, which hardware builds
from a free-running LFSR; :class:`LfsrReplacement` reproduces that.
:class:`LruReplacement` is provided as an extension for ablation studies
(the paper's cited prior work, Przybylski, compares the two) — it is not
used by any reproduced figure.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Protocol, Sequence

import numpy as np

from ..errors import GeometryError
from ..lfsr import Lfsr16
from ..memo import register

__all__ = ["ReplacementPolicy", "LfsrReplacement", "LruReplacement"]

_PERIOD = Lfsr16.period()


class ReplacementPolicy(Protocol):
    """Chooses which way of a set to evict and observes accesses."""

    def victim_way(self, set_index: int) -> int:
        """Way to evict in ``set_index`` when all ways are valid."""

    def touch(self, set_index: int, way: int) -> None:
        """Record an access (hit or fill) to ``(set_index, way)``."""


@register("way_table")
@lru_cache(maxsize=None)
def _way_table(associativity: int, seed: int) -> Sequence[int]:
    """One full LFSR period of ``next_way(associativity)`` from ``seed``.

    The register step is a linear map ``M`` over GF(2)^16, so the states
    ``[n, 2n)`` are ``M^n`` of the states ``[0, n)``: sixteen doublings,
    with ``M^n`` kept as its image of each bit, build the period in numpy.
    """
    images = np.array([Lfsr16(1 << bit).step() for bit in range(16)], dtype=np.uint16)
    states = np.array([Lfsr16(seed).step()], dtype=np.uint16)
    while len(states) < _PERIOD:
        both = np.concatenate([states, images])
        moved = np.zeros_like(both)
        for bit, image in enumerate(images):
            moved ^= (both >> bit & 1) * image
        states, images = np.concatenate([states, moved[: len(states)]]), moved[len(states) :]
    ways = states[:_PERIOD] % associativity
    return memoryview(ways.astype(np.min_scalar_type(associativity - 1))).toreadonly()


class LfsrReplacement:
    """Pseudo-random replacement driven by a 16-bit LFSR.

    One register is shared by all sets, as in the simple hardware
    implementation: the register free-runs and is sampled whenever a
    replacement is needed, so the choice is deterministic given the
    stream of replacements.  Its way sequence is read from a shared
    ``table`` of one LFSR period at this policy's own ``cursor``.
    """

    def __init__(self, associativity: int, seed: int = 0xACE1) -> None:
        if associativity < 1:
            raise GeometryError("associativity must be >= 1")
        self.table = _way_table(associativity, Lfsr16(seed).state)
        self.cursor = 0

    def victim_way(self, set_index: int) -> int:
        cursor = self.cursor
        self.cursor = cursor + 1 if cursor + 1 < _PERIOD else 0
        return self.table[cursor]

    def touch(self, set_index: int, way: int) -> None:
        # Random replacement keeps no per-access state.
        return None


class LruReplacement:
    """True least-recently-used replacement (extension, not in the paper).

    Keeps an explicit recency stack per set; O(associativity) per touch,
    which is fine for the small associativities studied here.
    """

    def __init__(self, associativity: int, n_sets: int) -> None:
        if associativity < 1 or n_sets < 1:
            raise GeometryError("associativity and n_sets must be >= 1")
        self._stacks: List[List[int]] = [
            list(range(associativity)) for _ in range(n_sets)
        ]

    def victim_way(self, set_index: int) -> int:
        # Least recently used is the last entry of the recency stack.
        return self._stacks[set_index][-1]

    def touch(self, set_index: int, way: int) -> None:
        stack = self._stacks[set_index]
        stack.remove(way)
        stack.insert(0, way)

    def recency_order(self, set_index: int) -> Sequence[int]:
        """Most-recent-first way order (exposed for tests)."""
        return tuple(self._stacks[set_index])
