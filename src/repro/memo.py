"""Process-wide memos behind one registry: one clear, counted hits and misses.

DESIGN.md §5 lists each memo, what it holds and for how long.
"""

from __future__ import annotations

import functools
import weakref
from collections import namedtuple
from typing import Any, Callable, Dict

__all__ = ["CacheInfo", "MEMOS", "register", "clear_all", "counts", "per_trace"]

#: A memo's statistics, shaped like :func:`functools.lru_cache`'s.
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")

#: Every registered memo, by name.
MEMOS: Dict[str, Any] = {}


def register(name: str) -> Callable[[Any], Any]:
    """Register the memo it decorates (``lru_cache``'s surface) as ``name``."""

    def add(memo: Any) -> Any:
        MEMOS[name] = memo
        return memo

    return add


def clear_all() -> None:
    """Empty every registered memo and reset its counts."""
    for memo in MEMOS.values():
        memo.cache_clear()


def counts() -> Dict[str, CacheInfo]:
    """Each registered memo's :class:`CacheInfo`, by name."""
    return {name: CacheInfo(*MEMOS[name].cache_info()) for name in sorted(MEMOS)}


def per_trace(name: str) -> Callable[[Any], Any]:
    """Memoise ``fn(trace, *args)`` for as long as ``trace`` lives, registered as ``name``.

    Entries sit in a :class:`weakref.WeakKeyDictionary`, so a value must not
    reference its trace (it would keep its own key alive).  The other
    arguments key an entry as in :func:`functools.lru_cache`.  The counts
    take no lock: exact in one thread, they may drop a concurrent call.
    """

    def decorate(fn: Callable) -> Callable:
        entries: "weakref.WeakKeyDictionary[Any, Dict[Any, Any]]" = weakref.WeakKeyDictionary()
        tally = [0, 0]  # hits, misses

        @functools.wraps(fn)
        def memo(trace, *args, **kwargs):
            key, results = (args, *kwargs.items()), entries.setdefault(trace, {})
            hit = key in results
            tally[not hit] += 1
            return results[key] if hit else results.setdefault(key, fn(trace, *args, **kwargs))

        def cache_info() -> CacheInfo:
            return CacheInfo(*tally, None, sum(map(len, entries.values())))

        def cache_clear() -> None:
            entries.clear()
            tally[:] = [0, 0]

        memo.cache_info, memo.cache_clear = cache_info, cache_clear  # type: ignore[attr-defined]
        return register(name)(memo)

    return decorate
