"""Process-wide memoised trace generation.

Trace generation is the most expensive part of a sweep after the cache
simulation itself, and every experiment reuses the same traces, so
generated traces are cached per ``(workload, scale)`` for the process.

The default scale comes from the ``REPRO_TRACE_SCALE`` environment
variable (1.0 → :data:`~repro.traces.workloads.BASE_INSTRUCTIONS`
instructions per workload).  Tests pass explicit small scales instead of
mutating the environment.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from ..errors import TraceError
from ..memo import CacheInfo, register
from .address import Trace
from .workloads import BASE_INSTRUCTIONS, get_workload

__all__ = ["default_scale", "get_trace", "clear_trace_cache"]

_ENV_VAR = "REPRO_TRACE_SCALE"

_cache: Dict[Tuple[str, int], Trace] = {}


@register("traces")
class _Store:
    """The store as the registered memo ``traces``: it never evicts, so its size is its misses."""

    lookups = 0

    @classmethod
    def cache_info(cls) -> CacheInfo:
        return CacheInfo(cls.lookups - len(_cache), len(_cache), None, len(_cache))

    @classmethod
    def cache_clear(cls) -> None:
        _cache.clear()
        cls.lookups = 0


def default_scale() -> float:
    """The trace scale from ``REPRO_TRACE_SCALE`` (default 1.0)."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return 1.0
    try:
        scale = float(raw)
    except ValueError:
        raise TraceError(f"{_ENV_VAR}={raw!r} is not a number") from None
    if scale <= 0:
        raise TraceError(f"{_ENV_VAR} must be positive, got {scale}")
    return scale


def get_trace(name: str, scale: Optional[float] = None) -> Trace:
    """Return the (memoised) trace for workload ``name`` at ``scale``.

    Parameters
    ----------
    name:
        One of the seven benchmark names.
    scale:
        Multiplier on the base instruction count; ``None`` means the
        environment default.
    """
    if scale is None:
        scale = default_scale()
    n_instructions = max(1, int(round(BASE_INSTRUCTIONS * scale)))
    key = (name, n_instructions)
    _Store.lookups += 1
    trace = _cache.get(key)
    if trace is None:
        spec = get_workload(name)
        trace = spec.build().generate(n_instructions)
        _cache[key] = trace
    return trace


def clear_trace_cache() -> None:
    """Drop all memoised traces (mainly for tests managing memory)."""
    _Store.cache_clear()
