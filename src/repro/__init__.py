"""repro — a reproduction of Jouppi & Wilton, *Tradeoffs in Two-Level
On-Chip Caching* (DEC WRL 93/3, ISCA 1994).

The library combines three models — trace-driven miss rates, an
analytical SRAM access/cycle-time model, and an rbe area model — into
the paper's figure of merit: time per instruction (TPI) versus chip
area, over the full design space of split direct-mapped L1 caches with
an optional mixed second level, including the paper's contribution,
**two-level exclusive caching**.

Quickstart
----------
>>> from repro import SystemConfig, evaluate, kb
>>> config = SystemConfig(l1_bytes=kb(8), l2_bytes=kb(64))
>>> perf = evaluate(config, "gcc1", scale=0.05)
>>> perf.tpi_ns > 0
True

See ``examples/`` for complete walkthroughs and ``repro.study`` for the
per-figure experiment registry.
"""

import importlib

#: Public name -> the submodule that defines it.  Names are imported on
#: first access (PEP 562), so ``import repro.cli`` loads no model,
#: runner or telemetry code until a command asks for it.
_SOURCE = {
    # configuration & evaluation
    "SystemConfig": ".core",
    "SystemPerformance": ".core",
    "evaluate": ".core",
    "sweep": ".core",
    "design_space": ".core",
    "best_envelope": ".core",
    "compute_tpi": ".core",
    "system_timings": ".core",
    # substrates
    "Policy": ".cache",
    "CacheGeometry": ".cache.geometry",
    "simulate_hierarchy": ".cache",
    "optimal_timing": ".timing",
    "optimal_cache_area": ".area",
    "Trace": ".traces",
    "WORKLOADS": ".traces",
    "workload_names": ".traces",
    "get_trace": ".traces",
    # helpers
    "kb": ".units",
    # resilient execution
    "Runner": ".runner",
    "RetryPolicy": ".runner",
    "RunJournal": ".runner",
    # errors
    "ReproError": ".errors",
    "ConfigurationError": ".errors",
    "GeometryError": ".errors",
    "ModelError": ".errors",
    "TraceError": ".errors",
    "ExperimentError": ".errors",
    "RunnerError": ".errors",
    "CheckpointError": ".errors",
    "UnitTimeoutError": ".errors",
}

__version__ = "1.0.0"

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str) -> object:
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_SOURCE[name], __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
