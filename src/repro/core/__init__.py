"""The paper's primary contribution: area/time/miss-rate co-evaluation.

This package combines the three substrates — miss rates
(:mod:`repro.cache`), access/cycle times (:mod:`repro.timing`) and chip
area (:mod:`repro.area`) — into the paper's figure of merit, **time per
instruction (TPI, ns)** as a function of **chip area (rbe)**, and
computes best-performance envelopes over the two-level design space.

Public API
----------
:class:`~repro.core.config.SystemConfig`
    One point in the design space (L1/L2 sizes, associativity, policy,
    ports, off-chip service time).
:func:`~repro.core.evaluate.evaluate`
    TPI + area for a config on a workload.
:func:`~repro.core.explorer.sweep` and
:func:`~repro.core.explorer.design_space`
    Enumerate and evaluate whole design spaces (memoised).
:func:`~repro.core.envelope.best_envelope`
    The paper's best-performance staircase.
"""

from .config import SystemConfig
from .envelope import EnvelopePoint, best_envelope, envelope_tpi_at
from .evaluate import SystemPerformance, evaluate
from .tpi import SystemTimings, TpiBreakdown, compute_tpi, system_timings

__all__ = [
    "SystemConfig",
    "SystemTimings",
    "TpiBreakdown",
    "system_timings",
    "compute_tpi",
    "SystemPerformance",
    "evaluate",
    "design_space",
    "standard_l1_sizes",
    "standard_l2_sizes",
    "sweep",
    "EnvelopePoint",
    "best_envelope",
    "envelope_tpi_at",
]


def __getattr__(name: str) -> object:
    # Only :mod:`.explorer`'s names get here: it pulls in the runner and
    # telemetry layers, so it is imported on first access (PEP 562).
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import explorer

    return getattr(explorer, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
