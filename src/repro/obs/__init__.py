"""Zero-dependency observability: metrics, spans, and profiling.

The measurement substrate of the execution layers (ROADMAP: "you can't
optimise what you can't see").  Three pieces, one injected clock:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters /
  gauges / histograms with labels, worker-snapshot merge, Prometheus
  text rendering, and atomic ``METRICS.jsonl`` snapshots;
* :mod:`repro.obs.spans` — structured spans with ids, parents, and
  durations, flushed crash-safely to ``SPANS.jsonl`` and canonically
  reordered so worker scheduling never shows in the file's structure;
* :mod:`repro.obs.profile` — opt-in per-unit :mod:`cProfile` capture.

:class:`Telemetry` bundles them for the runner, serve, and chaos
layers; :func:`current` is the ambient handle the simulation hot path
uses from inside picklable unit bodies.  Time is only ever read through
:mod:`repro.obs.clock`, which is what lets a :class:`ManualClock` give
tests exact span durations.
"""

from .clock import SYSTEM_CLOCK, Clock, ManualClock, SystemClock
from .metrics import (
    DEFAULT_BUCKETS,
    METRICS_NAME,
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    load_metrics_file,
    metrics_jsonl,
)
from .profile import PROFILE_DIR_NAME, capture_profile, profile_path
from .report import (
    find_journal,
    load_run_metrics,
    load_run_spans,
    render_metrics,
    render_spans,
)
from .spans import (
    SPANS_NAME,
    SPANS_SCHEMA,
    Span,
    Tracer,
    canonical_spans,
    load_spans_file,
    spans_jsonl,
)
from .telemetry import DISABLED, Telemetry, activate, current

__all__ = [
    "Clock",
    "SystemClock",
    "ManualClock",
    "SYSTEM_CLOCK",
    "METRICS_NAME",
    "METRICS_SCHEMA",
    "SPANS_NAME",
    "SPANS_SCHEMA",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics_jsonl",
    "load_metrics_file",
    "Span",
    "Tracer",
    "canonical_spans",
    "spans_jsonl",
    "load_spans_file",
    "Telemetry",
    "DISABLED",
    "activate",
    "current",
    "PROFILE_DIR_NAME",
    "profile_path",
    "capture_profile",
    "find_journal",
    "load_run_metrics",
    "load_run_spans",
    "render_metrics",
    "render_spans",
]
