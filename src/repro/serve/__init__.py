"""Sweep-as-a-service: the fault-tolerant `repro serve` front end.

See :mod:`repro.serve.app` for the service itself (three-tier
memo/coalesce/cold resolution, admission control, circuit breaking,
degradation), :mod:`repro.serve.memo` for the content-addressed
integrity-verified memo store, :mod:`repro.serve.compute` for request
normalization and the byte-identity contract, and
:mod:`repro.serve.harness` for the in-process test/bench harness.
"""

from .admission import AdmissionController
from .app import SERVE_JOURNAL_NAME, ServeApp, ServePolicy, run_serve
from .breaker import CircuitBreaker
from .compute import (
    RECORD_SCHEMA,
    canonical_json,
    compute_point,
    normalize_point,
    normalize_sweep,
    point_key,
    point_record,
    tpi_record,
)
from .errors import (
    BadRequestError,
    BreakerOpenError,
    DeadlineError,
    NotFoundError,
    OversizeError,
    ShedError,
    UpstreamError,
)
from .harness import BackgroundServer
from .memo import MEMO_DIR, MemoStore
from .singleflight import SingleFlight

__all__ = [
    "SERVE_JOURNAL_NAME",
    "ServeApp",
    "ServePolicy",
    "run_serve",
    "AdmissionController",
    "CircuitBreaker",
    "SingleFlight",
    "MemoStore",
    "MEMO_DIR",
    "RECORD_SCHEMA",
    "canonical_json",
    "compute_point",
    "normalize_point",
    "normalize_sweep",
    "point_key",
    "point_record",
    "tpi_record",
    "BackgroundServer",
    "BadRequestError",
    "BreakerOpenError",
    "DeadlineError",
    "NotFoundError",
    "OversizeError",
    "ShedError",
    "UpstreamError",
]
