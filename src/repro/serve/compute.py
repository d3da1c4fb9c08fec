"""Canonical request normalization and the picklable compute kernel.

Everything the service caches, coalesces, or journals hangs off the
*canonical key* of a request: the :func:`repro.runner.journal.unit_key`
hash of a normalized payload.  Two requests that mean the same design
point — whatever their JSON field order, integer-vs-float spelling, or
omitted defaults — normalize to the same ``SystemConfig`` and therefore
the same key, so they hit the same memo entry and coalesce onto the
same in-flight computation.

The byte-identity contract (chaos acceptance criterion) lives here too:
a 200 response body is exactly :func:`canonical_json` of the point
record, which is a pure function of the normalized request — so a memo
hit, a coalesced wait, and a cold compute all produce the same bytes
as a fresh serial :func:`repro.core.evaluate.evaluate` of that config.

:func:`compute_point` is the function shipped to pool workers; it is
module-level (picklable) and consults the fault hooks exactly like the
batch engine's unit bodies, so ``REPRO_FAULTS`` serve-side kinds fire
inside workers.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import SystemConfig
from ..core.evaluate import SystemPerformance, evaluate
from ..core.explorer import design_space
from ..errors import ConfigurationError
from ..runner import faults, unit_key
from ..runner.lifecycle import unit_timeout
from ..runner.watchdog import peak_rss_bytes
from ..traces.workloads import WORKLOADS
from .errors import BadRequestError

__all__ = [
    "RECORD_SCHEMA",
    "normalize_point",
    "normalize_sweep",
    "point_key",
    "point_record",
    "tpi_record",
    "canonical_json",
    "compute_point",
]

#: Format version stamped into every served record.
RECORD_SCHEMA = 1


def _require_object(payload: Any) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise BadRequestError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _config_from(payload: Dict[str, Any]) -> SystemConfig:
    """Build the design point from either request spelling.

    A ``config`` object uses the :meth:`SystemConfig.to_dict` schema
    (byte sizes); without one, the CLI-flag spelling (``l1_kb``,
    ``l2_kb``, ``l2_assoc``, ``exclusive``, ``off_chip_ns``,
    ``dual_ported``) is accepted for curl-friendliness.
    """
    if "config" in payload:
        return SystemConfig.from_dict(payload["config"])
    try:
        l1_kb = float(payload["l1_kb"])
    except KeyError:
        raise BadRequestError(
            "request needs either a 'config' object or an 'l1_kb' size"
        ) from None
    except (TypeError, ValueError):
        raise BadRequestError("'l1_kb' must be a number") from None
    try:
        document = {
            "l1_bytes": int(l1_kb * 1024),
            "l2_bytes": int(float(payload.get("l2_kb", 0)) * 1024),
            "l2_associativity": int(payload.get("l2_assoc", 4)),
            "policy": "EXCLUSIVE" if payload.get("exclusive") else "CONVENTIONAL",
            "off_chip_ns": float(payload.get("off_chip_ns", 50.0)),
        }
    except (TypeError, ValueError):
        raise BadRequestError("non-numeric cache dimension in request") from None
    config = SystemConfig.from_dict(document)
    if payload.get("dual_ported"):
        config = config.dual_ported()
    return config


def _workload_from(payload: Dict[str, Any]) -> str:
    workload = payload.get("workload", "gcc1")
    if not isinstance(workload, str) or workload not in WORKLOADS:
        known = ", ".join(WORKLOADS)
        raise BadRequestError(f"unknown workload {workload!r}; known: {known}")
    return workload


def _scale_from(payload: Dict[str, Any]) -> Optional[float]:
    scale = payload.get("scale")
    if scale is None:
        return None
    try:
        scale = float(scale)
    except (TypeError, ValueError):
        raise BadRequestError("'scale' must be a number") from None
    if not (scale > 0 and math.isfinite(scale)):
        raise BadRequestError("'scale' must be a positive finite number")
    return scale


def normalize_point(payload: Any) -> Tuple[SystemConfig, str, Optional[float]]:
    """Validate an evaluate/TPI request body into canonical pieces.

    Raises a typed 400 for anything malformed — validation happens
    *before* admission, so a failure past this point is infrastructure
    (503/504), never bad input.
    """
    payload = _require_object(payload)
    try:
        config = _config_from(payload)
    except ConfigurationError as error:
        raise BadRequestError(str(error)) from None
    return config, _workload_from(payload), _scale_from(payload)


def _size_list(payload: Dict[str, Any], field: str) -> Optional[List[int]]:
    raw = payload.get(field)
    if raw is None:
        return None
    if not isinstance(raw, list) or not raw:
        raise BadRequestError(f"'{field}' must be a non-empty list of KB sizes")
    try:
        return [int(float(item) * 1024) for item in raw]
    except (TypeError, ValueError):
        raise BadRequestError(f"'{field}' must contain only numbers") from None


def normalize_sweep(
    payload: Any,
) -> Tuple[List[SystemConfig], str, Optional[float]]:
    """Validate a sweep/envelope request into an ordered design space.

    The point order is the deterministic :func:`design_space` order, so
    the assembled response is byte-identical to a fresh serial sweep of
    the same template whatever mixture of memo hits and cold computes
    produced the individual points.
    """
    payload = _require_object(payload)
    try:
        template = (
            SystemConfig.from_dict(payload["template"])
            if "template" in payload
            else _config_from(payload)
            if ("config" in payload or "l1_kb" in payload)
            else None
        )
        configs = design_space(
            template,
            l1_sizes=_size_list(payload, "l1_sizes_kb"),
            l2_sizes=_size_list(payload, "l2_sizes_kb"),
            include_single_level=bool(payload.get("include_single_level", True)),
        )
    except ConfigurationError as error:
        raise BadRequestError(str(error)) from None
    if not configs:
        raise BadRequestError("the requested sweep enumerates zero design points")
    return configs, _workload_from(payload), _scale_from(payload)


def point_key(config: SystemConfig, workload: str, scale: Optional[float]) -> str:
    """The canonical content hash a point request is served under."""
    return unit_key(
        {
            "kind": "evaluate",
            "workload": workload,
            "scale": scale,
            "config": config.to_dict(),
        }
    )


def point_record(perf: SystemPerformance) -> dict:
    """The full JSON-safe evaluate record a 200 response serializes."""
    stats = perf.stats
    return {
        "schema": RECORD_SCHEMA,
        "kind": "evaluate",
        "label": perf.label,
        "workload": perf.workload,
        "config": perf.config.to_dict(),
        "levels": "2-level" if perf.config.has_l2 else "1-level",
        "tpi_ns": perf.tpi_ns,
        "area_rbe": perf.area_rbe,
        "l1_cycle_ns": perf.tpi.timings.l1_cycle_ns,
        "l1_miss_rate": stats.l1_miss_rate,
        "l2_local_miss_rate": stats.l2_local_miss_rate,
        "global_miss_rate": stats.global_miss_rate,
        "memory_fraction": perf.tpi.memory_fraction,
    }


def tpi_record(record: dict) -> dict:
    """The ``/v1/tpi`` projection of a stored evaluate record.

    A deterministic projection of the memoized record, so the TPI
    endpoint inherits the byte-identity guarantee without a second
    memo entry per point.
    """
    return {
        "schema": RECORD_SCHEMA,
        "kind": "tpi",
        "label": record["label"],
        "workload": record["workload"],
        "tpi_ns": record["tpi_ns"],
        "area_rbe": record["area_rbe"],
    }


def canonical_json(document: dict) -> str:
    """The one serialization 200 responses use (byte-identity contract)."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def compute_point(request: dict) -> dict:
    """Evaluate one normalized point — the pool-worker entry point.

    ``request`` is the plain-JSON shape the service submits:
    ``{"key", "config", "workload", "scale"}``.  Runs the same fault
    hooks as a batch unit (under the canonical key as unit id), so the
    serve-side ``REPRO_FAULTS`` kinds fire here, inside the worker.
    Returns the record plus the worker's peak RSS for the watchdog.

    ``budget_s``, when present, is the request's deadline propagated
    into the worker as a wall-clock budget: on the worker's main thread
    the pre-emptive ``SIGALRM`` cancels the computation the moment the
    budget blows — the pool slot is freed at the same instant the
    service answers 504, instead of the abandoned compute occupying a
    worker.  (On the degraded in-thread path the budget is enforced
    post-hoc; the slot frees when the unit completes.)
    """
    key = request["key"]
    config = SystemConfig.from_dict(request["config"])
    with unit_timeout(request.get("budget_s")):
        with faults.unit_scope(key):
            faults.before_unit(key)
            perf = evaluate(config, request["workload"], scale=request["scale"])
    return {"record": point_record(perf), "rss_bytes": peak_rss_bytes()}
