"""CLI-side loading and rendering: ``repro metrics`` / ``repro spans``.

``repro metrics <run-dir>`` renders the directory's ``METRICS.jsonl``
snapshot; when a run predates telemetry (or ran with it off) the
command falls back to *synthesising* a registry from the journal —
per-status unit totals, attempt counts, and a duration histogram from
the ``duration_s`` field (``elapsed_s`` for schema-1 journals) — so
every journalled run directory ever produced is inspectable.

``repro spans <run-dir>`` renders ``SPANS.jsonl`` as an indented tree
by parent links, one line per span with duration and status.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..errors import ObsError
from .metrics import METRICS_NAME, MetricsRegistry, load_metrics_file
from .spans import SPANS_NAME, load_spans_file

__all__ = [
    "find_journal",
    "load_run_metrics",
    "load_run_spans",
    "render_metrics",
    "render_spans",
]


def find_journal(run_dir: Path) -> Optional[Path]:
    """The run directory's journal file, whatever flavour it is."""
    direct = run_dir / "journal.jsonl"
    if direct.exists():
        return direct
    candidates = sorted(run_dir.glob("*.journal.jsonl"))
    return candidates[0] if candidates else None


def _journal_entries(path: Path) -> List[dict]:
    try:
        lines = path.read_text().splitlines()
    except OSError as error:
        raise ObsError(f"{path}: cannot read journal: {error}") from None
    entries = []
    for line in lines[1:]:  # skip the header
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn final append; the journal loader tolerates it too
        if isinstance(entry, dict) and "unit" in entry:
            entries.append(entry)
    return entries


def _synthesize_from_journal(journal: Path) -> List[dict]:
    registry = MetricsRegistry()
    for entry in _journal_entries(journal):
        status = str(entry.get("status", "unknown"))
        registry.counter("repro_units_total", {"status": status}).inc()
        registry.counter("repro_unit_attempts_total").inc(
            float(entry.get("attempts", 1))
        )
        duration = entry.get("duration_s", entry.get("elapsed_s"))
        if duration is not None:
            registry.histogram("repro_unit_duration_seconds").observe(
                float(duration)
            )
    return registry.snapshot()


def load_run_metrics(run_dir: Union[str, Path]) -> Tuple[List[dict], str]:
    """A run directory's metric samples and where they came from.

    Returns ``(samples, source)`` with ``source`` one of ``"metrics"``
    (a ``METRICS.jsonl`` snapshot) or ``"journal"`` (synthesised).
    Raises :class:`~repro.errors.ObsError` when neither exists.
    """
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise ObsError(f"{run_dir}: not a run directory")
    snapshot = run_dir / METRICS_NAME
    if snapshot.exists():
        return load_metrics_file(snapshot), "metrics"
    journal = find_journal(run_dir)
    if journal is not None:
        return _synthesize_from_journal(journal), "journal"
    raise ObsError(
        f"{run_dir}: no {METRICS_NAME} and no journal to synthesise metrics "
        f"from — was this directory produced by a repro run?"
    )


def load_run_spans(run_dir: Union[str, Path]) -> List[dict]:
    """A run directory's span records (requires ``SPANS.jsonl``)."""
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise ObsError(f"{run_dir}: not a run directory")
    spans = run_dir / SPANS_NAME
    if not spans.exists():
        raise ObsError(
            f"{run_dir}: no {SPANS_NAME} — re-run with --telemetry to record "
            f"spans"
        )
    return load_spans_file(spans)


def _format_value(sample: dict) -> str:
    if sample.get("type") == "histogram":
        count = sample.get("count", 0)
        total = sample.get("sum", 0.0)
        mean = total / count if count else 0.0
        return f"count={count} sum={total:.6g}s mean={mean:.6g}s"
    value = sample.get("value", 0.0)
    if float(value) == int(float(value)):
        return str(int(float(value)))
    return f"{float(value):.6g}"


def render_metrics(samples: List[dict], source: str = "metrics") -> str:
    """A human-readable table of metric samples."""
    lines = [f"# {len(samples)} series ({source})"]
    width = max((len(s["name"]) for s in samples), default=0)
    for sample in samples:
        labels = sample.get("labels") or {}
        label_text = (
            "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
            if labels
            else ""
        )
        lines.append(
            f"{sample['name']:<{width}} {sample.get('type', '?'):<9} "
            f"{_format_value(sample)}{('  ' + label_text) if label_text else ''}"
        )
    return "\n".join(lines)


def render_spans(records: List[dict], limit: Optional[int] = None) -> str:
    """Span records as an indented tree (parents before children)."""
    children: Dict[Optional[int], List[dict]] = {}
    for record in records:
        children.setdefault(record.get("parent"), []).append(record)

    lines: List[str] = []
    ids = {record["id"] for record in records}

    def walk(parent: Optional[int], depth: int) -> None:
        for record in children.get(parent, []):
            status = record.get("status", "ok")
            marker = "" if status == "ok" else f" [{status}]"
            unit = record.get("unit")
            unit_text = f" unit={unit}" if unit else ""
            lines.append(
                f"{'  ' * depth}{record['name']}"
                f" {record.get('duration_s', 0.0):.6f}s{unit_text}{marker}"
            )
            walk(record["id"], depth + 1)

    walk(None, 0)
    # Orphaned spans (a crashed run's partial flush) render as roots too.
    for parent in children:
        if parent is not None and parent not in ids:
            walk(parent, 0)
    total = len(records)
    if limit is not None and len(lines) > limit:
        lines = lines[:limit] + [f"... ({total - limit} more spans)"]
    header = f"# {total} spans"
    return "\n".join([header] + lines) if lines or total == 0 else header
