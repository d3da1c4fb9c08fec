"""Persistence for experiment results (JSON) and whole-study reports.

Reproduction artefacts should survive the process: every
:class:`~repro.study.registry.ExperimentResult` serialises to a stable
JSON document (and back), and :func:`write_report` regenerates any set
of experiments into a directory with one ``.json`` + ``.txt`` pair per
exhibit plus an index — the bundle a reviewer would want to diff
between runs.

Reports run through the resilient engine (:mod:`repro.runner`): each
experiment is one journalled unit, so an interrupted ``write_report``
re-invoked with ``resume=True`` skips finished exhibits, a failing
exhibit can be isolated (``keep_going=True``) into a ``FAILURES.json``
manifest while the rest of the report completes, and every artefact is
written atomically (no half-written JSON after a crash).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Union

from ..errors import ExperimentError, ReproError
from ..obs.telemetry import Telemetry
from ..runner import (
    FAILURES_NAME,
    CancelToken,
    ResourceWatchdog,
    RunJournal,
    RunUnit,
    close_run_dir,
    matches_sidecar,
    open_run_dir,
    run_units,
    write_text_atomic,
)
from ..runner import faults
from .registry import Experiment, ExperimentResult, Series, experiment_ids, get_experiment

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
    "write_report",
    "JOURNAL_NAME",
    "FAILURES_NAME",
]

#: Format version for stored results.
SCHEMA_VERSION = 1

#: File names used inside a report directory.
JOURNAL_NAME = "journal.jsonl"


def result_to_dict(result: ExperimentResult) -> dict:
    """A JSON-safe representation of ``result``."""
    return {
        "schema": SCHEMA_VERSION,
        "experiment_id": result.experiment_id,
        "title": result.title,
        "notes": result.notes,
        "series": [
            {
                "name": series.name,
                "columns": list(series.columns),
                "rows": [list(row) for row in series.rows],
            }
            for series in result.series
        ],
    }


def result_from_dict(payload: dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from ``result_to_dict`` output.

    Raises
    ------
    ExperimentError
        On missing keys, malformed structure, or an unsupported schema
        version.  A document with a *newer* schema than this library
        writes gets an explicit "upgrade repro" message rather than a
        generic failure.
    """
    if not isinstance(payload, dict):
        raise ExperimentError(
            f"malformed result document: expected an object, got {type(payload).__name__}"
        )
    try:
        schema = payload["schema"]
        if not isinstance(schema, int):
            raise ExperimentError(
                f"malformed result document: schema must be an integer, got {schema!r}"
            )
        if schema > SCHEMA_VERSION:
            raise ExperimentError(
                f"result schema {schema} is newer than this repro supports "
                f"({SCHEMA_VERSION}); upgrade repro to read this file"
            )
        if schema != SCHEMA_VERSION:
            raise ExperimentError(f"unsupported result schema {schema!r}")
        if not isinstance(payload["series"], list):
            raise ExperimentError("malformed result document: series must be a list")
        series = tuple(
            Series(
                name=entry["name"],
                columns=tuple(entry["columns"]),
                rows=tuple(tuple(row) for row in entry["rows"]),
            )
            for entry in payload["series"]
        )
        return ExperimentResult(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            series=series,
            notes=payload.get("notes", ""),
        )
    except KeyError as missing:
        raise ExperimentError(f"malformed result document: missing {missing}") from None
    except TypeError:
        raise ExperimentError("malformed result document: series entries malformed") from None


def save_result(
    result: ExperimentResult, path: Union[str, Path], *, track: bool = True
) -> None:
    """Write ``result`` as pretty-printed JSON (atomic tmp+rename).

    ``track=True`` (default) records a sha256 sidecar next to the file
    so ``repro verify`` can prove the artefact unchanged later.
    """
    write_text_atomic(
        path, json.dumps(result_to_dict(result), indent=2) + "\n", track=track
    )


def load_result(path: Union[str, Path]) -> ExperimentResult:
    """Load a result written by :func:`save_result`."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ExperimentError(f"{path} is not valid JSON: {error}") from None
    return result_from_dict(payload)


def _artifact_valid(out: Path, experiment_id: str) -> bool:
    """True when both report artefacts of ``experiment_id`` load cleanly.

    Besides parsing the JSON, both artefacts must match their sha256
    sidecars (a missing sidecar — a pre-integrity artefact — passes):
    a bit-flipped ``.txt`` or a corrupted-but-still-parseable ``.json``
    re-runs on resume instead of being trusted.
    """
    json_path = out / f"{experiment_id}.json"
    txt_path = out / f"{experiment_id}.txt"
    if not txt_path.exists():
        return False
    try:
        load_result(json_path)
        if not matches_sidecar(json_path) or not matches_sidecar(txt_path):
            return False
    except (ReproError, OSError):
        return False
    return True


@dataclass(frozen=True)
class _ReportRun:
    """Picklable body of one report unit: run one exhibit, write artefacts.

    The experiment is looked up by id at call time — the first lookup
    imports the experiment modules, which registers them, so pool
    workers resolve the same experiment the parent validated up front.
    """

    out_dir: str
    experiment_id: str
    scale: Optional[float]

    def __call__(self) -> str:
        experiment = get_experiment(self.experiment_id)
        result = experiment.run(scale=self.scale)
        out = Path(self.out_dir)
        json_path = out / f"{self.experiment_id}.json"
        save_result(result, json_path, track=True)
        write_text_atomic(
            out / f"{self.experiment_id}.txt", result.render() + "\n", track=True
        )
        # Test hook: emulates post-write bit-rot that bypassed atomic
        # rename (truncation, bit flips, partial content).
        faults.damage_artifact(self.experiment_id, json_path)
        return self.experiment_id


def _report_unit(
    out: Path, experiment: Experiment, scale: Optional[float]
) -> RunUnit:
    experiment_id = experiment.experiment_id
    return RunUnit(
        unit_id=experiment_id,
        payload={
            "experiment_id": experiment_id,
            "scale": scale,
            "schema": SCHEMA_VERSION,
        },
        run=_ReportRun(str(out), experiment_id, scale),
        check_skip=lambda: _artifact_valid(out, experiment_id),
    )


def write_report(
    out_dir: Union[str, Path],
    ids: Optional[Iterable[str]] = None,
    scale: Optional[float] = None,
    *,
    resume: bool = False,
    keep_going: bool = False,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    workers: "Union[None, int, str]" = None,
    watchdog: Optional[ResourceWatchdog] = None,
    telemetry: "Union[bool, Telemetry]" = False,
    cancel: Optional[CancelToken] = None,
) -> List[str]:
    """Run experiments and write ``<id>.json`` / ``<id>.txt`` + an index.

    Parameters
    ----------
    out_dir:
        Created if missing.
    ids:
        Experiment ids to run; default all registered.
    scale:
        Trace scale passed to each experiment.
    resume:
        Replay ``journal.jsonl`` in ``out_dir`` and skip experiments
        already completed with the same id/scale/schema — provided
        their artefacts still load (corrupt or missing files re-run).
    keep_going:
        Isolate per-experiment failures: finish the rest of the report
        and write a ``FAILURES.json`` manifest instead of raising on
        the first failure.  Without it the first failure is re-raised,
        but the journal and manifest still record everything done so
        far, so a later ``resume`` run picks up where this one stopped.
    timeout_s:
        Per-experiment wall-clock budget (pre-emptive ``SIGALRM`` on a
        POSIX main thread — including pool workers — with a portable
        post-hoc deadline check everywhere else).
    retries:
        Extra attempts per experiment for transient failures, with
        exponential backoff (timeouts are not retried).
    workers:
        ``None`` (default) runs experiments serially; an integer or
        ``"auto"`` runs them in that many worker processes with the
        same journal, isolation, retry, and timeout semantics — and
        byte-identical artefacts (``elapsed_s`` in the journal aside).
    telemetry:
        True (or a pre-built :class:`~repro.obs.Telemetry` bundle)
        records per-experiment metrics and spans into
        ``METRICS.jsonl`` / ``SPANS.jsonl`` in ``out_dir`` — volatile
        artefacts that never change a result byte.
    cancel:
        Optional :class:`~repro.runner.CancelToken` (normally a
        :class:`~repro.runner.Supervisor`'s): once tripped, the run
        drains — in-flight experiments finish and are journalled, the
        rest are left for ``--resume`` — and the index/manifest below
        still cover everything that completed.

    Returns
    -------
    list of str
        The ids whose artefacts are present and valid after this call
        (freshly run or resumed), in run order.
    """
    out = Path(out_dir)
    chosen = list(ids) if ids is not None else experiment_ids()
    # Resolve everything up front: an unknown id fails fast, before any
    # artefact or journal is touched.
    experiments = [get_experiment(experiment_id) for experiment_id in chosen]
    metadata = {"run": 1, "kind": "report", "ids": chosen, "scale": scale}
    bundle, guard = open_run_dir(out, metadata, telemetry, watchdog)
    run = run_units(
        [_report_unit(out, experiment, scale) for experiment in experiments],
        workers,
        journal=RunJournal.open(out / JOURNAL_NAME, resume=resume),
        retries=retries,
        timeout_s=timeout_s,
        keep_going=keep_going,
        telemetry=bundle,
        cancel=cancel,
        watchdog=guard,
    )

    completed = {outcome.unit_id for outcome in run.completed}
    written = [eid for eid in chosen if eid in completed]
    index_lines = [
        f"{experiment.experiment_id}\t{experiment.paper_reference}\t{experiment.title}"
        for experiment in experiments
        if experiment.experiment_id in completed
    ]
    if index_lines:
        write_text_atomic(
            out / "INDEX.tsv", "\n".join(index_lines) + "\n", track=True
        )

    # Bind the directory's artefacts together before surfacing any
    # failure: even a failed run leaves a verifiable tree behind.
    close_run_dir(out, run)
    if run.failed and not keep_going:
        run.raise_first_failure()
    return written
