"""Crash-safe run journal: append-only JSONL of per-unit outcomes.

A journal records, for every unit of a batch run (one experiment of a
report, one configuration of a sweep), whether it completed and under
which *key* — a hash of the unit's full configuration.  An interrupted
run reopened with ``resume=True`` replays the journal and skips every
unit whose recorded key still matches, so only unfinished (or changed)
work is re-executed.

Layout: the first line is a header ``{"journal": 2}``; each following
line is one entry.  :meth:`RunJournal.record` appends one fsynced line
(:func:`~repro.runner.atomic.append_line`), so its cost does not grow
with the journal.  A crash mid-append can tear only the final line,
which is tolerated on load; corruption anywhere else raises
:class:`~repro.errors.CheckpointError`.  The file is instead rewritten
whole, through a tmp-sibling + ``os.replace``, when it is created,
reordered (:meth:`RunJournal.rewrite_ordered`), or when the journal
cannot be appended to as it stands: after a resume that found a torn
final line or an older header, or after a failed write.  So a torn
line never ends up in the middle of the file.

Schema history: version 2 added the per-entry ``duration_s`` (final
attempt wall time) and ``started_at`` / ``ended_at`` (Unix timestamps)
telemetry fields.  Version-1 journals — identical minus those fields —
are still read and resumed; new appends upgrade the header in place.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..errors import CheckpointError
from .atomic import append_line, write_text_atomic

__all__ = ["JOURNAL_SCHEMA", "SUPPORTED_JOURNAL_SCHEMAS", "unit_key", "RunJournal"]

#: Format version of the journal file.
JOURNAL_SCHEMA = 2

#: Versions this reader accepts (older versions lack optional fields only).
SUPPORTED_JOURNAL_SCHEMAS = (1, 2)


def unit_key(payload: dict) -> str:
    """Deterministic hash of a unit's configuration payload.

    The payload must be JSON-serialisable; non-JSON leaves are
    stringified so e.g. enum values hash stably.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class RunJournal:
    """The per-run checkpoint ledger (see module docstring)."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._entries: List[dict] = []
        self._latest: Dict[str, dict] = {}
        # Entries replayed from disk on open(resume=True); everything
        # past this index was recorded by the current run and may be
        # canonically reordered (see rewrite_ordered).
        self._n_loaded = 0
        # Running sha256 of the file's bytes while the next entry can
        # simply be appended; None makes the next write a full rewrite.
        self._hasher: Optional[Any] = None

    @classmethod
    def open(cls, path: Union[str, Path], resume: bool = False) -> "RunJournal":
        """Open the journal at ``path``.

        ``resume=True`` replays an existing journal (missing file =
        empty journal); ``resume=False`` starts fresh, discarding any
        prior state on disk.
        """
        journal = cls(path)
        if resume and journal.path.exists():
            journal._load()
        else:
            journal._flush()
        return journal

    def _load(self) -> None:
        try:
            data = self.path.read_bytes()
        except OSError as error:
            raise CheckpointError(f"{self.path}: cannot read journal: {error}") from None
        lines = data.decode("utf-8").splitlines()
        if not lines:
            return
        appendable = data.endswith(b"\n")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            raise CheckpointError(f"{self.path}: corrupt journal header") from None
        if (
            not isinstance(header, dict)
            or header.get("journal") not in SUPPORTED_JOURNAL_SCHEMAS
        ):
            raise CheckpointError(
                f"{self.path}: unsupported journal format {header!r}; this "
                f"repro reads journal schemas {SUPPORTED_JOURNAL_SCHEMAS}"
            )
        for number, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                if number == len(lines):
                    # Torn final append from a crashed writer; the unit
                    # it described simply re-runs.
                    appendable = False
                    break
                raise CheckpointError(
                    f"{self.path}:{number}: corrupt journal entry"
                ) from None
            if not isinstance(entry, dict) or "unit" not in entry or "status" not in entry:
                raise CheckpointError(f"{self.path}:{number}: malformed journal entry")
            self._entries.append(entry)
            self._latest[entry["unit"]] = entry
        self._n_loaded = len(self._entries)
        if appendable and header["journal"] == JOURNAL_SCHEMA:
            self._hasher = hashlib.sha256(data)

    def _flush(self) -> None:
        lines = [json.dumps({"journal": JOURNAL_SCHEMA})]
        lines += [json.dumps(entry, sort_keys=True) for entry in self._entries]
        text = "\n".join(lines) + "\n"
        # Tracked as a *volatile* artefact: the sidecar follows every
        # write, while the manifest lists the journal by name only (its
        # bytes legitimately differ between equivalent runs).
        self._hasher = None
        write_text_atomic(self.path, text, track=True)
        self._hasher = hashlib.sha256(text.encode("utf-8"))

    def _append(self, entry: dict) -> None:
        if self._hasher is None:
            self._flush()
            return
        # Taken while the line is written: a failed append leaves the
        # journal to be rewritten whole by the next write.
        hasher, self._hasher = self._hasher, None
        append_line(self.path, json.dumps(entry, sort_keys=True) + "\n", hasher)
        self._hasher = hasher

    def record(
        self,
        unit_id: str,
        key: str,
        status: str,
        *,
        attempts: int = 1,
        elapsed_s: float = 0.0,
        duration_s: Optional[float] = None,
        started_at: Optional[float] = None,
        ended_at: Optional[float] = None,
        error: Optional[dict] = None,
        result: Optional[dict] = None,
    ) -> dict:
        """Append one outcome entry and persist it durably.

        ``duration_s`` / ``started_at`` / ``ended_at`` are the schema-2
        telemetry fields (final-attempt wall time and attempt-loop Unix
        timestamps); like ``elapsed_s`` they are *volatile* — equality
        comparisons between equivalent runs must normalise them away.
        """
        entry = {
            "unit": unit_id,
            "key": key,
            "status": status,
            "attempts": attempts,
            "elapsed_s": round(elapsed_s, 6),
        }
        if duration_s is not None:
            entry["duration_s"] = round(duration_s, 6)
        if started_at is not None:
            entry["started_at"] = round(started_at, 6)
        if ended_at is not None:
            entry["ended_at"] = round(ended_at, 6)
        if error is not None:
            entry["error"] = error
        if result is not None:
            entry["result"] = result
        self._entries.append(entry)
        self._latest[unit_id] = entry
        self._append(entry)
        return entry

    def rewrite_ordered(self, unit_order: Sequence[str]) -> None:
        """Canonically reorder this run's entries and rewrite atomically.

        A parallel run journals outcomes as they *arrive* (crash-safe:
        a killed run resumes from whatever made it to disk), so entry
        order depends on worker scheduling.  Called on successful
        completion with the unit submission order, this stably reorders
        the entries appended by the current run — entries replayed from
        a resumed journal keep their position, exactly like the serial
        engine's append order — making the finished journal's contents
        independent of worker count and completion order.
        """
        position = {unit_id: index for index, unit_id in enumerate(unit_order)}
        tail = self._entries[self._n_loaded :]
        tail.sort(key=lambda entry: position.get(entry["unit"], len(position)))
        self._entries[self._n_loaded :] = tail
        self._flush()

    def entry(self, unit_id: str) -> Optional[dict]:
        """The most recent entry for ``unit_id`` (or ``None``)."""
        return self._latest.get(unit_id)

    def completed(self, unit_id: str, key: str) -> bool:
        """True if ``unit_id`` finished OK under the same configuration."""
        entry = self._latest.get(unit_id)
        return entry is not None and entry["status"] == "ok" and entry.get("key") == key

    @property
    def entries(self) -> List[dict]:
        """All entries in append order (a copy)."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
