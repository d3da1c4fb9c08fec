"""Content-addressed memo store with integrity-verified reads.

The store is a managed artefact directory (``<store>/memo/``): each
entry is the canonical JSON of one evaluate record at ``<key>.json``,
written atomically with a sha256 sidecar and bound into the directory's
``MANIFEST.json`` — the same discipline as every other artefact tree,
so ``repro verify`` works on a serve store unchanged.

Reads are *integrity-verified*: an entry is only served when its bytes
re-hash to the sidecar digest.  Anything else — missing sidecar,
unparsable sidecar, digest mismatch, undecodable JSON — demotes the
request to a cold compute, and actual corruption is handed to the
existing :func:`repro.runner.integrity.verify_tree` repair machinery,
which quarantines the damaged artefact.  A poisoned entry is therefore
*detected, quarantined, and recomputed* — never served, which is the
property the ``poisonmemo`` chaos fault exists to prove.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Union

from ..errors import IntegrityError
from ..runner import faults
from ..runner.atomic import write_text_atomic
from ..runner.integrity import hash_file, read_sidecar, untrack, verify_tree, write_manifest
from .compute import canonical_json

__all__ = ["MEMO_DIR", "MemoStore"]

#: Sub-directory of the serve store holding memo entries.
MEMO_DIR = "memo"


class MemoStore:
    """Persistent memoization of evaluate records, keyed by config hash."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def has_all(self, keys: Iterable[str]) -> bool:
        """Whether every key has an entry on disk (unverified: a hint)."""
        return all(self.path(key).exists() for key in keys)

    def __len__(self) -> int:
        entries = (p for p in self.root.glob("*.json") if p.name != "MANIFEST.json")
        return sum(1 for _ in entries)

    def _demote_corrupt(self, key: str) -> None:
        """Quarantine a damaged entry through the repair machinery."""
        verify_tree(self.root, repair=True)
        self.quarantined += 1

    def load(self, key: str) -> Optional[dict]:
        """The verified record for ``key``, or None (treat as cold).

        Never raises for a damaged entry and never returns one: every
        corruption shape ends in quarantine (or removal) plus a miss.
        """
        path = self.path(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            recorded = read_sidecar(path)
            digest = None if recorded is None else hash_file(path)
        except IntegrityError:
            # The sidecar itself is rotten; repair rewrites or
            # quarantines, and the entry is not trusted either way.
            self._demote_corrupt(key)
            self.misses += 1
            return None
        except FileNotFoundError:
            # Quarantined or removed mid-read (say, by a concurrent
            # ``repro verify --repair``): the point computes cold.
            self.misses += 1
            return None
        if recorded is None or digest != recorded:
            # No sidecar = unvouched entry (someone wrote around the
            # store); mismatch = post-write damage.  Both are cold.
            if recorded is not None:
                self._demote_corrupt(key)
            self.misses += 1
            return None
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            record = None
        if not isinstance(record, dict) or "kind" not in record:
            # Hash-consistent but semantically unusable: a bad store()
            # blessed garbage.  Drop it so the rewrite replaces it.
            path.unlink(missing_ok=True)
            untrack(path)
            self.misses += 1
            return None
        self.hits += 1
        return record

    def store(self, key: str, record: dict) -> None:
        """Persist ``record`` under ``key`` with full integrity tracking.

        The ``poisonmemo`` fault hook runs *after* the sidecar is
        recorded — the damage shape is post-write bit rot, which the
        next :meth:`load` must catch.
        """
        path = self.path(key)
        write_text_atomic(path, canonical_json(record), track=True)
        faults.damage_memo(key, path)
        write_manifest(self.root)
