"""Content-addressed memo store with integrity-verified reads.

The store is a managed artefact directory (``<store>/memo/``): each
entry is the canonical JSON of one evaluate record at ``<key>.json``,
written atomically with a sha256 sidecar and bound into the directory's
``MANIFEST.json`` — the same discipline as every other artefact tree,
so ``repro verify`` works on a serve store unchanged.

Reads are *integrity-verified*: an entry is only served when its bytes
re-hash to the sidecar digest.  Anything else — missing sidecar,
unparsable sidecar, digest mismatch, undecodable JSON — demotes the
request to a cold compute, and actual corruption of an entry is handed
to :func:`repro.runner.integrity.verify_artifact`, the per-artefact
arbitration of ``repro verify --repair``, which quarantines that entry
alone (or rewrites its rotten sidecar).  A poisoned entry is therefore
*detected, quarantined, and recomputed* — never served, which is the
property the ``poisonmemo`` chaos fault exists to prove.

A warm read costs one sidecar read, one read of the entry's bytes and
one sha256 over those bytes in memory — on every request, so damage
that lands after a hit is still caught on the next one.  What a read
may skip is the decode: a bounded map from *verified digest* to the
parsed record and its canonical body.  The digest is the sha256 of the
exact bytes just read, so a reused entry equals what ``json.loads``
plus :func:`~repro.serve.compute.canonical_json` would give for them.
Serving a cached body without re-reading the file would skip the check
that catches bit rot, so the map is never consulted before the hash.
:meth:`MemoStore.probe` is that check alone, never a write or a counted
miss, so ``repro serve`` answers a verified hit on its event loop and
sends only what the probe cannot vouch for to :meth:`MemoStore.read`.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import IntegrityError
from ..runner import faults
from ..runner.atomic import write_text_atomic
from ..runner.integrity import (
    load_manifest,
    read_sidecar,
    refresh_manifest_entry,
    untrack,
    verify_artifact,
)
from .compute import canonical_json

__all__ = ["MEMO_DIR", "MemoEntry", "MemoStore"]

#: Sub-directory of the serve store holding memo entries.
MEMO_DIR = "memo"

#: A verified entry: the parsed record and its canonical body bytes.
MemoEntry = Tuple[dict, bytes]


class MemoStore:
    """Persistent memoization of evaluate records, keyed by config hash.

    Every write to ``hits``, ``misses``, ``quarantined`` and the
    verified-body map holds ``_lock``: ``repro serve`` probes on its loop
    and reads on its I/O thread, the one thread that changes the files.
    """

    #: Bound on the digest -> decoded entry map (oldest dropped first).
    VERIFIED_ENTRIES = 512

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self._verified: Dict[str, MemoEntry] = {}
        self._lock = threading.Lock()

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def __len__(self) -> int:
        entries = (p for p in self.root.glob("*.json") if p.name != "MANIFEST.json")
        return sum(1 for _ in entries)

    def _demote_corrupt(self, key: str) -> None:
        """Repair ``key``'s damaged entry alone, and its manifest entry.

        Only a quarantined entry counts in ``quarantined``: a rewritten
        rotten sidecar is a repair of an intact entry.
        """
        try:
            manifest = load_manifest(self.root)
        except IntegrityError:
            manifest = None  # refresh_manifest_entry rebuilds it
        findings = verify_artifact(self.path(key), manifest, repair=True)
        refresh_manifest_entry(self.path(key))
        if any(finding.action.startswith("quarantined") for finding in findings):
            with self._lock:
                self.quarantined += 1

    def _verify(self, key: str) -> Tuple[Optional[MemoEntry], Optional[str]]:
        """``(entry, None)`` on a counted hit, else ``(None, damage)``, where
        damage is what :meth:`read` repairs: ``"corrupt"``, ``"undecodable"``
        or None.  The sidecar is read before the bytes, so an entry
        quarantined between the two reads is a plain miss.
        """
        path = self.path(key)
        try:
            recorded = read_sidecar(path)
            data = None if recorded is None else path.read_bytes()
        except IntegrityError:
            return None, "corrupt"  # the sidecar itself is rotten
        except FileNotFoundError:
            # Quarantined or removed mid-read (say, by a concurrent
            # ``repro verify --repair``): the point computes cold.
            data = None
        if data is None:  # vanished, or unvouched (written around the store)
            return None, None
        if hashlib.sha256(data).hexdigest() != recorded:
            return None, "corrupt"  # post-write damage
        cached = self._verified.get(recorded)
        entry = cached or self._decode(data)
        if entry is None:
            return None, "undecodable"
        with self._lock:
            if cached is None:
                if len(self._verified) >= self.VERIFIED_ENTRIES:
                    del self._verified[next(iter(self._verified))]
                self._verified[recorded] = entry
            self.hits += 1
        return entry, None

    def probe(self, key: str) -> Optional[MemoEntry]:
        """:meth:`read` without repairs: the verified entry, or None, which
        means "ask :meth:`read`" (it counts the miss), not "miss"."""
        return self._verify(key)[0]

    def read(self, key: str) -> Optional[MemoEntry]:
        """The verified ``(record, canonical body)`` for ``key``, or None.

        Never raises for a damaged entry and never returns one: every
        corruption shape ends in quarantine (or removal) plus a miss.
        """
        entry, damage = self._verify(key)
        if entry is not None:
            return entry
        path = self.path(key)
        if damage == "undecodable":
            # Hash-consistent but semantically unusable: a bad store()
            # blessed garbage.  Drop it so the rewrite replaces it.
            path.unlink(missing_ok=True)
            untrack(path)
            refresh_manifest_entry(path)
        elif damage == "corrupt" and path.exists():
            # Repair rewrites a rotten sidecar or quarantines the entry;
            # the entry is not trusted either way.
            self._demote_corrupt(key)
        with self._lock:
            self.misses += 1
        return None

    @staticmethod
    def _decode(data: bytes) -> Optional[MemoEntry]:
        try:
            record = json.loads(data.decode("utf-8"))
        except ValueError:  # undecodable text or JSON
            return None
        if not isinstance(record, dict) or "kind" not in record:
            return None
        return record, canonical_json(record).encode("utf-8")

    def read_many(self, keys: Sequence[str]) -> List[Optional[MemoEntry]]:
        """:meth:`read` for each key, in order (one executor hop)."""
        return [self.read(key) for key in keys]

    def load(self, key: str) -> Optional[dict]:
        """The verified record for ``key``, or None (treat as cold)."""
        entry = self.read(key)
        return None if entry is None else entry[0]

    def store(self, key: str, record: dict) -> None:
        """Persist ``record`` under ``key`` with full integrity tracking.

        The ``poisonmemo`` fault hook runs *after* the sidecar is
        recorded — the damage shape is post-write bit rot, which the
        next :meth:`load` must catch.  Only ``key``'s manifest entry is
        re-entered: a store reads one sidecar, not one per entry.
        """
        path = self.path(key)
        write_text_atomic(path, canonical_json(record), track=True)
        faults.damage_memo(key, path)
        refresh_manifest_entry(path)
