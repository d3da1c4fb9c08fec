"""End-to-end artefact integrity: sha256 sidecars, manifests, verification.

A silently bit-rotted result JSON skews a TPI-vs-area envelope with no
error anywhere, so every artefact the library persists can be
*self-verifying*:

* each tracked artefact gets a **sidecar** — ``<name>.sha256`` next to
  it, in ``sha256sum`` format — written immediately after the atomic
  rename (:func:`~repro.runner.atomic.atomic_open` with ``track=True``);
* each managed directory gets a **manifest** — ``MANIFEST.json``
  collecting the sidecar digests of every artefact in that directory —
  rebuilt at the end of a run from the sidecars (never by re-hashing,
  so a post-write corruption cannot be blessed into the manifest);
* :func:`verify_tree` walks a results tree, re-hashes every artefact,
  and cross-checks file, sidecar, and manifest.  With ``repair=True``
  corrupt artefacts are moved to a ``quarantine/`` sub-directory (the
  resume path then re-runs exactly the affected units) while stale
  integrity records are rewritten in place.

Append-mutable files — run journals, whose contents legitimately change
on every append — are *volatile*: the manifest lists them by name only,
their sidecar tracks the latest flush, and verification never
quarantines them (the journal format self-validates on load).  This
keeps the manifest itself byte-deterministic across equivalent runs,
which is what the chaos soak's byte-identical convergence check relies
on.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

from ..errors import IntegrityError
from ..obs.telemetry import Telemetry
from .atomic import write_text_atomic
from .watchdog import ResourceWatchdog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import RunResult

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "SIDECAR_SUFFIX",
    "QUARANTINE_DIR",
    "RUN_METADATA_NAME",
    "FAILURES_NAME",
    "open_run_dir",
    "close_run_dir",
    "hash_file",
    "write_sidecar",
    "read_sidecar",
    "matches_sidecar",
    "untrack",
    "is_volatile",
    "write_manifest",
    "refresh_manifest_entry",
    "load_manifest",
    "IntegrityFinding",
    "IntegrityReport",
    "verify_tree",
    "verify_artifact",
    "tree_fingerprint",
]

#: Per-directory manifest file name and its format version.
MANIFEST_NAME = "MANIFEST.json"
MANIFEST_SCHEMA = 1

#: Suffix of the per-artefact digest sidecar (``sha256sum`` format).
SIDECAR_SUFFIX = ".sha256"

#: Sub-directory corrupt artefacts are moved into by ``--repair``.
QUARANTINE_DIR = "quarantine"

#: Re-run metadata written by :func:`open_run_dir` so
#: ``repro verify --repair`` can re-execute the affected units.
RUN_METADATA_NAME = "RUN.json"

#: Failure manifest of a run directory: one error record per failed unit.
FAILURES_NAME = "FAILURES.json"

_CHUNK = 1 << 20

#: The digest field a canonical sidecar opens with.
_DIGEST = re.compile(rb"[0-9a-f]{64}")


def hash_file(path: Union[str, Path]) -> str:
    """The sha256 hex digest of ``path``'s current contents."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + SIDECAR_SUFFIX)


def write_sidecar(path: Union[str, Path], digest: Optional[str] = None) -> str:
    """Persist ``path``'s sha256 to its ``.sha256`` sidecar.

    The sidecar uses ``sha256sum`` format (``<hex>  <name>``), so a
    tree is independently checkable with coreutils.  ``digest`` is the
    file's digest when the caller already knows it; otherwise the file
    is hashed.  Returns the digest.
    """
    path = Path(path)
    if digest is None:
        digest = hash_file(path)
    write_text_atomic(_sidecar_path(path), f"{digest}  {path.name}\n")
    return digest


def read_sidecar(path: Union[str, Path]) -> Optional[str]:
    """The digest recorded for ``path``, or None without a sidecar.

    Raises
    ------
    IntegrityError
        If a sidecar exists but is not byte-for-byte in the canonical
        ``sha256sum`` form (``<hex>  <name>\\n``).  Full-content
        strictness matters: a bit flip in the *name* field would leave
        the digest parsable and the artefact verifiable, yet silently
        diverge the byte-level tree fingerprint — so any deviation is
        corruption, and repair rewrites the canonical form.
    """
    name = os.path.basename(path)
    sidecar = f"{os.fspath(path)}{SIDECAR_SUFFIX}"
    try:
        with open(sidecar, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return None
    if _DIGEST.match(data) and data[64:] == b"  " + os.fsencode(name) + b"\n":
        return data[:64].decode("ascii")
    # Not canonical: decode only to say how the sidecar is corrupt.
    try:
        raw = data.decode("utf-8")
    except UnicodeDecodeError:
        raise IntegrityError(
            f"{sidecar}: corrupt sha256 sidecar (not valid text)"
        ) from None
    digest = raw.split()[0] if raw.strip() else ""
    if not _DIGEST.fullmatch(digest.encode("utf-8")):
        raise IntegrityError(f"{sidecar}: corrupt sha256 sidecar: {raw.strip()[:40]!r}")
    raise IntegrityError(f"{sidecar}: sidecar deviates from canonical sha256sum form")


def matches_sidecar(path: Union[str, Path]) -> bool:
    """True when ``path`` matches its sidecar (or has no sidecar).

    A missing sidecar is a pass — artefacts written before integrity
    tracking existed stay resumable — while a corrupt sidecar fails,
    forcing the owning unit to re-run and rewrite both.
    """
    path = Path(path)
    try:
        expected = read_sidecar(path)
    except IntegrityError:
        return False
    if expected is None:
        return True
    try:
        return hash_file(path) == expected
    except OSError:
        return False


def untrack(path: Union[str, Path]) -> None:
    """Remove ``path``'s sidecar (for artefacts that were deleted)."""
    _sidecar_path(Path(path)).unlink(missing_ok=True)


def is_volatile(name: str) -> bool:
    """True for artefacts whose bytes legitimately differ between runs.

    Run journals carry wall-clock ``elapsed_s`` and attempt counts, and
    the telemetry snapshots (``METRICS.jsonl`` / ``SPANS.jsonl``) are
    made of measured durations, so two byte-equivalent runs still
    produce different copies; they are tracked by existence + sidecar,
    never by a manifest digest — which keeps the manifest's digest map
    identical between telemetry-on and telemetry-off runs.
    """
    return (
        name == "journal.jsonl"
        or name.endswith(".journal.jsonl")
        or name in ("METRICS.jsonl", "SPANS.jsonl")
    )


def _is_integrity_name(name: str) -> bool:
    return name == MANIFEST_NAME or name.endswith(SIDECAR_SUFFIX) or name.endswith(".tmp")


def _enter(payload: dict, target: Path) -> None:
    """Enter ``target`` into the manifest ``payload`` from its sidecar.

    A volatile artefact is listed by name; any other gets its sidecar
    digest and current size.  Nothing is entered for an integrity
    record, or for an artefact or sidecar that is gone.
    """
    name = target.name
    if _is_integrity_name(name) or not target.exists():
        return
    if is_volatile(name):
        if _sidecar_path(target).exists():
            payload["volatile"].append(name)
        return
    digest = read_sidecar(target)
    if digest is not None:
        payload["artifacts"][name] = {"sha256": digest, "size": target.stat().st_size}


def _save_manifest(directory: Path, payload: dict) -> dict:
    # One line, without ``indent``: an indented dump runs the pure-Python
    # encoder, ~3x slower on a memo store's manifest.
    payload["volatile"].sort()
    write_text_atomic(
        directory / MANIFEST_NAME, json.dumps(payload, sort_keys=True) + "\n"
    )
    return payload


def write_manifest(directory: Union[str, Path]) -> dict:
    """Rebuild ``directory``'s ``MANIFEST.json`` from its sidecars.

    Entries come from the sidecar digests recorded at artefact-write
    time — deliberately *not* from re-hashing the files, so corruption
    that happened after the write cannot be blessed into the manifest.
    Volatile artefacts (journals) are listed by name without a digest.
    """
    directory = Path(directory)
    payload: dict = {"manifest": MANIFEST_SCHEMA, "artifacts": {}, "volatile": []}
    for sidecar in sorted(directory.glob("*" + SIDECAR_SUFFIX)):
        _enter(payload, directory / sidecar.name[: -len(SIDECAR_SUFFIX)])
    return _save_manifest(directory, payload)


def refresh_manifest_entry(path: Union[str, Path]) -> None:
    """Re-enter ``path`` alone into its directory's ``MANIFEST.json``.

    The entry comes from ``path``'s sidecar, as :func:`write_manifest`
    makes it, and is dropped when the artefact or its sidecar is gone;
    every other entry is kept as it stands.  So one artefact's change
    costs one sidecar read, not one per artefact in the directory.  A
    missing or unreadable manifest is rebuilt in full instead.
    """
    path = Path(path)
    try:
        payload = load_manifest(path.parent)
    except IntegrityError:
        payload = None
    if payload is None:
        write_manifest(path.parent)
        return
    payload["artifacts"].pop(path.name, None)
    payload["volatile"] = [name for name in payload["volatile"] if name != path.name]
    _enter(payload, path)
    _save_manifest(path.parent, payload)


def open_run_dir(
    out: Path,
    metadata: dict,
    telemetry: Union[bool, Telemetry] = False,
    watchdog: Optional[ResourceWatchdog] = None,
) -> Tuple[Optional[Telemetry], ResourceWatchdog]:
    """Open a managed run directory (a report or a sweep) before its units run.

    Creates ``out``; binds the telemetry bundle to it (True builds a
    fresh one, False means none); hands that bundle to the watchdog (a
    stock :class:`~repro.runner.watchdog.ResourceWatchdog` when None)
    unless it already reports elsewhere; runs the run's one disk
    preflight; and writes ``metadata`` as the tracked ``RUN.json``
    re-run recipe.  Returns the bound bundle and the watchdog.
    """
    out.mkdir(parents=True, exist_ok=True)
    bundle: Optional[Telemetry] = None
    if telemetry:
        bundle = (telemetry if isinstance(telemetry, Telemetry) else Telemetry()).bind(out)
    guard = watchdog if watchdog is not None else ResourceWatchdog()
    if guard.telemetry is None:
        guard.telemetry = bundle
    guard.preflight_disk(out)
    write_text_atomic(
        out / RUN_METADATA_NAME,
        json.dumps(metadata, sort_keys=True) + "\n",
        track=True,
    )
    return bundle, guard


def close_run_dir(out: Path, run: "RunResult") -> None:
    """Close a managed run directory once its result artefacts are written.

    Writes the tracked ``FAILURES.json`` when a unit failed, or removes
    a stale one and its sidecar after a healing run, then rebuilds
    ``MANIFEST.json`` so even a failed run leaves a verifiable tree.
    """
    failures_path = out / FAILURES_NAME
    if run.failed:
        write_text_atomic(
            failures_path,
            json.dumps(run.failures_manifest(), indent=2) + "\n",
            track=True,
        )
    else:
        failures_path.unlink(missing_ok=True)
        untrack(failures_path)
    write_manifest(out)


def load_manifest(directory: Union[str, Path]) -> Optional[dict]:
    """Parse ``directory``'s manifest; None when absent.

    Raises
    ------
    IntegrityError
        If the manifest exists but is unparsable or malformed, down to
        each entry: a damaged ``sha256`` or ``size`` key must not read
        as an entry that records nothing.
    """
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise IntegrityError(f"{path}: corrupt manifest (not valid JSON)") from None
    if (
        not isinstance(payload, dict)
        or payload.get("manifest") != MANIFEST_SCHEMA
        or not isinstance(payload.get("artifacts"), dict)
        or not isinstance(payload.get("volatile"), list)
        or not all(
            isinstance(entry, dict)
            and isinstance(entry.get("sha256"), str)
            and isinstance(entry.get("size"), int)
            for entry in payload["artifacts"].values()
        )
    ):
        raise IntegrityError(f"{path}: malformed manifest document")
    return payload


@dataclass(frozen=True)
class IntegrityFinding:
    """One verification problem at one artefact (or integrity record).

    ``kind`` is one of ``corrupt-artifact``, ``missing-artifact``,
    ``stale-sidecar``, ``corrupt-sidecar``, ``stale-manifest``,
    ``corrupt-manifest``.  ``action`` records what ``repair=True`` did:
    ``quarantined``, ``rewrote-sidecar``, ``rewrote-manifest``,
    ``dropped-entry``, or ``""`` when nothing was repaired.
    """

    path: str
    kind: str
    detail: str
    action: str = ""

    def to_record(self) -> Dict[str, str]:
        return {
            "path": self.path,
            "kind": self.kind,
            "detail": self.detail,
            "action": self.action,
        }


@dataclass(frozen=True)
class IntegrityReport:
    """Outcome of one :func:`verify_tree` walk."""

    root: str
    findings: Tuple[IntegrityFinding, ...]
    n_artifacts: int
    n_directories: int
    repaired: bool = False

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def corrupt(self) -> List[IntegrityFinding]:
        return [
            f
            for f in self.findings
            if f.kind in ("corrupt-artifact", "missing-artifact")
        ]

    def to_record(self) -> dict:
        return {
            "schema": 1,
            "root": self.root,
            "clean": self.clean,
            "n_artifacts": self.n_artifacts,
            "n_directories": self.n_directories,
            "repaired": self.repaired,
            "findings": [f.to_record() for f in self.findings],
        }

    def render(self) -> str:
        lines = [
            f"verified {self.n_artifacts} artefact(s) in "
            f"{self.n_directories} director{'y' if self.n_directories == 1 else 'ies'} "
            f"under {self.root}"
        ]
        for finding in self.findings:
            suffix = f" [{finding.action}]" if finding.action else ""
            lines.append(
                f"  {finding.kind}: {finding.path}: {finding.detail}{suffix}"
            )
        lines.append("clean" if self.clean else f"{len(self.findings)} problem(s)")
        return "\n".join(lines)


def _managed_directories(root: Path) -> Iterator[Path]:
    """Directories under ``root`` carrying integrity records."""
    if not root.is_dir():
        raise IntegrityError(f"{root}: not a directory")
    for directory in sorted([root, *[p for p in root.rglob("*") if p.is_dir()]]):
        if QUARANTINE_DIR in directory.relative_to(root).parts:
            continue
        has_records = (directory / MANIFEST_NAME).exists() or any(
            directory.glob("*" + SIDECAR_SUFFIX)
        )
        if has_records:
            yield directory


def _quarantine(directory: Path, name: str) -> str:
    """Move ``directory/name`` into the quarantine sub-directory."""
    corral = directory / QUARANTINE_DIR
    corral.mkdir(parents=True, exist_ok=True)
    target = corral / name
    serial = 0
    while target.exists():
        serial += 1
        target = corral / f"{name}.{serial}"
    os.replace(directory / name, target)
    return f"{QUARANTINE_DIR}/{target.name}"


def _try_hash(path: Path) -> Optional[str]:
    try:
        return hash_file(path)
    except OSError:
        return None


def verify_tree(
    root: Union[str, Path],
    repair: bool = False,
    telemetry: Optional["Telemetry"] = None,
) -> IntegrityReport:
    """Re-hash every tracked artefact under ``root`` and cross-check.

    For each artefact the file's current digest is compared against its
    sidecar and its manifest entry; the two records arbitrate:

    * file ≠ records (records agree, or only one exists) — the artefact
      is **corrupt**; ``repair`` quarantines it so the resume path
      re-runs its unit;
    * file matches one record but not the other — the odd record is
      **stale**; ``repair`` rewrites it from the file;
    * unparsable manifest / sidecar — reported; ``repair`` rebuilds the
      manifest from sidecars and rewrites sidecars from files that
      still match the manifest.

    Volatile artefacts (journals, telemetry snapshots) are checked for
    existence and sidecar freshness only and are never quarantined —
    the journal format validates itself on load.

    ``telemetry`` (a :class:`~repro.obs.telemetry.Telemetry` bundle, or
    None) counts the walk: artefacts verified, findings by kind, and
    quarantines — the corruption counters the chaos soak and the serve
    memo store surface.
    """
    root = Path(root)
    findings: List[IntegrityFinding] = []
    n_artifacts = 0
    n_directories = 0
    for directory in _managed_directories(root):
        n_directories += 1
        try:
            findings_here, n_here = _verify_directory(root, directory, repair)
        except OSError as error:
            raise IntegrityError(f"{directory}: cannot verify: {error}") from None
        findings.extend(findings_here)
        n_artifacts += n_here
        if repair and any(f.action for f in findings_here):
            write_manifest(directory)
    if telemetry is not None:
        telemetry.count("repro_integrity_verified_total", float(n_artifacts))
        for finding in findings:
            telemetry.count("repro_integrity_findings_total", kind=finding.kind)
            if finding.action.startswith("quarantined"):
                telemetry.count("repro_integrity_quarantined_total")
    return IntegrityReport(
        root=str(root),
        findings=tuple(findings),
        n_artifacts=n_artifacts,
        n_directories=n_directories,
        repaired=repair,
    )


def _verify_directory(
    root: Path, directory: Path, repair: bool
) -> Tuple[List[IntegrityFinding], int]:
    findings: List[IntegrityFinding] = []
    manifest_names: List[str] = []
    manifest_volatile: List[str] = []
    try:
        manifest = load_manifest(directory)
    except IntegrityError as error:
        manifest = None
        findings.append(
            IntegrityFinding(
                path=str(directory / MANIFEST_NAME),
                kind="corrupt-manifest",
                detail=str(error),
                action="rewrote-manifest" if repair else "",
            )
        )
    if manifest is not None:
        manifest_names = list(manifest["artifacts"])
        manifest_volatile = [str(name) for name in manifest["volatile"]]

    sidecar_names = {
        sidecar.name[: -len(SIDECAR_SUFFIX)]
        for sidecar in directory.glob("*" + SIDECAR_SUFFIX)
    }
    names = sorted(
        (set(manifest_names) | set(manifest_volatile) | sidecar_names)
        - {name for name in sidecar_names if _is_integrity_name(name)}
    )
    n_artifacts = 0
    for name in names:
        path = directory / name
        rel = str(path.relative_to(root)) if path != root else name
        n_artifacts += 1
        if is_volatile(name):
            findings.extend(_verify_volatile(path, rel, repair))
            continue
        findings.extend(verify_artifact(path, manifest, repair, rel))
    return findings, n_artifacts


def _verify_volatile(path: Path, rel: str, repair: bool) -> List[IntegrityFinding]:
    if not path.exists():
        untrack(path)
        return [
            IntegrityFinding(
                path=rel,
                kind="missing-artifact",
                detail="volatile artefact (journal) is gone",
                action="dropped-entry" if repair else "",
            )
        ]
    try:
        expected = read_sidecar(path)
    except IntegrityError:
        expected = ""
    if expected is not None and _try_hash(path) != expected:
        # A crash between a journal flush and its sidecar write leaves
        # the sidecar stale; the journal self-validates on load, so the
        # record — not the artefact — is what gets repaired.
        if repair:
            write_sidecar(path)
        return [
            IntegrityFinding(
                path=rel,
                kind="stale-sidecar",
                detail="volatile artefact moved past its sidecar",
                action="rewrote-sidecar" if repair else "",
            )
        ]
    return []


def verify_artifact(
    path: Path, manifest: Optional[dict], repair: bool, rel: Optional[str] = None
) -> List[IntegrityFinding]:
    """Arbitrate one artefact between its bytes, its sidecar and its entry
    in ``manifest`` (its directory's, loaded), as :func:`verify_tree`
    does for each.  ``repair`` quarantines a corrupt artefact or rewrites
    a stale or rotten sidecar; the caller rewrites the manifest.
    """
    directory = path.parent
    rel = path.name if rel is None else rel
    entry = (manifest or {}).get("artifacts", {}).get(path.name)
    recorded = entry.get("sha256") if isinstance(entry, dict) else None
    manifest_sha256 = str(recorded).lower() if recorded else ""
    sidecar_corrupt = False
    try:
        sidecar_digest = read_sidecar(path)
    except IntegrityError:
        sidecar_digest = None
        sidecar_corrupt = True
    if not path.exists():
        if repair:
            untrack(path)
        return [
            IntegrityFinding(
                path=rel,
                kind="missing-artifact",
                detail="artefact listed in integrity records is gone",
                action="dropped-entry" if repair else "",
            )
        ]
    actual = _try_hash(path)
    records = [d for d in (manifest_sha256, sidecar_digest) if d]

    if actual is not None and records and actual in records:
        findings: List[IntegrityFinding] = []
        if sidecar_corrupt or (sidecar_digest and sidecar_digest != actual):
            if repair:
                write_sidecar(path)
            findings.append(
                IntegrityFinding(
                    path=rel,
                    kind="corrupt-sidecar" if sidecar_corrupt else "stale-sidecar",
                    detail="sidecar disagrees with artefact and manifest",
                    action="rewrote-sidecar" if repair else "",
                )
            )
        elif sidecar_digest is None and not sidecar_corrupt:
            if repair:
                write_sidecar(path)
            findings.append(
                IntegrityFinding(
                    path=rel,
                    kind="stale-sidecar",
                    detail="artefact has a manifest entry but no sidecar",
                    action="rewrote-sidecar" if repair else "",
                )
            )
        if manifest_sha256 and manifest_sha256 != actual:
            findings.append(
                IntegrityFinding(
                    path=rel,
                    kind="stale-manifest",
                    detail="manifest entry disagrees with artefact and sidecar",
                    action="rewrote-manifest" if repair else "",
                )
            )
        return findings

    if not records:
        # Sidecar unreadable and no manifest entry: the artefact cannot
        # be vouched for; rewrite the record from the file (the unit
        # that produced it validated the content when it wrote it).
        if repair:
            write_sidecar(path)
        return [
            IntegrityFinding(
                path=rel,
                kind="corrupt-sidecar",
                detail="sidecar unreadable and no manifest entry to arbitrate",
                action="rewrote-sidecar" if repair else "",
            )
        ]

    action = ""
    if repair:
        untrack(path)
        action = f"quarantined -> {_quarantine(directory, path.name)}"
    expected = " / ".join(sorted(set(records)))
    return [
        IntegrityFinding(
            path=rel,
            kind="corrupt-artifact",
            detail=(
                f"sha256 {actual or 'unreadable'} does not match recorded "
                f"{expected[:16]}…"
            ),
            action=action,
        )
    ]


def tree_fingerprint(root: Union[str, Path]) -> Dict[str, str]:
    """Relative path → sha256 for every *deterministic* file under ``root``.

    Volatile artefacts (journals) and their sidecars, quarantined
    corpses, and in-flight ``.tmp`` files are excluded; everything else
    — results, reports, indexes, run metadata, manifests, and the
    sidecars of deterministic artefacts — participates.  Two runs of
    the same configuration must produce identical fingerprints, which
    is the chaos soak's convergence criterion.
    """
    root = Path(root)
    fingerprint: Dict[str, str] = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        rel_parts = path.relative_to(root).parts
        if QUARANTINE_DIR in rel_parts:
            continue
        name = path.name
        if name.endswith(".tmp"):
            continue
        base = name[: -len(SIDECAR_SUFFIX)] if name.endswith(SIDECAR_SUFFIX) else name
        if is_volatile(base):
            continue
        fingerprint["/".join(rel_parts)] = hash_file(path)
    return fingerprint
