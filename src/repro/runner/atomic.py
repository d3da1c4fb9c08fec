"""Atomic artefact writes: tmp-sibling plus ``os.replace``.

Every file the library persists (results, reports, traces, journals)
goes through these helpers so a crash — even a SIGKILL mid-write —
leaves either the previous complete file or no file at all, never a
half-written artefact that a later load would choke on.

Durability and failure semantics:

* the temporary file is flushed and fsynced before the rename, and the
  *containing directory* is fsynced after it — without the directory
  fsync the rename itself can be lost by a crash, resurrecting the old
  artefact (or nothing) on reboot;
* a full disk (``ENOSPC``/``EDQUOT``) or a short write surfaces as a
  typed, retryable :class:`~repro.errors.CheckpointError` with the
  temporary file cleaned up, so the engine's bounded-retry policy can
  re-attempt the unit once space frees up; any other ``OSError`` (an
  ``EIO``, a permission error) surfaces as the same typed error, so the
  CLI reports it as ``error: …`` rather than a traceback;
* ``track=True`` registers the artefact with the integrity layer
  (:mod:`repro.runner.integrity`): its sha256 is recorded in a
  ``.sha256`` sidecar immediately after the rename, from which the
  per-directory ``MANIFEST.json`` is later rebuilt.

:func:`append_line` is the one non-replacing write: an append-only log
(the run journal) grows by one fsynced line at a time, so a crash can
tear only its final line, which the log's reader tolerates.
"""

from __future__ import annotations

import errno
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterator, Union

from ..errors import CheckpointError
from . import faults

__all__ = [
    "append_line",
    "atomic_open",
    "write_text_atomic",
    "write_bytes_atomic",
    "fsync_directory",
]

#: errno values reported when the filesystem runs out of room.
_NO_SPACE = frozenset(
    {errno.ENOSPC} | ({errno.EDQUOT} if hasattr(errno, "EDQUOT") else set())
)


def _tmp_sibling(path: Path) -> Path:
    return path.with_name(path.name + ".tmp")


def _write_error(path: Path, doing: str, error: OSError) -> CheckpointError:
    what = "disk full" if error.errno in _NO_SPACE else "I/O error"
    return CheckpointError(f"{path}: {what} {doing} ({error})")


def fsync_directory(directory: Union[str, Path]) -> None:
    """Flush ``directory``'s entry table to stable storage.

    ``os.replace`` makes the rename atomic, but only a directory fsync
    makes it *durable*: without it a crash shortly after the rename can
    roll the directory back to the old entry.  Best-effort — platforms
    and filesystems that cannot fsync a directory (e.g. Windows) are
    tolerated, matching the strongest guarantee they can offer.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_open(
    path: Union[str, Path], mode: str = "w", *, track: bool = False
) -> Iterator[IO[Any]]:
    """Open a ``.tmp`` sibling of ``path`` for writing.

    On clean exit the data is flushed, fsynced, and renamed into place
    with :func:`os.replace` (atomic on POSIX and Windows), and the
    containing directory is fsynced so the rename survives a crash.  On
    any exception the temporary file is removed and ``path`` is
    untouched; running out of disk space raises a retryable
    :class:`~repro.errors.CheckpointError`.  With ``track=True`` the
    completed artefact's sha256 is recorded in its integrity sidecar.
    """
    path = Path(path)
    tmp = _tmp_sibling(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(tmp, mode)
    except OSError as error:
        raise _write_error(path, "creating artefact", error) from error
    try:
        yield handle
        faults.check_write(path)
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(tmp, path)
    except OSError as error:
        handle.close()
        tmp.unlink(missing_ok=True)
        raise _write_error(path, "while writing artefact", error) from error
    except BaseException:
        handle.close()
        tmp.unlink(missing_ok=True)
        raise
    fsync_directory(path.parent)
    if track:
        from .integrity import write_sidecar

        write_sidecar(path)


def write_text_atomic(
    path: Union[str, Path], text: str, *, track: bool = False
) -> None:
    """Atomically replace ``path`` with ``text``."""
    with atomic_open(path, "w", track=track) as handle:
        written = handle.write(text)
        if written != len(text):
            raise CheckpointError(
                f"{path}: short write ({written} of {len(text)} characters)"
            )


def write_bytes_atomic(
    path: Union[str, Path], data: bytes, *, track: bool = False
) -> None:
    """Atomically replace ``path`` with ``data``."""
    with atomic_open(path, "wb", track=track) as handle:
        written = handle.write(data)
        if written != len(data):
            raise CheckpointError(
                f"{path}: short write ({written} of {len(data)} bytes)"
            )


def append_line(path: Union[str, Path], line: str, hasher: Any) -> None:
    """Durably append ``line`` (newline-terminated) to the existing ``path``.

    The bytes are written, flushed and fsynced.  The fault hook runs
    first, and a full disk raises the retryable
    :class:`~repro.errors.CheckpointError`, as in :func:`atomic_open`.
    ``hasher`` is a running ``hashlib.sha256`` of the file's bytes so
    far: it takes the appended bytes and its digest is written to the
    file's sidecar, so the sidecar stays current without re-reading
    the file.
    """
    from .integrity import write_sidecar

    path = Path(path)
    data = line.encode("utf-8")
    try:
        faults.check_write(path)
        with open(path, "ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
    except OSError as error:
        raise _write_error(path, "while appending", error) from error
    hasher.update(data)
    write_sidecar(path, hasher.hexdigest())
