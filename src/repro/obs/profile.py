"""Opt-in per-unit cProfile capture for the simulation hot path.

``repro sweep --profile`` (or ``profile_dir=`` on the runner) wraps
each unit's attempt in a :mod:`cProfile` profiler and persists the
stats to ``profiles/<unit>.prof`` in the run directory — standard
``pstats`` format, written atomically with a sidecar like any other
artefact:

.. code-block:: console

    $ python -m pstats runs/sweep-gcc1-ab12/profiles/0004:1:8.prof
    % sort cumulative
    % stats 15

Profiling is strictly additive: it never touches the unit's value or
outcome, and a unit that fails still leaves the profile of its last
attempt.  It is kept separate from the always-cheap metrics/spans
layer because the interpreter-wide tracing hook costs real time —
enable it to find *where* a phase goes, not to watch production runs.
"""

from __future__ import annotations

import marshal
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

__all__ = ["PROFILE_DIR_NAME", "profile_path", "capture_profile"]

#: Sub-directory of a run dir holding per-unit profiles.
PROFILE_DIR_NAME = "profiles"


def profile_path(profile_dir: Union[str, Path], unit_id: str) -> Path:
    """Where ``unit_id``'s profile lands (separators made file-safe)."""
    safe = unit_id.replace("/", "_").replace("\\", "_")
    return Path(profile_dir) / f"{safe}.prof"


@contextmanager
def capture_profile(path: Optional[Union[str, Path]]) -> Iterator[None]:
    """Profile the scope into ``path`` (pstats format); None is a no-op.

    The stats are marshalled to bytes and written through the atomic
    helper, so a crash mid-profile never leaves a torn file and the
    artefact is sidecar-tracked like everything else the run persists.
    """
    if path is None:
        yield
        return
    import cProfile

    from ..runner.atomic import write_bytes_atomic

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profiler.create_stats()
        write_bytes_atomic(path, marshal.dumps(profiler.stats), track=True)
