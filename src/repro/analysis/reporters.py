"""Render a :class:`~repro.analysis.engine.LintReport` for humans or CI."""

from __future__ import annotations

import json

from .. import __version__
from .engine import LintReport

__all__ = ["render_human", "render_json", "JSON_SCHEMA_VERSION"]

#: Bumped whenever the JSON layout changes incompatibly.  v2 renamed
#: ``schema`` to ``schema_version`` and added the package ``version``;
#: v3 dropped the ``cached`` file count with the lint cache.
JSON_SCHEMA_VERSION = 3


def render_human(report: LintReport) -> str:
    """``path:line:col: RULE [severity] message`` lines plus a summary."""
    lines = [
        f"{f.path}:{f.line}:{f.col}: {f.rule} [{f.severity}] {f.message}"
        for f in report.findings
    ]
    if report.clean:
        summary = (
            f"repro lint: clean — {report.n_files} file(s), "
            f"{len(report.suppressed)} suppressed finding(s)"
        )
    else:
        summary = (
            f"repro lint: {len(report.findings)} finding(s) in "
            f"{report.n_files} file(s), {len(report.suppressed)} suppressed"
        )
    return "\n".join(lines + [summary])


def render_json(report: LintReport) -> str:
    """Stable machine-readable report (``--format json``).

    Byte-identical for identical trees: findings are fully sorted by
    the engine, keys are sorted here, and nothing derived from
    wall-clock time is included.
    """
    payload = {
        "schema_version": JSON_SCHEMA_VERSION,
        "version": __version__,
        "clean": report.clean,
        "files": report.n_files,
        "findings": [finding.to_record() for finding in report.findings],
        "suppressed": [finding.to_record() for finding in report.suppressed],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
