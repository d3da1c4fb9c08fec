"""The lint engine: file discovery, rule execution, suppression audit.

Linting runs in one process, file by file.  An unreadable file or a
checker crash in one file is isolated, collected, and re-raised as a
single :class:`~repro.errors.LintError` naming every broken file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..errors import LintError
from .finding import FileContext, Finding
from .registry import Rule, get_rule, resolve_rules
from .suppress import Suppression, scan_suppressions

__all__ = ["LintReport", "lint_paths", "lint_source", "discover_files"]

#: Directory names never descended into during discovery.
_SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", "output"})


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run."""

    findings: Tuple[Finding, ...]
    suppressed: Tuple[Finding, ...]
    n_files: int

    @property
    def clean(self) -> bool:
        return not self.findings


def discover_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand the given paths into a sorted, de-duplicated file list.

    Explicit files are taken as-is; directories are searched
    recursively for ``*.py``, skipping cache/VCS/output directories.
    A path that does not exist is an error — a typo must not silently
    lint nothing.
    """
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = set(candidate.parts)
                if parts & _SKIPPED_DIRS:
                    continue
                files.append(candidate)
        else:
            raise LintError(f"lint target {path} does not exist")
    seen: Dict[Path, None] = {}
    for file in files:
        seen.setdefault(file, None)
    return list(seen)


def lint_source(
    source: str,
    path: Union[str, Path] = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[List[Finding], List[Finding]]:
    """Lint one source text; returns (active findings, suppressed).

    The in-memory entry point :func:`lint_paths` and the tests share.
    """
    path = Path(path)
    if rules is None:
        rules = resolve_rules()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        raise LintError(f"cannot parse {path}: {error}") from error
    ctx = FileContext(path=path, source=source, tree=tree)
    suppressions = scan_suppressions(source)
    active_ids = {rule.rule_id for rule in rules}

    raw: List[Finding] = []
    for rule in rules:
        if rule.check is None:
            continue
        for line, col, message in rule.check(ctx):
            raw.append(
                Finding(
                    rule=rule.rule_id,
                    severity=rule.severity,
                    path=path.as_posix(),
                    line=line,
                    col=col,
                    message=message,
                )
            )

    findings: List[Finding] = []
    suppressed: List[Finding] = []
    used: Dict[Tuple[int, int], List[str]] = {}
    for finding in raw:
        match = _matching_suppression(suppressions, finding)
        if match is not None and match.reason:
            suppressed.append(finding.suppress(match.reason))
            used.setdefault((match.line, match.col), []).append(finding.rule)
        else:
            findings.append(finding)

    if "REP000" in active_ids:
        findings.extend(
            _audit_suppressions(ctx, suppressions, used, active_ids)
        )
    findings.sort(key=Finding.sort_key)
    suppressed.sort(key=Finding.sort_key)
    return findings, suppressed


def _matching_suppression(
    suppressions: Dict[int, List[Suppression]], finding: Finding
) -> Optional[Suppression]:
    for suppression in suppressions.get(finding.line, ()):
        if suppression.covers(finding.rule):
            return suppression
    return None


def _audit_suppressions(
    ctx: FileContext,
    suppressions: Dict[int, List[Suppression]],
    used: Dict[Tuple[int, int], List[str]],
    active_ids: AbstractSet[str],
) -> List[Finding]:
    """REP000: reasons present, rule ids known, every suppression earns
    its keep (only judged for rules active in this run)."""
    meta = get_rule("REP000")
    audit: List[Finding] = []

    def report(suppression: Suppression, message: str) -> None:
        audit.append(
            Finding(
                rule=meta.rule_id,
                severity=meta.severity,
                path=ctx.path.as_posix(),
                line=suppression.line,
                col=suppression.col,
                message=message,
            )
        )

    seen: Set[Tuple[int, int]] = set()
    for entries in suppressions.values():
        for suppression in entries:
            # A multiline-statement suppression is registered under
            # every line it covers; audit each comment exactly once.
            key = (suppression.line, suppression.col)
            if key in seen:
                continue
            seen.add(key)
            if not suppression.rule_ids:
                report(suppression, "suppression names no rule id")
                continue
            unknown = [
                rule_id
                for rule_id in suppression.rule_ids
                if not _is_known_rule(rule_id)
            ]
            if unknown:
                report(
                    suppression,
                    f"suppression names unknown rule(s): {', '.join(unknown)}",
                )
                continue
            if not suppression.reason:
                report(
                    suppression,
                    "suppression without a reason; write "
                    "'# repro: lint-ok[RULE] why this is safe'",
                )
                continue
            judged = [r for r in suppression.rule_ids if r in active_ids]
            hit = used.get((suppression.line, suppression.col), [])
            unused = [r for r in judged if r not in hit]
            if judged and unused:
                report(
                    suppression,
                    f"suppression for {', '.join(unused)} masks nothing "
                    "on this line; remove it",
                )
    return audit


def _is_known_rule(rule_id: str) -> bool:
    try:
        get_rule(rule_id)
    except LintError:
        return False
    return True


def lint_paths(
    paths: Sequence[Union[str, Path]],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint files or directory trees and aggregate one report.

    ``select``/``ignore`` filter the rule set (validated up front).
    """
    rules = resolve_rules(select, ignore)  # validates filters up front
    files = discover_files(paths)
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    broken: List[str] = []
    for file in files:
        posix = file.as_posix()
        try:
            source = file.read_text()
            file_findings, file_suppressed = lint_source(source, posix, rules)
        except Exception as error:  # unreadable file or crashing rule
            broken.append(f"{posix}: {error}")
            continue
        findings.extend(file_findings)
        suppressed.extend(file_suppressed)
    if broken:
        raise LintError(f"lint failed on {len(broken)} file(s): {'; '.join(broken)}")

    findings.sort(key=Finding.sort_key)
    suppressed.sort(key=Finding.sort_key)
    return LintReport(
        findings=tuple(findings), suppressed=tuple(suppressed), n_files=len(files)
    )
