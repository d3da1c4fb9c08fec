"""The lint engine: file discovery, rule execution, suppression audit.

Linting runs in one process, file by file.  An unreadable file or a
checker crash in one file is isolated, collected, and re-raised as a
single :class:`~repro.errors.LintError` naming every broken file.

The optional **program phase** (``program=True``) adds whole-program
rules in two steps: a graph build (per-file summaries, content-hash
cached, linked into a :class:`~repro.analysis.program.graph.Program`)
followed by one evaluation per rule, whose crashes are collected the
same way.  Program findings go through the same suppression filter,
driven by the suppression sites carried in the module summaries, and
REP000 audits program-rule suppressions after the program phase (the
per-file audit only judges file-scope rules, so a ``lint-ok[REP007]``
is never reported unused just because the program phase was off for
that file's run).

The optional **cache** (``cache=<path>``) skips re-linting and
re-summarizing files whose sha256 is unchanged; see
:mod:`repro.analysis.cache` for the invalidation rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import (
    AbstractSet,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .. import __version__
from ..errors import LintError
from .cache import LintCache, file_sha256, ruleset_key
from .finding import FileContext, Finding
from .program.graph import Program, link_program
from .program.summary import ModuleSummary, summarize_source
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
    n_cached: int = 0

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
    Program-scope rules are engine-level and are filtered out here:
    they cannot run on a single file, and the REP000 audit must not
    judge their suppressions against a phase that did not run.
    """
    path = Path(path)
    if rules is None:
        rules = resolve_rules()
    rules = tuple(rule for rule in rules if rule.scope == "file")
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
    its keep (only judged for file-scope rules active in this run;
    program-rule suppressions are audited by the program phase)."""
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
            judged = [
                r
                for r in suppression.rule_ids
                if r in active_ids and get_rule(r).scope == "file"
            ]
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


def _raise_broken(
    broken: List[str], message: str = "lint failed on {} file(s): {}"
) -> None:
    if broken:
        raise LintError(message.format(len(broken), "; ".join(broken)))


def _build_summaries(
    files: Sequence[Path],
    posix_files: Sequence[str],
    shas: Dict[str, str],
    cache: Optional[LintCache],
) -> List[ModuleSummary]:
    """The serial, cached graph-build half of the program phase."""
    summaries: List[ModuleSummary] = []
    errors: List[str] = []
    for file, posix in zip(files, posix_files):
        summary: Optional[ModuleSummary] = None
        if cache is not None:
            summary = cache.lookup_summary(posix, shas[posix])
        if summary is None:
            try:
                source = Path(file).read_text()
            except OSError as error:
                errors.append(f"{posix}: cannot read: {error}")
                continue
            try:
                summary = summarize_source(source, posix)
            except SyntaxError as error:
                errors.append(f"{posix}: cannot parse: {error}")
                continue
            if cache is not None:
                cache.store_summary(posix, shas[posix], summary)
        summaries.append(summary)
    _raise_broken(errors)
    return summaries


def _program_phase(
    program: Program,
    program_rules: Sequence[Rule],
    audit_unused: bool,
) -> Tuple[List[Finding], List[Finding]]:
    """Evaluate program rules, apply suppressions, audit their usage."""
    raw: List[Finding] = []
    broken: List[str] = []
    for rule in program_rules:
        assert rule.program_check is not None  # scope == "program"
        try:
            hits = list(rule.program_check(program))
        except Exception as error:
            broken.append(f"{rule.rule_id}: {error}")
            continue
        raw.extend(
            Finding(
                rule=rule.rule_id,
                severity=rule.severity,
                path=path,
                line=line,
                col=col,
                message=message,
            )
            for path, line, col, message in hits
        )
    _raise_broken(broken, "program analysis failed on {} rule(s): {}")

    findings: List[Finding] = []
    suppressed: List[Finding] = []
    used: Dict[Tuple[str, int, int], Set[str]] = {}
    for finding in raw:
        summary = program.by_path.get(finding.path)
        matched = None
        if summary is not None:
            for site in summary.suppressions:
                if site.covers(finding.rule, finding.line):
                    matched = site
                    break
        if matched is not None:
            suppressed.append(finding.suppress(matched.reason))
            used.setdefault(
                (finding.path, matched.line, matched.col), set()
            ).add(finding.rule)
        else:
            findings.append(finding)

    if audit_unused:
        meta = get_rule("REP000")
        program_ids = {rule.rule_id for rule in program_rules}
        for summary in program.by_path.values():
            for site in summary.suppressions:
                if not site.rule_ids or not site.reason:
                    continue  # the per-file audit reports these
                if any(not _is_known_rule(r) for r in site.rule_ids):
                    continue
                judged = [r for r in site.rule_ids if r in program_ids]
                hit = used.get((summary.path, site.line, site.col), set())
                unused = [r for r in judged if r not in hit]
                if judged and unused:
                    findings.append(
                        Finding(
                            rule=meta.rule_id,
                            severity=meta.severity,
                            path=summary.path,
                            line=site.line,
                            col=site.col,
                            message=(
                                f"suppression for {', '.join(unused)} masks "
                                "nothing on this line; remove it"
                            ),
                        )
                    )
    return findings, suppressed


def lint_paths(
    paths: Sequence[Union[str, Path]],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    *,
    program: bool = False,
    cache: Union[None, str, Path] = None,
) -> LintReport:
    """Lint files or directory trees and aggregate one report.

    ``select``/``ignore`` filter the rule set (validated up front).
    ``program=True`` enables the whole-program phase;
    explicitly selecting a program rule without it is an error rather
    than a silent no-op.  ``cache`` names a content-hash cache file
    (see :mod:`repro.analysis.cache`); ``None`` disables caching.
    """
    rules = resolve_rules(select, ignore)  # validates filters up front
    program_rules = tuple(rule for rule in rules if rule.scope == "program")
    file_rules = tuple(rule for rule in rules if rule.scope == "file")
    if not program and program_rules and select is not None:
        names = ", ".join(rule.rule_id for rule in program_rules)
        raise LintError(
            f"{names} require(s) whole-program analysis; pass --program"
        )
    if not program:
        program_rules = ()
    files = discover_files(paths)
    posix_files = [Path(file).as_posix() for file in files]

    cache_obj: Optional[LintCache] = None
    shas: Dict[str, str] = {}
    if cache is not None or program_rules:
        for file, posix in zip(files, posix_files):
            try:
                shas[posix] = file_sha256(Path(file).read_bytes())
            except OSError as error:
                raise LintError(f"cannot read {posix}: {error}") from error
    if cache is not None:
        key = ruleset_key(__version__, [rule.rule_id for rule in file_rules])
        cache_obj = LintCache.load(Path(cache), key)

    findings: List[Finding] = []
    suppressed: List[Finding] = []
    n_cached = 0

    if file_rules:
        broken: List[str] = []
        for posix in posix_files:
            if cache_obj is not None:
                hit = cache_obj.lookup_findings(posix, shas[posix])
                if hit is not None:
                    findings.extend(hit[0])
                    suppressed.extend(hit[1])
                    n_cached += 1
                    continue
            try:
                source = Path(posix).read_text()
                file_findings, file_suppressed = lint_source(source, posix, file_rules)
            except Exception as error:  # unreadable file or crashing rule
                broken.append(f"{posix}: {error}")
                continue
            findings.extend(file_findings)
            suppressed.extend(file_suppressed)
            if cache_obj is not None:
                cache_obj.store_findings(
                    posix, shas[posix], file_findings, file_suppressed
                )
        _raise_broken(broken)

    if program_rules:
        summaries = _build_summaries(files, posix_files, shas, cache_obj)
        linked = link_program(summaries)
        audit_unused = any(rule.rule_id == "REP000" for rule in file_rules)
        program_findings, program_suppressed = _program_phase(
            linked, program_rules, audit_unused
        )
        findings.extend(program_findings)
        suppressed.extend(program_suppressed)

    if cache_obj is not None:
        cache_obj.save()

    findings.sort(key=Finding.sort_key)
    suppressed.sort(key=Finding.sort_key)
    return LintReport(
        findings=tuple(findings),
        suppressed=tuple(suppressed),
        n_files=len(files),
        n_cached=n_cached,
    )
