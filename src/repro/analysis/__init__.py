"""Static analysis: machine-checked correctness contracts (``repro lint``).

The reproduction's headline guarantees — crash-safe artefacts,
byte-identical parallel runs, a typed error contract, graceful
shutdown — rest on coding conventions that no runtime test enforces
exhaustively.  This package turns those conventions into AST-level
lint rules (conventions a runtime check already guards are left to
it; ``docs/static-analysis.md`` lists the retired rules):

========  ===================  ==============================================
rule      name                 contract
========  ===================  ==============================================
REP000    suppressions         inline suppressions carry a reason and
                               actually suppress something
REP001    atomic-writes        artefact writes route through
                               :mod:`repro.runner.atomic`
REP002    determinism          model code never reads wall clocks or
                               unseeded RNGs
REP003    error-policy         library code raises :class:`~repro.errors.ReproError`
                               subclasses, never bare ``ValueError``/
                               ``RuntimeError``, and never ``except:``
REP006    manifest-tracking    artefact-producing code declares manifest
                               tracking
REP013    process-control      only the lifecycle layer installs signal
                               handlers or hard-exits
========  ===================  ==============================================

The **whole-program phase** (``repro lint --program``) builds a project
symbol table and a conservative call graph (:mod:`repro.analysis.program`)
and layers interprocedural rules on top — facts no single file shows:

========  ===================  ==============================================
rule      name                 contract
========  ===================  ==============================================
REP007    async-safety         no blocking call transitively reachable
                               from an ``async def`` in ``serve/``
REP009    exception-flow       every raise reachable from a CLI entry
                               point resolves to a ReproError subclass
========  ===================  ==============================================

Unknown callees (dynamic ``getattr``, untyped attributes) stay explicit
"unknown" nodes — the graph degrades to *not proven*, never to a false
"safe".  An optional content-hash cache (:mod:`repro.analysis.cache`)
skips unchanged files on warm runs for both phases.

Use :func:`lint_paths` programmatically or ``repro lint`` from the
command line; see ``docs/static-analysis.md`` for the rule catalogue
and the suppression policy (``# repro: lint-ok[RULE] reason``).
"""

from __future__ import annotations

from .cache import LintCache, file_sha256, ruleset_key
from .engine import LintReport, lint_paths, lint_source
from .finding import Finding
from .program import Program, link_program, summarize_source
from .registry import Rule, all_rules, resolve_rules
from .reporters import render_human, render_json

__all__ = [
    "Finding",
    "LintCache",
    "LintReport",
    "Program",
    "Rule",
    "all_rules",
    "file_sha256",
    "link_program",
    "lint_paths",
    "lint_source",
    "render_human",
    "render_json",
    "resolve_rules",
    "ruleset_key",
    "summarize_source",
]
