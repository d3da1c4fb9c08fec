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

REP007 and REP009, once whole-program rules, are runtime checks now:
blocking I/O on the serve loop fails the live serve tests, and an
untyped ``OSError`` at a CLI I/O boundary fails the CLI's
fault-injection test.

Use :func:`lint_paths` programmatically or ``repro lint`` from the
command line; see ``docs/static-analysis.md`` for the rule catalogue
and the suppression policy (``# repro: lint-ok[RULE] reason``).
"""

from __future__ import annotations

from .engine import LintReport, lint_paths, lint_source
from .finding import Finding
from .registry import Rule, all_rules, resolve_rules
from .reporters import render_human, render_json

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "render_human",
    "render_json",
    "resolve_rules",
]
