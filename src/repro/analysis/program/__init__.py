"""Whole-program analysis: symbol table, call graph, taint propagation.

The per-file rules see one AST at a time, so a blocking ``time.sleep``
reachable from an ``async def``, or an untyped ``raise`` two calls
below a CLI command, is invisible to them.  This subpackage adds the
missing layer in two passes, per-file extraction and linking:

1. :mod:`~repro.analysis.program.summary` — a per-file extraction pass
   producing a :class:`~repro.analysis.program.summary.ModuleSummary`:
   pure derived data (functions, classes, call sites, blocking sinks,
   raises, suppressions) with no AST nodes, so summaries serialize
   into the lint cache.
2. :mod:`~repro.analysis.program.graph` — a linking pass joining the
   summaries into a :class:`~repro.analysis.program.graph.Program`:
   project symbol table (modules, classes, functions, re-exports), a
   conservative call graph (unresolvable callees are recorded as
   *unknown*, never silently treated as safe), and reachability/taint
   fixpoints with shortest witness chains for diagnostics.

The interprocedural rules (REP007, REP009) live in
:mod:`~repro.analysis.program.rules` and consume only the linked
:class:`Program`.
"""

from __future__ import annotations

from .graph import Program, link_program
from .summary import SUMMARY_SCHEMA, ModuleSummary, summarize_source

__all__ = [
    "Program",
    "link_program",
    "ModuleSummary",
    "summarize_source",
    "SUMMARY_SCHEMA",
]
