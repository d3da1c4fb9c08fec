"""Whole-program rules.

Imported by the registry for registration side effects, exactly like
the per-file rules package.  Each module registers one rule via
:func:`~repro.analysis.registry.program_checker`; the check functions
consume a linked :class:`~repro.analysis.program.graph.Program` and
yield ``(path, line, col, message)`` tuples.
"""

from __future__ import annotations

from . import async_safety, exception_flow  # noqa: F401
