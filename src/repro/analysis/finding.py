"""Findings and the per-file analysis context shared by all checkers."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Dict, Optional, Tuple

__all__ = ["Finding", "FileContext", "dotted_name"]


@dataclass(frozen=True)
class Finding:
    """One rule violation (or suppressed violation) at a source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    suppression_reason: str = ""

    def to_record(self) -> Dict[str, object]:
        """JSON-safe representation (the ``--format json`` row)."""
        record: Dict[str, object] = {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.suppressed:
            record["reason"] = self.suppression_reason
        return record

    def suppress(self, reason: str) -> "Finding":
        return replace(self, suppressed=True, suppression_reason=reason)

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


# Locations a checker may scope itself to.  Precedence matters: fixture
# trees that mimic the repo layout (tests/fixtures/.../src/repro/...)
# must classify by the innermost role, so the package match wins.
_PACKAGE_MARKER = "src/repro/"


@dataclass(frozen=True)
class FileContext:
    """Everything a checker needs to inspect one parsed source file."""

    path: Path
    source: str
    tree: ast.Module = field(repr=False)

    @cached_property
    def package_relpath(self) -> Optional[str]:
        """Path inside ``src/repro/`` (e.g. ``cache/geometry.py``), or None."""
        posix = self.path.as_posix()
        if _PACKAGE_MARKER in posix:
            return posix.rsplit(_PACKAGE_MARKER, 1)[1]
        return None

    @cached_property
    def kind(self) -> str:
        """``package`` / ``benchmark`` / ``example`` / ``test`` / ``other``."""
        if self.package_relpath is not None:
            return "package"
        parts = self.path.as_posix().split("/")
        if "benchmarks" in parts:
            return "benchmark"
        if "examples" in parts:
            return "example"
        if "tests" in parts or self.path.name.startswith("test_"):
            return "test"
        return "other"

    def in_package_dirs(self, *prefixes: str) -> bool:
        """True if the file lives under one of the given package subdirs."""
        rel = self.package_relpath
        if rel is None:
            return False
        return any(rel.startswith(prefix.rstrip("/") + "/") for prefix in prefixes)

    @cached_property
    def import_aliases(self) -> Dict[str, str]:
        """Local name -> canonical dotted module/attribute path.

        ``import numpy as np`` maps ``np -> numpy``; ``from random
        import randint as ri`` maps ``ri -> random.randint``.  Checkers
        canonicalise call targets against this before matching.
        """
        aliases: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    aliases[item.asname or item.name.split(".")[0]] = (
                        item.name if item.asname else item.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for item in node.names:
                    if item.name == "*":
                        continue
                    aliases[item.asname or item.name] = f"{node.module}.{item.name}"
        return aliases

    def canonical_call_name(self, func: ast.AST) -> Optional[str]:
        """The fully-qualified dotted target of a call, if resolvable."""
        name = dotted_name(func)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        head = self.import_aliases.get(head, head)
        return f"{head}.{rest}" if rest else head
