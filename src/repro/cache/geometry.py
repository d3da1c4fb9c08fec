"""Cache geometry: capacity, line size, associativity, and derived shape.

All the paper's caches use 16-byte lines; capacities are powers of two
from 1 KB to 256 KB; associativity is 1 (direct-mapped) or 4 for the
second level.  The geometry object validates these constraints once and
provides the index/tag arithmetic used by the simulators and the
timing/area models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import GeometryError
from ..units import fmt_size, is_pow2

__all__ = ["CacheGeometry", "DEFAULT_LINE_SIZE", "geometry_violations"]

#: The paper uses 16-byte lines throughout.
DEFAULT_LINE_SIZE = 16


def _is_dimension(value: object) -> bool:
    """A usable cache dimension: a true int (bools are not dimensions)."""
    return isinstance(value, int) and not isinstance(value, bool)


def geometry_violations(
    size_bytes: object,
    line_size: object = DEFAULT_LINE_SIZE,
    associativity: object = 1,
) -> List[str]:
    """Every constraint the shape violates; empty means valid.

    This is the *single* source of truth for geometry validity: the
    runtime validator (:meth:`CacheGeometry.__post_init__`) raises on
    the first entry, so any caller may ask before constructing.
    """
    problems: List[str] = []
    for label, value in (
        ("cache size", size_bytes),
        ("line size", line_size),
        ("associativity", associativity),
    ):
        if not _is_dimension(value):
            problems.append(f"{label} {value!r} is not an integer")
    if problems:
        return problems
    assert isinstance(size_bytes, int)
    assert isinstance(line_size, int)
    assert isinstance(associativity, int)
    if not is_pow2(size_bytes):
        problems.append(f"cache size {size_bytes} not a power of two")
    if not is_pow2(line_size):
        problems.append(f"line size {line_size} not a power of two")
    if associativity < 1:
        problems.append("associativity must be >= 1")
    if problems:
        return problems
    if line_size > size_bytes:
        problems.append("line size exceeds cache size")
    elif size_bytes % (line_size * associativity) != 0:
        problems.append(
            f"{associativity}-way cache of {size_bytes} B cannot be "
            f"divided into whole sets of {line_size} B lines"
        )
    return problems


@dataclass(frozen=True)
class CacheGeometry:
    """Shape of a single cache array.

    Attributes
    ----------
    size_bytes:
        Total data capacity in bytes (power of two).
    line_size:
        Line (block) size in bytes (power of two).
    associativity:
        Ways per set; 1 means direct-mapped.
    """

    size_bytes: int
    line_size: int = DEFAULT_LINE_SIZE
    associativity: int = 1

    def __post_init__(self) -> None:
        problems = geometry_violations(
            self.size_bytes, self.line_size, self.associativity
        )
        if problems:
            raise GeometryError("; ".join(problems))

    @property
    def n_lines(self) -> int:
        """Total number of lines."""
        return self.size_bytes // self.line_size

    @property
    def n_sets(self) -> int:
        """Number of sets (rows of the tag comparison)."""
        return self.n_lines // self.associativity

    @property
    def is_direct_mapped(self) -> bool:
        return self.associativity == 1

    @property
    def is_fully_associative(self) -> bool:
        return self.n_sets == 1

    def set_index(self, line_addr: int) -> int:
        """Set index for a line address (line number, not byte address)."""
        return line_addr % self.n_sets

    def label(self) -> str:
        """Human-readable label, e.g. ``32K/4-way``."""
        way = "DM" if self.is_direct_mapped else f"{self.associativity}-way"
        return f"{fmt_size(self.size_bytes)}/{way}"

    def __str__(self) -> str:
        return self.label()
