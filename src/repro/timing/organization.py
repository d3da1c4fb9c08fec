"""Memory array organisation parameters (Ndwl/Ndbl/Nspd and tag twins).

Following Wada's formulation, a cache data array of capacity ``C`` bytes
with ``B``-byte lines and associativity ``A`` can be laid out many ways:

* ``ndwl`` — number of times the word line is split (columns divided
  among ``ndwl`` subarrays);
* ``ndbl`` — number of times the bit line is split (rows divided among
  ``ndbl`` subarrays);
* ``nspd`` — number of sets mapped to one physical word line (trades
  more columns for fewer rows).

Rows per subarray = ``C / (B·A·ndbl·nspd)``; columns per subarray =
``8·B·A·nspd / ndwl``.  The tag array has its own independent triple.
The model evaluates every feasible organisation and keeps the fastest —
exactly how the paper always "organised the memories to give the
highest performance".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, List, Tuple

from ..errors import ModelError
from ..units import is_pow2
from ..cache.geometry import CacheGeometry

__all__ = [
    "ArrayOrganization",
    "data_array_shape",
    "tag_array_shape",
    "tag_bits_per_entry",
    "side_candidates",
    "enumerate_organizations",
]

#: Split factors explored in every dimension: powers of two up to 16.
_SPLITS = (1, 2, 4, 8, 16)

#: One side's split triple: (ndwl, ndbl, nspd) or (ntwl, ntbl, ntspd).
Side = Tuple[int, int, int]

#: Physical address width assumed for tag sizing (the paper's machines
#: were 32-bit with physically-addressed caches).
ADDRESS_BITS = 32

#: Status bits per tag entry: valid + dirty.
STATUS_BITS = 2


@dataclass(frozen=True)
class ArrayOrganization:
    """One candidate layout of the data and tag arrays."""

    ndwl: int
    ndbl: int
    nspd: int
    ntwl: int
    ntbl: int
    ntspd: int

    def __post_init__(self) -> None:
        for value in (self.ndwl, self.ndbl, self.nspd, self.ntwl, self.ntbl, self.ntspd):
            if not is_pow2(value):
                raise ModelError("organisation parameters must be powers of two")

    @property
    def data_subarrays(self) -> int:
        """Number of physical data subarrays."""
        return self.ndwl * self.ndbl

    @property
    def tag_subarrays(self) -> int:
        """Number of physical tag subarrays."""
        return self.ntwl * self.ntbl


def data_array_shape(
    geometry: CacheGeometry, ndwl: int, ndbl: int, nspd: int
) -> Tuple[int, int]:
    """(rows, columns) of one data subarray, or raise if infeasible."""
    denom = geometry.line_size * geometry.associativity * ndbl * nspd
    if geometry.size_bytes % denom:
        raise ModelError("rows not integral")
    rows = geometry.size_bytes // denom
    cols_num = 8 * geometry.line_size * geometry.associativity * nspd
    if cols_num % ndwl:
        raise ModelError("columns not integral")
    cols = cols_num // ndwl
    if rows < 1 or cols < 1:
        raise ModelError("degenerate subarray")
    return rows, cols


def tag_bits_per_entry(geometry: CacheGeometry) -> int:
    """Tag width (address tag + status bits) for one cache line."""
    index_bits = geometry.n_sets.bit_length() - 1
    offset_bits = geometry.line_size.bit_length() - 1
    tag_bits = ADDRESS_BITS - index_bits - offset_bits
    if tag_bits <= 0:
        raise ModelError("cache too large for the address space")
    return tag_bits + STATUS_BITS


def tag_array_shape(
    geometry: CacheGeometry, ntwl: int, ntbl: int, ntspd: int
) -> Tuple[int, int]:
    """(rows, columns) of one tag subarray, or raise if infeasible."""
    n_sets = geometry.n_sets
    if n_sets % (ntbl * ntspd):
        raise ModelError("tag rows not integral")
    rows = n_sets // (ntbl * ntspd)
    cols_num = tag_bits_per_entry(geometry) * geometry.associativity * ntspd
    if cols_num % ntwl:
        raise ModelError("tag columns not integral")
    cols = cols_num // ntwl
    if rows < 1 or cols < 1:
        raise ModelError("degenerate tag subarray")
    return rows, cols


def _feasible(
    shape: Callable[[CacheGeometry, int, int, int], Tuple[int, int]],
    geometry: CacheGeometry,
) -> List[Side]:
    candidates: List[Side] = []
    for triple in product(_SPLITS, _SPLITS, _SPLITS):
        try:
            rows, cols = shape(geometry, *triple)
        except ModelError:
            continue
        if rows >= 2 and cols >= 8:
            candidates.append(triple)
    return candidates


def side_candidates(geometry: CacheGeometry) -> Tuple[List[Side], List[Side]]:
    """Feasible ``(ndwl, ndbl, nspd)`` and ``(ntwl, ntbl, ntspd)`` triples.

    Feasibility requires integral subarray shapes and at least two rows
    and eight columns per subarray (a subarray thinner than that has no
    sensible physical layout and would distort the periphery model).
    The two sides are independent: every pairing is an organisation.
    """
    data = _feasible(data_array_shape, geometry)
    tags = _feasible(tag_array_shape, geometry)
    if not data or not tags:
        raise ModelError(f"no feasible organisation for {geometry}")
    return data, tags


def enumerate_organizations(geometry: CacheGeometry) -> Iterator[ArrayOrganization]:
    """Yield every feasible organisation for ``geometry``, data-major."""
    data, tags = side_candidates(geometry)
    for data_triple in data:
        for tag_triple in tags:
            yield ArrayOrganization(*data_triple, *tag_triple)
