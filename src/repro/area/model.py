"""Structured rbe area model for one cache array.

The model charges:

* **cells** — data bits plus tag bits (address tag + valid + dirty) at
  0.6 rbe each, multiplied by the port factor (§6 of the paper assumes
  a dual-ported cell "requires twice the area");
* **periphery** — sense amps, precharge and column muxes per column;
  word-line drivers and decode gates per row; predecode per subarray —
  all of which scale with the *organisation* chosen by the timing
  optimiser, reproducing the paper's observation that organising for
  speed "increases the area required per bit";
* **comparators** — one per way at the paper's stated 3.6 rbe;
* **control** — a fixed per-array block.

Port scaling: extra ports duplicate the bit lines and their periphery
(sense, precharge, muxes) and widen every cell, but not the decode or
control logic; for two ports the total comes out within a few percent
of the paper's "twice the area" rule, which is asserted in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..cache.geometry import DEFAULT_LINE_SIZE, CacheGeometry
from ..errors import ModelError
from ..memo import register
from ..timing.optimal import optimal_timing
from ..timing.organization import (
    ArrayOrganization,
    data_array_shape,
    tag_array_shape,
    tag_bits_per_entry,
)
from ..timing.technology import TECH_05UM, Technology
from . import rbe

__all__ = ["AreaBreakdown", "cache_area", "optimal_cache_area"]


@dataclass(frozen=True)
class AreaBreakdown:
    """Per-structure area (rbe) of one cache array."""

    data_cells: float
    tag_cells: float
    sense_amps: float
    column_circuitry: float
    row_circuitry: float
    decoders: float
    comparators: float
    output_drivers: float
    control: float

    @property
    def total(self) -> float:
        """Total array area in rbe."""
        return (
            self.data_cells
            + self.tag_cells
            + self.sense_amps
            + self.column_circuitry
            + self.row_circuitry
            + self.decoders
            + self.comparators
            + self.output_drivers
            + self.control
        )

    @property
    def cell_fraction(self) -> float:
        """Fraction of the area that is RAM cells (rises with size)."""
        return (self.data_cells + self.tag_cells) / self.total


def cache_area(
    geometry: CacheGeometry,
    organization: ArrayOrganization,
    ports: int = 1,
) -> AreaBreakdown:
    """Area of ``geometry`` laid out as ``organization`` with ``ports``.

    Parameters
    ----------
    geometry:
        Cache shape (capacity, line size, associativity).
    organization:
        Subarray split factors — normally the timing-optimal ones.
    ports:
        Independent read/write ports; each extra port doubles the cell
        and duplicates the bit-line periphery.
    """
    if ports < 1:
        raise ModelError("ports must be >= 1")

    d_rows, d_cols = data_array_shape(
        geometry, organization.ndwl, organization.ndbl, organization.nspd
    )
    t_rows, t_cols = tag_array_shape(
        geometry, organization.ntwl, organization.ntbl, organization.ntspd
    )

    data_bits = geometry.size_bytes * 8
    tag_bits = geometry.n_sets * geometry.associativity * tag_bits_per_entry(geometry)

    cell_scale = float(ports)
    data_cells = data_bits * rbe.RBE_PER_SRAM_BIT * cell_scale
    tag_cells = tag_bits * rbe.RBE_PER_SRAM_BIT * cell_scale

    total_data_cols = d_cols * organization.ndwl
    total_tag_cols = t_cols * organization.ntwl
    total_cols = (total_data_cols + total_tag_cols) * ports

    total_data_rows = d_rows * organization.ndbl
    total_tag_rows = t_rows * organization.ntbl
    # Row circuitry is replicated per word-line split.
    driven_rows = (
        total_data_rows * organization.ndwl + total_tag_rows * organization.ntwl
    )

    sense_amps = total_cols * rbe.RBE_SENSE_AMP_PER_COLUMN
    column_circuitry = total_cols * (
        rbe.RBE_PRECHARGE_PER_COLUMN + rbe.RBE_COLUMN_MUX_PER_COLUMN
    )
    row_circuitry = driven_rows * rbe.RBE_WORDLINE_DRIVER_PER_ROW
    n_subarrays = organization.data_subarrays + organization.tag_subarrays
    decoders = (
        driven_rows * rbe.RBE_DECODER_PER_ROW
        + n_subarrays * rbe.RBE_DECODER_FIXED_PER_SUBARRAY
    )
    comparators = geometry.associativity * rbe.RBE_PER_COMPARATOR
    output_drivers = 64 * ports * rbe.RBE_OUTPUT_DRIVER_PER_BIT
    control = rbe.RBE_CONTROL_FIXED

    return AreaBreakdown(
        data_cells=data_cells,
        tag_cells=tag_cells,
        sense_amps=sense_amps,
        column_circuitry=column_circuitry,
        row_circuitry=row_circuitry,
        decoders=decoders,
        comparators=comparators,
        output_drivers=output_drivers,
        control=control,
    )


@register("area")
@lru_cache(maxsize=4096)
def _optimal_cache_area_cached(
    size_bytes: int,
    line_size: int,
    associativity: int,
    ports: int,
    tech: Technology,
) -> AreaBreakdown:
    geometry = CacheGeometry(
        size_bytes, line_size=line_size, associativity=associativity
    )
    timing = optimal_timing(size_bytes, associativity, line_size, tech)
    return cache_area(geometry, timing.organization, ports)


def optimal_cache_area(
    size_bytes: int,
    associativity: int = 1,
    ports: int = 1,
    line_size: int = DEFAULT_LINE_SIZE,
    tech: Technology = TECH_05UM,
) -> AreaBreakdown:
    """Area of the *timing-optimal* organisation of a cache.

    This is the quantity the paper plots on its X axes: each size is
    organised for minimum cycle time first, and the resulting (larger)
    area is what the configuration is charged.
    """
    return _optimal_cache_area_cached(size_bytes, line_size, associativity, ports, tech)
