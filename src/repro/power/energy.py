"""Per-access dynamic energy of one cache array.

Dynamic energy is the capacitance switched per access times V²
(E = C·V·ΔV; full-swing nodes switch the rail, bit lines only swing to
the sense threshold).  The capacitances reuse the timing model's
structural parameters, so array organisation affects energy exactly the
way the paper's intro argues: long word/bit lines in a big monolithic
array burn more charge per access than a small L1's short lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..cache.geometry import DEFAULT_LINE_SIZE, CacheGeometry
from ..errors import ModelError
from ..memo import register
from ..timing.model import OUTPUT_BITS
from ..timing.optimal import optimal_timing
from ..timing.organization import (
    ArrayOrganization,
    data_array_shape,
    tag_array_shape,
    tag_bits_per_entry,
)
from ..timing.technology import TECH_05UM, Technology

__all__ = ["EnergyBreakdown", "cache_access_energy", "optimal_access_energy"]

#: Supply voltage (V) of the paper's CMOS generation.
VDD = 5.0

#: Fraction of the rail the bit lines swing on a read (small-signal
#: sensing; matches the timing model's threshold development).
BITLINE_SWING = 0.2

#: Energy per sense amplifier activation (pJ) — sense amps burn a
#: roughly constant charge on each strobe.
SENSE_AMP_PJ = 0.4

#: Capacitance unit: all capacitances below are in fF, so C·V² is in
#: femtojoules; divide by 1000 for pJ.
_FJ_TO_PJ = 1e-3


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-structure dynamic energy (pJ) of one cache access."""

    decode: float
    wordline: float
    bitlines: float
    sense_amps: float
    tag_path: float
    output: float

    @property
    def total(self) -> float:
        """Total access energy in pJ."""
        return (
            self.decode
            + self.wordline
            + self.bitlines
            + self.sense_amps
            + self.tag_path
            + self.output
        )


def _full_swing(c_ff: float) -> float:
    """Energy (pJ) to charge ``c_ff`` femtofarads across the rail."""
    return c_ff * VDD * VDD * _FJ_TO_PJ


def _bitline_swing(c_ff: float) -> float:
    """Energy (pJ) for a partial bit-line swing (discharge + precharge)."""
    return c_ff * VDD * (BITLINE_SWING * VDD) * _FJ_TO_PJ


def cache_access_energy(
    geometry: CacheGeometry,
    organization: ArrayOrganization,
    tech: Technology = TECH_05UM,
    ports: int = 1,
) -> EnergyBreakdown:
    """Dynamic energy of one read access to ``geometry``.

    One data subarray and one tag subarray are activated per access
    (the organisation's other subarrays stay precharged); within the
    active subarray every column's bit line swings, which is what makes
    big flat arrays expensive.
    """
    if ports < 1:
        raise ModelError("ports must be >= 1")

    d_rows, d_cols = data_array_shape(
        geometry, organization.ndwl, organization.ndbl, organization.nspd
    )
    t_rows, t_cols = tag_array_shape(
        geometry, organization.ntwl, organization.ntbl, organization.ntspd
    )

    # Decoder: address drivers see the predecode gates and global wire
    # of every subarray; the active subarray's decode spine switches.
    n_subarrays = organization.data_subarrays + organization.tag_subarrays
    c_decode = (
        n_subarrays * (2.0 * tech.c_gate(tech.predecode_gate_um) + 10.0)
        + (d_rows + t_rows) * 0.1
        + (d_rows / 8.0 + t_rows / 8.0) * tech.c_gate(tech.final_decode_gate_um)
    )
    decode = _full_swing(c_decode)

    # Word line of the active data and tag subarrays (full swing).
    c_word_per_cell = (
        tech.c_word_wire_per_cell + 2.0 * tech.c_gate(tech.pass_transistor_um)
    )
    wordline = _full_swing((d_cols + t_cols) * c_word_per_cell)

    # Every column of the active subarrays develops a bit-line swing and
    # is then precharged back; ports multiply the bit-line pairs.
    c_bit_per_cell = tech.c_bit_wire_per_cell + tech.c_diff(tech.pass_transistor_um)
    bitlines = _bitline_swing(
        ports * (d_cols * d_rows + t_cols * t_rows) * c_bit_per_cell
    )

    # Sense amps: one per column actually sensed (after column muxing,
    # OUTPUT_BITS data columns plus the tag entry).
    sensed = OUTPUT_BITS + tag_bits_per_entry(geometry) * geometry.associativity
    sense_amps = sensed * SENSE_AMP_PJ

    # Tag comparator + way-select drivers.
    c_tag = tag_bits_per_entry(geometry) * tech.c_diff(2.0) * geometry.associativity
    if not geometry.is_direct_mapped:
        c_tag += OUTPUT_BITS * tech.c_gate(4.0)
    tag_path = _full_swing(c_tag)

    # Output drivers onto the array bus.
    output = _full_swing(OUTPUT_BITS * (80.0 / OUTPUT_BITS + 1.0))

    return EnergyBreakdown(
        decode=decode,
        wordline=wordline,
        bitlines=bitlines,
        sense_amps=sense_amps,
        tag_path=tag_path,
        output=output,
    )


@register("energy")
@lru_cache(maxsize=4096)
def _optimal_access_energy_cached(
    size_bytes: int,
    line_size: int,
    associativity: int,
    ports: int,
    tech: Technology,
) -> EnergyBreakdown:
    geometry = CacheGeometry(
        size_bytes, line_size=line_size, associativity=associativity
    )
    timing = optimal_timing(size_bytes, associativity, line_size, tech)
    return cache_access_energy(geometry, timing.organization, tech, ports)


def optimal_access_energy(
    size_bytes: int,
    associativity: int = 1,
    ports: int = 1,
    line_size: int = DEFAULT_LINE_SIZE,
    tech: Technology = TECH_05UM,
) -> EnergyBreakdown:
    """Access energy of the *timing-optimal* organisation.

    Note the organisation chosen for speed also happens to save access
    energy: splitting the array shortens the lines each access switches
    (only the per-subarray decode fan-out grows).
    """
    return _optimal_access_energy_cached(
        size_bytes, line_size, associativity, ports, tech
    )
