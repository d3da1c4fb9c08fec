"""Per-stage RC delay formulas for the SRAM read path.

Each function returns the RC time constant (ns) of one stage; the model
(:mod:`repro.timing.model`) converts a chain of stage constants into a
delay using a first-order pole response plus a simplified Horowitz
input-slope coupling term:

    delay_i = rc_to_delay · RC_i + slope_coupling · RC_{i-1}

The stage structure follows Wada / Wilton–Jouppi: address driver →
predecoder → final decode gate → word-line driver → bit-line discharge →
sense amplifier, with the tag side adding comparator and (for
set-associative arrays) the output multiplexor driver, and both sides
sharing the data output driver.  Bit lines are precharged; the cycle
time adds the precharge/restore interval to the access time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import ModelError
from .technology import Technology

__all__ = [
    "StageChain",
    "decoder_chain",
    "wordline_rc",
    "bitline_rc",
    "comparator_rc",
    "mux_driver_rc",
    "way_select_rc",
    "output_driver_rc",
    "precharge_time",
    "chain_delay",
]

#: Unit conversion: stage RC constants are computed in kΩ·fF, which is
#: picoseconds; delays are reported in ns.
RC_UNIT_NS = 1e-3

#: Wire capacitance (fF) per subarray crossed by global decode wiring.
_C_GLOBAL_WIRE_PER_SUBARRAY = 10.0

#: Sense-amplifier input load on each bit line (fF).
_C_SENSE_INPUT = 5.0

#: Capacitive load of the off-array data bus seen by the output driver
#: (fF) — long wires to the datapath.
_C_DATA_BUS = 80.0


@dataclass(frozen=True)
class StageChain:
    """A named sequence of stage RC constants (ns)."""

    names: Tuple[str, ...]
    rcs: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.rcs):
            raise ModelError("names and rcs must align")

    def extended(self, name: str, rc: float) -> "StageChain":
        """A new chain with one more stage appended."""
        return StageChain(self.names + (name,), self.rcs + (rc,))


def chain_delay(tech: Technology, chain: StageChain) -> float:
    """Total delay (ns) of a chain of stages with slope coupling."""
    delay = 0.0
    previous_rc = 0.0
    for rc in chain.rcs:
        delay += tech.rc_to_delay * rc + tech.slope_coupling * previous_rc
        previous_rc = rc
    return delay * tech.time_scale * RC_UNIT_NS


def decoder_chain(
    tech: Technology, rows: int, n_subarrays: int
) -> StageChain:
    """Address driver → predecoder → final decode gate.

    ``rows`` is the row count of one subarray; ``n_subarrays`` sets the
    global wiring and fan-out load on the address drivers.
    """
    # Stage 1: address driver fans out to the predecode gates of every
    # subarray across global wiring.
    r1 = tech.r_nmos(tech.address_driver_um)
    c1 = (
        n_subarrays * 2.0 * tech.c_gate(tech.predecode_gate_um)
        + n_subarrays * _C_GLOBAL_WIRE_PER_SUBARRAY
        + tech.c_diff(tech.address_driver_um)
    )
    # Stage 2: one predecode (3→8) line drives rows/8 final gates plus
    # wiring down the decoder spine.
    r2 = tech.r_pmos(tech.predecode_gate_um)
    c2 = (
        max(1.0, rows / 8.0) * tech.c_gate(tech.final_decode_gate_um)
        + rows * 0.1
        + tech.c_diff(tech.predecode_gate_um)
    )
    # Stage 3: the selected final gate turns on the word-line driver.
    r3 = tech.r_nmos(tech.final_decode_gate_um)
    c3 = tech.c_gate(tech.wordline_driver_um) + tech.c_diff(tech.final_decode_gate_um)
    return StageChain(
        ("address driver", "predecoder", "decode gate"), (r1 * c1, r2 * c2, r3 * c3)
    )


def wordline_rc(tech: Technology, cols: int) -> float:
    """Word-line rise: driver plus distributed wire RC across ``cols`` cells."""
    c_per_cell = tech.c_word_wire_per_cell + 2.0 * tech.c_gate(tech.pass_transistor_um)
    c_total = cols * c_per_cell
    r_driver = tech.r_pmos(tech.wordline_driver_um)
    r_wire = cols * tech.r_word_wire_per_cell
    # Distributed line: driver sees the full cap, the wire sees half.
    return r_driver * c_total + 0.5 * r_wire * c_total


#: Fraction of an RC constant needed to develop the sense threshold
#: swing on the bit line (small-signal sensing, ~10 % of rail).
_BITLINE_SWING_FRACTION = 0.18


def bitline_rc(tech: Technology, rows: int, column_mux_ways: int) -> float:
    """Bit-line discharge to the sense threshold.

    The cell pulls the bit line down through its pull-down and pass
    devices; the line carries one wire segment and one pass-transistor
    diffusion per row, plus the column multiplexor and sense input.
    Only a small-signal swing is needed, captured by
    ``_BITLINE_SWING_FRACTION``.
    """
    r_cell = tech.r_nmos(tech.cell_pulldown_um) + tech.r_nmos(tech.pass_transistor_um)
    c_line = rows * (
        tech.c_bit_wire_per_cell + tech.c_diff(tech.pass_transistor_um)
    )
    c_line += _C_SENSE_INPUT
    r_wire = rows * tech.r_bit_wire_per_cell
    if column_mux_ways > 1:
        # Column mux pass device: series resistance plus the diffusion
        # load of the unselected ways on the shared sense node.
        mux_width = 4.0
        r_cell += tech.r_nmos(mux_width)
        c_line += column_mux_ways * tech.c_diff(mux_width)
    return _BITLINE_SWING_FRACTION * (r_cell * c_line + 0.5 * r_wire * c_line)


def comparator_rc(tech: Technology, tag_bits: int) -> float:
    """Tag comparator: precharged XOR tree discharging a match line."""
    r = tech.r_nmos(tech.comparator_pulldown_um)
    c = tag_bits * tech.c_diff(2.0) + tech.c_gate(tech.mux_driver_um)
    return r * c


def mux_driver_rc(tech: Technology, output_bits: int, associativity: int) -> float:
    """Output-way select driver (set-associative arrays only).

    The winning comparator's driver must swing a select line loaded by
    one mux gate per output bit; wiring grows with associativity since
    the select must span all ways.
    """
    r = tech.r_nmos(tech.mux_driver_um)
    c = output_bits * tech.c_gate(4.0) + associativity * output_bits * 0.2
    return r * c


def way_select_rc(tech: Technology, associativity: int) -> float:
    """Way-select pass gate between the sensed ways and the output driver.

    Only set-associative arrays have this stage in series: the sensed
    data of the selected way must pass through a (narrow) mux transistor
    before the output driver, loading the driver input with the
    diffusion of every way's mux device.
    """
    mux_width = 2.0
    r = tech.r_nmos(mux_width)
    c = (
        tech.c_gate(tech.output_driver_um)
        + associativity * tech.c_diff(mux_width)
        + 40.0  # output-node wiring spanning the ways
    )
    return r * c


def output_driver_rc(tech: Technology) -> float:
    """Final data output driver onto the array's output bus."""
    r = tech.r_nmos(tech.output_driver_um)
    c = _C_DATA_BUS + tech.c_diff(tech.output_driver_um)
    return r * c


def precharge_time(tech: Technology, rows: int, cols_delay_rc: float) -> float:
    """Bit-line restore interval appended to access time for the cycle.

    Restoring the discharged bit line's small-signal swing takes about
    one time constant of the precharge device against the full line;
    the word line must also fall first, which re-uses the word-line RC.
    """
    c_line = rows * (
        tech.c_bit_wire_per_cell + tech.c_diff(tech.pass_transistor_um)
    ) + _C_SENSE_INPUT
    r_pre = tech.r_pmos(tech.precharge_um)
    restore = 1.2 * r_pre * c_line
    return tech.time_scale * tech.rc_to_delay * (restore + cols_delay_rc) * RC_UNIT_NS
