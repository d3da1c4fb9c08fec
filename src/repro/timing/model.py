"""Access and cycle time of one cache organisation.

Read-path structure (Wada / Wilton–Jouppi):

* **data side** — decoder → word line → bit line → sense amplifier;
* **tag side** — (smaller) decoder → word line → bit line → sense
  amplifier → comparator, plus the output multiplexor driver when the
  cache is set-associative (the tag match must select the data way);
* the two sides proceed in parallel; the slower one gates the shared
  **output driver**.

The cycle time adds the bit-line restore (precharge) interval of the
slower-recovering array, i.e. the minimum spacing between the start of
two successive accesses — the quantity the paper uses to set the
processor clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from ..cache.geometry import CacheGeometry
from ..errors import ModelError
from .organization import (
    ArrayOrganization,
    data_array_shape,
    tag_array_shape,
    tag_bits_per_entry,
)
from .stages import (
    RC_UNIT_NS,
    bitline_rc,
    chain_delay,
    comparator_rc,
    decoder_chain,
    mux_driver_rc,
    output_driver_rc,
    precharge_time,
    way_select_rc,
    wordline_rc,
)
from .technology import Technology

__all__ = ["TimingResult", "access_and_cycle_time"]

#: Bits delivered per array access (8 bytes, per the paper's refill
#: model: a 16-byte line moves as two 8-byte transfers).
OUTPUT_BITS = 64


@dataclass(frozen=True)
class TimingResult:
    """Access/cycle times (ns) and per-stage breakdown for one layout."""

    geometry: CacheGeometry
    organization: ArrayOrganization
    access_ns: float
    cycle_ns: float
    data_side_ns: float
    tag_side_ns: float
    breakdown: Dict[str, float]

    def __post_init__(self) -> None:
        if self.cycle_ns < self.access_ns:
            raise ModelError("cycle time cannot be below access time")


def _data_side(
    geometry: CacheGeometry, ndwl: int, ndbl: int, nspd: int, tech: Technology
) -> Tuple[float, float, Dict[str, float]]:
    """Data-array read delay, bit-line restore interval and stage breakdown."""
    scale = tech.time_scale
    rows, cols = data_array_shape(geometry, ndwl, ndbl, nspd)
    wordline = wordline_rc(tech, cols)
    chain = decoder_chain(tech, rows, ndwl * ndbl).extended("data wordline", wordline)
    chain = chain.extended(
        "data bitline", bitline_rc(tech, rows, max(1, cols * ndwl // OUTPUT_BITS))
    )
    breakdown: Dict[str, float] = {}
    for name, rc in zip(chain.names, chain.rcs):
        breakdown[f"data {name}" if "data" not in name else name] = (
            tech.rc_to_delay * rc * scale * RC_UNIT_NS
        )
    breakdown["data sense amp"] = tech.t_sense_data * scale
    delay = chain_delay(tech, chain) + tech.t_sense_data * scale
    return delay, precharge_time(tech, rows, wordline), breakdown


def _tag_side(
    geometry: CacheGeometry, ntwl: int, ntbl: int, ntspd: int, tech: Technology
) -> Tuple[float, float, Dict[str, float]]:
    """Tag-array delay up to the way select, restore interval and breakdown."""
    scale = tech.time_scale
    rows, cols = tag_array_shape(geometry, ntwl, ntbl, ntspd)
    wordline = wordline_rc(tech, cols)
    chain = decoder_chain(tech, rows, ntwl * ntbl).extended("tag wordline", wordline)
    chain = chain.extended("tag bitline", bitline_rc(tech, rows, max(1, ntspd)))
    compare = tech.rc_to_delay * RC_UNIT_NS * comparator_rc(
        tech, tag_bits_per_entry(geometry)
    )
    path = chain_delay(tech, chain)
    delay = path + tech.t_sense_tag * scale + compare * scale
    breakdown = {
        "tag path": path,
        "tag sense amp": tech.t_sense_tag * scale,
        "comparator": compare * scale,
    }
    if not geometry.is_direct_mapped:
        mux = tech.rc_to_delay * RC_UNIT_NS * mux_driver_rc(
            tech, OUTPUT_BITS, geometry.associativity
        )
        delay += mux * scale
        breakdown["mux driver"] = mux * scale
    return delay, precharge_time(tech, rows, wordline), breakdown


def _combine(
    geometry: CacheGeometry,
    tech: Technology,
    data_side: Any,
    tag_side: Any,
    data_pre: Any,
    tag_pre: Any,
    maximum: Callable[[Any, Any], Any] = max,
) -> Tuple[Any, Any, Dict[str, Any]]:
    """(access, cycle, shared stages); the search passes arrays and ``np.maximum``."""
    scale = tech.time_scale
    out = (
        tech.rc_to_delay * RC_UNIT_NS * output_driver_rc(tech)
        + tech.t_output_intrinsic
    ) * scale
    shared = {"output driver": out}
    if geometry.is_direct_mapped:
        # The data array drives the output as soon as it is sensed; the
        # tag comparison proceeds in parallel and only validates the
        # result, so it is rarely critical.
        access = maximum(data_side + out, tag_side)
    else:
        # Set-associative: the output driver cannot fire until the tag
        # match has selected a way, and the selected data must traverse
        # the way mux in series.
        way_mux = (
            tech.rc_to_delay * RC_UNIT_NS * way_select_rc(tech, geometry.associativity)
        ) * scale
        shared["way select"] = way_mux
        access = maximum(data_side, tag_side) + way_mux + out
    # The cycle adds the restore interval of the slower-recovering array.
    shared["precharge"] = maximum(data_pre, tag_pre)
    return access, access + shared["precharge"], shared


def access_and_cycle_time(
    geometry: CacheGeometry,
    organization: ArrayOrganization,
    tech: Technology,
) -> TimingResult:
    """Evaluate one (geometry, organisation) pair under ``tech``.

    Raises
    ------
    ModelError
        If the organisation is infeasible for the geometry.
    """
    org = organization
    data_side, data_pre, breakdown = _data_side(geometry, org.ndwl, org.ndbl, org.nspd, tech)
    tag_side, tag_pre, tag_breakdown = _tag_side(geometry, org.ntwl, org.ntbl, org.ntspd, tech)
    access, cycle, shared = _combine(geometry, tech, data_side, tag_side, data_pre, tag_pre)
    return TimingResult(
        geometry=geometry,
        organization=organization,
        access_ns=access,
        cycle_ns=cycle,
        data_side_ns=data_side,
        tag_side_ns=tag_side,
        breakdown={**breakdown, **tag_breakdown, **shared},
    )
