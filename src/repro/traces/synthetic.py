"""Deterministic synthetic reference-stream generators.

The generators model the two structural features that determine cache
miss-rate curves (the only trace property the study consumes):

* **Temporal locality** — references are drawn from a working set with a
  Zipf-like popularity distribution; the footprint size sets where the
  miss-rate curve flattens and the exponent sets how steeply it falls.
* **Spatial structure** — instruction fetch proceeds through sequential
  "function bodies" chosen by popularity (loops and calls), and data
  components may be streaming walks over large arrays (tomcatv-style),
  which make the miss rate insensitive to cache size.

Everything is generated with vectorised numpy from a seed derived from
the workload name, so traces are reproducible across runs and platforms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from ..errors import TraceError
from .address import Trace

__all__ = [
    "ZipfComponent",
    "StreamComponent",
    "InstructionModel",
    "SyntheticWorkload",
]

#: Bytes per instruction (a 32-bit RISC instruction, as in the paper's
#: DECStation traces).
INSTRUCTION_BYTES = 4

#: Regions are placed on 16 GiB boundaries so code and each data
#: component can never alias each other.
_REGION_SPACING = 1 << 34

#: Uniform draws per chunk: ``Generator.random`` drawn in chunks equals one draw.
_CHUNK = 1 << 16


def _seed_from(name: str, salt: str) -> int:
    """Stable 64-bit seed derived from a workload name and a salt."""
    digest = hashlib.sha256(f"{name}/{salt}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _zipf_cdf(n_items: int, exponent: float) -> np.ndarray:
    """Cumulative distribution of a Zipf(``exponent``) law over ``n_items``."""
    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def _draw(rng: np.random.Generator, size: int, dtype: type, transform: Callable) -> np.ndarray:
    """``transform(rng.random(size))`` as a ``dtype`` array, drawn a chunk at a time."""
    out = np.empty(size, dtype=dtype)
    for start in range(0, size, _CHUNK):
        stop = min(start + _CHUNK, size)
        out[start:stop] = transform(rng.random(stop - start))
    return out


def _sample_zipf(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    """Draw ``size`` ranks (0-based, in the narrowest type) from a precomputed Zipf CDF."""
    rank = np.min_scalar_type(len(cdf) - 1)
    return _draw(rng, size, rank, lambda u: np.searchsorted(cdf, u, side="left"))


@dataclass(frozen=True)
class ZipfComponent:
    """Data references drawn Zipf-fashion from a fixed working set.

    Attributes
    ----------
    weight:
        Relative share of data references served by this component.
    footprint_bytes:
        Total working-set size; the miss-rate knee sits near this value.
    exponent:
        Zipf exponent; larger means steeper locality (faster miss-rate
        decay as the cache grows).
    granule_bytes:
        Addressable granule.  16 matches the line size, so each rank is
        one distinct line; smaller granules create intra-line reuse.
    """

    weight: float
    footprint_bytes: int
    exponent: float
    granule_bytes: int = 16

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise TraceError("component weight must be positive")
        if self.footprint_bytes < self.granule_bytes:
            raise TraceError("footprint smaller than one granule")
        if self.exponent <= 0:
            raise TraceError("zipf exponent must be positive")

    @property
    def n_granules(self) -> int:
        return max(1, self.footprint_bytes // self.granule_bytes)


@dataclass(frozen=True)
class StreamComponent:
    """Round-robin sequential walks over large arrays (vector code).

    Models tomcatv-style array sweeps: ``n_arrays`` arrays are walked in
    lockstep with a fixed stride, wrapping at ``array_bytes``.  Once the
    arrays exceed the cache size the component contributes an almost
    size-independent miss rate of ``stride / line_size`` per reference.
    """

    weight: float
    n_arrays: int
    array_bytes: int
    stride_bytes: int = 8
    #: Extra spacing between consecutive arrays.  Power-of-two sized
    #: arrays placed back-to-back would alias to identical cache sets
    #: and every round-robin reference would conflict-miss; real
    #: programs' arrays are separated by other data, modelled here as a
    #: deliberately non-power-of-two gap.
    stagger_bytes: int = 6400

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise TraceError("component weight must be positive")
        if self.n_arrays < 1:
            raise TraceError("need at least one array")
        if self.array_bytes < self.stride_bytes:
            raise TraceError("array smaller than one stride")
        if self.stagger_bytes < 0:
            raise TraceError("stagger must be non-negative")


DataComponent = Union[ZipfComponent, StreamComponent]


@dataclass(frozen=True)
class InstructionModel:
    """Instruction-fetch model: Zipf-selected sequential function bodies.

    The code footprint is split into ``n_functions`` equal, contiguous
    bodies.  Execution repeatedly picks a function with Zipf popularity
    and fetches it sequentially from start to end.  This yields long
    sequential runs (good spatial locality) over a working set whose
    effective size is controlled by the exponent — exactly the knobs
    needed to position each benchmark's instruction miss-rate curve.
    """

    footprint_bytes: int
    n_functions: int
    exponent: float

    def __post_init__(self) -> None:
        if self.n_functions < 1:
            raise TraceError("need at least one function")
        if self.footprint_bytes < self.n_functions * INSTRUCTION_BYTES:
            raise TraceError("code footprint smaller than one instruction per function")

    @property
    def function_bytes(self) -> int:
        return self.footprint_bytes // self.n_functions

    @property
    def function_instructions(self) -> int:
        return max(1, self.function_bytes // INSTRUCTION_BYTES)


class SyntheticWorkload:
    """A reproducible synthetic workload.

    Parameters
    ----------
    name:
        Workload name; also the seed material, so two workloads with the
        same name and parameters generate identical traces.
    instructions:
        The instruction-fetch model.
    data_components:
        Mixture of :class:`ZipfComponent` / :class:`StreamComponent`.
    data_ratio:
        Data references per instruction (Table 1 of the paper).
    store_fraction:
        Fraction of data references flagged as stores.  Stores behave
        exactly like loads in the miss model (§2.2); the flag feeds the
        write-traffic accounting extension.
    """

    def __init__(
        self,
        name: str,
        instructions: InstructionModel,
        data_components: Sequence[DataComponent],
        data_ratio: float,
        store_fraction: float = 0.0,
    ) -> None:
        if not 0.0 < data_ratio < 1.0:
            raise TraceError("data_ratio must be in (0, 1)")
        if not 0.0 <= store_fraction <= 1.0:
            raise TraceError("store_fraction must be in [0, 1]")
        if not data_components:
            raise TraceError("at least one data component is required")
        self.name = name
        self.instructions = instructions
        self.data_components = tuple(data_components)
        self.data_ratio = data_ratio
        self.store_fraction = store_fraction

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------

    def generate(self, n_instructions: int) -> Trace:
        """Generate a trace with approximately ``n_instructions`` fetches.

        The instruction count is trimmed to an exact value; the data
        reference count follows from ``data_ratio`` stochastically.
        """
        if n_instructions < 1:
            raise TraceError("n_instructions must be positive")
        rng = np.random.default_rng(_seed_from(self.name, "trace"))
        i_addrs = self._generate_instructions(rng, n_instructions)
        d_addrs, d_times = self._generate_data(rng, n_instructions)
        d_is_store = _draw(rng, len(d_addrs), bool, lambda u: u < self.store_fraction)
        return Trace(self.name, i_addrs, d_addrs, d_times, d_is_store)

    def _generate_instructions(
        self, rng: np.random.Generator, n_instructions: int
    ) -> np.ndarray:
        model = self.instructions
        per_call = model.function_instructions
        n_calls = int(np.ceil(n_instructions / per_call)) + 1
        cdf = _zipf_cdf(model.n_functions, model.exponent)
        ranks = _sample_zipf(rng, cdf, n_calls)
        # Spread popular functions across the address space so Zipf rank
        # adjacency does not translate into set adjacency.
        placement = rng.permutation(model.n_functions)
        # Expand each call into a sequential fetch run, one row per call,
        # broadcast into a single buffer; the last call is never reached.
        n_rows = -(-n_instructions // per_call)
        bases = placement[ranks[:n_rows]] * model.function_bytes
        addrs = np.empty((n_rows, per_call), dtype=np.int64)
        np.add.outer(bases, np.arange(per_call) * INSTRUCTION_BYTES, out=addrs)
        return addrs.reshape(-1)[:n_instructions]

    def _generate_data(
        self, rng: np.random.Generator, n_instructions: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        d_times = np.flatnonzero(_draw(rng, n_instructions, bool, lambda u: u < self.data_ratio))
        n_data = len(d_times)
        weights = np.array([c.weight for c in self.data_components], dtype=np.float64)
        weights /= weights.sum()
        choice = rng.choice(len(self.data_components), size=n_data, p=weights)
        choice = choice.astype(np.min_scalar_type(len(self.data_components) - 1))
        d_addrs = np.zeros(n_data, dtype=np.int64)

        for index, component in enumerate(self.data_components):
            mask = choice == index
            count = int(mask.sum())
            if count == 0:
                continue
            if isinstance(component, ZipfComponent):
                addrs = self._zipf_addresses(rng, component, count)
            else:
                addrs = self._stream_addresses(component, count)
            addrs += (index + 1) * _REGION_SPACING
            d_addrs[mask] = addrs
        return d_addrs, d_times

    def _zipf_addresses(
        self, rng: np.random.Generator, component: ZipfComponent, count: int
    ) -> np.ndarray:
        cdf = _zipf_cdf(component.n_granules, component.exponent)
        ranks = _sample_zipf(rng, cdf, count)
        placement = rng.permutation(component.n_granules)
        placement *= component.granule_bytes
        return placement[ranks]

    def _stream_addresses(self, component: StreamComponent, count: int) -> np.ndarray:
        seq = np.arange(count, dtype=np.int64)
        array_id = seq % component.n_arrays
        position = (seq // component.n_arrays) * component.stride_bytes
        position %= component.array_bytes
        spacing = component.array_bytes + component.stagger_bytes
        return array_id * spacing + position

    def __repr__(self) -> str:
        return (
            f"SyntheticWorkload(name={self.name!r}, "
            f"data_ratio={self.data_ratio}, "
            f"components={len(self.data_components)})"
        )
