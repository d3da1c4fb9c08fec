"""Reference-stream container shared by the trace generators and simulators.

The paper's machine model issues one instruction fetch per cycle and, for
a fraction of instructions, one data reference in the same cycle
(split L1 caches service both concurrently).  A :class:`Trace` therefore
carries two parallel streams:

* ``i_addrs[k]`` — the byte address fetched by instruction ``k``;
* ``d_addrs[j]`` / ``d_times[j]`` — the byte address of data reference
  ``j`` and the index of the instruction that issued it.

``d_times`` is non-decreasing, which is what lets the two L1 miss streams
be merged back into program order after independent simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TraceError

__all__ = ["Trace"]


@dataclass(frozen=True, eq=False)
class Trace:
    """An immutable instruction + data reference stream.

    Equality/hash are by object identity (``eq=False``): traces are
    large arrays memoised by :mod:`repro.traces.store`, and identity
    hashing lets the per-trace memos (:func:`repro.memo.per_trace`) key
    simulation results weakly on the trace object itself.

    Attributes
    ----------
    name:
        Workload name (e.g. ``"gcc1"``).
    i_addrs:
        ``int64`` byte addresses, one per instruction, in issue order.
    d_addrs:
        ``int64`` byte addresses of data references, in issue order.
    d_times:
        ``int64`` instruction index at which each data reference issues;
        non-decreasing and within ``[0, len(i_addrs))``.
    """

    name: str
    i_addrs: np.ndarray = field(repr=False)
    d_addrs: np.ndarray = field(repr=False)
    d_times: np.ndarray = field(repr=False)
    #: Optional per-data-reference store flag.  Miss behaviour is
    #: identical for loads and stores (write-allocate/fetch-on-write,
    #: §2.2 of the paper); the flags only feed the write-traffic
    #: accounting extension (:mod:`repro.ext.writes`).  ``None`` means
    #: "all loads".
    d_is_store: "np.ndarray | None" = field(repr=False, default=None)

    def __post_init__(self) -> None:
        i_addrs = np.ascontiguousarray(self.i_addrs, dtype=np.int64)
        d_addrs = np.ascontiguousarray(self.d_addrs, dtype=np.int64)
        d_times = np.ascontiguousarray(self.d_times, dtype=np.int64)
        if self.d_is_store is None:
            d_is_store = np.zeros(len(d_addrs), dtype=bool)
        else:
            d_is_store = np.ascontiguousarray(self.d_is_store, dtype=bool)
        object.__setattr__(self, "i_addrs", i_addrs)
        object.__setattr__(self, "d_addrs", d_addrs)
        object.__setattr__(self, "d_times", d_times)
        object.__setattr__(self, "d_is_store", d_is_store)
        self._validate()
        self.i_addrs.setflags(write=False)
        self.d_addrs.setflags(write=False)
        self.d_times.setflags(write=False)
        self.d_is_store.setflags(write=False)

    def _validate(self) -> None:
        if self.i_addrs.ndim != 1 or self.d_addrs.ndim != 1 or self.d_times.ndim != 1:
            raise TraceError("trace arrays must be one-dimensional")
        if len(self.i_addrs) == 0:
            raise TraceError("a trace must contain at least one instruction")
        if len(self.d_addrs) != len(self.d_times):
            raise TraceError("d_addrs and d_times must have equal length")
        if len(self.d_is_store) != len(self.d_addrs):
            raise TraceError("d_is_store must align with d_addrs")
        if len(self.d_times):
            if self.d_times[0] < 0 or self.d_times[-1] >= len(self.i_addrs):
                raise TraceError("d_times out of instruction-index range")
            if np.any(self.d_times[1:] < self.d_times[:-1]):
                raise TraceError("d_times must be non-decreasing")
        if self.i_addrs.min() < 0 or (len(self.d_addrs) and self.d_addrs.min() < 0):
            raise TraceError("addresses must be non-negative")

    @property
    def n_instructions(self) -> int:
        """Number of instructions (equals the number of I-fetches)."""
        return len(self.i_addrs)

    @property
    def n_data_refs(self) -> int:
        """Number of data references."""
        return len(self.d_addrs)

    @property
    def n_refs(self) -> int:
        """Total references, as counted in the paper's Table 1."""
        return self.n_instructions + self.n_data_refs

    @property
    def data_ratio(self) -> float:
        """Data references per instruction."""
        return self.n_data_refs / self.n_instructions

    @property
    def store_fraction(self) -> float:
        """Fraction of data references that are stores."""
        if self.n_data_refs == 0:
            return 0.0
        return float(self.d_is_store.mean())

    def i_lines(self, line_size: int) -> np.ndarray:
        """Instruction stream as line addresses for ``line_size``-byte lines."""
        return self.i_addrs // line_size

    def d_lines(self, line_size: int) -> np.ndarray:
        """Data stream as line addresses for ``line_size``-byte lines."""
        return self.d_addrs // line_size

    def __len__(self) -> int:
        return self.n_refs

    def __repr__(self) -> str:  # short, array-free
        return (
            f"Trace(name={self.name!r}, instructions={self.n_instructions}, "
            f"data_refs={self.n_data_refs})"
        )
