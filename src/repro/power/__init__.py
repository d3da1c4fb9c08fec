"""Dynamic-energy model for on-chip caches.

The paper's introduction lists five advantages of two-level on-chip
caching; the fifth is power:

    "a chip with a two-level cache will usually use less power ... In a
    single-level configuration, wordlines and bitlines are longer,
    meaning there is a larger capacitance that needs to be charged or
    discharged with every cache access.  In a two-level configuration,
    most accesses only require an access to a small first-level cache."

This package quantifies that argument with the same structural
parameters the timing model uses: the switched capacitance of the
decoder, word line, bit lines, sense amplifiers, comparator and output
drivers of the active subarray gives a per-access energy, and combining
per-level access energies with the simulated access counts gives energy
per instruction.  Experiment ``ext1`` reproduces the claim, and
``tests/test_exhibit_shapes.py`` checks its shape.
"""

from .energy import EnergyBreakdown, cache_access_energy, optimal_access_energy
from .system import SystemEnergy, energy_per_instruction

__all__ = [
    "EnergyBreakdown",
    "cache_access_energy",
    "optimal_access_energy",
    "SystemEnergy",
    "energy_per_instruction",
]
