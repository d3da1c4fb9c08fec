"""Injected clocks: the only place telemetry reads the real time.

Every duration or timestamp the observability layer records flows
through a :class:`Clock` instance, never a direct ``time.time()`` /
``time.monotonic()`` call.  Two things depend on that discipline:

* **determinism of model code** — the REP002 audit bans wall clocks in
  the model packages; instrumented code only ever receives time
  *through* the clock object it was handed, so the model layer stays
  clock-free and tests can substitute a :class:`ManualClock` to get
  exact, reproducible durations;
* **testability** — span trees and histogram contents are asserted
  against a hand-advanced clock instead of sleeping (a direct ``time``
  read elsewhere in :mod:`repro.obs` fails those exact-duration tests).

This module is the single site of ``time`` usage in :mod:`repro.obs`.
"""

from __future__ import annotations

import time

__all__ = ["Clock", "SystemClock", "ManualClock", "SYSTEM_CLOCK"]


class Clock:
    """Interface telemetry reads time through (monotonic + wall)."""

    def monotonic(self) -> float:
        """Seconds from an arbitrary epoch, guaranteed non-decreasing."""
        raise NotImplementedError

    def wall(self) -> float:
        """Seconds since the Unix epoch (for human-facing timestamps)."""
        raise NotImplementedError


class SystemClock(Clock):
    """The real clocks, for production use."""

    def monotonic(self) -> float:
        return time.monotonic()

    def wall(self) -> float:
        return time.time()


class ManualClock(Clock):
    """A hand-advanced clock for deterministic telemetry tests."""

    def __init__(self, start: float = 0.0, wall_start: float = 0.0):
        self._mono = float(start)
        self._wall = float(wall_start)

    def advance(self, seconds: float) -> None:
        self._mono += seconds
        self._wall += seconds

    def monotonic(self) -> float:
        return self._mono

    def wall(self) -> float:
        return self._wall


#: Shared default clock instance.
SYSTEM_CLOCK = SystemClock()
