"""The telemetry bundle: one object carrying registry, tracer, clock.

A :class:`Telemetry` instance is what the execution layers are handed
(or construct): the metrics registry and span tracer share one injected
clock, and the bundle knows how to persist both into a run directory as
``METRICS.jsonl`` / ``SPANS.jsonl`` — written atomically with sidecars
(``track=True``) and classified *volatile* by the integrity layer, like
the journal, because their timing payloads legitimately differ between
byte-equivalent runs.

Two usage shapes:

* **explicit** — the runner engine and serve tier receive a bundle and
  call :meth:`span` / :meth:`count` / :meth:`observe` directly;
* **ambient** — the simulation hot path (picklable unit bodies that
  cannot carry a live handle) asks :func:`current` for the bundle the
  engine activated around the attempt loop, falling back to the shared
  :data:`DISABLED` no-op bundle, so model-layer call sites stay free of
  ``if telemetry`` branches *and* of clocks (REP002/REP012: time is
  only ever read inside the tracer, through the injected clock).

Telemetry is written once per run: the runner's final :meth:`flush`
(with the canonical unit order), made by every run that completes or
drains, writes both files through tracked atomic writes.  A crashed
run leaves no ``METRICS.jsonl`` / ``SPANS.jsonl``; its per-unit record
is the journal, from which ``repro metrics`` synthesises the same
counters and duration histogram.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Union

from .clock import SYSTEM_CLOCK, Clock
from .metrics import METRICS_NAME, MetricsRegistry, metrics_jsonl
from .spans import SPANS_NAME, Span, Tracer, canonical_spans, spans_jsonl

__all__ = [
    "Telemetry",
    "DISABLED",
    "activate",
    "current",
]


class Telemetry:
    """Registry + tracer + clock, with run-directory persistence."""

    def __init__(
        self,
        enabled: bool = True,
        clock: Optional[Clock] = None,
        max_spans: Optional[int] = None,
    ):
        self.enabled = enabled
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=self.clock, max_spans=max_spans)
        self.out_dir: Optional[Path] = None

    # -- instrumentation surface ------------------------------------

    @contextmanager
    def span(self, name: str, root: bool = False, **attrs: object) -> Iterator[Span]:
        """A timed scope (see :meth:`repro.obs.spans.Tracer.span`).

        Disabled bundles yield an unrecorded span object, so call
        sites are branch-free either way.
        """
        if not self.enabled:
            yield _NULL_SPAN
            return
        with self.tracer.span(name, root=root, **attrs) as span:
            yield span

    def count(
        self, name: str, amount: float = 1.0, **labels: str
    ) -> None:
        """Increment a counter; a no-op when disabled."""
        if self.enabled:
            self.registry.counter(name, labels or None).inc(amount)

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Record one histogram observation; a no-op when disabled."""
        if self.enabled:
            self.registry.histogram(name, labels or None).observe(value)

    def gauge_set(self, name: str, value: float, **labels: str) -> None:
        """Set a gauge level; a no-op when disabled."""
        if self.enabled:
            self.registry.gauge(name, labels or None).set(value)

    def gauge_max(self, name: str, value: float, **labels: str) -> None:
        """Raise a high-water gauge; a no-op when disabled."""
        if self.enabled:
            self.registry.gauge(name, labels or None).set_max(value)

    # -- worker merge ------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable state for shipping a worker's telemetry back."""
        return {
            "metrics": self.registry.snapshot(),
            "spans": self.tracer.records(),
        }

    def absorb(self, snapshot: Optional[dict]) -> None:
        """Merge a worker's :meth:`snapshot` into this bundle."""
        if not self.enabled or not snapshot:
            return
        self.registry.merge(snapshot.get("metrics", []))
        self.tracer.absorb(snapshot.get("spans", []))

    # -- persistence -------------------------------------------------

    def bind(self, out_dir: Union[str, Path]) -> "Telemetry":
        """Direct flushes at ``out_dir`` (created by the caller)."""
        self.out_dir = Path(out_dir)
        return self

    def flush(self, unit_order: Optional[Sequence[str]] = None) -> None:
        """Atomically write ``METRICS.jsonl`` and ``SPANS.jsonl``.

        With ``unit_order`` (the runner's end-of-run flush) the span
        log is canonically reordered so its structure is independent
        of worker scheduling.
        """
        if not self.enabled or self.out_dir is None:
            return
        from ..runner.atomic import write_text_atomic

        records = self.tracer.records()
        if unit_order is not None:
            records = canonical_spans(records, unit_order)
        write_text_atomic(
            self.out_dir / METRICS_NAME,
            metrics_jsonl(self.registry.snapshot()),
            track=True,
        )
        write_text_atomic(
            self.out_dir / SPANS_NAME, spans_jsonl(records), track=True
        )


class _NullSpanType(Span):
    """The span handed out by disabled bundles: accepts sets, records nothing."""

    def __init__(self) -> None:
        super().__init__(0, None, "disabled", {})

    def set(self, **attrs: object) -> "Span":
        return self


_NULL_SPAN = _NullSpanType()

#: Shared always-off bundle: the ambient default when nothing is active.
DISABLED = Telemetry(enabled=False)

_ACTIVE: List[Telemetry] = []


@contextmanager
def activate(telemetry: Optional[Telemetry]) -> Iterator[None]:
    """Make ``telemetry`` the ambient bundle for :func:`current`.

    The engine activates its bundle around each unit's attempt loop so
    hot-path instrumentation inside unit bodies (which are picklable
    and cannot carry the live object) can find it.  Activations nest;
    ``None`` activates nothing and is a no-op scope.
    """
    if telemetry is None:
        yield
        return
    _ACTIVE.append(telemetry)
    try:
        yield
    finally:
        _ACTIVE.pop()


def current() -> Telemetry:
    """The innermost active bundle, or the shared :data:`DISABLED` one."""
    return _ACTIVE[-1] if _ACTIVE else DISABLED
