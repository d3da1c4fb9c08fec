"""`repro serve` — the fault-tolerant sweep-as-a-service front end.

One :class:`ServeApp` owns a plain-asyncio HTTP/1.1 server (stdlib
only, ``Connection: close`` per request) and answers design-space
queries through a three-tier resolution path, cheapest first:

1. **memoized** — an integrity-verified read of a prior result from the
   content-addressed :class:`~repro.serve.memo.MemoStore`; corrupt
   entries are quarantined and demoted to cold, never served;
2. **coalesced** — an identical request already in flight is awaited
   (:class:`~repro.serve.singleflight.SingleFlight`), one computation
   however many clients ask;
3. **cold** — the computation is admitted through a bounded queue
   (:class:`~repro.serve.admission.AdmissionController`, shedding with
   503 + Retry-After when full), gated by a
   :class:`~repro.serve.breaker.CircuitBreaker`, and run on a reusable
   process pool as one :class:`~repro.runner.RunUnit` by the runner's
   attempt loop, whose deterministic-backoff retries and per-request
   deadline (504 + Retry-After) act inside the worker.

The fault-tolerance ladder for the backend is the batch runner's
:class:`~repro.runner.pool.WorkerPool`: a broken pool is one death
however many requests see it, it is rebuilt and the units resubmitted
within their attempt budget; the
:data:`~repro.runner.pool.DEATH_LIMIT`-th death degrades the service
to serial in-process execution — slower but available — with
``degraded_reason`` surfaced on ``/healthz`` and in the journal;
persistent failures open the breaker, converting every doomed request
into an immediate honest 503.

Correctness contract: a 200 body is exactly the canonical JSON of the
point record — a pure function of the normalized request — so memo
hits, coalesced waits, and cold computes are byte-identical to a fresh
serial evaluation.  The serving tier is reported out-of-band in the
``X-Repro-Source`` header.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from ..core.config import SystemConfig
from ..core.envelope import staircase
from ..errors import ReproError, RunnerError, ServeError, UnitTimeoutError
from ..obs import Telemetry
from ..runner import (
    EXIT_ABORTED,
    RetryPolicy,
    RunJournal,
    RunUnit,
    WorkerTask,
    crashed_outcome,
    execute_task,
    record_outcome,
    resolve_workers,
)
from ..runner.pool import WorkerPool
from ..runner.watchdog import preflight_disk
from .admission import AdmissionController
from .breaker import CircuitBreaker
from .compute import (
    canonical_json,
    compute_point,
    normalize_point,
    normalize_sweep,
    point_key,
    point_payload,
    tpi_record,
)
from .errors import (
    BadRequestError,
    DeadlineError,
    DrainingError,
    NotFoundError,
    OversizeError,
    UpstreamError,
)
from .memo import MEMO_DIR, MemoEntry, MemoStore
from .singleflight import SingleFlight

__all__ = ["SERVE_JOURNAL_NAME", "ServePolicy", "ServeApp", "run_serve"]

#: The serve store's request journal (volatile artefact, like every
#: other ``*.journal.jsonl``).
SERVE_JOURNAL_NAME = "serve.journal.jsonl"

#: A normalized point request: config, workload, scale and its key.
NormalizedPoint = Tuple[SystemConfig, str, Optional[float], str]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _Deadline:
    """One timer that cancels a request's task when its deadline passes.

    The whole request — reading it and resolving it — shares one budget.
    A timer on the task itself costs no extra task per phase, as
    ``asyncio.wait_for`` would, and needs no ``asyncio.timeout``
    (Python 3.11+).
    """

    __slots__ = ("expired", "_task", "_timer")

    def __init__(self, delay_s: float):
        self.expired = False
        self._task = asyncio.current_task()
        self._timer = asyncio.get_running_loop().call_later(delay_s, self._expire)

    def _expire(self) -> None:
        self.expired = True
        if self._task is not None:
            self._task.cancel()

    def caused(self) -> bool:
        """Whether the cancellation being handled is this deadline's alone.

        If so, it is taken back and the task goes on to answer.  Python
        3.11+ counts cancellations, so one from elsewhere (a shutdown)
        that arrived as well is still pending and must propagate.
        """
        if not self.expired:
            return False
        uncancel = getattr(self._task, "uncancel", None)
        return uncancel is None or uncancel() == 0

    def cancel(self) -> None:
        self._timer.cancel()


@dataclass(frozen=True)
class ServePolicy:
    """Operating limits of one serve instance.

    ``max_active``/``max_waiting`` bound the cold-compute request queue
    (beyond which requests are shed); ``deadline_s`` is the per-request
    compute budget, per attempt in the worker; ``retries`` the extra
    attempts a cold compute gets after a transient failure in the
    worker, or resubmissions after a pool death (backoff jitter derives
    from the seeded LFSR and the canonical key — REP002-clean).
    """

    max_active: int = 4
    max_waiting: int = 16
    deadline_s: float = 60.0
    #: One more attempt than the pool's ``DEATH_LIMIT``: a request whose
    #: pool keeps dying still has one left *after* the service degrades
    #: to serial, so the ladder completes it instead of bouncing it.
    retries: int = 2
    backoff_s: float = 0.05
    breaker_threshold: int = 4
    breaker_cooldown_s: float = 2.0
    retry_after_s: float = 1.0
    max_body_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise RunnerError("serve deadline_s must be positive")
        if self.retries < 0:
            raise RunnerError("serve retries must be non-negative")


class ServeApp:
    """The service: HTTP front end, three-tier resolution, fault walls."""

    #: Bound on the raw point body -> normalized request memo (oldest
    #: dropped first), and the largest body it keeps: a point body is
    #: ~100 bytes, and the bound must hold in bytes, not just entries.
    POINT_MEMO_ENTRIES = 512
    POINT_MEMO_MAX_BODY = 1024

    def __init__(
        self,
        store: Union[str, Path],
        *,
        workers: Union[None, int, str] = None,
        policy: Optional[ServePolicy] = None,
    ):
        self.store_dir = Path(store)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.policy = policy if policy is not None else ServePolicy()
        preflight_disk(self.store_dir)
        self.memo = MemoStore(self.store_dir / MEMO_DIR)
        # Normalization is a pure function of the body and SystemConfig
        # is frozen, so a repeated point body reuses its first result;
        # a body that fails normalization raises and is never kept.
        self._points: Dict[bytes, NormalizedPoint] = {}
        self.flight = SingleFlight()
        # Always-on in-memory telemetry: the service renders it live on
        # /metrics and /v1/stats; nothing is flushed to disk, and the
        # span ring bounds memory over a long-lived process.
        self.telemetry = Telemetry(max_spans=512)
        self.breaker = CircuitBreaker(
            threshold=self.policy.breaker_threshold,
            cooldown_s=self.policy.breaker_cooldown_s,
            on_transition=self._on_breaker_transition,
        )
        self.admission = AdmissionController(
            max_active=self.policy.max_active,
            max_waiting=self.policy.max_waiting,
            retry_after_s=self.policy.retry_after_s,
        )
        self.journal = RunJournal.open(self.store_dir / SERVE_JOURNAL_NAME, resume=True)
        self.retry = RetryPolicy(
            max_attempts=self.policy.retries + 1,
            backoff_s=self.policy.backoff_s,
            jitter=0.5,
        )
        # Cold computes run here: built on the first one, with the
        # default start method; None workers means in-process serial.
        self.pool = WorkerPool(
            resolve_workers(workers), mp_context=None, initializer=None, initargs=()
        )
        # Single-threaded on purpose: memo and journal writes share
        # fixed .tmp siblings (MANIFEST.json.tmp), so store-side I/O
        # must stay serialized — as it implicitly was when these calls
        # blocked the event loop — while no longer stalling the loop.
        self._io_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-io"
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self.port: Optional[int] = None
        self.stats: Dict[str, int] = {
            "requests": 0,
            "memo": 0,
            "cold": 0,
            "coalesced": 0,
            "timeouts": 0,
            "errors": 0,
            "abandoned": 0,
        }
        self._started = self.telemetry.clock.monotonic()
        self._in_flight = 0
        self._request_seq = 0
        #: True once a shutdown signal began the drain: new compute is
        #: refused with 503 while in-flight requests run to completion.
        self.draining = False
        self.drain_reason: Optional[str] = None
        # Pool-backed compute futures still outstanding; what resetting
        # or closing the pool abandons (counted in stats["abandoned"]).
        self._pool_futures: Set["asyncio.Future[Any]"] = set()
        self._routes = {
            ("GET", "/healthz"): self._handle_health,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/v1/stats"): self._handle_stats,
            ("POST", "/v1/evaluate"): self._handle_evaluate,
            ("POST", "/v1/tpi"): self._handle_tpi,
            ("POST", "/v1/sweep"): self._handle_sweep,
            ("POST", "/v1/envelope"): self._handle_envelope,
        }

    # ------------------------------------------------------------------
    # Telemetry: live projection + event counters.

    def _on_breaker_transition(self, old_state: str, new_state: str) -> None:
        self.telemetry.count(
            "repro_serve_breaker_transitions_total",
            **{"from": old_state, "to": new_state},
        )

    def uptime_s(self) -> float:
        """Seconds since this app instance was constructed."""
        return self.telemetry.clock.monotonic() - self._started

    def memo_hit_rate(self) -> Optional[float]:
        """Fraction of memo lookups served from the store (None: no lookups)."""
        lookups = self.memo.hits + self.memo.misses
        if not lookups:
            return None
        return self.memo.hits / lookups

    _BREAKER_LEVELS = {
        CircuitBreaker.CLOSED: 0,
        CircuitBreaker.HALF_OPEN: 1,
        CircuitBreaker.OPEN: 2,
    }

    def _live_blocks(self) -> Tuple[dict, dict]:
        """The ``memo`` and ``admission`` blocks of /healthz and /v1/stats.

        Counts the memo entries once: ``len(self.memo)`` walks the
        store, so async callers must run this through the I/O executor.
        """
        hit_rate = self.memo_hit_rate()
        memo = {
            "hits": self.memo.hits,
            "misses": self.memo.misses,
            "quarantined": self.memo.quarantined,
            "entries": len(self.memo),
            "hit_rate": None if hit_rate is None else round(hit_rate, 4),
        }
        admission = {
            "active": self.admission.active,
            "waiting": self.admission.waiting,
            "shed": self.admission.shed,
        }
        return memo, admission

    def _sync_live_metrics(self, memo_entries: int) -> None:
        """Project live object state into the registry before rendering.

        Counters use ``set_to`` (projection, not increment) so repeat
        scrapes never double-count; the sources of truth stay the live
        objects (``stats``, memo, admission, breaker).  The caller
        counts ``memo_entries`` (a store walk) once per request.
        """
        registry = self.telemetry.registry
        for name, value in self.stats.items():
            registry.counter(f"repro_serve_{name}_total").set_to(float(value))
        registry.counter("repro_serve_memo_hits_total").set_to(float(self.memo.hits))
        registry.counter("repro_serve_memo_misses_total").set_to(float(self.memo.misses))
        registry.counter("repro_serve_memo_quarantined_total").set_to(
            float(self.memo.quarantined)
        )
        registry.counter("repro_serve_shed_total").set_to(float(self.admission.shed))
        registry.counter("repro_serve_pool_deaths_total").set_to(float(self.pool_deaths))
        registry.gauge("repro_serve_admission_active").set(float(self.admission.active))
        registry.gauge("repro_serve_admission_waiting").set(float(self.admission.waiting))
        registry.gauge("repro_serve_in_flight").set(float(self._in_flight))
        registry.gauge("repro_serve_breaker_state").set(
            float(self._BREAKER_LEVELS[self.breaker.state])
        )
        registry.gauge("repro_serve_degraded").set(
            0.0 if self.degraded_reason is None else 1.0
        )
        registry.gauge("repro_serve_uptime_seconds").set(round(self.uptime_s(), 3))
        registry.gauge("repro_serve_memo_entries").set(float(memo_entries))

    def _metrics_text(self) -> str:
        self._sync_live_metrics(len(self.memo))
        return self.telemetry.registry.render_prometheus()

    def _stats_document(self) -> dict:
        memo, admission = self._live_blocks()
        self._sync_live_metrics(memo["entries"])
        return {
            "schema": 1,
            "uptime_s": round(self.uptime_s(), 3),
            "in_flight": self._in_flight,
            "requests": dict(self.stats),
            "memo": memo,
            "admission": admission,
            "breaker": self.breaker.state,
            "degraded_reason": self.degraded_reason,
            "spans_recorded": self.telemetry.tracer.recorded,
            "metrics": self.telemetry.registry.snapshot(),
        }

    # ------------------------------------------------------------------
    # Compute backend: pool lifecycle, degradation, cold resolution.

    @property
    def pool_deaths(self) -> int:
        """Worker-pool deaths since the last backend reset."""
        return self.pool.deaths

    @property
    def degraded_reason(self) -> Optional[str]:
        """Why the pool degraded to serial execution, or None."""
        return self.pool.degraded_reason

    def _abandon(self) -> None:
        """Count (not drop) the futures a closed pool never answers."""
        self.stats["abandoned"] += sum(
            1 for future in self._pool_futures if not future.done()
        )

    def reset_backend(self) -> None:
        """Forget pool, degradation, and breaker state (chaos harness).

        A freshly built pool also re-reads ``REPRO_FAULTS`` — workers
        inherit the environment at creation time, so a soak round that
        changes the fault plan must rebuild the backend.
        """
        self._abandon()
        self.pool.reset()
        self.breaker.record_success()

    def _pool_future_done(self, future: "asyncio.Future[Any]") -> None:
        self._pool_futures.discard(future)
        if not future.cancelled():
            # A 504'd request abandons its await; retrieve the outcome
            # so a pool death nobody awaits never warns at GC.
            future.exception()

    async def _submit(self, task: WorkerTask) -> dict:
        """One reply for ``task``; raises BrokenProcessPool on a pool death."""
        future = self.pool.submit(task)
        if future is None:
            # Degraded/serial: the default thread executor keeps the
            # event loop (health checks, shedding) responsive.
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, execute_task, task)
        waiter = asyncio.wrap_future(future)
        self._pool_futures.add(waiter)
        waiter.add_done_callback(self._pool_future_done)
        try:
            return await waiter
        except BrokenProcessPool:
            # Every request on the broken executor lands here; the pool
            # counts one death, and the breaker one failure, for all.
            if self.pool.broke(future):
                self.breaker.record_failure()
            raise

    # Memo and journal are synchronous disk I/O (they bottom out in
    # file reads/writes and fsync).  Every call from the async
    # request path goes through these executor bridges so a slow disk
    # stalls one request, not the whole event loop, and every store
    # write stays on the one I/O thread (_memo_lookup's probe only reads).
    # The live serve tests fail on any other file I/O on the loop
    # (tests/conftest.py, the loop I/O guard).

    async def _memo_read_many(self, keys: List[str]) -> List[Optional[MemoEntry]]:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._io_executor, self.memo.read_many, keys
        )

    async def _memo_lookup(self, keys: List[str]) -> List[Optional[MemoEntry]]:
        """Each key's verified memo entry, or None: a miss to compute.

        Only the keys ``probe`` did not verify take the hop, together,
        to ``read_many``, which counts the misses and repairs.
        """
        entries = [self.memo.probe(key) for key in keys]
        unverified = [i for i, entry in enumerate(entries) if entry is None]
        if unverified:
            reread = await self._memo_read_many([keys[i] for i in unverified])
            for i, entry in zip(unverified, reread):
                entries[i] = entry
        return entries

    async def _memo_store(self, key: str, record: dict) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            self._io_executor, self.memo.store, key, record
        )

    async def _compute_cold(self, unit: RunUnit) -> dict:
        """One admitted cold computation: pool healing, then the journal.

        Fault hooks, retries and the deadline act in the worker's attempt
        loop; this loop only resubmits after a pool death, without backoff.
        """
        task = WorkerTask(unit, retry=self.retry, timeout_s=self.policy.deadline_s)
        handed_at = time.time()
        submissions = 0
        while True:
            submissions += 1
            try:
                reply = await self._submit(task)
            except BrokenProcessPool as error:
                if submissions < self.retry.max_attempts:
                    continue
                outcome = crashed_outcome(unit, error, submissions, handed_at)
            else:
                outcome = reply["outcome"]
            break
        stored = None
        if outcome.ok:
            record = outcome.value["record"]
            await self._memo_store(unit.key, record)
            stored = {
                "source": "cold",
                "label": record["label"],
                "workload": record["workload"],
                "degraded_reason": self.degraded_reason,
            }
        else:
            outcome = replace(
                outcome, error=dict(outcome.error, degraded_reason=self.degraded_reason)
            )
        await asyncio.get_running_loop().run_in_executor(
            self._io_executor, record_outcome, self.journal, unit, outcome, stored
        )
        if outcome.ok:
            self.breaker.record_success()
            self.stats["cold"] += 1
            return record
        if isinstance(outcome.exception, UnitTimeoutError):
            # The request's deadline, enforced in the worker, fired: the
            # client is already getting its 504 from the front-end race.
            # Not a breaker failure — the backend is healthy, the
            # request was just too expensive for its budget.
            raise DeadlineError(
                f"compute for {unit.unit_id} exceeded its "
                f"{self.policy.deadline_s:g}s budget in the worker",
                retry_after_s=self.policy.retry_after_s,
            ) from None
        self.breaker.record_failure()
        raise UpstreamError(
            f"compute for {unit.unit_id} failed after {outcome.attempts} "
            f"attempt(s): {outcome.error['message']}",
            retry_after_s=self.policy.retry_after_s,
        )

    async def _resolve_cold(
        self, config: SystemConfig, workload: str, scale: Optional[float], key: str
    ) -> Tuple[MemoEntry, str]:
        """Resolve a point that missed the memo (caller already admitted).

        The memo is probed once more first: the entry may have landed
        while this request queued for its slot.
        """
        (entry,) = await self._memo_lookup([key])
        if entry is not None:
            self.stats["memo"] += 1
            return entry, "memo"
        payload = point_payload(config, workload, scale)
        unit = RunUnit(key, payload, run=functools.partial(compute_point, payload))
        record, leader = await self.flight.run(key, lambda: self._compute_cold(unit))
        if not leader:
            self.stats["coalesced"] += 1
        body = canonical_json(record).encode("utf-8")
        return (record, body), "cold" if leader else "coalesced"

    # ------------------------------------------------------------------
    # Handlers.

    @staticmethod
    def _payload(body: bytes) -> Any:
        try:
            return json.loads(body) if body else {}
        except ValueError:  # undecodable text or JSON
            raise BadRequestError("request body is not valid JSON") from None

    def _normalized_point(self, body: bytes) -> NormalizedPoint:
        """The normalized point of a raw request body (memoized)."""
        point = self._points.get(body)
        if point is None:
            config, workload, scale = normalize_point(self._payload(body))
            point = (config, workload, scale, point_key(config, workload, scale))
            if len(body) <= self.POINT_MEMO_MAX_BODY:
                if len(self._points) >= self.POINT_MEMO_ENTRIES:
                    del self._points[next(iter(self._points))]
                self._points[body] = point
        return point

    async def _handle_point(self, body: bytes, project_tpi: bool) -> Tuple[int, bytes, Dict[str, str]]:
        config, workload, scale, key = self._normalized_point(body)
        (entry,) = await self._memo_lookup([key])
        if entry is not None:
            self.stats["memo"] += 1
            source = "memo"
        else:
            self.breaker.check()
            async with self.admission.slot():
                entry, source = await self._resolve_cold(config, workload, scale, key)
        record, reply = entry
        if project_tpi:
            reply = canonical_json(tpi_record(record)).encode("utf-8")
        return 200, reply, {
            "X-Repro-Source": source,
            "X-Repro-Key": key,
        }

    async def _handle_evaluate(self, body: bytes) -> Tuple[int, bytes, Dict[str, str]]:
        return await self._handle_point(body, project_tpi=False)

    async def _handle_tpi(self, body: bytes) -> Tuple[int, bytes, Dict[str, str]]:
        return await self._handle_point(body, project_tpi=True)

    async def _resolve_many(self, body: bytes) -> Tuple[List[dict], str, Dict[str, int]]:
        configs, workload, scale = normalize_sweep(self._payload(body))
        keys = [point_key(c, workload, scale) for c in configs]
        # One verified lookup of every point; only the points that missed
        # go on, together, through the breaker and one admission ticket
        # per *request* (their fan-out is bounded by the pool, not the
        # request queue).
        entries = await self._memo_lookup(keys)
        resolved: List[Any] = [None if entry is None else (entry, "memo") for entry in entries]
        misses = [i for i, entry in enumerate(entries) if entry is None]
        self.stats["memo"] += len(keys) - len(misses)
        if misses:
            self.breaker.check()
            async with self.admission.slot():
                cold = await asyncio.gather(
                    *(self._resolve_cold(configs[i], workload, scale, keys[i]) for i in misses)
                )
            for i, outcome in zip(misses, cold):
                resolved[i] = outcome
        sources: Dict[str, int] = {}
        for _, source in resolved:
            sources[source] = sources.get(source, 0) + 1
        return [record for (record, _), _ in resolved], workload, sources

    async def _handle_sweep(self, body: bytes) -> Tuple[int, bytes, Dict[str, str]]:
        records, workload, sources = await self._resolve_many(body)
        reply = canonical_json(
            {
                "schema": 1,
                "kind": "sweep",
                "workload": workload,
                "points": records,
            }
        )
        headers = {"X-Repro-Sources": json.dumps(sources, sort_keys=True)}
        return 200, reply.encode("utf-8"), headers

    async def _handle_envelope(self, body: bytes) -> Tuple[int, bytes, Dict[str, str]]:
        records, workload, sources = await self._resolve_many(body)
        reply = canonical_json(
            {
                "schema": 1,
                "kind": "envelope",
                "workload": workload,
                "points": staircase(records, itemgetter("area_rbe", "tpi_ns")),
            }
        )
        headers = {"X-Repro-Sources": json.dumps(sources, sort_keys=True)}
        return 200, reply.encode("utf-8"), headers

    def health(self) -> dict:
        """The /healthz document (also used directly by tests)."""
        memo, admission = self._live_blocks()
        if self.draining:
            status = "draining"
        elif self.degraded_reason:
            status = "degraded"
        else:
            status = "ok"
        return {
            "schema": 1,
            "status": status,
            "draining": self.draining,
            "degraded_reason": self.degraded_reason,
            "breaker": self.breaker.state,
            "workers": self.pool.workers or 0,
            "pool_deaths": self.pool_deaths,
            "uptime_s": round(self.uptime_s(), 3),
            "in_flight": self._in_flight,
            "memo": memo,
            "admission": admission,
            "requests": dict(self.stats),
        }

    async def _handle_health(self, body: bytes) -> Tuple[int, bytes, Dict[str, str]]:
        loop = asyncio.get_running_loop()
        document = await loop.run_in_executor(self._io_executor, self.health)
        return 200, canonical_json(document).encode("utf-8"), {}

    async def _handle_metrics(self, body: bytes) -> Tuple[int, bytes, Dict[str, str]]:
        """GET /metrics — Prometheus text exposition of the live registry."""
        loop = asyncio.get_running_loop()
        text = await loop.run_in_executor(self._io_executor, self._metrics_text)
        return 200, text.encode("utf-8"), {
            "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
        }

    async def _handle_stats(self, body: bytes) -> Tuple[int, bytes, Dict[str, str]]:
        """GET /v1/stats — the same registry as JSON, plus derived rates."""
        loop = asyncio.get_running_loop()
        document = await loop.run_in_executor(self._io_executor, self._stats_document)
        return 200, canonical_json(document).encode("utf-8"), {}

    # ------------------------------------------------------------------
    # HTTP plumbing (stdlib asyncio streams; one request per connection).

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        try:
            line = await reader.readline()
        except ValueError:
            raise BadRequestError("request line too long") from None
        if not line:
            raise ConnectionError("client closed before sending a request")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise BadRequestError("malformed HTTP request line")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for _ in range(100):
            try:
                raw = await reader.readline()
            except ValueError:
                raise BadRequestError("request header too long") from None
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        else:
            raise BadRequestError("too many request headers")
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise BadRequestError("malformed Content-Length header") from None
        if length < 0:
            raise BadRequestError("negative Content-Length")
        if length > self.policy.max_body_bytes:
            raise OversizeError(
                f"request body of {length} bytes exceeds the "
                f"{self.policy.max_body_bytes}-byte limit"
            )
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    async def _dispatch(
        self, method: str, target: str, body: bytes, deadline: _Deadline
    ) -> Tuple[int, bytes, Dict[str, str]]:
        path = target.partition("?")[0]
        handler = self._routes.get((method, path))
        if handler is None:
            raise NotFoundError(f"no handler for {method} {path}")
        if method == "POST" and self.draining:
            # Read-only endpoints keep answering (health checks watch
            # the drain); new compute is refused with a back-off hint.
            raise DrainingError(
                f"service is draining ({self.drain_reason}); "
                f"retry against a live instance",
                retry_after_s=self.policy.retry_after_s,
            )
        try:
            return await handler(body)
        except asyncio.CancelledError:
            if not deadline.caused():
                raise
            self.stats["timeouts"] += 1
            raise DeadlineError(
                f"request exceeded its {self.policy.deadline_s:g}s deadline "
                f"(the worker-side budget cancels the computation and "
                f"frees its pool slot)",
                retry_after_s=self.policy.retry_after_s,
            ) from None

    @staticmethod
    def _error_body(error: BaseException, status: int) -> Tuple[bytes, Dict[str, str]]:
        document = {
            "error": {
                "type": type(error).__name__,
                "message": str(error),
                "status": status,
            }
        }
        headers: Dict[str, str] = {}
        retry_after = getattr(error, "retry_after_s", None)
        if retry_after is not None:
            headers["Retry-After"] = str(max(1, math.ceil(retry_after)))
        return canonical_json(document).encode("utf-8"), headers

    @staticmethod
    def _response_bytes(status: int, body: bytes, headers: Dict[str, str]) -> bytes:
        extra = dict(headers)
        content_type = extra.pop("Content-Type", "application/json")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        lines += [f"{name}: {value}" for name, value in extra.items()]
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

    async def handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: read a request, answer it, close.

        Every failure mode maps to a typed status — a handler can raise
        :class:`ServeError` (its own status + Retry-After), a library
        :class:`ReproError` that slipped past validation (400), or an
        unexpected exception (500, type and message only).  Nothing
        escapes as a traceback and nothing leaves the client hanging.
        """
        self.stats["requests"] += 1
        self._request_seq += 1
        request_id = f"req-{self._request_seq:08d}"
        self._in_flight += 1
        deadline = _Deadline(self.policy.deadline_s)
        try:
            # A root span (no nesting stack): request handlers await
            # mid-span, so concurrent requests interleave and strictly
            # nested parenting would lie about causality.
            with self.telemetry.span(
                "request", root=True, request=request_id
            ) as req_span:
                try:
                    method, target, body = await self._read_request(reader)
                except (ConnectionError, asyncio.IncompleteReadError):
                    req_span.set(outcome="unreadable")
                    return
                except asyncio.CancelledError:
                    if not deadline.caused():
                        raise
                    req_span.set(outcome="unreadable")
                    return
                try:
                    status, payload, headers = await self._dispatch(
                        method, target, body, deadline
                    )
                except ServeError as error:
                    self.stats["errors"] += 1
                    status = error.status
                    payload, headers = self._error_body(error, status)
                except ReproError as error:
                    self.stats["errors"] += 1
                    status = 400
                    payload, headers = self._error_body(error, status)
                except asyncio.CancelledError:
                    raise
                except Exception as error:  # last wall: never a traceback
                    self.stats["errors"] += 1
                    status = 500
                    payload, headers = self._error_body(error, status)
                deadline.cancel()
                req_span.set(
                    method=method, path=target.partition("?")[0], status=status
                )
                headers = dict(headers)
                headers["X-Repro-Request"] = request_id
                writer.write(self._response_bytes(status, payload, headers))
                await writer.drain()
            # The span closed on scope exit; its measured duration is
            # the whole request (read, dispatch, write).
            self.telemetry.observe(
                "repro_serve_request_seconds", req_span.duration_s
            )
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            deadline.cancel()
            self._in_flight -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # Lifecycle.

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting; ``port=0`` picks a free port."""
        self._server = await asyncio.start_server(self.handle_client, host, port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RunnerError("serve_forever() before start()")
        await self._server.serve_forever()

    def begin_drain(self, reason: str) -> None:
        """Enter the drain phase: refuse new compute, finish in-flight.

        The listener stays open so /healthz keeps reporting
        ``draining`` and POSTs get an honest 503 + Retry-After instead
        of a connection refusal; :meth:`wait_drained` then completes
        once the last admitted request has answered.
        """
        if not self.draining:
            self.draining = True
            self.drain_reason = reason

    async def wait_drained(self, poll_s: float = 0.05) -> None:
        """Block until every in-flight request has completed.

        Polling (rather than an event bound at construction time) keeps
        the app loop-agnostic; the drain is signal-paced, so a 50 ms
        poll is invisible.
        """
        while self._in_flight > 0:
            await asyncio.sleep(poll_s)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._abandon()
        self.pool.close(wait=False)
        # wait=True drains the queued memo/journal writes, leaving the
        # store manifest-consistent however the shutdown started.
        self._io_executor.shutdown(wait=True)


def run_serve(
    store: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 8787,
    *,
    workers: Union[None, int, str] = "auto",
    policy: Optional[ServePolicy] = None,
) -> int:
    """Run the service in the foreground (the CLI entry point).

    Two-phase shutdown: the first SIGTERM/SIGINT begins a graceful
    drain — the listener keeps answering (/healthz says ``draining``,
    POSTs get 503 + Retry-After), in-flight requests complete, queued
    memo/journal writes flush, and the process exits 0.  A second
    signal aborts: in-flight work is abandoned (pool futures are
    counted as such) and the process exits ``EXIT_ABORTED``; the memo
    store stays manifest-consistent either way because every store
    write is atomic and the I/O executor is drained on stop.
    """
    app = ServeApp(store, workers=workers, policy=policy)

    async def main() -> int:
        await app.start(host, port)
        loop = asyncio.get_running_loop()
        drain_begun = asyncio.Event()
        abort = asyncio.Event()

        def on_signal(name: str) -> None:
            if not app.draining:
                app.begin_drain(f"received {name}")
                drain_begun.set()
                print(
                    f"repro serve: {name} received; draining — in-flight "
                    f"requests finishing, new compute refused with 503 "
                    f"(signal again to abort)",
                    flush=True,
                )
            else:
                abort.set()
                print(
                    "repro serve: second signal; aborting with in-flight "
                    "work abandoned",
                    flush=True,
                )

        installed = []
        for name in ("SIGTERM", "SIGINT"):
            signum = getattr(signal, name, None)
            if signum is None:  # pragma: no cover - non-POSIX platforms
                continue
            try:
                loop.add_signal_handler(signum, on_signal, name)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                continue
            installed.append(signum)
        # Only now advertise readiness: anyone who reacts to this line
        # with a signal must find the two-phase handlers already in
        # place, or the default disposition would kill us mid-start.
        print(
            f"repro serve: listening on http://{host}:{app.port} "
            f"(store {app.store_dir}, workers {app.pool.workers or 'serial'})",
            flush=True,
        )
        tasks = {
            loop.create_task(app.serve_forever()),
            loop.create_task(drain_begun.wait()),
        }
        try:
            await asyncio.wait(tasks, return_when=asyncio.FIRST_COMPLETED)
            if drain_begun.is_set():
                waiters = {
                    loop.create_task(app.wait_drained()),
                    loop.create_task(abort.wait()),
                }
                tasks |= waiters
                await asyncio.wait(waiters, return_when=asyncio.FIRST_COMPLETED)
            return EXIT_ABORTED if abort.is_set() else 0
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            for signum in installed:
                loop.remove_signal_handler(signum)
            await app.stop()

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - non-POSIX fallback
        # Only reachable where loop signal handlers are unavailable;
        # asyncio.run's cleanup cancels main(), whose finally has
        # already stopped the app and flushed the store.
        return EXIT_ABORTED
