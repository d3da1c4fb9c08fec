"""Seeded chaos soaks: hammer the program with faults, prove it converges.

The robustness claim of this repository is not "each mechanism has a
unit test" but "the *composition* survives": crashes mid-run, transient
failures, torn writes, bit rot, full disks, killed workers and dying
pools — in any interleaving — must leave every result byte-identical
with an undisturbed run.  :func:`run_chaos` is that experiment, in one
of two modes that share one round loop:

* the **report soak** (default) produces a clean reference report in
  ``<out>/clean``, then soaks ``<out>/soak`` with faulted ``--resume``
  passes.  After the rounds it heals the tree with a fault-free resume
  pass, rots surviving artefacts directly (sometimes the integrity
  records themselves), runs :func:`~repro.study.repair.verify_and_repair`
  and compares :func:`~repro.runner.integrity.tree_fingerprint` of both
  trees: convergence means zero differing deterministic bytes;
* the **serve soak** (``serve=True``) computes a fault-free serial
  reference answer for every query in its request mix, then fires a
  concurrent burst of requests per round at a live
  :class:`~repro.serve.harness.BackgroundServer` under slow workers,
  mid-request pool deaths, poisoned memo writes and per-key failures,
  and rots a surviving memo entry after each round.  Every 200 must be
  byte-identical to its reference and every refusal a typed 503/504
  carrying ``Retry-After``; after the rounds a fault-free availability
  pass must answer every query 200.

Each round draws a fault schedule from a seeded RNG and runs under it
via the ``REPRO_FAULTS`` grammar (which also reaches pool workers).
Faults are *drawn* randomly but *fire* deterministically — the schedule
is data (:attr:`ChaosResult.schedules` records every round), so a
failing seed replays exactly.  The schedules depend on the seed alone:
the serve soak draws its request picks and memo rot from a second
stream, so how many memo entries a round left never shifts a later
round's schedule.
"""

from __future__ import annotations

import json
import os
import random
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..errors import AbortError, ReproError
from ..obs.telemetry import DISABLED as _DISABLED_TELEMETRY, Telemetry
from ..runner import (
    ResourceWatchdog,
    Supervisor,
    WatchdogPolicy,
    faults,
    resolve_workers,
    tree_fingerprint,
)
from ..runner.integrity import RUN_METADATA_NAME, SIDECAR_SUFFIX, is_volatile, untrack
from .registry import experiment_ids
from .repair import verify_and_repair
from .resultstore import JOURNAL_NAME, write_report

__all__ = ["ChaosResult", "fault_schedule", "run_chaos"]

#: Fault kinds a report-soak round may draw.  ``delay`` is excluded (it
#: only slows the soak down); ``killworker`` and ``hang`` are drawn only
#: when the soak actually runs a pool (``hang`` is a worker-side wedge:
#: serially it is a no-op by design).  ``sigterm`` exercises the
#: lifecycle drain — a real shutdown signal lands mid-flight and the
#: round must stop gracefully with everything journalled.
_ROUND_KINDS = (
    "fail", "crash", "corrupt", "bitflip", "partial", "enospc", "sigterm"
)

#: Liveness limit the report soak's pool rounds run under: a worker
#: silent for this long while marked running is declared hung and
#: rescued.  Short, because the injected ``hang`` wedge sleeps far longer.
_SOAK_HANG_TIMEOUT_S = 2.0

#: The serve soak's query mix, (L1 KB, L2 KB) on gcc1: small enough to
#: keep a round fast, varied enough to mix memo hits, cold computes, and
#: coalesced duplicates.
_POINTS: Tuple[Tuple[int, int], ...] = ((1, 0), (1, 8), (2, 0), (2, 16), (4, 32))

#: Requests the serve soak fires per round (plus a doomed key's request).
_REQUESTS_PER_ROUND = 8


@dataclass
class ChaosResult:
    """Everything one seeded soak did, and whether it converged.

    ``mismatches`` holds every broken promise: a report-soak path whose
    bytes differ from the clean run, or a serve-soak wrong answer,
    untyped refusal, unexpected status or unavailable query.
    ``counts`` tallies the serve soak's responses.
    """

    seed: int
    rounds: int
    kind: str = "chaos"
    schedules: List[str] = field(default_factory=list)
    bitrot: List[str] = field(default_factory=list)
    reran: List[str] = field(default_factory=list)
    quarantined: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    converged: bool = False
    mismatches: List[str] = field(default_factory=list)

    def to_record(self) -> dict:
        return {
            "schema": 1,
            "kind": self.kind,
            "seed": self.seed,
            "rounds": self.rounds,
            "schedules": list(self.schedules),
            "bitrot": list(self.bitrot),
            "reran": list(self.reran),
            "quarantined": self.quarantined,
            "counts": dict(self.counts),
            "converged": self.converged,
            "mismatches": list(self.mismatches),
        }

    def render(self) -> str:
        lines = [
            f"{self.kind.replace('-', ' ')} soak seed={self.seed}: "
            f"{self.rounds} round(s)",
        ]
        for index, schedule in enumerate(self.schedules):
            lines.append(f"  round {index}: {schedule or '(no faults)'}")
        for target in self.bitrot:
            lines.append(f"  bit rot: {target}")
        lines.append(
            f"  repair: {self.quarantined} quarantined, "
            f"{len(self.reran)} director(ies) re-run"
        )
        if self.counts:
            tallies = ", ".join(f"{name}={value}" for name, value in self.counts.items())
            lines.append(f"  counts: {tallies}")
        if self.converged:
            lines.append("converged: every result byte-identical to its clean reference")
        else:
            lines.append(f"DIVERGED: {len(self.mismatches)} mismatch(es)")
            for mismatch in self.mismatches:
                lines.append(f"  differs: {mismatch}")
        return "\n".join(lines)


def _random_schedule(
    rng: random.Random, unit_ids: List[str], with_pool: bool
) -> str:
    """Draw one report-soak round's fault specification (possibly empty)."""
    kinds = list(_ROUND_KINDS) + (["killworker", "hang"] if with_pool else [])
    n_faults = rng.randint(0, 2)
    parts = []
    used_kinds = set()
    for _ in range(n_faults):
        kind = rng.choice(kinds)
        if kind in used_kinds:
            continue  # one spec per kind: later entries would override
        used_kinds.add(kind)
        unit = rng.choice(unit_ids)
        if kind == "fail":
            parts.append(f"fail={unit}:{rng.randint(1, 2)}")
        elif kind == "enospc":
            parts.append(f"enospc={unit}:{rng.randint(1, 2)}")
        elif kind == "partial":
            parts.append(f"partial={unit}:{rng.randint(0, 64)}")
        elif kind == "hang":
            # Far beyond the soak's liveness limit: the wedge must be
            # rescued (kill + requeue), never waited out.
            parts.append(f"hang={unit}:30")
        else:
            parts.append(f"{kind}={unit}")
    return ",".join(parts)


def _serve_schedule(rng: random.Random, keys: List[str]) -> str:
    """Draw one serve-soak round's fault mix (possibly empty).

    A ``fail=`` round dooms one canonical key (keys are deterministic,
    so a per-key fault can target one) with enough injected failures to
    exhaust the retry budget and surface as a typed 503.
    """
    kind = rng.choice(
        ["none", "slow", "pooldeath", "poison", "fail", "poison+slow"]
    )
    if kind == "none":
        return ""
    if kind == "slow":
        return f"slowworker=*:{rng.choice([0.1, 0.2, 0.3])}"
    if kind == "pooldeath":
        return f"pooldeath=*:{rng.randint(1, 2)}"
    if kind == "poison":
        return f"poisonmemo=*:{rng.randint(1, 2)}"
    if kind == "fail":
        return f"fail={rng.choice(keys)}:9"
    return "poisonmemo=*:1,slowworker=*:0.1"


def _bitrot_targets(soak: Path, rng: random.Random) -> List[Path]:
    """Pick up to two deterministic files to damage directly.

    ``RUN.json`` is spared: it *is* the repair recipe, the one artefact
    that cannot be regenerated from itself (its sidecar and the
    manifest still guard it against silent damage — verification
    reports it, repair just cannot replay it).
    """
    candidates = []
    for path in sorted(soak.rglob("*")):
        if not path.is_file() or "quarantine" in path.parts:
            continue
        base = (
            path.name[: -len(SIDECAR_SUFFIX)]
            if path.name.endswith(SIDECAR_SUFFIX)
            else path.name
        )
        if is_volatile(base) or base == RUN_METADATA_NAME:
            continue
        if path.stat().st_size == 0:
            continue
        candidates.append(path)
    if not candidates:
        return []
    return rng.sample(candidates, k=min(2, len(candidates)))


def _rot(path: Path, rng: random.Random) -> None:
    """Flip one bit or truncate ``path`` — silent post-write damage."""
    data = bytearray(path.read_bytes())
    if rng.random() < 0.5 and len(data) > 1:
        data = data[: rng.randint(1, len(data) - 1)]
    else:
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    # repro: lint-ok[REP001] the soak deliberately rots bytes behind the atomic layer; surviving this is what the test proves
    path.write_bytes(bytes(data))


@contextmanager
def fault_schedule(schedule: str) -> Iterator[None]:
    """Run the block under ``REPRO_FAULTS=schedule`` (empty: no faults).

    Fire counters start and end at zero, and the caller's
    ``REPRO_FAULTS`` comes back on exit, so one soak round's plan never
    leaks into the next round or the caller.
    """
    previous = os.environ.get(faults.ENV_VAR)
    if schedule:
        os.environ[faults.ENV_VAR] = schedule
    else:
        os.environ.pop(faults.ENV_VAR, None)
    faults.clear()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(faults.ENV_VAR, None)
        else:
            os.environ[faults.ENV_VAR] = previous
        faults.clear()


def _fault_evidence(journal_path: Path) -> int:
    """Journal entries showing a fault actually fired (retry or failure).

    The soak's journal is the ground truth for "the injected fault was
    observed": a unit that failed, or needed more than one attempt,
    hit *something*.  Counting entries (not units) keeps repeat rounds
    visible — each appended record is one more observation.
    """
    if not journal_path.exists():
        return 0
    evidence = 0
    for line in journal_path.read_text().splitlines():
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail line mid-soak: not evidence either way
        if not isinstance(entry, dict) or "unit" not in entry:
            continue
        if entry.get("status") == "failed" or entry.get("attempts", 1) > 1:
            evidence += 1
    return evidence


class _Soak:
    """What differs between soaks: the schedule table (``draw``), the
    round body (``round``), what gets rotted, the final check
    (``finish``) and where the rounds' faults show up (``evidence``)."""

    kind = "chaos"
    counts: Tuple[str, ...] = ()
    journal: Path

    def evidence(self) -> int:
        """Faults observed so far (journal entries with a failure or retry)."""
        return _fault_evidence(self.journal)

    def __enter__(self) -> "_Soak":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


class _ReportSoak(_Soak):
    """The report soak: faulted ``write_report --resume`` passes over
    ``<out>/soak``, judged against a clean ``<out>/clean``."""

    def __init__(
        self,
        out: Path,
        ids: Optional[List[str]],
        scale: Optional[float],
        workers: "Union[None, int, str]",
        telemetry: Optional[Telemetry],
    ):
        self.clean_dir = out / "clean"
        self.soak_dir = out / "soak"
        self.journal = self.soak_dir / JOURNAL_NAME
        self.unit_ids = list(ids) if ids is not None else experiment_ids()
        self.with_pool = workers not in (None, 0, "", "serial")
        self.ids, self.scale, self.workers = ids, scale, workers
        self.telemetry = telemetry
        # Reference tree: same report, no faults.
        write_report(self.clean_dir, ids=ids, scale=scale, workers=workers)

    def draw(self, rng: random.Random) -> str:
        return _random_schedule(rng, self.unit_ids, self.with_pool)

    def round(self, schedule: str, result: ChaosResult) -> None:
        """One faulted ``write_report`` pass; crashes/failures are expected.

        The pass runs under a :class:`~repro.runner.Supervisor`, so an
        injected ``sigterm`` lands exactly like an operator's Ctrl-C:
        the round drains (in-flight experiments finish and journal)
        instead of dying mid-write.  Pool passes also run with a
        hang-capable watchdog so an injected ``hang`` wedge is rescued,
        not waited out.
        """
        guard = (
            ResourceWatchdog(WatchdogPolicy(hang_timeout_s=_SOAK_HANG_TIMEOUT_S))
            if resolve_workers(self.workers) is not None
            else None
        )
        try:
            with Supervisor() as supervisor:
                write_report(
                    self.soak_dir,
                    ids=self.ids,
                    scale=self.scale,
                    resume=True,
                    keep_going=True,
                    retries=1,
                    workers=self.workers,
                    watchdog=guard,
                    cancel=supervisor.token,
                )
        except faults.InjectedCrash:
            pass  # simulated kill mid-run; the journal survives
        except AbortError:
            pass  # drain overrun aborted hard; journalled units survive
        except ReproError:
            pass  # e.g. an injected failure surfacing through strict paths

    def finish(self, rng: random.Random, result: ChaosResult) -> None:
        # Fault-free resume pass: heal failed/missing units the rounds left.
        with fault_schedule(""):
            self.round("", result)
        # Silent bit rot on the healed tree — sometimes on the integrity
        # records themselves — so the converge step below must *detect*
        # the damage (nothing re-runs these units on its own), quarantine
        # it, and regenerate from the re-run recipe.
        for target in _bitrot_targets(self.soak_dir, rng):
            _rot(target, rng)
            result.bitrot.append(str(target.relative_to(self.soak_dir)))
        outcome = verify_and_repair(
            self.soak_dir, workers=self.workers, telemetry=self.telemetry
        )
        result.quarantined = len(
            [f for f in outcome.report.findings if f.action.startswith("quarantined")]
        )
        result.reran = [str(path) for path in outcome.reran]
        clean = tree_fingerprint(self.clean_dir)
        soak = tree_fingerprint(self.soak_dir)
        result.mismatches = [
            path
            for path in sorted(set(clean) | set(soak))
            if clean.get(path) != soak.get(path)
        ]
        result.converged = not result.mismatches and outcome.clean


class _ServeSoak(_Soak):
    """The serve soak: request bursts against a live server whose store
    is ``<out>/store``, judged against serial answers."""

    kind = "serve-chaos"
    counts = ("requests", "ok", "refused_503", "refused_504", "degraded_rounds")

    def __init__(
        self,
        out: Path,
        seed: int,
        scale: Optional[float],
        workers: "Union[None, int, str]",
    ):
        from ..core.config import SystemConfig
        from ..serve import SERVE_JOURNAL_NAME, BackgroundServer, ServePolicy
        from ..serve.compute import (
            canonical_json,
            compute_point,
            point_key,
            point_payload,
        )
        from ..units import kb

        self.store = out / "store"
        self.journal = self.store / SERVE_JOURNAL_NAME
        self.payloads: Dict[str, dict] = {}
        self.references: Dict[str, bytes] = {}
        for l1_kb, l2_kb in _POINTS:
            config = SystemConfig(l1_bytes=kb(l1_kb), l2_bytes=kb(l2_kb))
            key = point_key(config, "gcc1", scale)
            self.payloads[key] = point_payload(config, "gcc1", scale)
            # Fault-free serial answers: the bytes every 200 must match.
            record = compute_point(self.payloads[key])["record"]
            self.references[key] = canonical_json(record).encode("utf-8")
        self.keys = sorted(self.payloads)
        self.rng = random.Random(f"{seed}:requests")
        self.pool_deaths = 0
        self.server = BackgroundServer(
            self.store,
            workers=workers,
            policy=ServePolicy(
                deadline_s=60.0,
                backoff_s=0.02,
                breaker_cooldown_s=0.2,
                retry_after_s=0.5,
            ),
        )

    def __enter__(self) -> "_ServeSoak":
        self.server.__enter__()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.server.__exit__(*exc_info)

    def draw(self, rng: random.Random) -> str:
        return _serve_schedule(rng, self.keys)

    def evidence(self) -> int:
        # A resubmitted point and a recomputed poisoned (or rotted) entry
        # both journal the worker's single attempt: only serve's counts
        # show the pool death and the quarantine.
        return (
            super().evidence() + self.pool_deaths + self.server.app.memo.quarantined
        )

    def _ask(self, key: str) -> Tuple[int, Dict[str, str], bytes]:
        return self.server.request("POST", "/v1/evaluate", self.payloads[key])

    def _check(
        self,
        result: ChaosResult,
        key: str,
        response: Tuple[int, Dict[str, str], bytes],
    ) -> None:
        status, headers, body = response
        result.counts["requests"] += 1
        if status == 200:
            result.counts["ok"] += 1
            if body != self.references[key]:
                result.mismatches.append(f"{key}: wrong answer")
        elif status in (503, 504):
            result.counts[f"refused_{status}"] += 1
            if "retry-after" not in headers:
                result.mismatches.append(f"{key}: HTTP {status} without Retry-After")
        else:
            result.mismatches.append(f"{key}: unexpected HTTP {status}")

    def round(self, schedule: str, result: ChaosResult) -> None:
        # Rebuild the backend so freshly forked workers inherit this
        # round's plan.
        self.server.call(self.server.app.reset_backend)
        picks = [self.rng.choice(self.keys) for _ in range(_REQUESTS_PER_ROUND)]
        doomed = faults.parse_plan(schedule).fail_unit
        if doomed is not None:
            # Evict the doomed key's memo entry so its request reaches
            # the backend (a memo hit would dodge the fault).
            entry = self.store / "memo" / f"{doomed}.json"
            entry.unlink(missing_ok=True)
            untrack(entry)
            picks.append(doomed)
        with ThreadPoolExecutor(max_workers=4) as clients:
            responses = list(clients.map(self._ask, picks))
        for key, response in zip(picks, responses):
            self._check(result, key, response)
        self.pool_deaths += self.server.app.pool_deaths  # reset each round
        if self.server.app.degraded_reason is not None:
            result.counts["degraded_rounds"] += 1
        # Rot a surviving memo entry behind the service's back: it must
        # never be served.
        entries = sorted(
            path
            for path in (self.store / "memo").glob("*.json")
            if path.name != "MANIFEST.json" and path.stat().st_size > 0
        )
        if entries:
            target = self.rng.choice(entries)
            _rot(target, self.rng)
            result.bitrot.append(target.name)

    def finish(self, rng: random.Random, result: ChaosResult) -> None:
        # Availability pass: faults off, backend fresh — every query
        # must be served, whatever the rounds did.
        with fault_schedule(""):
            self.server.call(self.server.app.reset_backend)
            for key in self.keys:
                response = self._ask(key)
                self._check(result, key, response)
                if response[0] != 200:
                    result.mismatches.append(
                        f"{key}: HTTP {response[0]} after the faults cleared"
                    )
        result.quarantined = self.server.app.memo.quarantined
        result.converged = not result.mismatches


def run_chaos(
    out_dir: Union[str, Path],
    *,
    seed: int = 0,
    rounds: int = 4,
    ids: Optional[List[str]] = None,
    scale: Optional[float] = 0.05,
    workers: "Union[None, int, str]" = None,
    serve: bool = False,
    telemetry: Optional[Telemetry] = None,
) -> ChaosResult:
    """Run one seeded soak (see module docstring); never raises for
    injected damage — the returned :class:`ChaosResult` says whether
    the results converged.

    ``serve=True`` runs the serve soak (``ids`` is then unused).
    ``telemetry`` (optional) receives per-round counters proving the
    injected faults were *observed*, not merely scheduled:
    ``repro_chaos_faults_scheduled_total{kind}`` counts what each
    round's schedule drew, ``repro_chaos_faults_observed_total`` counts
    the journal entries (failures or retries) those faults produced —
    plus, in the serve soak, pool deaths and quarantined memo entries —
    and ``repro_chaos_quarantined_total`` / ``repro_chaos_reruns_total``
    count what the soak's final check quarantined and re-ran.
    """
    out = Path(out_dir)
    rng = random.Random(seed)
    tel = telemetry if telemetry is not None else _DISABLED_TELEMETRY
    soak = (
        _ServeSoak(out, seed, scale, workers)
        if serve
        else _ReportSoak(out, ids, scale, workers, telemetry)
    )
    result = ChaosResult(
        seed=seed, rounds=rounds, kind=soak.kind, counts=dict.fromkeys(soak.counts, 0)
    )
    with soak:
        for round_index in range(rounds):
            schedule = soak.draw(rng)
            result.schedules.append(schedule)
            for part in filter(None, schedule.split(",")):
                tel.count(
                    "repro_chaos_faults_scheduled_total",
                    kind=part.split("=", 1)[0],
                )
            evidence_before = soak.evidence()
            with tel.span(
                "chaos_round", round=round_index, schedule=schedule
            ) as round_span, fault_schedule(schedule):
                soak.round(schedule, result)
                observed = max(0, soak.evidence() - evidence_before)
                round_span.set(observed=observed)
            if observed:
                tel.count("repro_chaos_faults_observed_total", float(observed))
        soak.finish(rng, result)
    if result.quarantined:
        tel.count("repro_chaos_quarantined_total", float(result.quarantined))
    if result.reran:
        tel.count("repro_chaos_reruns_total", float(len(result.reran)))
    return result
