"""Seeded chaos soak: hammer a report with faults, prove it converges.

The robustness claim of this repository is not "each mechanism has a
unit test" but "the *composition* survives": crashes mid-run, transient
failures, torn writes, bit rot, full disks, and killed workers — in any
interleaving — must leave a results tree that journals, integrity
verification, and the resume path can drive back to **byte-identical**
with an undisturbed run.  :func:`run_chaos` is that experiment:

1. produce a clean reference report in ``<out>/clean``;
2. soak ``<out>/soak``: for each round, draw a fault schedule from a
   seeded RNG (so every soak is exactly reproducible from its seed),
   install it via the ``REPRO_FAULTS`` grammar (which also reaches
   pool workers), and run the same report with ``--resume``;
3. after the rounds, inject direct bit rot into surviving artefacts —
   including, sometimes, the integrity records themselves;
4. converge: a fault-free resume pass, then
   :func:`~repro.study.repair.verify_and_repair`;
5. compare :func:`~repro.runner.integrity.tree_fingerprint` of both
   trees.  Convergence means zero differing deterministic bytes.

Faults are *drawn* randomly but *fire* deterministically — the
schedule is data (:class:`ChaosResult.schedules` records every round),
so a failing seed replays exactly.
"""

from __future__ import annotations

import json
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

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
from ..runner.integrity import RUN_METADATA_NAME, SIDECAR_SUFFIX, is_volatile
from .registry import experiment_ids
from .repair import verify_and_repair
from .resultstore import write_report

__all__ = ["ChaosResult", "fault_schedule", "run_chaos"]

#: Fault kinds a soak round may draw.  ``delay`` is excluded (it only
#: slows the soak down); ``killworker`` and ``hang`` are drawn only
#: when the soak actually runs a pool (``hang`` is a worker-side wedge:
#: serially it is a no-op by design).  ``sigterm`` exercises the
#: lifecycle drain — a real shutdown signal lands mid-flight and the
#: round must stop gracefully with everything journalled.
_ROUND_KINDS = (
    "fail", "crash", "corrupt", "bitflip", "partial", "enospc", "sigterm"
)

#: Liveness limit the soak's pool rounds run under: a worker silent for
#: this long while marked running is declared hung and rescued.  Short,
#: because the injected ``hang`` wedge sleeps far longer than this.
_SOAK_HANG_TIMEOUT_S = 2.0


@dataclass
class ChaosResult:
    """Everything one seeded soak did, and whether it converged."""

    seed: int
    rounds: int
    schedules: List[str] = field(default_factory=list)
    bitrot: List[str] = field(default_factory=list)
    reran: List[str] = field(default_factory=list)
    quarantined: int = 0
    converged: bool = False
    mismatches: List[str] = field(default_factory=list)

    def to_record(self) -> dict:
        return {
            "schema": 1,
            "seed": self.seed,
            "rounds": self.rounds,
            "schedules": list(self.schedules),
            "bitrot": list(self.bitrot),
            "reran": list(self.reran),
            "quarantined": self.quarantined,
            "converged": self.converged,
            "mismatches": list(self.mismatches),
        }

    def render(self) -> str:
        lines = [
            f"chaos soak seed={self.seed}: {self.rounds} round(s)",
        ]
        for index, schedule in enumerate(self.schedules):
            lines.append(f"  round {index}: {schedule or '(no faults)'}")
        for target in self.bitrot:
            lines.append(f"  bit rot: {target}")
        lines.append(
            f"  repair: {self.quarantined} quarantined, "
            f"{len(self.reran)} director(ies) re-run"
        )
        if self.converged:
            lines.append("converged: soak tree byte-identical to clean run")
        else:
            lines.append(f"DIVERGED: {len(self.mismatches)} path(s) differ")
            for path in self.mismatches:
                lines.append(f"  differs: {path}")
        return "\n".join(lines)


def _random_schedule(
    rng: random.Random, unit_ids: List[str], with_pool: bool
) -> str:
    """Draw one round's fault specification (possibly empty)."""
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
        # repro: lint-ok[REP001] the soak deliberately rots bytes behind the atomic layer; surviving this is what the test proves
        path.write_bytes(bytes(data[: rng.randint(1, len(data) - 1)]))
    else:
        offset = rng.randrange(len(data))
        data[offset] ^= 1 << rng.randrange(8)
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


def _soak_round(
    soak: Path,
    schedule: str,
    *,
    ids: Optional[List[str]],
    scale: Optional[float],
    workers: "Union[None, int, str]",
) -> None:
    """One faulted ``write_report`` pass; crashes/failures are expected.

    Every round runs under a :class:`~repro.runner.Supervisor`, so an
    injected ``sigterm`` lands exactly like an operator's Ctrl-C: the
    round drains (in-flight experiments finish and journal) instead of
    dying mid-write.  Pool rounds also run with a hang-capable watchdog
    so an injected ``hang`` wedge is rescued, not waited out.
    """
    pooled = resolve_workers(workers) is not None
    guard = (
        ResourceWatchdog(WatchdogPolicy(hang_timeout_s=_SOAK_HANG_TIMEOUT_S))
        if pooled
        else None
    )
    try:
        with fault_schedule(schedule), Supervisor() as supervisor:
            write_report(
                soak,
                ids=ids,
                scale=scale,
                resume=True,
                keep_going=True,
                retries=1,
                workers=workers,
                watchdog=guard,
                cancel=supervisor.token,
            )
    except faults.InjectedCrash:
        pass  # simulated kill mid-run; the journal survives
    except AbortError:
        pass  # drain overrun aborted hard; journalled units survive
    except ReproError:
        pass  # e.g. an injected failure surfacing through strict paths


def _fault_evidence(soak: Path) -> int:
    """Journal entries showing a fault actually fired (retry or failure).

    The soak journal is the ground truth for "the injected fault was
    observed": a unit that failed, or needed more than one attempt,
    hit *something*.  Counting entries (not units) keeps repeat rounds
    visible — each appended record is one more observation.
    """
    journal_path = soak / "journal.jsonl"
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


def _diff_fingerprints(
    clean: Dict[str, str], soak: Dict[str, str]
) -> List[str]:
    paths = sorted(set(clean) | set(soak))
    return [
        path
        for path in paths
        if clean.get(path) != soak.get(path)
    ]


def run_chaos(
    out_dir: Union[str, Path],
    *,
    seed: int = 0,
    rounds: int = 4,
    ids: Optional[List[str]] = None,
    scale: Optional[float] = 0.05,
    workers: "Union[None, int, str]" = None,
    telemetry: Optional[Telemetry] = None,
) -> ChaosResult:
    """Run one seeded soak (see module docstring); never raises for
    injected damage — the returned :class:`ChaosResult` says whether
    the tree converged.

    ``telemetry`` (optional) receives per-round counters proving the
    injected faults were *observed*, not merely scheduled:
    ``repro_chaos_faults_scheduled_total{kind}`` counts what each
    round's schedule drew, ``repro_chaos_faults_observed_total`` counts
    the journal entries (failures or retries) those faults produced,
    and ``repro_chaos_quarantined_total`` / ``repro_chaos_reruns_total``
    count what the repair stage did about the damage.
    """
    out = Path(out_dir)
    clean_dir = out / "clean"
    soak_dir = out / "soak"
    unit_ids = list(ids) if ids is not None else experiment_ids()
    rng = random.Random(seed)
    result = ChaosResult(seed=seed, rounds=rounds)

    # Reference tree: same report, no faults.
    write_report(clean_dir, ids=ids, scale=scale, workers=workers)

    tel = telemetry if telemetry is not None else _DISABLED_TELEMETRY
    with_pool = workers not in (None, 0, "", "serial")
    for round_index in range(rounds):
        schedule = _random_schedule(rng, unit_ids, with_pool)
        result.schedules.append(schedule)
        for part in filter(None, schedule.split(",")):
            tel.count(
                "repro_chaos_faults_scheduled_total",
                kind=part.split("=", 1)[0],
            )
        evidence_before = _fault_evidence(soak_dir)
        with tel.span(
            "chaos_round", round=round_index, schedule=schedule
        ) as round_span:
            _soak_round(
                soak_dir, schedule, ids=ids, scale=scale, workers=workers
            )
            observed = max(0, _fault_evidence(soak_dir) - evidence_before)
            round_span.set(observed=observed)
        if observed:
            tel.count("repro_chaos_faults_observed_total", float(observed))

    # Fault-free resume pass: heal failed/missing units the rounds left.
    _soak_round(soak_dir, "", ids=ids, scale=scale, workers=workers)

    # Silent bit rot on the healed tree — sometimes on the integrity
    # records themselves — so the converge step below must *detect* the
    # damage (nothing re-runs these units on its own), quarantine it,
    # and regenerate from the re-run recipe.
    for target in _bitrot_targets(soak_dir, rng):
        _rot(target, rng)
        result.bitrot.append(str(target.relative_to(soak_dir)))

    outcome = verify_and_repair(soak_dir, workers=workers, telemetry=telemetry)
    result.quarantined = len(
        [f for f in outcome.report.findings if f.action.startswith("quarantined")]
    )
    result.reran = [str(path) for path in outcome.reran]
    if result.quarantined:
        tel.count("repro_chaos_quarantined_total", float(result.quarantined))
    if result.reran:
        tel.count("repro_chaos_reruns_total", float(len(result.reran)))

    mismatches = _diff_fingerprints(
        tree_fingerprint(clean_dir), tree_fingerprint(soak_dir)
    )
    result.mismatches = mismatches
    result.converged = not mismatches and outcome.clean
    return result
