"""Design-space enumeration and sweeping.

The paper's design space (§2.1): split direct-mapped L1 caches of equal
size from 1 KB to 256 KB, and an optional mixed L2 from 2 KB to 256 KB.
Following the configurations the paper actually plots, a two-level
point requires the L2 to be at least twice one L1 (otherwise the L2 is
smaller than the data it is meant to back and the paper notes the
configuration degenerates toward a victim cache).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cache.hierarchy import Policy, l1_miss_stream
from ..errors import RunnerError
from ..obs.profile import PROFILE_DIR_NAME
from ..obs.telemetry import Telemetry
from ..obs.telemetry import current as current_telemetry
from ..runner import (
    FAILURES_NAME,
    CancelToken,
    ResourceWatchdog,
    RunJournal,
    RunResult,
    RunUnit,
    close_run_dir,
    open_run_dir,
    run_units,
    unit_key,
    write_text_atomic,
)
from ..traces.address import Trace
from ..traces.store import get_trace
from ..units import kb
from .config import SystemConfig
from .evaluate import SystemPerformance, evaluate

__all__ = [
    "standard_l1_sizes",
    "standard_l2_sizes",
    "design_space",
    "default_sweep_dir",
    "sweep",
    "run_sweep",
    "run_sweep_dir",
    "SweepPoint",
    "as_point",
    "SWEEP_JOURNAL_NAME",
    "SWEEP_TABLE_NAME",
    "SWEEP_FAILURES_NAME",
]

#: File names used inside a sweep output directory.
SWEEP_JOURNAL_NAME = "sweep.journal.jsonl"
SWEEP_TABLE_NAME = "sweep.tsv"
SWEEP_FAILURES_NAME = FAILURES_NAME

_MIN_KB = 1
_MAX_KB = 256


def standard_l1_sizes() -> List[int]:
    """Paper L1 sizes: 1 KB … 256 KB (bytes, per cache)."""
    sizes = []
    size = _MIN_KB
    while size <= _MAX_KB:
        sizes.append(kb(size))
        size *= 2
    return sizes


def standard_l2_sizes(l1_bytes: int) -> List[int]:
    """Paper L2 sizes valid for ``l1_bytes`` L1s: 0 plus 2·L1 … 256 KB."""
    sizes = [0]
    size = 2 * l1_bytes
    while size <= kb(_MAX_KB):
        sizes.append(size)
        size *= 2
    return sizes


def design_space(
    base: Optional[SystemConfig] = None,
    l1_sizes: Optional[Sequence[int]] = None,
    l2_sizes: Optional[Sequence[int]] = None,
    include_single_level: bool = True,
) -> List[SystemConfig]:
    """Enumerate the paper's design space as :class:`SystemConfig` points.

    Parameters
    ----------
    base:
        Template carrying everything except the sizes (policy,
        associativity, off-chip time, ports…).  Defaults to the
        baseline §4 system (4-way conventional L2, 50 ns off-chip).
    l1_sizes / l2_sizes:
        Explicit size lists (bytes); defaults follow the paper.  When
        ``l2_sizes`` is given it is filtered per L1 to keep L2 ≥ 2·L1.
    include_single_level:
        Include the ``l1:0`` configurations.
    """
    if base is None:
        base = SystemConfig(l1_bytes=kb(1))
    configs: List[SystemConfig] = []
    for l1 in l1_sizes if l1_sizes is not None else standard_l1_sizes():
        if l2_sizes is not None:
            candidates = [s for s in l2_sizes if s == 0 or s >= 2 * l1]
        else:
            candidates = standard_l2_sizes(l1)
        for l2 in candidates:
            if l2 == 0:
                if not include_single_level:
                    continue
                configs.append(
                    replace(base, l1_bytes=l1, l2_bytes=0, policy=Policy.CONVENTIONAL)
                )
            else:
                configs.append(replace(base, l1_bytes=l1, l2_bytes=l2))
    return configs


@dataclass(frozen=True)
class SweepPoint:
    """Journal-persistable summary of one evaluated design point.

    A full :class:`~repro.core.evaluate.SystemPerformance` carries
    simulator state that does not round-trip through JSON; this is the
    slice a resumed sweep can restore without re-simulating.
    """

    label: str
    workload: str
    area_rbe: float
    tpi_ns: float
    levels: str

    def to_record(self) -> dict:
        return {
            "label": self.label,
            "workload": self.workload,
            "area_rbe": self.area_rbe,
            "tpi_ns": self.tpi_ns,
            "levels": self.levels,
        }

    @classmethod
    def from_record(cls, record: dict) -> "SweepPoint":
        return cls(
            label=record["label"],
            workload=record["workload"],
            area_rbe=float(record["area_rbe"]),
            tpi_ns=float(record["tpi_ns"]),
            levels=record["levels"],
        )


def as_point(value: Union[SystemPerformance, SweepPoint]) -> SweepPoint:
    """Normalise fresh and journal-restored sweep values to one shape."""
    if isinstance(value, SweepPoint):
        return value
    return SweepPoint(
        label=value.label,
        workload=value.workload,
        area_rbe=value.area_rbe,
        tpi_ns=value.tpi_ns,
        levels="2-level" if value.config.has_l2 else "1-level",
    )


#: Traces passed to a sweep as explicit objects (rather than workload
#: names), keyed by name.  The registry makes the picklable unit bodies
#: below resolvable in any process: the parent registers before running
#: serially, the pool initializer registers inside each worker.
_SHARED_TRACES: Dict[str, Trace] = {}


def _point_record(perf: "Union[SystemPerformance, SweepPoint]") -> dict:
    """Journal serialiser for sweep values (module-level: picklable)."""
    return as_point(perf).to_record()


@dataclass(frozen=True)
class _EvaluateRun:
    """Picklable body of one sweep unit: evaluate one configuration.

    ``workload`` is a name resolved through the memoised trace store,
    or — when ``shared`` — through :data:`_SHARED_TRACES`, populated in
    each process by the sweep's pool initializer (or the parent, for
    serial runs).  Shipping a name instead of the trace keeps per-unit
    pickling cheap regardless of trace size.
    """

    config: SystemConfig
    workload: str
    scale: Optional[float]
    shared: bool = False

    def __call__(self) -> SystemPerformance:
        # Hot-path instrumentation rides the ambient bundle the engine
        # activated (the shared DISABLED no-op otherwise).  Phases are
        # timed *around* the model calls — the model packages stay
        # clock-free (REP002) and time is only read inside the tracer
        # through its injected clock.
        telemetry = current_telemetry()
        if not self.shared:
            with telemetry.span("trace") as trace_span:
                trace = get_trace(self.workload, self.scale)
            telemetry.observe("repro_trace_seconds", trace_span.duration_s)
        else:
            trace = _SHARED_TRACES.get(self.workload)
            if trace is None:
                raise RunnerError(
                    f"shared trace {self.workload!r} is not registered in this "
                    f"process; the sweep pool initializer did not run"
                )
        with telemetry.span("simulate") as sim_span:
            perf = evaluate(self.config, trace)
        n_refs = perf.stats.n_refs
        telemetry.count("repro_refs_total", float(n_refs))
        telemetry.observe("repro_simulate_seconds", sim_span.duration_s)
        if sim_span.duration_s > 0:
            telemetry.gauge_max(
                "repro_refs_per_second", n_refs / sim_span.duration_s
            )
        return perf


def _sweep_worker_init(
    workload: Union[str, Trace],
    scale: Optional[float],
    configs: Sequence[SystemConfig],
) -> None:
    """Pool initializer: warm this worker's trace and L1 filter caches.

    Runs once per worker process.  Generating (or receiving) the trace
    and running the memoised L1 filter pass for every (L1 size, line
    size) in ``configs`` up front means the per-unit work each worker
    does afterwards is only the L2 replay — the expensive shared
    prefix is computed once per worker, not once per unit.
    """
    if isinstance(workload, Trace):
        _SHARED_TRACES[workload.name] = workload
        trace = workload
    else:
        trace = get_trace(workload, scale)
    for l1_bytes, line_size in sorted({(c.l1_bytes, c.line_size) for c in configs}):
        l1_miss_stream(trace, l1_bytes, line_size)


def _sweep_units(
    workload: Union[str, Trace],
    configs: Sequence[SystemConfig],
    scale: Optional[float],
) -> List[RunUnit]:
    shared = not isinstance(workload, str)
    workload_name = workload if isinstance(workload, str) else workload.name
    if shared:
        _SHARED_TRACES[workload_name] = workload
    units = []
    for index, config in enumerate(configs):
        units.append(
            RunUnit(
                unit_id=f"{index:04d}:{config.label}",
                payload={
                    "index": index,
                    "workload": workload_name,
                    "scale": scale,
                    "config": config.describe(),
                },
                run=_EvaluateRun(config, workload_name, scale, shared=shared),
                to_record=_point_record,
                from_record=SweepPoint.from_record,
            )
        )
    return units


def run_sweep(
    workload: Union[str, Trace],
    configs: Sequence[SystemConfig],
    scale: Optional[float] = None,
    *,
    keep_going: bool = False,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    journal_path: "Union[str, Path, None]" = None,
    resume: bool = False,
    workers: Union[None, int, str] = None,
    submit_order: Optional[Sequence[int]] = None,
    watchdog: Optional[ResourceWatchdog] = None,
    telemetry: Optional[Telemetry] = None,
    profile_dir: "Union[str, Path, None]" = None,
    cancel: Optional[CancelToken] = None,
) -> RunResult:
    """Evaluate configurations through the resilient engine.

    Each configuration is one journalled unit: with ``journal_path``
    set, an interrupted sweep resumed with ``resume=True`` restores
    finished points (as :class:`SweepPoint`) from the journal instead
    of re-simulating them.  ``keep_going`` isolates per-point failures;
    without it the run stops at the first failure (the caller decides
    whether to re-raise via ``RunResult.raise_first_failure``).

    ``workers`` sizes the :class:`~repro.runner.Runner`'s pool:
    ``None`` (default) runs every point in this process; an integer or
    ``"auto"`` fans the configurations out over that many worker
    processes, each pre-warmed with the sweep's trace and L1 filter
    passes.  Points with no pool, or a degraded one, run in-process.
    Results, journal contents, and failure manifests are deterministic:
    identical to the serial run whatever the worker count or completion
    order (wall-clock ``elapsed_s`` measurements aside).
    ``submit_order`` permutes submission order only (used by the
    differential tests to prove order independence).

    ``telemetry`` records per-unit spans and counters (merged across
    workers in the parallel case); ``profile_dir`` opts into per-unit
    :mod:`cProfile` capture.  Neither changes any result or artefact
    byte — the sweep's outputs are identical with telemetry on or off.

    ``cancel`` hooks the sweep into a lifecycle supervisor: once the
    token trips (first SIGTERM/SIGINT), the sweep drains — in-flight
    points finish and are journalled, queued points are left for a
    ``resume=True`` re-run — and the returned result marks itself
    ``interrupted``.

    A ``watchdog`` preflights the journal directory's disk before any
    point runs, and lets a pool shed to this process under memory
    pressure.
    """
    journal = (
        RunJournal.open(journal_path, resume=resume) if journal_path is not None else None
    )
    return run_units(
        _sweep_units(workload, configs, scale),
        workers,
        journal=journal,
        retries=retries,
        timeout_s=timeout_s,
        keep_going=keep_going,
        telemetry=telemetry,
        profile_dir=Path(profile_dir) if profile_dir is not None else None,
        cancel=cancel,
        watchdog=watchdog,
        initializer=_sweep_worker_init,
        initargs=(workload, scale, configs),
        submit_order=submit_order,
    )


def default_sweep_dir(
    workload: str, template: SystemConfig, scale: Optional[float] = None
) -> Path:
    """The run directory a sweep gets when the caller names none.

    Resolution rule (documented in ``docs/api.md``): sweeps without an
    explicit output directory land under ``runs/`` in the working
    directory, named ``sweep-<workload>-<hash12>`` where the hash is
    the content key of the sweep's full configuration (workload, scale,
    template).  The name is *deterministic*: re-running the same sweep
    resumes the same directory instead of scattering journal files in
    the cwd, and two different sweeps can never collide.
    """
    key = unit_key(
        {
            "kind": "sweep",
            "workload": workload,
            "scale": scale,
            "config": template.to_dict(),
        }
    )
    return Path("runs") / f"sweep-{workload}-{key[:12]}"


def run_sweep_dir(
    out: Union[str, Path],
    workload: str,
    template: SystemConfig,
    *,
    scale: Optional[float] = None,
    keep_going: bool = False,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    resume: bool = False,
    workers: Union[None, int, str] = None,
    watchdog: Optional[ResourceWatchdog] = None,
    telemetry: Union[bool, Telemetry] = False,
    profile: bool = False,
    cancel: Optional[CancelToken] = None,
) -> Tuple[RunResult, List[SweepPoint]]:
    """Sweep the paper's design space into a managed artefact directory.

    The directory holds everything a later ``repro verify --repair``
    needs: the sweep table (``sweep.tsv``) and failure manifest with
    sha256 sidecars, the unit journal, re-run metadata (``RUN.json``)
    describing how to reproduce the sweep, and a ``MANIFEST.json``
    binding them together.  ``resume=True`` restores finished points
    from the journal instead of re-simulating them.

    ``telemetry`` (True, or a pre-built bundle) additionally writes
    ``METRICS.jsonl`` / ``SPANS.jsonl`` into the directory — volatile
    artefacts, like the journal — and ``profile`` captures a per-unit
    cProfile under ``profiles/``.  Every result-bearing artefact stays
    byte-identical to a telemetry-off run.

    ``cancel`` (see :func:`run_sweep`) lets a lifecycle supervisor
    drain the sweep: the table, failure manifest, and directory
    manifest below are still written for everything that completed, so
    the directory stays verifiable and resumable after an interrupted
    run.
    """
    out_dir = Path(out)
    metadata = {
        "run": 1,
        "kind": "sweep",
        "workload": workload,
        "scale": scale,
        "config": template.to_dict(),
    }
    bundle, guard = open_run_dir(out_dir, metadata, telemetry, watchdog)
    configs = design_space(template)
    result = run_units(
        _sweep_units(workload, configs, scale),
        workers,
        journal=RunJournal.open(out_dir / SWEEP_JOURNAL_NAME, resume=resume),
        retries=retries,
        timeout_s=timeout_s,
        keep_going=keep_going,
        telemetry=bundle,
        profile_dir=(out_dir / PROFILE_DIR_NAME) if profile else None,
        cancel=cancel,
        watchdog=guard,
        initializer=_sweep_worker_init,
        initargs=(workload, scale, configs),
    )
    points = [as_point(value) for value in result.values()]
    lines = [
        f"{p.label}\t{p.workload}\t{p.area_rbe:.1f}\t{p.tpi_ns:.4f}\t{p.levels}"
        for p in points
    ]
    write_text_atomic(
        out_dir / SWEEP_TABLE_NAME,
        "\n".join(lines) + "\n" if lines else "",
        track=True,
    )
    close_run_dir(out_dir, result)
    return result, points


def sweep(
    workload: Union[str, Trace],
    configs: Sequence[SystemConfig],
    scale: Optional[float] = None,
    *,
    keep_going: bool = False,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    workers: Union[None, int, str] = None,
) -> List[SystemPerformance]:
    """Evaluate every configuration on one workload.

    Simulation results and trace generation are memoised, so sweeping
    multiple related spaces (e.g. 50 ns then 200 ns off-chip) only pays
    for the distinct cache shapes once.  With ``workers`` set the
    configurations are evaluated by a process pool instead (memoisation
    then lives per worker, pre-warmed by the pool initializer) and the
    returned list is identical to the serial one.

    Runs through the resilient engine: by default the first failing
    configuration raises (as it always did); with ``keep_going=True``
    failing points are dropped from the returned list and the sweep
    continues.
    """
    result = run_sweep(
        workload,
        configs,
        scale=scale,
        keep_going=keep_going,
        timeout_s=timeout_s,
        retries=retries,
        workers=workers,
    )
    if result.failed and not keep_going:
        result.raise_first_failure()
    return result.values()
