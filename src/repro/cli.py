"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    All registered experiments with their paper references.
``run <id> [--scale S]``
    Recompute one exhibit and print its series.
``plot <id> [--scale S]``
    Recompute one exhibit and draw it as an ASCII log-log figure.
``eval --l1-kb N [--l2-kb M] [...]``
    Evaluate a single configuration on a workload.
``envelope --workload W [...]``
    Sweep the paper design space and print the best-performance
    staircase.
``workloads``
    The seven workload models and their footprints.
``report --out DIR [--ids id1,id2] [--scale S] [--resume] [--keep-going]``
    Regenerate experiments into a directory of JSON + text artefacts,
    checkpointed so interrupted runs resume and failures isolate.
``sweep --workload W [--out DIR] [...]``
    Evaluate the full design space point by point through the
    resilient runner.  Without ``--out`` the sweep lands in a
    deterministic ``runs/sweep-<workload>-<hash>`` directory (same
    sweep = same directory, so re-runs resume instead of scattering
    journal files in the cwd).
``serve --store DIR [--port P] [--workers N]``
    Answer evaluate/TPI/sweep/envelope queries over HTTP with
    content-addressed memoization, request coalescing, admission
    control, and a circuit breaker; see ``docs/api.md``.  Live
    telemetry is exposed on ``GET /metrics`` (Prometheus text) and
    ``GET /v1/stats`` (JSON).
``metrics <run-dir> [--format json]``
    Print a run directory's metrics: ``METRICS.jsonl`` when the run
    recorded telemetry, else counters synthesized from its journal —
    so pre-telemetry run directories still report.
``spans <run-dir> [--limit N] [--format json]``
    Print a run directory's span tree from ``SPANS.jsonl`` (requires
    the run to have used ``--telemetry``).
``lint [paths] [--format json] [--select ...] [--ignore ...]``
    Run the repro static-analysis checkers (atomic writes,
    determinism, error policy, manifest tracking, process control)
    over source trees; exit 0 clean, 1 findings, 2 internal error.
    ``--list-rules`` prints the rule catalogue.
``verify DIR [--repair]``
    Re-hash every tracked artefact under ``DIR`` against its sha256
    sidecar and ``MANIFEST.json``; exit 0 clean, 1 findings.
    ``--repair`` quarantines corrupt artefacts and replays the
    affected runs from their ``RUN.json`` recipes.
``chaos --out DIR [--seed N] [--rounds N] [--serve]``
    Seeded chaos soak: run a report repeatedly under randomized (but
    seed-reproducible) fault schedules plus direct bit rot, then
    verify the repaired tree converges byte-identical to a clean run;
    exit 0 converged, 1 diverged.  With ``--serve`` the soak targets a
    live ``repro serve`` instance instead: pool kills, poisoned memo
    entries, and slow workers must never produce a wrong answer or an
    untyped failure.

``report``, ``sweep``, ``verify``, ``chaos``, and ``serve``
accept ``--workers N`` (or ``--workers auto``) to fan units out over
worker processes with identical output.  ``report`` and ``sweep``
accept ``--telemetry`` to record ``METRICS.jsonl`` + ``SPANS.jsonl``
into the run directory (volatile artefacts: result bytes are
unchanged); ``sweep`` additionally accepts ``--profile`` to write a
cProfile ``profiles/<unit>.prof`` per design point.

Library failures (:class:`~repro.errors.ReproError`) print a one-line
``error: …`` to stderr and exit with code 2; pass ``--debug`` for the
full traceback.

``report``, ``sweep``, and ``serve`` shut down in two phases
(:mod:`repro.runner.lifecycle`): the first SIGTERM/SIGINT drains —
in-flight units finish and are journalled, the process exits 75 with a
``--resume`` hint — and a second signal (or an expired drain deadline)
aborts hard with exit 70.  Either way, everything journalled before
the stop is picked up by ``--resume`` without re-execution.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, List, NoReturn, Optional, Sequence, Tuple

from .errors import AbortError, IntegrityError, LintError, ReproError

if TYPE_CHECKING:
    from .core.config import SystemConfig
    from .runner import Supervisor

# Every other import lives in the command that uses it, so a cold
# ``repro eval`` loads only the model packages (DESIGN.md §7).

__all__ = ["main", "run"]


def _print_table(columns: Sequence[str], rows: Iterable[Tuple[object, ...]]) -> None:
    from .study.report import render_table

    print(render_table(columns, rows))


def _cmd_list(args: argparse.Namespace) -> int:
    from .study import experiment_ids, get_experiment

    rows = [
        (eid, get_experiment(eid).paper_reference, get_experiment(eid).title)
        for eid in experiment_ids()
    ]
    _print_table(("id", "paper", "title"), rows)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .study import get_experiment

    experiment = get_experiment(args.experiment_id)
    result = experiment.run(scale=args.scale)
    print(result.render())
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    from .study import get_experiment
    from .study.plot import plot_experiment

    experiment = get_experiment(args.experiment_id)
    result = experiment.run(scale=args.scale)
    print(plot_experiment(result, width=args.width, height=args.height))
    return 0


def _config_from(args: argparse.Namespace) -> SystemConfig:
    from .cache.hierarchy import Policy
    from .core.config import SystemConfig
    from .units import kb

    config = SystemConfig(
        l1_bytes=kb(args.l1_kb),
        l2_bytes=kb(args.l2_kb) if args.l2_kb else 0,
        l2_associativity=args.l2_assoc,
        policy=Policy.EXCLUSIVE if args.exclusive else Policy.CONVENTIONAL,
        off_chip_ns=args.off_chip_ns,
    )
    if args.dual_ported:
        config = config.dual_ported()
    return config


def _cmd_eval(args: argparse.Namespace) -> int:
    from .core.evaluate import evaluate

    config = _config_from(args)
    perf = evaluate(config, args.workload, scale=args.scale)
    print(f"{config.describe()} on {args.workload}")
    rows = [
        ("TPI (ns/instr)", perf.tpi_ns),
        ("area (rbe)", perf.area_rbe),
        ("L1 cycle (ns)", perf.tpi.timings.l1_cycle_ns),
        ("L1 miss rate", perf.stats.l1_miss_rate),
        ("L2 local miss rate", perf.stats.l2_local_miss_rate),
        ("global miss rate", perf.stats.global_miss_rate),
        ("memory stall share", perf.tpi.memory_fraction),
    ]
    _print_table(("metric", "value"), rows)
    return 0


def _cmd_envelope(args: argparse.Namespace) -> int:
    from .core.envelope import best_envelope
    from .core.explorer import design_space, sweep

    template = _config_from(args)
    perfs = sweep(args.workload, design_space(template), scale=args.scale)
    envelope = best_envelope(perfs)
    rows = [
        (
            p.label,
            p.area_rbe,
            p.tpi_ns,
            "2-level" if p.performance.config.has_l2 else "1-level",
        )
        for p in envelope
    ]
    _print_table(("config", "area_rbe", "tpi_ns", "levels"), rows)
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from .traces.stats import compute_stats
    from .traces.store import get_trace
    from .traces.workloads import WORKLOADS

    rows = []
    for name, spec in WORKLOADS.items():
        trace = get_trace(name, args.scale)
        stats = compute_stats(trace)
        rows.append(
            (
                name,
                spec.paper_total_refs,
                stats.n_refs,
                f"{stats.data_ratio:.3f}",
                stats.instruction_footprint_bytes // 1024,
                stats.data_footprint_bytes // 1024,
                spec.description,
            )
        )
    _print_table(
        (
            "workload",
            "paper_Mrefs",
            "synth_refs",
            "data_ratio",
            "code_KB",
            "data_KB",
            "description",
        ),
        rows,
    )
    return 0


def _drain_notice(supervisor: Supervisor, journal: Path) -> int:
    """Report a graceful drain (resume hint included) and pick the exit code.

    Everything journalled before the signal is kept; the distinct exit
    code (75) tells wrappers the run stopped early *by request* — rerun
    with ``--resume`` to finish, nothing completed is re-executed.
    """
    print(
        f"drained: {supervisor.token.reason}; completed units are "
        f"journalled in {journal} — re-run with --resume to finish",
        file=sys.stderr,
    )
    return supervisor.exit_code()


def _cmd_report(args: argparse.Namespace) -> int:
    from .runner import Supervisor
    from .study.resultstore import FAILURES_NAME, JOURNAL_NAME, write_report

    ids = args.ids.split(",") if args.ids else None
    with Supervisor() as supervisor:
        written = write_report(
            args.out,
            ids=ids,
            scale=args.scale,
            resume=args.resume,
            keep_going=args.keep_going,
            timeout_s=args.timeout,
            retries=args.retries,
            workers=args.workers,
            telemetry=args.telemetry,
            cancel=supervisor.token,
        )
    print(f"wrote {len(written)} experiments to {args.out}")
    if supervisor.triggered:
        return _drain_notice(supervisor, Path(args.out) / JOURNAL_NAME)
    manifest = Path(args.out) / FAILURES_NAME
    if manifest.exists():
        failures = json.loads(manifest.read_text())["failures"]
        print(
            f"{len(failures)} experiment(s) failed; see {manifest}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .core.explorer import SWEEP_JOURNAL_NAME, default_sweep_dir, run_sweep_dir
    from .runner import Supervisor

    template = _config_from(args)
    # Every sweep gets a managed run directory: --out names it, else
    # the deterministic default (same sweep = same directory, so a
    # re-run resumes it instead of scattering journals in the cwd).
    out = Path(args.out) if args.out else default_sweep_dir(
        args.workload, template, args.scale
    )
    with Supervisor() as supervisor:
        run, points = run_sweep_dir(
            out,
            args.workload,
            template,
            scale=args.scale,
            keep_going=args.keep_going,
            timeout_s=args.timeout,
            retries=args.retries,
            resume=args.resume,
            workers=args.workers,
            telemetry=args.telemetry,
            profile=args.profile,
            cancel=supervisor.token,
        )
    if not args.out:
        print(f"sweep directory: {out}")
    rows = [(p.label, p.area_rbe, p.tpi_ns, p.levels) for p in points]
    _print_table(("config", "area_rbe", "tpi_ns", "levels"), rows)
    if supervisor.triggered:
        return _drain_notice(supervisor, out / SWEEP_JOURNAL_NAME)
    if run.failed:
        if not args.keep_going:
            run.raise_first_failure()
        print(f"{len(run.failed)} design point(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .obs import load_run_metrics, render_metrics

    samples, source = load_run_metrics(args.run_dir)
    if args.format == "json":
        print(json.dumps({"source": source, "metrics": samples}, indent=2))
    else:
        print(render_metrics(samples, source))
    return 0


def _cmd_spans(args: argparse.Namespace) -> int:
    from .obs import load_run_spans, render_spans

    records = load_run_spans(args.run_dir)
    if args.format == "json":
        print(json.dumps(records, indent=2))
    else:
        print(render_spans(records, limit=args.limit))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .runner import verify_tree
    from .study.repair import verify_and_repair

    target = Path(args.directory)
    if not target.is_dir():
        raise IntegrityError(
            f"{args.directory}: not a directory; verify needs a results "
            f"tree written by repro report/sweep/serve"
        )
    if args.repair:
        outcome = verify_and_repair(args.directory, workers=args.workers)
        if args.format == "json":
            print(json.dumps(outcome.to_record(), indent=2))
        else:
            print(outcome.render())
        return 0 if outcome.clean else 1
    report = verify_tree(args.directory, repair=False)
    if report.n_directories == 0:
        # An empty (or never-managed) tree verifying "clean" would be
        # a silently meaningless success; refuse it as a typed error.
        raise IntegrityError(
            f"{args.directory}: no integrity records found — nothing to "
            f"verify; was this directory written by repro report/sweep/serve?"
        )
    if args.format == "json":
        print(json.dumps(report.to_record(), indent=2))
    else:
        print(report.render())
    return 0 if report.clean else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .study.chaos import run_chaos

    result = run_chaos(
        args.out,
        seed=args.seed,
        rounds=args.rounds,
        ids=args.ids.split(",") if args.ids else None,
        scale=args.scale,
        # A serve soak without --workers still exercises a pool.
        workers=args.workers or (2 if args.serve else None),
        serve=args.serve,
    )
    if args.format == "json":
        print(json.dumps(result.to_record(), indent=2))
    else:
        print(result.render())
    return 0 if result.converged else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServePolicy, run_serve

    policy = ServePolicy(
        deadline_s=args.deadline,
        max_active=args.max_active,
        max_waiting=args.max_waiting,
    )
    return run_serve(
        args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        policy=policy,
    )


#: Default lint targets, filtered to those that exist under the cwd.
LINT_DEFAULT_PATHS = ("src", "benchmarks", "examples")


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import all_rules, lint_paths, render_human, render_json

    if args.list_rules:
        rows = [
            (rule.rule_id, rule.name, rule.severity, rule.rationale)
            for rule in all_rules()
        ]
        _print_table(("rule", "name", "severity", "rationale"), rows)
        return 0
    paths = args.paths or [
        path for path in LINT_DEFAULT_PATHS if Path(path).is_dir()
    ]
    if not paths:
        raise LintError(
            "no lint targets: pass paths explicitly or run from a directory "
            f"containing {', '.join(LINT_DEFAULT_PATHS)}"
        )
    report = lint_paths(
        paths,
        select=args.select.split(",") if args.select else None,
        ignore=args.ignore.split(",") if args.ignore else None,
    )
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_human(report))
    return 0 if report.clean else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Tradeoffs in Two-Level On-Chip Caching'",
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="raise library errors with full tracebacks instead of 'error: …'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all experiments").set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment_id", help="e.g. fig5, table1")
    run.add_argument("--scale", type=float, default=None, help="trace scale")
    run.set_defaults(func=_cmd_run)

    plot = sub.add_parser("plot", help="draw one experiment as ASCII log-log")
    plot.add_argument("experiment_id", help="a TPI-vs-area figure, e.g. fig5")
    plot.add_argument("--scale", type=float, default=None, help="trace scale")
    plot.add_argument("--width", type=int, default=72)
    plot.add_argument("--height", type=int, default=22)
    plot.set_defaults(func=_cmd_plot)

    def add_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", default="gcc1")
        p.add_argument("--scale", type=float, default=None)
        p.add_argument("--l1-kb", type=int, default=8)
        p.add_argument("--l2-kb", type=int, default=0)
        p.add_argument("--l2-assoc", type=int, default=4)
        p.add_argument("--exclusive", action="store_true")
        p.add_argument("--dual-ported", action="store_true")
        p.add_argument("--off-chip-ns", type=float, default=50.0)

    ev = sub.add_parser("eval", help="evaluate one configuration")
    add_config_args(ev)
    ev.set_defaults(func=_cmd_eval)

    env = sub.add_parser("envelope", help="best-performance envelope")
    add_config_args(env)
    env.set_defaults(func=_cmd_envelope)

    wl = sub.add_parser("workloads", help="describe the workload models")
    wl.add_argument("--scale", type=float, default=0.1)
    wl.set_defaults(func=_cmd_workloads)

    def add_format_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("human", "json"),
            default="human",
            help="report format (default: human)",
        )

    def add_runner_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--resume",
            action="store_true",
            help="replay the run journal and skip completed units",
        )
        p.add_argument(
            "--keep-going",
            action="store_true",
            help="isolate per-unit failures into FAILURES.json and continue",
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="S",
            help="per-unit wall-clock budget in seconds",
        )
        p.add_argument(
            "--retries",
            type=int,
            default=0,
            metavar="N",
            help="extra attempts per unit for transient failures",
        )
        p.add_argument(
            "--workers",
            default=None,
            metavar="N",
            help="run units in N worker processes ('auto' = one per CPU; "
            "default: serial); output is identical to a serial run",
        )
        p.add_argument(
            "--telemetry",
            action="store_true",
            help="record METRICS.jsonl + SPANS.jsonl into the run "
            "directory (volatile artefacts; result bytes unchanged)",
        )

    report = sub.add_parser(
        "report", help="regenerate experiments into a results directory"
    )
    report.add_argument("--out", required=True, help="output directory")
    report.add_argument(
        "--ids", default="", help="comma-separated experiment ids (default: all)"
    )
    report.add_argument("--scale", type=float, default=None)
    add_runner_args(report)
    report.set_defaults(func=_cmd_report)

    sw = sub.add_parser(
        "sweep", help="evaluate the design space through the resilient runner"
    )
    add_config_args(sw)
    sw.add_argument("--out", default="", help="directory for journal + sweep.tsv")
    add_runner_args(sw)
    sw.add_argument(
        "--profile",
        action="store_true",
        help="write a cProfile profiles/<unit>.prof per design point "
        "(pstats format; load with pstats.Stats)",
    )
    sw.set_defaults(func=_cmd_sweep)

    metrics = sub.add_parser(
        "metrics", help="print a run directory's metrics"
    )
    metrics.add_argument(
        "run_dir",
        help="a directory written by repro report/sweep (METRICS.jsonl "
        "when the run recorded telemetry, else synthesized from its "
        "journal)",
    )
    add_format_arg(metrics)
    metrics.set_defaults(func=_cmd_metrics)

    spans = sub.add_parser(
        "spans", help="print a run directory's span tree"
    )
    spans.add_argument(
        "run_dir", help="a directory written with --telemetry (SPANS.jsonl)"
    )
    spans.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="show at most N spans (default: all)",
    )
    add_format_arg(spans)
    spans.set_defaults(func=_cmd_spans)

    verify = sub.add_parser(
        "verify", help="verify artefact integrity under a results tree"
    )
    verify.add_argument("directory", help="results tree to verify")
    verify.add_argument(
        "--repair",
        action="store_true",
        help="quarantine corrupt artefacts and replay the affected runs "
        "from their RUN.json recipes",
    )
    add_format_arg(verify)
    verify.add_argument(
        "--workers",
        default=None,
        metavar="N",
        help="worker processes for repair re-runs ('auto' = one per CPU)",
    )
    verify.set_defaults(func=_cmd_verify)

    chaos = sub.add_parser(
        "chaos", help="seeded fault-injection soak with convergence check"
    )
    chaos.add_argument("--out", required=True, help="soak output directory")
    chaos.add_argument(
        "--serve",
        action="store_true",
        help="soak a live repro serve instance (pool kills, poisoned memo "
        "entries, slow workers) instead of the batch report path",
    )
    chaos.add_argument("--seed", type=int, default=0, help="RNG seed")
    chaos.add_argument(
        "--rounds", type=int, default=4, help="faulted report passes (default: 4)"
    )
    chaos.add_argument(
        "--ids", default="", help="comma-separated experiment ids (default: all)"
    )
    chaos.add_argument(
        "--scale", type=float, default=0.05, help="trace scale (default: 0.05)"
    )
    add_format_arg(chaos)
    chaos.add_argument(
        "--workers",
        default=None,
        metavar="N",
        help="worker processes for the report passes ('auto' = one per CPU)",
    )
    chaos.set_defaults(func=_cmd_chaos)

    serve = sub.add_parser(
        "serve", help="answer design-space queries over HTTP (see docs/api.md)"
    )
    serve.add_argument(
        "--store",
        default="serve-store",
        help="memo store + journal directory (default: serve-store)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787)
    serve.add_argument(
        "--workers",
        default="auto",
        metavar="N",
        help="compute pool size ('auto' = one per CPU, 'serial' = in-process; "
        "default: auto)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=60.0,
        metavar="S",
        help="per-request compute budget in seconds (default: 60)",
    )
    serve.add_argument(
        "--max-active",
        type=int,
        default=4,
        metavar="N",
        help="concurrent cold-compute requests before queueing (default: 4)",
    )
    serve.add_argument(
        "--max-waiting",
        type=int,
        default=16,
        metavar="N",
        help="queued cold-compute requests before shedding (default: 16)",
    )
    serve.set_defaults(func=_cmd_serve)

    lint = sub.add_parser(
        "lint", help="run the repro static-analysis checkers"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint "
        f"(default: {' '.join(LINT_DEFAULT_PATHS)} under the cwd)",
    )
    add_format_arg(lint)
    lint.add_argument(
        "--select",
        default="",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--ignore",
        default="",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into e.g. `head`; exiting quietly is correct.
        return 0
    except AbortError as error:
        # Hard abort (second signal / drain deadline): distinct exit
        # code so wrappers can tell "stopped by request" from "failed";
        # everything journalled before the abort is still resumable.
        if args.debug:
            raise
        print(f"aborted: {error}", file=sys.stderr)
        from .runner import EXIT_ABORTED

        return EXIT_ABORTED
    except ReproError as error:
        if args.debug:
            raise
        print(f"error: {error}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Process entry point: :func:`main`, then exit without a last heap walk.

    ``gc.freeze()`` moves every live object into the permanent
    generation, so the interpreter's exit-time collections skip a heap
    that dies with the process anyway.  Exit still runs ``atexit``
    hooks, joins non-daemon threads, flushes stdout and stderr and
    finalises refcount-freed objects; only cyclic garbage still alive
    at exit goes unfinalised, and every artefact write is closed and
    fsynced before :func:`main` returns.  :func:`main` itself never
    freezes: tests and library callers run it in-process, and a freeze
    there would keep their later cycles alive (DESIGN.md §7).
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    run()
