"""Run the repo benchmark and print every metric with its unit.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py                  # all workloads, round-robin
    python3 benchmarks/suite/run.py --workload point_timing --seed 3 --seconds 30 --trace 0
    python3 benchmarks/suite/run.py --workload report_ext --traced

With ``--trace 0`` (the default) it measures the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` (or ``--traced``) it replays each
workload in a fresh interpreter under layer probes (``traced.py``) and
reports the per-layer metrics, writing
``benchmarks/output/traced/<workload>/SPANS.jsonl`` for ``repro spans``.
Each workload runs short rounds for ``--seconds`` and reports medians
over them; times are scaled to the host's nominal pace, measured by a
fixed loop around every round (``workloads.PaceMeter``).  A measuring
campaign passes ``run_seconds`` of ``BENCHMARK.json`` there, which is
also the default.

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a results document with the
per-round samples and the ``bench_context()`` provenance block of
``benchmarks/conftest.py`` is written under ``benchmarks/output/suite/``
for ``compare.py``.  Exits 1 if any run or check failed, 2 if the
repository cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from stats import latency_summary, relative_spread
from workloads import (
    WORKLOADS,
    PaceMeter,
    Tally,
    child_env,
    cli_round,
    fresh_dir,
    run_rounds,
    run_timed,
    serve_round,
    warm_import,
)

SUITE = Path(__file__).resolve().parent
BENCHMARKS = SUITE.parent
CHECKOUT = BENCHMARKS.parent
OUTPUT = BENCHMARKS / "output"

#: Seconds a traced child may overrun its window before it is killed.
TRACED_GRACE_S = 120.0


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on one CPU.

    The pace loop between rounds then times the same vCPU the rounds
    run on; on a shared host each vCPU's speed changes on its own.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure(names: List[str], seed: int, seconds: float, scratch: Path) -> Dict[str, Tally]:
    """End-to-end rounds of ``names``, round-robin, each within ``seconds``."""
    tallies = {name: Tally() for name in names}
    meter = PaceMeter()

    def one(name: str) -> None:
        workload = WORKLOADS[name]
        if workload.is_serve:
            serve_round(workload, CHECKOUT, scratch, seed, tallies[name], meter)
        else:
            cli_round(workload, CHECKOUT, scratch, tallies[name], meter)

    for name, rounds in run_rounds(names, seconds, one).items():
        tallies[name].details["rounds"] = rounds
    return tallies


def traced(names: List[str], seed: int, seconds: float, scratch: Path) -> Dict[str, Tally]:
    """Per-layer metrics of each workload from a fresh traced interpreter."""
    tallies = {}
    for name in names:
        tally = tallies[name] = Tally()
        root = fresh_dir(scratch, f"traced-{name}")
        result = root / "result.json"
        argv = [
            sys.executable, str(SUITE / "traced.py"),
            "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--scratch", str(root / "work"), "--spans", str(OUTPUT / "traced" / name),
            "--result", str(result),
        ]
        env = child_env(CHECKOUT, root)
        env["PYTHONPATH"] += os.pathsep + str(BENCHMARKS)  # traced.py imports bench_obs
        done = run_timed(argv, root, env, seconds + TRACED_GRACE_S)
        if not tally.check(done.ok and result.exists(), f"traced {name}: {done.describe()}"):
            continue
        summary = json.loads(result.read_text())
        tally.attempted += summary["attempted"]
        tally.failed += summary["failed"]
        tally.errors += summary["errors"]
        for metric, value in summary["metrics"].items():
            tally.add(metric, value)
        tally.details.update(rounds=summary["rounds"], spans=summary["spans"])
    return tallies


def summarise(name: str, tally: Tally, wanted: List[dict]) -> dict:
    """One workload's metrics (medians with units), details and counts."""
    metrics = {}
    for spec in wanted:
        samples = tally.samples.get(spec["name"], [])
        if samples:
            metrics[spec["name"]] = {
                "value": statistics.median(samples),
                "unit": spec["unit"],
                "n": len(samples),
                "spread": relative_spread(samples),
                "samples": samples,
            }
        else:
            tally.check(False, f"{name}: no successful sample of {spec['name']}")
    reported = {spec["name"] for spec in wanted}
    details: Dict[str, object] = dict(tally.details)
    for metric, samples in tally.samples.items():
        if metric in reported:
            continue
        if metric.endswith("_latency_ms"):
            details[metric] = latency_summary(samples)
        else:
            details[metric] = statistics.median(samples)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "metrics": metrics,
        "details": details,
    }


def print_human(results: Dict[str, dict]) -> None:
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(
                f"{name:<16} {metric:<24} {entry['value']:>14.6g} {entry['unit']:<8}"
                f" n={entry['n']:<3} spread={entry['spread']:.1%}"
            )
        for metric, value in result["details"].items():
            print(f"{name:<16} {metric:<24} {json.dumps(value)}")
        print(f"{name:<16} attempted={result['attempted']} failed={result['failed']}")
        for error in result["errors"][:5]:
            print(f"{name:<16} FAILED: {error}")


def write_results(document: dict, label: str) -> Path:
    from conftest import bench_context
    from repro.runner import write_text_atomic

    document = dict(document, context=bench_context())
    stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime())
    path = OUTPUT / "suite" / f"{label}-{stamp}-{os.getpid()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(path, json.dumps(document, indent=2) + "\n")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0, help="permutes the serve request order")
    parser.add_argument(
        "--seconds", type=float, default=benchmark["run_seconds"],
        help="measuring window per workload (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1, help="same as --trace 1"
    )
    args = parser.parse_args(argv)

    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(CHECKOUT / "src"), str(BENCHMARKS)]
    pin_to_one_cpu()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    scratch = fresh_dir(OUTPUT / "suite-tmp", f"run-{os.getpid()}")
    try:
        warm = warm_import(CHECKOUT, scratch)
        if not warm.ok:
            print(f"error: import repro.cli {warm.describe()}", file=sys.stderr)
            return 2
        measured = (traced if args.trace else measure)(names, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results = {name: summarise(name, measured[name], wanted) for name in names}
    print_human(results)
    path = write_results(
        {"args": vars(args), "workloads": results},
        f"{args.workload}-trace{args.trace}-seed{args.seed}",
    )
    print(f"results: {path.relative_to(CHECKOUT)}")

    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    correct = failed == 0 and attempted > 0
    metrics = {
        (metric if len(names) == 1 else f"{name}.{metric}"): {
            "value": entry["value"], "unit": entry["unit"],
        }
        for name, result in results.items()
        for metric, entry in result["metrics"].items()
    }
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
