"""Traced replay of one workload: where its time goes, layer by layer.

``run.py --trace 1`` runs this script once per workload, each in a
fresh interpreter with ``src/`` and ``benchmarks/`` on its path.  It
wraps the entry point of every model layer in a span of a
:class:`repro.obs.Tracer` — from here, around the calls into the layer;
nothing under ``src/`` is instrumented — and then, once per round with
every process-wide memo emptied first (``bench_obs._clear_caches``),
does the workload's cold work in-process: the CLI command through
:func:`repro.cli.main`, or for ``serve_memo`` what the server does per
cold request (memo miss, :func:`~repro.serve.compute.compute_point`,
memo store).  The output is checked against the golden digest, and a
written directory also with :func:`~repro.runner.verify_tree`.  The same
work then runs once more into a fresh directory with every model memo
warm, which leaves what the runner, persistence and composition cost on
their own.

A layer's self time is the duration of its spans minus the part that
nested layer spans cover, so the layer times of the cold phase add up
to at most its wall time; ``coverage_ratio`` is that share.  Span
records of memo hits are dropped from the written ``SPANS.jsonl``
(their time still counts), which ``repro spans DIR`` renders.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import json
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro.cli
from repro.area.model import _optimal_cache_area_cached
from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import l1_miss_stream
from repro.core.evaluate import _cached_stats
from repro.core.explorer import _EvaluateRun
from repro.obs import Tracer
from repro.obs.spans import SPANS_NAME, spans_jsonl
from repro.runner import verify_tree, write_text_atomic
from repro.serve.compute import canonical_json, compute_point, normalize_point, point_key
from repro.serve.memo import MEMO_DIR, MemoStore
from repro.study.resultstore import _ReportRun
from repro.timing.optimal import _optimal_timing_cached
from repro.timing.organization import enumerate_organizations
from repro.traces import store as trace_store

from bench_obs import _clear_caches as clear_all_memos
from workloads import (
    SERVE_POINTS,
    WORKLOADS,
    Tally,
    Workload,
    bodies_digest,
    fresh_dir,
    result_digest,
    run_rounds,
    serve_orders,
    serve_payload,
    sha256_bytes,
)

#: Layer span name -> the functions whose calls it wraps.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "traces.gen": (("repro.traces.store", "get_trace"),),
    "cache.l1_filter": (("repro.cache.hierarchy", "l1_miss_stream"),),
    "cache.l2_replay": (("repro.cache.hierarchy", "simulate_hierarchy"),),
    "timing.search": (("repro.timing.optimal", "_optimal_timing_cached"),),
    "area.model": (("repro.area.model", "_optimal_cache_area_cached"),),
    "core.tpi": (("repro.core.tpi", "compute_tpi"),),
    "runner.persist": (
        ("repro.runner.atomic", "write_text_atomic"),
        ("repro.runner.atomic", "write_bytes_atomic"),
        ("repro.runner.integrity", "write_manifest"),
    ),
}

#: Layers whose cold calls are counted (their arguments are inspected).
COUNTED = ("cache.l1_filter", "cache.l2_replay", "timing.search")

#: The lru memos whose fills (misses) in a cold run are counted.
COUNTED_MEMOS: Dict[str, Callable] = {
    "l1_stream": l1_miss_stream,
    "stats": _cached_stats,
    "timing": _optimal_timing_cached,
    "area": _optimal_cache_area_cached,
}

_ALL = tuple(WORKLOADS)

#: Per-layer metric name prefix -> the end-to-end metrics and workloads
#: a change to that layer should move, written down before any change
#: is measured.  Shares are of the traced cold phase on a 2-CPU host.
MOVES: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    # ~95 % of point_timing, ~90 % of serve_memo's cold compute, ~50 %
    # of report_ext, ~30 % of point_exclusive.
    "timing.": (("wall_s", _ALL),),
    # ~57 % of point_exclusive; ~3 % of point_timing, the predicted
    # no-change workload for an L2 change.
    "cache.l2_": (("wall_s", ("point_exclusive", "report_ext", "serve_memo")),),
    # At most ~10 % anywhere: the predicted no-change case for an L1 or
    # trace-generation change.
    "cache.l1_": (("wall_s", _ALL),),
    "traces.": (("wall_s", _ALL), ("peak_rss_mb", _ALL)),
    "area.": (("wall_s", _ALL),),
    "core.": (("wall_s", _ALL),),
    # Journal, atomic writes, sidecars, manifests, memo reads.
    "runner.": (("wall_s", ("report_ext", "serve_memo")),),
    # Exhibit composition and the ext/ models: ~30 % of report_ext.
    "unattributed": (("wall_s", ("report_ext",)),),
    "coverage": (("wall_s", _ALL),),
    # More fills mean more cold work.
    "memo.": (("wall_s", _ALL),),
}


def moves(metric: str) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
    """The (end-to-end metric, workloads) pairs a per-layer metric should move."""
    matches = [prefix for prefix in MOVES if metric.startswith(prefix)]
    if len(matches) != 1:
        raise KeyError(f"{metric}: {len(matches)} MOVES entries match")
    return MOVES[matches[0]]


def _rebind(original: object, replacement: object) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``replacement``.

    Catches both the defining module and every ``from x import y``
    site, which is why all of ``repro`` is imported first.
    """
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class LayerProbes:
    """Spans around each layer's entry point, plus the work counts they see.

    Installing is process-wide and irreversible: it is meant for the
    dedicated interpreter this script runs in.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.l1_refs = 0
        #: (trace, L1 bytes, line size) of every replay through an L2.
        self.replays: List[tuple] = []
        #: (size, line size, associativity) of every cold organisation search.
        self.searches: List[Tuple[int, int, int]] = []

    def reset_counts(self) -> None:
        self.l1_refs = 0
        self.replays = []
        self.searches = []

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                original = getattr(importlib.import_module(module_name), attr)
                _rebind(original, self._probe(layer, original))
        for cls, label in ((_EvaluateRun, "config"), (_ReportRun, "experiment_id")):
            cls.__call__ = self._unit_probe(cls.__call__, label)

    def _misses(self, layer: str, fn: Callable) -> Optional[Callable[[], int]]:
        """A counter that grows exactly when a call to ``fn`` does cold work."""
        if hasattr(fn, "cache_info"):
            return lambda: fn.cache_info().misses
        if layer == "traces.gen":
            return lambda: len(trace_store._cache)
        return None

    def _probe(self, layer: str, fn: Callable) -> Callable:
        misses = self._misses(layer, fn)
        signature = inspect.signature(fn) if layer in COUNTED else None
        tracer = self.tracer

        def probe(*args, **kwargs):
            with tracer.span(layer) as span:
                before = misses() if misses else None
                result = fn(*args, **kwargs)
                hit = misses is not None and misses() == before
                if hit:
                    span.set(memo="hit")
            if signature is not None and not hit:
                self._note(layer, signature.bind(*args, **kwargs))
            return result

        if hasattr(fn, "cache_info"):
            probe.cache_info = fn.cache_info  # type: ignore[attr-defined]
            probe.cache_clear = fn.cache_clear  # type: ignore[attr-defined]
        return probe

    def _note(self, layer: str, bound: inspect.BoundArguments) -> None:
        bound.apply_defaults()
        args = bound.arguments
        if layer == "cache.l1_filter":
            trace = args["trace"]
            self.l1_refs += trace.n_instructions + trace.n_data_refs
        elif layer == "cache.l2_replay" and args["l2_bytes"] > 0:
            self.replays.append((args["trace"], args["l1_bytes"], args["line_size"]))
        elif layer == "timing.search":
            self.searches.append(
                (args["size_bytes"], args["line_size"], args["associativity"])
            )

    def _unit_probe(self, call: Callable, label: str) -> Callable:
        tracer = self.tracer

        def unit(body):
            value = getattr(body, label)
            with tracer.span("unit", unit=getattr(value, "label", value)):
                return call(body)

        return unit

    def l2_events(self) -> int:
        """Misses replayed through an L2 (reads the L1 memo: call after the fills)."""
        return sum(len(l1_miss_stream(trace, l1, line)) for trace, l1, line in self.replays)

    def orgs_scored(self) -> int:
        """Organisations the cold searches scored (each scores every one)."""
        shapes = (
            CacheGeometry(size, line_size=line, associativity=ways)
            for size, line, ways in self.searches
        )
        return sum(sum(1 for _ in enumerate_organizations(shape)) for shape in shapes)


def self_times(records: List[dict]) -> Dict[str, float]:
    """Total self time per span name: duration minus direct children's."""
    covered: Dict[int, float] = defaultdict(float)
    for record in records:
        if record["parent"] is not None:
            covered[record["parent"]] += record["duration_s"]
    totals: Dict[str, float] = defaultdict(float)
    for record in records:
        totals[record["name"]] += record["duration_s"] - covered[record["id"]]
    return totals


def _run_cli(argv: List[str]) -> Tuple[int, bytes]:
    """Exit code and standard output of one in-process CLI command."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = repro.cli.main(argv)
    return code, captured.getvalue().encode()


class TracedRun:
    """Rounds of one workload under the probes; per-round layer metrics."""

    def __init__(self, workload: Workload, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.tracer = Tracer()
        self.probes = LayerProbes(self.tracer)
        self.probes.install()
        self.tally = Tally()
        self.rounds: List[Dict[str, float]] = []
        #: Metrics that are counts, which must repeat exactly.
        self.exact: set = set()

    def round(self) -> None:
        clear_all_memos()
        self.probes.reset_counts()
        root = fresh_dir(self.scratch, "round")
        first = len(self.tracer.records())
        try:
            output = self._pass(root / "cold", "cold")
            records = self.tracer.records()[first:]
            counts = self._counts()
            if output is not None:
                clean = verify_tree(output).clean
                self.tally.check(clean, f"verify_tree found damage in {output.name}")
            self._pass(root / "warm", "warm")
            warm_s = self.tracer.records()[-1]["duration_s"]
        except Exception as error:  # a failed round is counted, not fatal
            self.tally.check(False, f"{type(error).__name__}: {error}")
        else:
            self.exact |= set(counts)
            self.rounds.append(dict(self._metrics(records, counts), **{"runner.warm_s": warm_s}))
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _pass(self, root: Path, phase: str) -> Optional[Path]:
        """The workload's work into the empty ``root``, in one ``phase`` span.

        Returns the directory it wrote, if any.  The span closes last,
        so it is the newest tracer record.
        """
        with self.tracer.span(phase, round=len(self.rounds) + 1):
            if self.workload.is_serve:
                return self._serve(root, phase)
            return self._cli(root, phase)

    def _cli(self, out: Path, phase: str) -> Optional[Path]:
        argv = [*self.workload.argv]
        if self.workload.writes_out:
            argv += ["--out", str(out)]
        code, stdout = _run_cli(argv)
        digest = result_digest(out) if self.workload.writes_out else sha256_bytes(stdout)
        self.tally.check(
            code == 0 and digest == self.workload.digest,
            f"{phase} run exited {code} or its results differ from the golden digest",
        )
        return out if self.workload.writes_out else None

    def _serve(self, root: Path, phase: str) -> Path:
        store = MemoStore(root / MEMO_DIR)
        points = SERVE_POINTS
        cold_order, _ = serve_orders(self.seed, len(points))
        bodies = []
        for index in cold_order:
            with self.tracer.span("request", unit=f"{points[index][0]}:{points[index][1]}"):
                config, workload, scale = normalize_point(serve_payload(*points[index]))
                key = point_key(config, workload, scale)
                self.tally.check(store.load(key) is None, f"point {index} not in a fresh store")
                request = {"key": key, "config": config.to_dict()}
                reply = compute_point(dict(request, workload=workload, scale=scale))
                store.store(key, reply["record"])
                bodies.append(canonical_json(reply["record"]).encode())
        digest = bodies_digest(bodies)
        self.tally.check(digest == self.workload.digest, f"{phase} bodies digest {digest}")
        return store.root

    def _counts(self) -> Dict[str, float]:
        """Memo fills and work counts of the cold phase just finished."""
        counts = {
            f"memo.{name}_misses": float(memo.cache_info().misses)
            for name, memo in COUNTED_MEMOS.items()
        }
        counts["cache.l2_events"] = float(self.probes.l2_events())
        counts["timing.shapes"] = float(len(self.probes.searches))
        counts["timing.orgs_scored"] = float(self.probes.orgs_scored())
        counts["l1_refs"] = float(self.probes.l1_refs)
        return counts

    def _metrics(self, records: List[dict], counts: Dict[str, float]) -> Dict[str, float]:
        """Layer self times of one cold phase (its span closes last) and rates."""
        cold = records[-1]
        layer_s = self_times(records)
        attributed = sum(layer_s[layer] for layer in LAYERS)
        metrics = {f"{layer}_s": layer_s[layer] for layer in LAYERS}
        metrics.update(counts)
        metrics.update(
            {
                "unattributed_s": cold["duration_s"] - attributed,
                "coverage_ratio": attributed / cold["duration_s"],
                "cache.l1_mrefs_per_s": counts["l1_refs"] / layer_s["cache.l1_filter"] / 1e6,
                "cache.l2_mevents_per_s": counts["cache.l2_events"]
                / layer_s["cache.l2_replay"]
                / 1e6,
                "timing.korgs_per_s": counts["timing.orgs_scored"]
                / layer_s["timing.search"]
                / 1e3,
            }
        )
        return metrics

    def summary(self) -> Dict[str, object]:
        """Median of every metric over the rounds; counts must repeat exactly."""
        metrics: Dict[str, float] = {}
        for name in self.rounds[0] if self.rounds else ():
            values = [round_metrics[name] for round_metrics in self.rounds]
            if name in self.exact:
                self.tally.check(len(set(values)) == 1, f"{name} differs between rounds: {values}")
            metrics[name] = statistics.median(values)
        return {
            "metrics": metrics,
            "rounds": len(self.rounds),
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "errors": self.tally.errors,
        }

    def write_spans(self, directory: Path) -> int:
        """Write ``SPANS.jsonl`` without memo-hit spans; returns spans written."""
        kept = [r for r in self.tracer.records() if r["attrs"].get("memo") != "hit"]
        directory.mkdir(parents=True, exist_ok=True)
        write_text_atomic(directory / SPANS_NAME, spans_jsonl(kept))
        return len(kept)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scratch", type=Path, required=True, help="private temp directory")
    parser.add_argument("--spans", type=Path, required=True, help="directory for SPANS.jsonl")
    parser.add_argument("--result", type=Path, required=True, help="JSON file for the metrics")
    args = parser.parse_args(argv)

    run = TracedRun(WORKLOADS[args.workload], args.seed, args.scratch)
    run_rounds([args.workload], args.seconds, lambda _: run.round())
    summary = run.summary()
    summary["spans"] = run.write_spans(args.spans)
    write_text_atomic(args.result, json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
