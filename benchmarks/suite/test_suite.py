"""Checks of the benchmark definition and harness.

Not part of the tier-1 run; run explicitly from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/suite
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
CHECKOUT = SUITE.parents[1]
sys.path[:0] = [str(CHECKOUT / "src"), str(SUITE.parent)]

from repro.serve.compute import (  # noqa: E402
    canonical_json,
    compute_point,
    normalize_point,
    point_key,
)
from compare import verdict  # noqa: E402
from stats import MIN_BEYOND, latency_summary, percentile, tail_percentile  # noqa: E402
from traced import moves  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    PaceMeter,
    Tally,
    _process_tree,
    Workload,
    bodies_digest,
    serve_payload,
    serve_round,
    tree_peak_rss_mb,
)

BENCHMARK = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")

#: A full measurement campaign (4 + 22 runs per workload) must fit in this.
CAMPAIGN_BUDGET_S = 3420
#: Set-up and start-up seconds a run spends outside its measuring window.
RUN_OVERHEAD_S = 7


class TestBenchmarkSchema:
    def test_top_level_keys(self):
        assert set(BENCHMARK) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
        }

    def test_command_and_paths(self):
        command, paths = BENCHMARK["command"], BENCHMARK["paths"]
        assert 1 <= len(command) <= 32 and all(len(arg) <= 200 for arg in command)
        assert 1 <= len(paths) <= 16
        for path in paths:
            assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path
            files = [p for p in (CHECKOUT / path).rglob("*") if "output" not in p.parts]
            assert files and not any(p.is_symlink() for p in files)
        for arg in command[1:]:
            if "/" in arg:
                assert any(arg.startswith(path + "/") for path in paths), arg

    def test_names_are_well_formed_and_unique(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        assert all(NAME.fullmatch(name) for name in names), names
        assert len(names) == len(set(names))

    def test_metric_counts_units_and_bounds(self):
        end_to_end, per_layer = BENCHMARK["end_to_end"], BENCHMARK["per_layer"]
        assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
        for metric in end_to_end:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in per_layer:
            assert set(metric) == {"name", "unit", "better"}
        for metric in end_to_end + per_layer:
            assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
        setup = next(m for m in end_to_end if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(m["bound"] for m in end_to_end)

    def test_every_per_layer_metric_names_what_it_moves(self):
        end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
        for metric in BENCHMARK["per_layer"]:
            pairs = moves(metric["name"])
            assert pairs, metric["name"]
            for moved, workloads in pairs:
                assert moved in end_to_end and set(workloads) <= set(WORKLOADS)

    def test_workloads_match_the_harness(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
        assert 2 <= len(WORKLOADS) <= 8
        for entry in BENCHMARK["workloads"]:
            assert set(entry) == {"name", "why"}
            assert entry["why"] and "\n" not in entry["why"] and len(entry["why"]) <= 200
        for workload in WORKLOADS.values():
            assert re.fullmatch(r"[0-9a-f]{64}", workload.digest)
            assert workload.timeout_s > 0

    def test_runs_fit_the_campaign_budget(self):
        runs = 4 + 22 * len(WORKLOADS)
        assert 1 <= BENCHMARK["run_seconds"] <= 60
        assert runs * (BENCHMARK["run_seconds"] + RUN_OVERHEAD_S) <= CAMPAIGN_BUDGET_S


class TestPercentileRule:
    def test_tail_keeps_ten_samples_beyond(self):
        assert tail_percentile(6) is None
        assert tail_percentile(20) == 50.0
        assert tail_percentile(45) == 75.0
        assert tail_percentile(999) == 95.0
        assert tail_percentile(2000) == 99.0
        assert tail_percentile(10000) == 99.9

    def test_nearest_rank(self):
        samples = list(range(1, 46))
        assert percentile(samples, 75.0) == 34
        assert sum(s > 34 for s in samples) >= MIN_BEYOND
        assert percentile([5.0], 50.0) == 5.0

    def test_six_samples_report_no_tail(self):
        summary = latency_summary([6.0, 1.0, 5.0, 2.0, 4.0, 3.0])
        assert summary == {"n": 6, "p50": 3.5}

    def test_summary_names_its_tail(self):
        summary = latency_summary([float(i) for i in range(2000)])
        assert summary["n"] == 2000 and summary["tail"] == "p99"
        assert summary["tail_value"] == 1979.0


class TestServeRound:
    def test_smoke_five_points(self, tmp_path):
        points = [(1, 0), (1, 8), (2, 16), (8, 64), (256, 0)]
        bodies = []
        for l1_kb, l2_kb in points:
            config, workload, scale = normalize_point(serve_payload(l1_kb, l2_kb, 0.02))
            key = point_key(config, workload, scale)
            request = {"key": key, "config": config.to_dict(), "workload": workload, "scale": scale}
            bodies.append(canonical_json(compute_point(request)["record"]).encode())
        smoke = Workload(
            "serve_smoke", WORKLOADS["serve_memo"].argv, bodies_digest(bodies), 30.0
        )
        tally = Tally()
        serve_round(smoke, CHECKOUT, tmp_path, 1, tally, PaceMeter(), points=points, scale=0.02)
        assert tally.failed == 0, tally.errors
        for metric in ("setup_s", "wall_s", "raw_wall_s", "pace_s", "warm_phase_s", "peak_rss_mb"):
            assert len(tally.samples[metric]) == 1 and tally.samples[metric][0] > 0
        assert len(tally.samples["cold_latency_ms"]) == len(points)
        assert tally.samples["shed"] == [0]

    def test_peak_rss_counts_child_processes(self):
        # repro serve computes in a pool worker; its peak must count.
        script = "import sys; b = bytearray(64 << 20); sys.stdout.write('up\\n'); sys.stdin.read()"
        child = subprocess.Popen(
            [sys.executable, "-c", script], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        try:
            assert child.stdout.readline() == b"up\n"
            assert child.pid in _process_tree(os.getpid())
            assert tree_peak_rss_mb(child.pid) >= 64
        finally:
            child.communicate()


class TestCompareVerdict:
    def test_narrow_spread_uses_the_bound(self):
        assert verdict([1.0] * 4, [1.05] * 4, "lower", 0.10) == "unchanged"
        assert verdict([1.0] * 4, [1.2] * 4, "lower", 0.10) == "worse"
        assert verdict([1.0] * 4, [0.8] * 4, "lower", 0.10) == "better"
        assert verdict([100.0] * 4, [80.0] * 4, "higher", 0.10) == "worse"

    def test_wide_spread_is_unresolved_below_the_bound(self):
        before = [1.0, 1.0, 1.3, 1.3]
        assert verdict(before, [1.31] * 4, "lower", 0.25) == "unresolved"
        assert verdict(before, [1.6] * 4, "lower", 0.25) == "worse"
        assert verdict(before, [0.9] * 4, "lower", 0.25) == "better"
