"""Telemetry overhead on a full 225-unit sweep: must stay under 5%.

Runs the bench_parallel design space (five workloads x 45
configurations) twice through the serial engine: once with telemetry
off, once with a bound :class:`~repro.obs.Telemetry` bundle recording
per-unit spans, hot-path counters, and periodic ``METRICS.jsonl`` /
``SPANS.jsonl`` flushes.  The acceptance criterion of the telemetry PR
is gated here: instrumentation must cost less than
``OVERHEAD_GATE`` of the uninstrumented wall time, and must not
change a single result point.

Caches are cleared before each phase so both start cold — the
comparison needs identical work, and a warm second phase would hide
the telemetry cost inside the speedup.  Both measured times and the
per-unit telemetry cost land in ``benchmarks/output/BENCH_obs.json``.
"""

import time

from repro import memo
from repro.core.explorer import as_point, design_space, run_sweep
from repro.obs import Telemetry, load_metrics_file, load_spans_file
from repro.traces.workloads import WORKLOADS

#: Small fixed scale: the gate is a ratio, so identical work matters
#: more than a big trace; 225 units keep per-unit noise averaged out.
SCALE = 0.02

WORKLOAD_SET = list(WORKLOADS)[:5]

#: Acceptance: telemetry costs < 5% of the uninstrumented sweep.
OVERHEAD_GATE = 0.05


def _clear_caches():
    # Every process-wide memo the sweep can hit (repro.memo's registry).
    memo.clear_all()


def _sweep_all(telemetry=None):
    points = []
    for workload in WORKLOAD_SET:
        result = run_sweep(
            workload, design_space(), scale=SCALE, telemetry=telemetry
        )
        points.extend(as_point(value) for value in result.values())
    return points


def test_telemetry_overhead(bench_record, tmp_path):
    n_units = len(WORKLOAD_SET) * len(design_space())
    assert n_units >= 200

    _clear_caches()
    started = time.perf_counter()
    baseline_points = _sweep_all()
    baseline_s = time.perf_counter() - started

    out_dir = tmp_path / "telemetry"
    out_dir.mkdir()
    bundle = Telemetry().bind(out_dir)
    _clear_caches()
    started = time.perf_counter()
    telemetry_points = _sweep_all(telemetry=bundle)
    telemetry_s = time.perf_counter() - started

    # Telemetry neutrality: instrumentation must not move a result.
    assert baseline_points == telemetry_points

    # The instrumented run left real artefacts behind.
    unit_spans = [
        record
        for record in load_spans_file(out_dir / "SPANS.jsonl")
        if record["name"] == "unit"
    ]
    assert len(unit_spans) == n_units
    ok_total = next(
        sample
        for sample in load_metrics_file(out_dir / "METRICS.jsonl")
        if sample["name"] == "repro_units_total"
        and sample["labels"] == {"status": "ok"}
    )
    assert ok_total["value"] == n_units

    overhead = (
        (telemetry_s - baseline_s) / baseline_s if baseline_s > 0 else 0.0
    )
    record = {
        "units": n_units,
        "scale": SCALE,
        "workloads": WORKLOAD_SET,
        "baseline_s": round(baseline_s, 3),
        "telemetry_s": round(telemetry_s, 3),
        "overhead": round(overhead, 4),
        "overhead_per_unit_ms": round(
            (telemetry_s - baseline_s) / n_units * 1e3, 3
        ),
        "spans_recorded": bundle.tracer.recorded,
    }
    bench_record("BENCH_obs.json", record)

    assert overhead < OVERHEAD_GATE, (
        f"telemetry added {overhead:.1%} to a {baseline_s:.1f}s sweep "
        f"(gate {OVERHEAD_GATE:.0%})"
    )
