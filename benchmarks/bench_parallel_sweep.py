"""Serial vs parallel sweep throughput on a medium synthetic sweep.

Runs the full default design space (45 configurations) over five
workloads — 225 units — once through the serial engine and once with
``workers="auto"``, records both wall times to
``benchmarks/output/BENCH_parallel.json``, and cross-checks that the
two backends produced identical points.

The ≥2x-speedup gate only fires on machines with at least four CPUs:
on smaller boxes (CI runners are often 1–2 cores) the measurement is
still recorded, but a parallelism assertion would measure the host,
not the code.

Every process-wide memo (trace store, L1 filter, evaluation stats and
the timing, area and energy solvers; ``bench_obs._clear_caches``) is
emptied before *each* phase so both start cold — otherwise the serial
phase would warm the parent process for the fork()ed workers and the
speed-up would be overstated.
"""

import os
import time

from bench_obs import _clear_caches
from repro.core.explorer import as_point, design_space, run_sweep
from repro.traces.workloads import WORKLOADS

#: Fixed scale: 225 units at 0.1 keeps the serial phase around tens of
#: seconds; the comparison needs identical work, not a big trace.
SCALE = 0.1

WORKLOAD_SET = list(WORKLOADS)[:5]

#: Minimum host CPUs for the speedup assertion to be meaningful.
MIN_CPUS_FOR_GATE = 4
SPEEDUP_GATE = 2.0


def _sweep_all(workers):
    points = []
    for workload in WORKLOAD_SET:
        result = run_sweep(workload, design_space(), scale=SCALE, workers=workers)
        points.extend(as_point(value) for value in result.values())
    return points


def test_parallel_sweep_speedup(bench_record):
    n_units = len(WORKLOAD_SET) * len(design_space())
    assert n_units >= 200

    _clear_caches()
    started = time.perf_counter()
    serial_points = _sweep_all(workers=None)
    serial_s = time.perf_counter() - started

    workers = max(1, os.cpu_count() or 1)
    _clear_caches()
    started = time.perf_counter()
    parallel_points = _sweep_all(workers="auto")
    parallel_s = time.perf_counter() - started

    # The two backends must agree exactly, or the timing is meaningless.
    assert serial_points == parallel_points

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    record = {
        "units": n_units,
        "scale": SCALE,
        "workloads": WORKLOAD_SET,
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(speedup, 3),
        "gate_applied": workers >= MIN_CPUS_FOR_GATE,
    }
    bench_record("BENCH_parallel.json", record)

    if workers >= MIN_CPUS_FOR_GATE:
        assert speedup >= SPEEDUP_GATE, (
            f"parallel sweep only {speedup:.2f}x faster than serial with "
            f"{workers} workers (expected >= {SPEEDUP_GATE}x)"
        )
