"""Many-client load test of `repro serve`: latency and memo hit-rate.

Drives a live :class:`~repro.serve.harness.BackgroundServer` over real
TCP the way a fleet of curl clients would.  Phase one computes a small
design-point mix cold (every request misses the memo store and runs a
real evaluation); phase two hammers the same mix from concurrent
client threads, so every request is a warm, integrity-verified memo
hit.  Per-request wall latencies are recorded and summarized per phase
as the median plus the highest percentile that still has at least ten
samples beyond it, with the sample count (the rule of
``benchmarks/suite/stats.py``: a "p99" over six cold samples would just
be the maximum), plus the service's own memo hit-rate, into
``benchmarks/output/BENCH_serve.json``.

The gate checks what a broken memo would show, not a latency ratio.
After the warm phase, the memo store must have served every warm request
with a verified read (``memo.hits``), and the pool must have computed
each point exactly once (``requests.cold``).  A ratio of medians cannot
tell a memo read from a recompute: worker processes keep their own
in-process memos warm, so recomputing a point the pool has seen costs a
round trip, not a trace replay, and at ``SCALE`` a cold compute itself
is only a few times slower than a warm hit.  The medians and their
ratio are still recorded, and a warm hit must still beat a cold compute.
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor
from statistics import median

from repro.serve import BackgroundServer, ServePolicy
from suite.stats import latency_summary

#: The design-point mix every phase cycles through.
POINTS = ((1, 0), (1, 8), (2, 0), (2, 16), (4, 32), (8, 64))

#: Trace scale for the cold evaluations (small: the gate counts memo
#: reads and computes, not absolute cost).
SCALE = 0.05

#: Warm-phase shape: many clients, many requests over the same mix.
N_CLIENTS = 8
N_WARM_REQUESTS = 120


def _payload(l1_kb, l2_kb):
    return {"l1_kb": l1_kb, "l2_kb": l2_kb, "workload": "gcc1", "scale": SCALE}


def _timed_request(server, payload):
    started = time.perf_counter()
    status, headers, _ = server.request("POST", "/v1/evaluate", payload)
    elapsed = time.perf_counter() - started
    assert status == 200, f"load test request failed: HTTP {status}"
    return elapsed, headers["x-repro-source"]


def _summary(samples):
    summary = latency_summary([sample * 1e3 for sample in samples])
    record = {"n": summary["n"], "p50_ms": round(summary["p50"], 3)}
    if "tail" in summary:
        record[f"{summary['tail']}_ms"] = round(summary["tail_value"], 3)
    record["mean_ms"] = round(sum(samples) / len(samples) * 1e3, 3)
    return record


def test_serve_load(bench_record, tmp_path):
    payloads = [_payload(l1, l2) for l1, l2 in POINTS]
    policy = ServePolicy(deadline_s=300.0, max_active=N_CLIENTS)
    with BackgroundServer(tmp_path / "store", workers=2, policy=policy) as server:
        cold_latencies = []
        for payload in payloads:
            elapsed, source = _timed_request(server, payload)
            assert source == "cold"
            cold_latencies.append(elapsed)

        warm_latencies = []
        sources = []

        def fire(index):
            elapsed, source = _timed_request(
                server, payloads[index % len(payloads)]
            )
            return elapsed, source

        with ThreadPoolExecutor(max_workers=N_CLIENTS) as clients:
            for elapsed, source in clients.map(fire, range(N_WARM_REQUESTS)):
                warm_latencies.append(elapsed)
                sources.append(source)

        health = json.loads(server.request("GET", "/healthz")[2])

    assert all(source == "memo" for source in sources), (
        "warm phase must be served entirely from the memo store"
    )
    memo = health["memo"]
    requests = health["requests"]
    served = requests["memo"] + requests["cold"] + requests["coalesced"]
    hit_rate = requests["memo"] / max(1, served)

    cold_p50 = median(cold_latencies)
    warm_p50 = median(warm_latencies)
    speedup = cold_p50 / warm_p50 if warm_p50 > 0 else float("inf")

    record = {
        "points": len(payloads),
        "clients": N_CLIENTS,
        "scale": SCALE,
        "cold": _summary(cold_latencies),
        "warm": _summary(warm_latencies),
        "warm_speedup_p50": round(speedup, 1),
        "memo_hit_rate": round(hit_rate, 4),
        "memo_entries": memo["entries"],
        "shed": health["admission"]["shed"],
    }
    bench_record("BENCH_serve.json", record)

    assert hit_rate >= N_WARM_REQUESTS / (N_WARM_REQUESTS + len(payloads)) - 0.01
    assert memo["hits"] == N_WARM_REQUESTS, (
        f"memo store served {memo['hits']} verified reads for "
        f"{N_WARM_REQUESTS} warm requests"
    )
    assert requests["cold"] == len(payloads), (
        f"pool computed {requests['cold']} points for {len(payloads)} distinct ones"
    )
    assert speedup > 1.0, (
        f"warm memo hit ({warm_p50 * 1e3:.1f} ms) not faster than a cold "
        f"compute ({cold_p50 * 1e3:.1f} ms)"
    )
