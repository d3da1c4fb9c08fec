"""The sweep service: normalization, memo integrity, fault walls."""

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import LOOP_IO

from repro.core.config import SystemConfig
from repro.core.envelope import best_envelope
from repro.core.evaluate import evaluate, system_area_rbe
from repro.errors import ServeError
from repro.runner import ResourceWatchdog, WatchdogPolicy, faults, write_text_atomic
from repro.runner.integrity import write_sidecar
from repro.serve import (
    AdmissionController,
    BackgroundServer,
    BadRequestError,
    BreakerOpenError,
    CircuitBreaker,
    MemoStore,
    ServePolicy,
    ShedError,
    SingleFlight,
    canonical_json,
    normalize_point,
    normalize_sweep,
    point_key,
    point_record,
)

CONFIG = SystemConfig(l1_bytes=2048, l2_bytes=16384)
PAYLOAD = {"l1_kb": 2, "l2_kb": 16, "workload": "gcc1", "scale": 0.02}


@pytest.fixture(autouse=True)
def _no_leaked_faults(monkeypatch):
    """Serve tests drive REPRO_FAULTS; never leak a plan across tests."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


def reference_bytes(payload=PAYLOAD):
    config = SystemConfig(
        l1_bytes=payload["l1_kb"] * 1024, l2_bytes=payload["l2_kb"] * 1024
    )
    perf = evaluate(config, payload["workload"], scale=payload["scale"])
    return canonical_json(point_record(perf)).encode("utf-8")


class TestNormalization:
    def test_flag_and_config_spellings_share_a_key(self):
        from_flags = normalize_point(PAYLOAD)
        from_config = normalize_point(
            {
                "config": CONFIG.to_dict(),
                "workload": "gcc1",
                "scale": 0.02,
            }
        )
        assert point_key(*from_flags) == point_key(*from_config)

    def test_key_ignores_field_order_and_numeric_spelling(self):
        a = normalize_point({"l1_kb": 2, "l2_kb": 16, "scale": 0.02})
        b = normalize_point({"scale": "0.02", "l2_kb": 16.0, "l1_kb": 2.0})
        assert point_key(*a) == point_key(*b)

    def test_different_configs_get_different_keys(self):
        a = normalize_point({"l1_kb": 2, "l2_kb": 16})
        b = normalize_point({"l1_kb": 2, "l2_kb": 32})
        assert point_key(*a) != point_key(*b)

    def test_unknown_workload_is_a_400(self):
        with pytest.raises(BadRequestError, match="unknown workload"):
            normalize_point({"l1_kb": 2, "workload": "doom"})

    def test_invalid_geometry_is_a_400(self):
        with pytest.raises(BadRequestError):
            normalize_point({"l1_kb": 3})

    def test_non_object_body_is_a_400(self):
        with pytest.raises(BadRequestError, match="JSON object"):
            normalize_point([1, 2, 3])

    def test_bad_scale_is_a_400(self):
        with pytest.raises(BadRequestError, match="scale"):
            normalize_point({"l1_kb": 2, "scale": -1})

    def test_sweep_follows_design_space_order(self):
        configs, workload, scale = normalize_sweep(
            {"workload": "gcc1", "l1_sizes_kb": [1, 2], "l2_sizes_kb": [0, 8]}
        )
        assert workload == "gcc1" and scale is None
        labels = [c.label for c in configs]
        assert labels == ["1:0", "1:8", "2:0", "2:8"]

    def test_empty_sweep_is_a_400(self):
        with pytest.raises(BadRequestError, match="zero design points"):
            normalize_sweep({"l1_sizes_kb": [1], "l2_sizes_kb": [0],
                             "include_single_level": False})


class TestMemoStore:
    RECORD = {"schema": 1, "kind": "evaluate", "label": "2:16", "tpi_ns": 4.2}

    def test_roundtrip_and_counters(self, tmp_path):
        store = MemoStore(tmp_path / "memo")
        assert store.load("k1") is None
        store.store("k1", self.RECORD)
        assert store.load("k1") == self.RECORD
        assert store.hits == 1 and store.misses == 1
        assert len(store) == 1

    def test_store_is_integrity_tracked(self, tmp_path):
        store = MemoStore(tmp_path / "memo")
        store.store("k1", self.RECORD)
        assert (tmp_path / "memo" / "k1.json.sha256").exists()
        assert (tmp_path / "memo" / "MANIFEST.json").exists()

    def test_poisoned_entry_is_quarantined_never_served(self, tmp_path):
        store = MemoStore(tmp_path / "memo")
        store.store("k1", self.RECORD)
        path = store.path("k1")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        assert store.load("k1") is None
        assert store.quarantined == 1
        quarantine = tmp_path / "memo" / "quarantine"
        assert quarantine.is_dir() and list(quarantine.glob("k1.json*"))

    def test_unvouched_entry_is_not_served(self, tmp_path):
        store = MemoStore(tmp_path / "memo")
        store.path("k1").write_text(json.dumps(self.RECORD))
        assert store.load("k1") is None  # no sidecar: nobody vouches
        assert store.quarantined == 0  # not corruption, just untracked

    def test_rotten_sidecar_is_not_trusted(self, tmp_path):
        store = MemoStore(tmp_path / "memo")
        store.store("k1", self.RECORD)
        sidecar = tmp_path / "memo" / "k1.json.sha256"
        sidecar.write_text("not a digest line")
        assert store.load("k1") is None

    def test_hash_valid_garbage_is_dropped(self, tmp_path):
        store = MemoStore(tmp_path / "memo")
        path = store.path("k1")
        write_text_atomic(path, "[1, 2, 3]\n", track=False)
        write_sidecar(path)
        assert store.load("k1") is None
        assert not path.exists()

    def test_entry_vanishing_mid_read_is_a_miss(self, tmp_path, monkeypatch):
        import repro.serve.memo as memo_module

        store = MemoStore(tmp_path / "memo")
        store.store("k1", self.RECORD)
        read_sidecar = memo_module.read_sidecar

        def read_then_quarantine(path):
            digest = read_sidecar(path)
            path.unlink()  # a concurrent repair moves the entry away
            return digest

        monkeypatch.setattr(memo_module, "read_sidecar", read_then_quarantine)
        assert store.load("k1") is None
        assert (store.hits, store.misses, store.quarantined) == (0, 1, 0)

    def test_poisonmemo_fault_fires_after_sidecar(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "poisonmemo=k1:1")
        store = MemoStore(tmp_path / "memo")
        store.store("k1", self.RECORD)
        assert store.load("k1") is None  # detected, not served
        assert store.quarantined == 1


class TestSingleFlight:
    def test_waiters_coalesce_onto_one_computation(self):
        async def scenario():
            flight = SingleFlight()
            calls = []

            async def compute():
                calls.append(1)
                await asyncio.sleep(0.05)
                return "value"

            results = await asyncio.gather(
                *(flight.run("k", compute) for _ in range(5))
            )
            return calls, results

        calls, results = asyncio.run(scenario())
        assert len(calls) == 1
        assert [value for value, _ in results] == ["value"] * 5
        assert sum(1 for _, leader in results if leader) == 1

    def test_failure_propagates_and_key_is_released(self):
        async def scenario():
            flight = SingleFlight()

            async def boom():
                raise ServeError("injected")

            with pytest.raises(ServeError):
                await flight.run("k", boom)

            async def fine():
                return 42

            value, leader = await flight.run("k", fine)
            return value, leader, len(flight)

        value, leader, inflight = asyncio.run(scenario())
        assert (value, leader, inflight) == (42, True, 0)

    def test_cancelled_waiter_does_not_kill_the_leader(self):
        async def scenario():
            flight = SingleFlight()
            finished = asyncio.Event()

            async def compute():
                await asyncio.sleep(0.1)
                finished.set()
                return "late"

            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(flight.run("k", compute), timeout=0.01)
            await asyncio.wait_for(finished.wait(), timeout=2.0)
            return finished.is_set()

        assert asyncio.run(scenario())


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=3, cooldown_s=5.0, clock=lambda: clock[0])
        for _ in range(2):
            breaker.record_failure()
        breaker.check()  # still closed
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(BreakerOpenError) as excinfo:
            breaker.check()
        assert excinfo.value.retry_after_s == pytest.approx(5.0)

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown_s=5.0, clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 6.0
        assert breaker.state == "half-open"
        breaker.check()  # the probe is admitted
        with pytest.raises(BreakerOpenError):
            breaker.check()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.check()

    def test_half_open_probe_failure_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown_s=5.0, clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 6.0
        breaker.check()
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(BreakerOpenError):
            breaker.check()


class TestAdmission:
    def test_sheds_past_the_waiting_cap(self):
        async def scenario():
            admission = AdmissionController(max_active=1, max_waiting=1)
            release = asyncio.Event()

            async def hold():
                async with admission.slot():
                    await release.wait()

            async def wait_slot():
                async with admission.slot():
                    pass

            holder = asyncio.create_task(hold())
            await asyncio.sleep(0.01)
            waiter = asyncio.create_task(wait_slot())
            await asyncio.sleep(0.01)
            with pytest.raises(ShedError) as excinfo:
                async with admission.slot():
                    pass
            assert excinfo.value.retry_after_s is not None
            release.set()
            await asyncio.gather(holder, waiter)
            return admission.shed, admission.active, admission.waiting

        shed, active, waiting = asyncio.run(scenario())
        assert (shed, active, waiting) == (1, 0, 0)


class TestServeHTTP:
    def test_three_tier_resolution_is_byte_identical(self, tmp_path):
        with BackgroundServer(tmp_path / "store") as server:
            s1, h1, b1 = server.request("POST", "/v1/evaluate", PAYLOAD)
            s2, h2, b2 = server.request("POST", "/v1/evaluate", PAYLOAD)
        assert (s1, s2) == (200, 200)
        assert h1["x-repro-source"] == "cold"
        assert h2["x-repro-source"] == "memo"
        assert b1 == b2 == reference_bytes()

    def test_memo_persists_across_restarts(self, tmp_path):
        with BackgroundServer(tmp_path / "store") as server:
            server.request("POST", "/v1/evaluate", PAYLOAD)
        with BackgroundServer(tmp_path / "store") as server:
            status, headers, body = server.request("POST", "/v1/evaluate", PAYLOAD)
        assert status == 200
        assert headers["x-repro-source"] == "memo"
        assert body == reference_bytes()

    def test_concurrent_identical_requests_coalesce(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "slowworker=*:0.4")
        with BackgroundServer(tmp_path / "store") as server:
            results = []

            def fire():
                results.append(server.request("POST", "/v1/evaluate", PAYLOAD))

            threads = [threading.Thread(target=fire) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        sources = sorted(headers["x-repro-source"] for _, headers, _ in results)
        assert sources == ["coalesced", "cold"]
        bodies = {body for _, _, body in results}
        assert bodies == {reference_bytes()}

    def test_tpi_is_a_projection_of_the_same_memo_entry(self, tmp_path):
        with BackgroundServer(tmp_path / "store") as server:
            server.request("POST", "/v1/evaluate", PAYLOAD)
            status, headers, body = server.request("POST", "/v1/tpi", PAYLOAD)
        assert status == 200
        assert headers["x-repro-source"] == "memo"
        record = json.loads(body)
        full = json.loads(reference_bytes())
        assert record["kind"] == "tpi"
        assert record["tpi_ns"] == full["tpi_ns"]
        assert record["area_rbe"] == full["area_rbe"]

    def test_sweep_and_envelope(self, tmp_path):
        request = {
            "workload": "gcc1",
            "scale": 0.02,
            "l1_sizes_kb": [1, 2],
            "l2_sizes_kb": [0, 8],
        }
        with BackgroundServer(tmp_path / "store") as server:
            s1, h1, b1 = server.request("POST", "/v1/sweep", request)
            s2, _, b2 = server.request("POST", "/v1/envelope", request)
        assert (s1, s2) == (200, 200)
        swept = json.loads(b1)
        assert [p["label"] for p in swept["points"]] == ["1:0", "1:8", "2:0", "2:8"]
        envelope = json.loads(b2)
        areas = [p["area_rbe"] for p in envelope["points"]]
        tpis = [p["tpi_ns"] for p in envelope["points"]]
        assert areas == sorted(areas)
        assert tpis == sorted(tpis, reverse=True)
        assert json.loads(h1["x-repro-sources"]) == {"cold": 4}

    def test_envelope_is_best_envelope_through_a_tpi_tie(self, tmp_path, monkeypatch):
        """/v1/envelope keeps the corners best_envelope keeps, ties included."""
        import repro.serve.compute as compute

        request = {"workload": "gcc1", "scale": 0.02, "l1_sizes_kb": [1, 2], "l2_sizes_kb": [0, 8]}
        configs, _, _ = normalize_sweep(request)
        by_area = sorted(configs, key=system_area_rbe)
        # The second- and third-smallest points tie: only the smaller stays.
        tpis = dict(zip((c.label for c in by_area), (5.0, 4.0, 4.0, 3.0)))
        real_record = compute.point_record

        def tied_record(perf):
            return dict(real_record(perf), tpi_ns=tpis[perf.label])

        monkeypatch.setattr(compute, "point_record", tied_record)
        with BackgroundServer(tmp_path / "store") as server:
            _, _, swept = server.request("POST", "/v1/sweep", request)
            status, _, body = server.request("POST", "/v1/envelope", request)
        assert status == 200
        points = [SimpleNamespace(**record) for record in json.loads(swept)["points"]]
        expected = [corner.label for corner in best_envelope(points)]
        assert [p["label"] for p in json.loads(body)["points"]] == expected
        assert expected == [by_area[0].label, by_area[1].label, by_area[3].label]

    def test_error_model(self, tmp_path):
        with BackgroundServer(tmp_path / "store") as server:
            bad_json = server.request("POST", "/v1/evaluate", None)
            bad_config = server.request("POST", "/v1/evaluate", {"l1_kb": 3})
            missing = server.request("GET", "/nope")
        assert bad_json[0] == 200 or bad_json[0] == 400  # empty body = defaults
        assert bad_config[0] == 400
        error = json.loads(bad_config[2])["error"]
        assert error["type"] == "BadRequestError"
        assert "traceback" not in bad_config[2].decode().lower()
        assert missing[0] == 404

    def test_deadline_is_a_504_with_retry_after(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "slowworker=*:1.0")
        policy = ServePolicy(deadline_s=0.2, retries=0)
        with BackgroundServer(tmp_path / "store", policy=policy) as server:
            status, headers, body = server.request("POST", "/v1/evaluate", PAYLOAD)
        assert status == 504
        assert "retry-after" in headers
        assert json.loads(body)["error"]["type"] == "DeadlineError"

    def test_pool_death_degrades_but_still_answers(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "pooldeath=*:1")
        with BackgroundServer(tmp_path / "store", workers=2) as server:
            status, headers, body = server.request("POST", "/v1/evaluate", PAYLOAD)
            health = json.loads(server.request("GET", "/healthz")[2])
        assert status == 200
        assert body == reference_bytes()
        assert health["status"] == "degraded"
        assert "pool died" in health["degraded_reason"]
        assert health["pool_deaths"] >= 1

    def test_poisoned_entry_recomputed_not_served(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "poisonmemo=*:1")
        with BackgroundServer(tmp_path / "store") as server:
            s1, h1, b1 = server.request("POST", "/v1/evaluate", PAYLOAD)
            s2, h2, b2 = server.request("POST", "/v1/evaluate", PAYLOAD)
            health = json.loads(server.request("GET", "/healthz")[2])
        assert (s1, s2) == (200, 200)
        assert b1 == b2 == reference_bytes()
        assert h2["x-repro-source"] == "cold"  # the poisoned entry was not trusted
        assert health["memo"]["quarantined"] == 1


def _kill_one_of_two(rendezvous, payload):
    """``compute_point``, except that the first two calls to be in flight
    together meet, and one kills its worker (once per process tree)."""
    from repro.serve.compute import compute_point

    here = Path(rendezvous)
    killed = here / "killed"
    if not killed.exists():
        (here / f"running-{os.getpid()}").touch()
        give_up = time.monotonic() + 30.0
        while len(list(here.glob("running-*"))) < 2 and time.monotonic() < give_up:
            time.sleep(0.01)
        try:
            os.close(os.open(killed, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            time.sleep(30.0)  # the sibling's death terminates this worker
        else:
            os._exit(86)
    return compute_point(payload)


class TestOneDeathPerExecutor:
    def test_concurrent_requests_count_one_death(self, tmp_path, monkeypatch):
        """Two requests on one broken executor: one death, one rebuild."""
        import functools

        import repro.serve.app as app_module

        rendezvous = tmp_path / "rendezvous"
        rendezvous.mkdir()
        monkeypatch.setattr(
            app_module,
            "compute_point",
            functools.partial(_kill_one_of_two, str(rendezvous)),
        )
        payloads = [PAYLOAD, dict(PAYLOAD, l2_kb=32)]
        with BackgroundServer(tmp_path / "store", workers=2) as server:
            failures = []
            record_failure = server.app.breaker.record_failure

            def count_failure():
                failures.append(None)
                record_failure()

            monkeypatch.setattr(server.app.breaker, "record_failure", count_failure)
            answers = {}

            def ask(index):
                try:
                    answers[index] = server.request(
                        "POST", "/v1/evaluate", payloads[index]
                    )
                except Exception as error:  # an answer never written
                    answers[index] = (None, {}, repr(error).encode())

            threads = [threading.Thread(target=ask, args=(i,)) for i in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            health = json.loads(server.request("GET", "/healthz")[2])
        assert (rendezvous / "killed").exists()
        assert health["pool_deaths"] == 1
        assert health["status"] == "ok"
        assert health["requests"]["abandoned"] == 0
        assert len(failures) == 1
        for index, payload in enumerate(payloads):
            status, _, body = answers[index]
            assert status == 200
            assert body == reference_bytes(payload)


class TestServedUnitJournal:
    """A cold point is a runner unit: retried in the worker, journalled once."""

    def test_transient_failure_is_retried_in_the_worker(self, tmp_path, monkeypatch):
        key = point_key(*normalize_point(PAYLOAD))
        monkeypatch.setenv(faults.ENV_VAR, f"fail={key}:1")
        with BackgroundServer(
            tmp_path / "store", workers=2, policy=ServePolicy(retries=1)
        ) as server:
            status, _, body = server.request("POST", "/v1/evaluate", PAYLOAD)
            health = json.loads(server.request("GET", "/healthz")[2])
        assert status == 200 and body == reference_bytes()
        journal = (tmp_path / "store" / "serve.journal.jsonl").read_text()
        entries = [json.loads(line) for line in journal.splitlines()[1:]]
        mine = [entry for entry in entries if entry["unit"] == key]
        assert len(mine) == 1
        assert mine[0]["status"] == "ok" and mine[0]["attempts"] == 2
        assert {"duration_s", "started_at", "ended_at"} <= set(mine[0])
        assert health["breaker"] == "closed"

    def test_pool_death_journals_a_timed_failure(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "pooldeath=*:1")
        with BackgroundServer(
            tmp_path / "store", workers=2, policy=ServePolicy(retries=0)
        ) as server:
            status, _, _ = server.request("POST", "/v1/evaluate", PAYLOAD)
        assert status == 503
        journal = (tmp_path / "store" / "serve.journal.jsonl").read_text()
        (entry,) = [json.loads(line) for line in journal.splitlines()[1:]]
        assert entry["status"] == "failed" and entry["attempts"] == 1
        assert entry["error"]["type"] == "BrokenProcessPool"
        assert "degraded_reason" in entry["error"]
        # Timed from when the unit was handed to the pool, not from 0.
        assert entry["started_at"] > 0
        assert entry["ended_at"] >= entry["started_at"]
        assert entry["elapsed_s"] == entry["error"]["elapsed_s"] > 0


class TestWatchdogDegradation:
    """Driving the pool past the RSS ceiling must degrade, not die."""

    def test_rss_breach_propagates_to_health_and_journal(self, tmp_path):
        watchdog = ResourceWatchdog(WatchdogPolicy(max_worker_rss_bytes=1))
        with BackgroundServer(
            tmp_path / "store", workers=2, watchdog=watchdog
        ) as server:
            status, _, body = server.request("POST", "/v1/evaluate", PAYLOAD)
            health = json.loads(server.request("GET", "/healthz")[2])
            # A later request is served serially, still byte-identical.
            other = dict(PAYLOAD, l2_kb=32)
            s2, _, b2 = server.request("POST", "/v1/evaluate", other)
        assert status == 200 and body == reference_bytes()
        assert s2 == 200 and b2 == reference_bytes(other)
        assert health["status"] == "degraded"
        assert "RSS" in health["degraded_reason"]
        journal = (tmp_path / "store" / "serve.journal.jsonl").read_text()
        entries = [json.loads(line) for line in journal.splitlines()[1:]]
        degraded = [
            e for e in entries if e.get("result", {}).get("degraded_reason")
        ]
        assert degraded, "journal must carry the degradation reason"
        assert "RSS" in degraded[-1]["result"]["degraded_reason"]


class TestServeLintClean:
    """Satellite: the serve/runner backoff paths must be REP002-clean."""

    def test_runner_and_serve_pass_determinism_lint(self):
        from repro.analysis import lint_paths

        report = lint_paths(["src/repro/runner", "src/repro/serve"], select=["REP002"])
        assert report.clean, [str(f) for f in report.findings]

    def test_global_rng_in_serve_code_is_flagged(self, tmp_path):
        from repro.analysis import lint_paths

        bad = tmp_path / "src" / "repro" / "serve" / "jitterbug.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import random\n\n\ndef backoff():\n    return random.random()\n"
        )
        report = lint_paths([str(bad)], select=["REP002"])
        assert not report.clean
        finding = report.findings[0]
        assert finding.rule == "REP002"
        assert "jitter_unit" in finding.message

    def test_clocks_are_allowed_in_exec_code_banned_in_models(self, tmp_path):
        from repro.analysis import lint_paths

        exec_mod = tmp_path / "src" / "repro" / "serve" / "deadline.py"
        exec_mod.parent.mkdir(parents=True)
        exec_mod.write_text(
            "import time\n\n\ndef now():\n    return time.monotonic()\n"
        )
        model_mod = tmp_path / "src" / "repro" / "cache" / "clocky.py"
        model_mod.parent.mkdir(parents=True)
        model_mod.write_text(
            "import time\n\n\ndef now():\n    return time.monotonic()\n"
        )
        assert lint_paths([str(exec_mod)], select=["REP002"]).clean
        assert not lint_paths([str(model_mod)], select=["REP002"]).clean


def _touch(path):
    path.write_text("x")
    return path


#: Blocking calls the loop I/O guard must record, by the name it records.
BLOCKING_ON_LOOP = {
    "open-write": ("open", lambda d: (d / "w.txt").write_text("x")),
    "open-read": ("open", lambda d: _touch(d / "r.txt").read_text()),
    "replace": ("os.rename", lambda d: os.replace(_touch(d / "a"), d / "b")),
    "unlink": ("os.remove", lambda d: os.unlink(_touch(d / "u"))),
    "mkdir": ("os.mkdir", lambda d: (d / "sub").mkdir()),
    "popen": ("subprocess.Popen", lambda d: subprocess.run([sys.executable, "-c", ""])),
    "sleep": ("time.sleep", lambda d: time.sleep(0.001)),
    "exists": ("os.stat", lambda d: (d / "nothing").exists()),
    "lstat": ("os.lstat", lambda d: os.path.islink(d / "nothing")),
    "scandir": ("os.scandir", lambda d: list(os.walk(d))),
}


class TestLoopIOGuard:
    """The serve-loop I/O guard sees each blocking call the async-safety
    lint rule once caught, and lets a memo probe and a lazy import be."""

    @pytest.fixture(scope="class")
    def server(self, tmp_path_factory):
        with BackgroundServer(tmp_path_factory.mktemp("guard") / "store") as server:
            yield server

    @staticmethod
    def on_loop(server, fn):
        """Run ``fn`` on the server's event loop; what the guard recorded."""

        async def call():
            fn()

        asyncio.run_coroutine_threadsafe(call(), server._loop).result(timeout=60)
        return LOOP_IO.take()

    @pytest.mark.parametrize("case", sorted(BLOCKING_ON_LOOP))
    def test_blocking_call_on_the_loop_is_recorded(self, server, tmp_path, case):
        event, fn = BLOCKING_ON_LOOP[case]
        recorded = self.on_loop(server, lambda: fn(tmp_path))
        assert any(line.startswith(event + " ") for line in recorded), recorded

    @pytest.mark.parametrize("case", sorted(BLOCKING_ON_LOOP))
    def test_off_the_loop_nothing_is_recorded(self, server, tmp_path, case):
        BLOCKING_ON_LOOP[case][1](tmp_path)
        assert LOOP_IO.events == []

    def test_a_memo_probe_is_not_recorded(self, server):
        key = point_key(CONFIG, "gcc1", 0.02)
        server.app.memo.store(key, {"kind": "evaluate", "label": "probe"})
        found = []
        assert self.on_loop(server, lambda: found.append(server.app.memo.probe(key))) == []
        assert found[0][0]["label"] == "probe"

    def test_a_lazy_import_is_not_recorded(self, server, tmp_path, monkeypatch):
        (tmp_path / "guard_lazy_module.py").write_text("VALUE = 1\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.delitem(sys.modules, "guard_lazy_module", raising=False)
        assert self.on_loop(server, lambda: __import__("guard_lazy_module")) == []
        assert sys.modules["guard_lazy_module"].VALUE == 1


class TestServeChaosSoak:
    """The seeded serve soak holds its contract and reproduces."""

    def test_soak_passes_and_serves_zero_wrong_answers(self, tmp_path):
        from repro.obs.telemetry import Telemetry
        from repro.study.chaos import run_chaos

        telemetry = Telemetry()
        result = run_chaos(
            tmp_path, seed=3, rounds=3, workers=2, scale=0.02, serve=True,
            telemetry=telemetry,
        )
        assert result.converged, result.render()
        # Wrong answers, refusals without Retry-After, unexpected
        # statuses and unavailable queries are all mismatches.
        assert result.mismatches == []
        assert result.counts["requests"] > 0 and result.counts["ok"] > 0
        record = result.to_record()
        assert record["kind"] == "serve-chaos"
        assert record["converged"] is True
        # The shared round loop counts the serve soak's faults too: the
        # fail= round's exhausted retries are journalled, so observed.
        assert any(schedule.startswith("fail=") for schedule in result.schedules)
        samples = {
            (sample["name"], tuple(sorted(sample["labels"].items()))): sample
            for sample in telemetry.registry.snapshot()
        }
        assert ("repro_chaos_faults_scheduled_total", (("kind", "fail"),)) in samples
        assert ("repro_chaos_faults_observed_total", ()) in samples
        spans = [r for r in telemetry.tracer.records() if r["name"] == "chaos_round"]
        assert len(spans) == 3

    def test_pool_death_round_is_observed(self, tmp_path):
        # Seed 7 opens with pooldeath=: the resubmitted point journals the
        # worker's single attempt, so only serve's pool-death count shows
        # that the fault fired.
        from repro.obs.telemetry import Telemetry
        from repro.study.chaos import run_chaos

        telemetry = Telemetry()
        result = run_chaos(
            tmp_path, seed=7, rounds=1, workers=2, scale=0.02, serve=True,
            telemetry=telemetry,
        )
        assert result.converged, result.render()
        assert result.schedules == ["pooldeath=*:1"]
        (span,) = [r for r in telemetry.tracer.records() if r["name"] == "chaos_round"]
        assert int(span["attrs"]["observed"]) >= 1
        samples = {sample["name"]: sample for sample in telemetry.registry.snapshot()}
        assert samples["repro_chaos_faults_observed_total"]["value"] >= 1

    def test_same_seed_draws_the_same_schedules(self, tmp_path):
        from repro.study.chaos import run_chaos

        a = run_chaos(
            tmp_path / "a", seed=7, rounds=2, workers=None, scale=0.02, serve=True
        )
        b = run_chaos(
            tmp_path / "b", seed=7, rounds=2, workers=None, scale=0.02, serve=True
        )
        assert a.schedules == b.schedules
        assert a.schedules == ["pooldeath=*:1", "poisonmemo=*:1"]

    def test_ci_seeds_draw_pinned_schedules(self):
        # CI's serve soaks (seeds 1-3, --rounds 4, scale 0.05) must draw
        # pooldeath= and fail=; a schedule depends on the seed alone.
        from repro.study.chaos import _POINTS, _serve_schedule
        from repro.units import kb

        keys = sorted(
            point_key(SystemConfig(l1_bytes=kb(l1), l2_bytes=kb(l2)), "gcc1", 0.05)
            for l1, l2 in _POINTS
        )
        drawn = {}
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            drawn[seed] = [_serve_schedule(rng, keys) for _ in range(4)]
        assert drawn == {
            1: ["slowworker=*:0.3", "", "pooldeath=*:1", "poisonmemo=*:2"],
            2: ["", "", "", "pooldeath=*:1"],
            3: [
                "slowworker=*:0.3",
                "fail=4859eeeaf38e41fe:9",
                "pooldeath=*:2",
                "poisonmemo=*:1,slowworker=*:0.1",
            ],
        }


class TestObservabilityEndpoints:
    """Tentpole: /metrics and /v1/stats counters provably move under load."""

    def test_memo_hit_and_miss_counters_move_over_http(self, tmp_path):
        with BackgroundServer(tmp_path / "store") as server:
            s0, h0, b0 = server.request("GET", "/metrics")
            s1, h1, _ = server.request("POST", "/v1/evaluate", PAYLOAD)
            s2, h2, _ = server.request("POST", "/v1/evaluate", PAYLOAD)
            text = server.request("GET", "/metrics")[2].decode()
            stats = json.loads(server.request("GET", "/v1/stats")[2])
            health = json.loads(server.request("GET", "/healthz")[2])
        assert (s0, s1, s2) == (200, 200, 200)
        assert h0["content-type"].startswith("text/plain")
        assert "repro_serve_memo_hits_total 0" in b0.decode()
        # One cold compute, one memo hit — and the scrape says so.
        assert "repro_serve_memo_hits_total 1" in text
        assert "repro_serve_cold_total 1" in text
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_request_seconds_count" in text
        assert stats["requests"]["cold"] == 1 and stats["requests"]["memo"] == 1
        # A cold request probes the memo twice (pre-admission and in
        # the resolution path), so one hit in three lookups.
        assert stats["memo"]["hit_rate"] == 0.3333
        assert stats["uptime_s"] > 0
        assert stats["breaker"] == "closed"
        assert stats["spans_recorded"] >= 3  # one span per request so far
        # Satellite: /healthz grew the same live signals.
        assert health["uptime_s"] > 0
        assert health["in_flight"] >= 1  # the health request itself
        assert health["memo"]["hit_rate"] == 0.3333

    def test_one_memo_walk_per_scrape(self, tmp_path, monkeypatch):
        """Counting the memo entries walks the store: once per request."""
        walks = []
        real_len = MemoStore.__len__

        def counted_len(store):
            walks.append(1)
            return real_len(store)

        monkeypatch.setattr(MemoStore, "__len__", counted_len)
        with BackgroundServer(tmp_path / "store") as server:
            server.request("POST", "/v1/evaluate", PAYLOAD)
            for path in ("/v1/stats", "/metrics", "/healthz"):
                walks.clear()
                assert server.request("GET", path)[0] == 200
                assert len(walks) == 1, path

    def test_every_request_is_tagged_with_a_fresh_id(self, tmp_path):
        with BackgroundServer(tmp_path / "store") as server:
            _, h1, _ = server.request("GET", "/healthz")
            _, h2, _ = server.request("GET", "/healthz")
        assert h1["x-repro-request"].startswith("req-")
        assert h1["x-repro-request"] != h2["x-repro-request"]

    def test_shed_counter_moves_under_overload(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "slowworker=*:0.5")
        policy = ServePolicy(max_active=1, max_waiting=0, retries=0)
        with BackgroundServer(tmp_path / "store", policy=policy) as server:
            results = []

            def fire(l2_kb):
                results.append(
                    server.request(
                        "POST", "/v1/evaluate", dict(PAYLOAD, l2_kb=l2_kb)
                    )
                )

            threads = [
                threading.Thread(target=fire, args=(l2,)) for l2 in (16, 32, 64)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            text = server.request("GET", "/metrics")[2].decode()
            stats = json.loads(server.request("GET", "/v1/stats")[2])
        statuses = sorted(status for status, _, _ in results)
        assert statuses[0] == 200 and statuses[-1] == 503
        shed = [
            line
            for line in text.splitlines()
            if line.startswith("repro_serve_shed_total")
        ]
        assert shed and float(shed[0].split()[-1]) >= 1
        assert stats["admission"]["shed"] >= 1

    def test_breaker_transitions_are_counted(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "pooldeath=*:1")
        policy = ServePolicy(
            retries=0, breaker_threshold=1, breaker_cooldown_s=60.0
        )
        with BackgroundServer(
            tmp_path / "store", workers=2, policy=policy
        ) as server:
            s1, _, b1 = server.request("POST", "/v1/evaluate", PAYLOAD)
            s2, _, b2 = server.request(
                "POST", "/v1/evaluate", dict(PAYLOAD, l2_kb=32)
            )
            text = server.request("GET", "/metrics")[2].decode()
            stats = json.loads(server.request("GET", "/v1/stats")[2])
        assert s1 == 503
        assert json.loads(b1)["error"]["type"] == "UpstreamError"
        assert s2 == 503  # breaker open: fail fast, no compute attempted
        assert json.loads(b2)["error"]["type"] == "BreakerOpenError"
        assert stats["breaker"] == "open"
        assert (
            'repro_serve_breaker_transitions_total{from="closed",to="open"} 1'
            in text
        )
        assert "repro_serve_breaker_state 2" in text


class TestLifecycleDrain:
    """Graceful shutdown: 503 during drain, freed slots, honest counters."""

    def test_draining_refuses_compute_but_keeps_reads(self, tmp_path):
        with BackgroundServer(tmp_path / "store") as server:
            warm = server.request("POST", "/v1/evaluate", PAYLOAD)
            server.call(server.app.begin_drain, "received SIGTERM")
            health = json.loads(server.request("GET", "/healthz")[2])
            status, headers, body = server.request(
                "POST", "/v1/evaluate", dict(PAYLOAD, l2_kb=32)
            )
            metrics = server.request("GET", "/metrics")
        assert warm[0] == 200
        assert health["status"] == "draining"
        assert health["draining"] is True
        assert status == 503
        assert "retry-after" in headers
        error = json.loads(body)["error"]
        assert error["type"] == "DrainingError"
        assert "received SIGTERM" in error["message"]
        assert metrics[0] == 200  # read-only endpoints outlive the drain

    def test_deadline_frees_the_pool_slot(self, tmp_path, monkeypatch):
        # Wedge only the first request's compute (2.0s against a 0.4s
        # budget); the budget travels into the worker as timeout_s, so
        # the 504 frees the single slot for the second request.
        key = point_key(*normalize_point(PAYLOAD))
        monkeypatch.setenv(faults.ENV_VAR, f"slowworker={key}:2.0")
        policy = ServePolicy(deadline_s=0.4, retries=0)
        with BackgroundServer(
            tmp_path / "store", workers=1, policy=policy
        ) as server:
            s1, h1, _ = server.request("POST", "/v1/evaluate", PAYLOAD)
            other = dict(PAYLOAD, l2_kb=32)
            started = time.monotonic()
            s2, _, b2 = server.request("POST", "/v1/evaluate", other)
            elapsed = time.monotonic() - started
            stats = json.loads(server.request("GET", "/v1/stats")[2])
        assert s1 == 504 and "retry-after" in h1
        assert s2 == 200 and b2 == reference_bytes(other)
        # Well under the 2.0s wedge: the slot was freed at the deadline,
        # the second compute never queued behind the abandoned one.
        assert elapsed < 1.5
        assert stats["requests"]["timeouts"] >= 1

    def test_abandoned_pool_futures_are_counted(self, tmp_path):
        with BackgroundServer(tmp_path / "store", workers=2) as server:
            warm = server.request("POST", "/v1/evaluate", PAYLOAD)

            def abandon():
                app = server.app
                future = asyncio.get_running_loop().create_future()
                app._pool_futures.add(future)
                app._degrade("pool thrown away mid-compute (test)")
                future.cancel()
                app._pool_futures.discard(future)
                return app.stats["abandoned"]

            abandoned = server.call(abandon)
            stats = json.loads(server.request("GET", "/v1/stats")[2])
            text = server.request("GET", "/metrics")[2].decode()
        assert warm[0] == 200
        assert abandoned == 1
        assert stats["requests"]["abandoned"] == 1
        assert "repro_serve_abandoned_total 1" in text


class TestServeSignalShutdown:
    """`repro serve` drains on SIGTERM and exits 0 (satellite)."""

    def test_sigterm_drains_and_exits_cleanly(self, tmp_path):
        repo_root = Path(__file__).resolve().parents[1]
        env = os.environ.copy()
        env["PYTHONPATH"] = str(repo_root / "src")
        env.pop(faults.ENV_VAR, None)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(tmp_path / "store"),
                "--port", "0", "--workers", "serial",
            ],
            cwd=tmp_path,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "listening" in line, line
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "draining" in out
