"""The lean warm memo hit: one verified read, shared bodies, request memos.

``oracle_load`` is the memo read as it was before digest-keyed bodies:
an ``exists()`` stat, the sidecar, a streamed ``hash_file``, a second
read of the file and a fresh ``json.loads``.  The differential tests
hold :meth:`MemoStore.read`, and the serve lookup (``probe`` on the
event loop, then ``read`` only when the probe did not verify), to it,
damage shape by damage shape, both on a first read and once the entry's
body is already cached.
"""

import asyncio
import http.client
import json
import socket
import sys
import threading
import time

import pytest

import repro.serve.memo as memo_module
from repro.core.config import SystemConfig
from repro.core.evaluate import evaluate
from repro.errors import IntegrityError
from repro.runner import faults, write_text_atomic
import repro.runner.integrity as integrity
from repro.runner.integrity import hash_file, untrack, verify_tree, write_manifest, write_sidecar
from repro.serve import BackgroundServer, MemoStore, ServePolicy, canonical_json, point_record

PAYLOAD = {"l1_kb": 2, "l2_kb": 16, "workload": "gcc1", "scale": 0.02}
RECORD = {"schema": 1, "kind": "evaluate", "label": "2:16", "tpi_ns": 4.2, "area_rbe": 1e5}
SWEEP = {"workload": "gcc1", "scale": 0.02, "l1_sizes_kb": [1, 2], "l2_sizes_kb": [0]}


@pytest.fixture(autouse=True)
def _no_leaked_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


def reference_bytes():
    config = SystemConfig(l1_bytes=2048, l2_bytes=16384)
    perf = evaluate(config, PAYLOAD["workload"], scale=PAYLOAD["scale"])
    return canonical_json(point_record(perf)).encode("utf-8")


def oracle_load(store, key):
    """The previous ``MemoStore.load``, kept as the oracle.  Its one edit:
    dropping an undecodable entry drops its manifest entry too."""
    path = store.path(key)
    if not path.exists():
        store.misses += 1
        return None
    try:
        recorded = memo_module.read_sidecar(path)
        digest = None if recorded is None else hash_file(path)
    except IntegrityError:
        store._demote_corrupt(key)
        store.misses += 1
        return None
    except FileNotFoundError:
        store.misses += 1
        return None
    if recorded is None or digest != recorded:
        if recorded is not None:
            store._demote_corrupt(key)
        store.misses += 1
        return None
    try:
        record = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        record = None
    if not isinstance(record, dict) or "kind" not in record:
        path.unlink(missing_ok=True)
        untrack(path)
        memo_module.refresh_manifest_entry(path)
        store.misses += 1
        return None
    store.hits += 1
    return record


def _flip(path, index=None):
    data = bytearray(path.read_bytes())
    data[len(data) // 2 if index is None else index] ^= 0x01
    path.write_bytes(bytes(data))


def _vouched(path, text):
    write_text_atomic(path, text, track=False)
    write_sidecar(path)


def _entry_bit_flip(store, monkeypatch):
    _flip(store.path("k1"))


def _sidecar_bit_flip(store, monkeypatch):
    _flip(store.root / "k1.json.sha256", index=0)


def _missing_sidecar(store, monkeypatch):
    (store.root / "k1.json.sha256").unlink()


def _vanishes_mid_read(store, monkeypatch):
    read_sidecar = memo_module.read_sidecar

    def read_then_quarantine(path):
        digest = read_sidecar(path)
        path.unlink(missing_ok=True)  # a concurrent repair moves the entry away
        return digest

    monkeypatch.setattr(memo_module, "read_sidecar", read_then_quarantine)


def _hash_valid_garbage(store, monkeypatch):
    _vouched(store.path("k1"), "[1, 2, 3]\n")


def _indented_json(store, monkeypatch):
    _vouched(store.path("k1"), json.dumps(RECORD, indent=2) + "\n")


DAMAGE = {
    "entry-bit-flip": _entry_bit_flip,
    "sidecar-bit-flip": _sidecar_bit_flip,
    "missing-sidecar": _missing_sidecar,
    "vanishes-mid-read": _vanishes_mid_read,
    "hash-valid-garbage": _hash_valid_garbage,
    "indented-json": _indented_json,
}


def _lookup(store, key):
    """``repro serve``'s lookup: ``probe`` first, ``read`` if it did not verify."""
    entry = store.probe(key)
    return entry if entry is not None else store.read(key)


def _tree(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestReadMatchesOracle:
    @staticmethod
    def _matches_oracle(tmp_path, monkeypatch, shape, cached, lookup):
        old = MemoStore(tmp_path / "old")
        new = MemoStore(tmp_path / "new")
        for store in (old, new):
            store.store("k1", RECORD)
        if cached:
            assert oracle_load(old, "k1") == RECORD
            assert lookup(new, "k1") == (RECORD, canonical_json(RECORD).encode("utf-8"))
        with monkeypatch.context() as patch:
            DAMAGE[shape](old, patch)
            expected = oracle_load(old, "k1")
        with monkeypatch.context() as patch:
            DAMAGE[shape](new, patch)
            entry = lookup(new, "k1")
        if expected is None:
            assert entry is None
        else:
            record, body = entry
            assert record == expected
            assert body == canonical_json(expected).encode("utf-8")
        counters = (new.hits, new.misses, new.quarantined)
        assert counters == (old.hits, old.misses, old.quarantined)
        assert _tree(new.root) == _tree(old.root)
        # The store settles the same way: the next read agrees too.
        expected = oracle_load(old, "k1")
        assert new.load("k1") == expected

    @pytest.mark.parametrize("cached", [False, True], ids=["first-read", "after-a-hit"])
    @pytest.mark.parametrize("shape", sorted(DAMAGE))
    def test_damage_shape(self, tmp_path, monkeypatch, shape, cached):
        self._matches_oracle(tmp_path, monkeypatch, shape, cached, MemoStore.read)

    @pytest.mark.parametrize("cached", [False, True], ids=["first-read", "after-a-hit"])
    @pytest.mark.parametrize("shape", sorted(DAMAGE))
    def test_probe_then_read(self, tmp_path, monkeypatch, shape, cached):
        self._matches_oracle(tmp_path, monkeypatch, shape, cached, _lookup)

    @pytest.mark.parametrize("cached", [False, True], ids=["first-read", "after-a-hit"])
    @pytest.mark.parametrize("shape", sorted(DAMAGE))
    def test_probe_alone_changes_nothing(self, tmp_path, monkeypatch, shape, cached):
        store = MemoStore(tmp_path / "memo")
        store.store("k1", RECORD)
        if cached:
            assert store.probe("k1") == (RECORD, canonical_json(RECORD).encode("utf-8"))
        hits = store.hits
        with monkeypatch.context() as patch:
            DAMAGE[shape](store, patch)
            before = _tree(store.root)
            if shape == "vanishes-mid-read":
                del before["k1.json"]  # the concurrent repair's move, not the probe's
            entry = store.probe("k1")
        assert _tree(store.root) == before
        assert (store.misses, store.quarantined) == (0, 0)
        # Only the hash-valid, decodable reshaping verifies (and counts).
        assert (entry is not None) == (shape == "indented-json")
        assert store.hits == hits + (entry is not None)

    def test_hash_valid_non_utf8_is_dropped_not_raised(self, tmp_path):
        # The oracle raised UnicodeDecodeError here (read_text outside
        # its except clause); the one-read path treats it as garbage.
        store = MemoStore(tmp_path / "memo")
        path = store.path("k1")
        path.write_bytes(b'{"kind": "\xff"}\n')
        write_sidecar(path)
        with pytest.raises(UnicodeDecodeError):
            oracle_load(MemoStore(tmp_path / "memo"), "k1")
        assert store.read("k1") is None
        assert not path.exists() and store.misses == 1

    def test_rotten_sidecar_of_a_missing_entry_is_a_plain_miss(self, tmp_path):
        store = MemoStore(tmp_path / "memo")
        store.store("k1", RECORD)
        store.path("k1").unlink()
        (store.root / "k1.json.sha256").write_text("not a digest line")
        assert store.read("k1") is None
        assert (store.hits, store.misses, store.quarantined) == (0, 1, 0)


class TestVerifiedBodies:
    def test_equal_bytes_share_one_entry(self, tmp_path):
        store = MemoStore(tmp_path / "memo")
        store.store("k1", RECORD)
        store.store("k2", RECORD)
        first, second = store.read_many(["k1", "k2"])
        assert first is second
        assert store.read("k1") is first  # reused, not re-decoded

    def test_cache_stays_within_its_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(MemoStore, "VERIFIED_ENTRIES", 3)
        store = MemoStore(tmp_path / "memo")
        for i in range(8):
            record = dict(RECORD, tpi_ns=float(i))
            store.store(f"k{i}", record)
            assert store.load(f"k{i}") == record
            assert len(store._verified) <= 3
        assert [store.load(f"k{i}")["tpi_ns"] for i in range(8)] == [float(i) for i in range(8)]
        assert store.hits == 16 and store.misses == 0

    def test_rot_after_a_hit_is_still_caught(self, tmp_path):
        store = MemoStore(tmp_path / "memo")
        store.store("k1", RECORD)
        assert store.read("k1") is not None
        _flip(store.path("k1"))
        assert store.read("k1") is None
        assert store.quarantined == 1

    def test_quarantine_touches_only_the_entry_read(self, tmp_path):
        store = MemoStore(tmp_path / "memo")
        for key in ("k1", "k2", "k3"):
            store.store(key, dict(RECORD, label=key))
        _flip(store.path("k1"))
        _flip(store.path("k2"))
        rotten_k2 = store.path("k2").read_bytes()
        assert store.read("k1") is None
        quarantine = store.root / "quarantine"
        assert sorted(p.name for p in quarantine.iterdir()) == ["k1.json"]
        assert store.path("k2").read_bytes() == rotten_k2  # left until read
        manifest = json.loads((store.root / "MANIFEST.json").read_text())
        assert sorted(manifest["artifacts"]) == ["k2.json", "k3.json"]
        assert store.quarantined == 1
        assert store.read("k2") is None
        assert sorted(p.name for p in quarantine.iterdir()) == ["k1.json", "k2.json"]
        assert store.quarantined == 2
        assert store.load("k3") == dict(RECORD, label="k3")


class TestManifestPerEntry:
    """A store, a drop and a quarantine each re-enter one manifest entry."""

    @staticmethod
    def _rebuilt(root):
        kept = (root / "MANIFEST.json").read_bytes()
        write_manifest(root)
        return kept, (root / "MANIFEST.json").read_bytes()

    def test_manifest_equals_a_rebuild(self, tmp_path):
        store = MemoStore(tmp_path / "memo")
        for i in range(12):
            store.store(f"k{i}", dict(RECORD, tpi_ns=float(i)))
        store.store("k3", dict(RECORD, tpi_ns=30.0))  # a re-store
        _vouched(store.path("k5"), "[1, 2, 3]\n")  # undecodable: dropped
        _flip(store.path("k7"))  # rotten: quarantined
        _flip(store.root / "k9.json.sha256", index=0)  # rotten sidecar: rewritten
        assert [store.read(key) for key in ("k5", "k7", "k9")] == [None] * 3
        assert not store.path("k5").exists()
        assert (store.root / "quarantine" / "k7.json").exists()
        assert store.load("k9") == dict(RECORD, tpi_ns=9.0)  # its sidecar was rewritten
        assert store.quarantined == 1  # k7 alone; k9's rewrite is a repair
        kept, full = self._rebuilt(store.root)
        assert kept == full
        assert sorted(json.loads(kept)["artifacts"]) == sorted(
            f"k{i}.json" for i in range(12) if i not in (5, 7)
        )
        assert verify_tree(store.root).clean

    def test_a_store_reads_one_sidecar(self, tmp_path, monkeypatch):
        read_sidecar = integrity.read_sidecar
        calls = []

        def counted(path):
            calls.append(path)
            return read_sidecar(path)

        monkeypatch.setattr(integrity, "read_sidecar", counted)
        store = MemoStore(tmp_path / "memo")
        per_store = []
        for i in range(40):
            del calls[:]
            store.store(f"k{i}", dict(RECORD, tpi_ns=float(i)))
            per_store.append(len(calls))
        assert per_store == [1] * 40
        kept, full = self._rebuilt(store.root)
        assert kept == full

    def test_an_unreadable_manifest_is_rebuilt(self, tmp_path):
        store = MemoStore(tmp_path / "memo")
        store.store("k1", RECORD)
        (store.root / "MANIFEST.json").write_text("{torn")
        store.store("k2", dict(RECORD, label="k2"))
        kept, full = self._rebuilt(store.root)
        assert kept == full
        assert sorted(json.loads(kept)["artifacts"]) == ["k1.json", "k2.json"]


class TestWarmHitOnTheLoop:
    def test_warm_hits_make_no_io_thread_hop(self, tmp_path):
        with BackgroundServer(tmp_path / "store") as server:
            assert server.request("POST", "/v1/evaluate", PAYLOAD)[0] == 200
            executor = server.app._io_executor
            submitted = []
            submit = executor.submit

            def counting_submit(fn, *args, **kwargs):
                submitted.append(fn)
                return submit(fn, *args, **kwargs)

            executor.submit = counting_submit
            replies = [server.request("POST", "/v1/evaluate", PAYLOAD) for _ in range(50)]
        assert submitted == []
        assert all(status == 200 for status, _, _ in replies)
        assert all(headers["x-repro-source"] == "memo" for _, headers, _ in replies)
        assert all(body == reference_bytes() for _, _, body in replies)

    def test_probe_races_a_restore_of_the_same_record(self, tmp_path):
        store = MemoStore(tmp_path / "memo")
        store.store("k1", RECORD)
        body = canonical_json(RECORD).encode("utf-8")
        done = threading.Event()
        restores = []

        def restore():
            # The I/O thread's side: rewrite K (entry, sidecar, manifest)
            # and read it back, while the loop keeps probing.
            while not done.is_set():
                store.store("k1", RECORD)
                restores.append(store.read("k1"))

        async def probe_many():
            # At least 1,000 probes, and on until K was re-stored 3 times.
            answers = []
            while (len(answers) < 1000 or len(restores) < 3) and writer.is_alive():
                answers.append(store.probe("k1"))
                await asyncio.sleep(0)
            return answers

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        writer = threading.Thread(target=restore)
        writer.start()
        try:
            answers = asyncio.run(probe_many())
        finally:
            done.set()
            writer.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not writer.is_alive()
        assert len(answers) >= 1000 and len(restores) >= 3
        assert all(answer is not None and answer[1] == body for answer in answers)
        assert all(entry is not None and entry[1] == body for entry in restores)
        assert (store.hits, store.misses, store.quarantined) == (len(answers) + len(restores), 0, 0)


def _raw_post(port, path, body):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        connection.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.getheader("X-Repro-Source"), response.read()
    finally:
        connection.close()


class TestPointMemo:
    def test_a_bad_body_is_refused_every_time(self, tmp_path):
        body = json.dumps({"l1_kb": 3}).encode()
        with BackgroundServer(tmp_path / "store") as server:
            before = server.app.stats["errors"]
            replies = [_raw_post(server.port, "/v1/evaluate", body) for _ in range(2)]
            errors = server.app.stats["errors"] - before
            remembered = server.call(lambda: len(server.app._points))
        assert [status for status, _, _ in replies] == [400, 400]
        assert replies[0][2] == replies[1][2]
        assert errors == 2
        assert remembered == 0

    def test_an_undecodable_body_is_a_400(self, tmp_path):
        with BackgroundServer(tmp_path / "store") as server:
            status, _, reply = _raw_post(server.port, "/v1/evaluate", b'{"l1_kb": "\xff"}')
        assert status == 400
        assert json.loads(reply)["error"]["type"] == "BadRequestError"

    def test_filling_past_the_bound_keeps_answers_identical(self, tmp_path):
        base = json.dumps(PAYLOAD).encode()
        with BackgroundServer(tmp_path / "store") as server:
            app = server.app
            bodies = [base + b" " * i for i in range(app.POINT_MEMO_ENTRIES + 50)]
            first = _raw_post(server.port, "/v1/evaluate", bodies[0])

            def fill():
                for body in bodies:
                    app._normalized_point(body)
                return len(app._points)

            filled = server.call(fill)
            # An evicted spelling, a remembered one and a body too large
            # to remember all answer the same bytes.
            too_large = base + b" " * app.POINT_MEMO_MAX_BODY
            replies = [
                _raw_post(server.port, "/v1/evaluate", body)
                for body in (bodies[0], bodies[-1], too_large)
            ]
            size = server.call(lambda: len(app._points))
            longest = server.call(lambda: max(len(body) for body in app._points))
        assert first[0] == 200
        assert filled <= app.POINT_MEMO_ENTRIES and size <= app.POINT_MEMO_ENTRIES
        assert longest <= app.POINT_MEMO_MAX_BODY
        assert all(reply == (200, "memo", reference_bytes()) for reply in replies)

    def test_shared_records_are_never_mutated(self, tmp_path):
        with BackgroundServer(tmp_path / "store") as server:
            server.request("POST", "/v1/sweep", SWEEP)
            point = {"l1_kb": 1, "l2_kb": 0, "workload": "gcc1", "scale": 0.02}
            reads = (("/v1/tpi", point), ("/v1/sweep", SWEEP), ("/v1/envelope", SWEEP))
            before = server.request("POST", "/v1/evaluate", point)
            others = [server.request("POST", path, body) for path, body in reads]
            after = server.request("POST", "/v1/evaluate", point)
            again = [server.request("POST", path, body) for path, body in reads]
            entries = server.call(lambda: list(server.app.memo._verified.values()))
        assert before[0] == 200 and before[1]["x-repro-source"] == "memo"
        assert after[2] == before[2]
        assert [reply[2] for reply in again] == [reply[2] for reply in others]
        assert json.loads(others[1][1]["x-repro-sources"]) == {"memo": 2}
        assert len(entries) == 2
        for record, body in entries:
            assert canonical_json(record).encode("utf-8") == body


class TestSweepAdmission:
    def test_poisoned_point_of_a_memoized_sweep_meets_the_open_breaker(self, tmp_path):
        policy = ServePolicy(breaker_threshold=1, breaker_cooldown_s=60.0)
        with BackgroundServer(tmp_path / "store", policy=policy) as server:
            app = server.app
            status, _, body = server.request("POST", "/v1/sweep", SWEEP)
            assert status == 200
            _flip(next(p for p in app.memo.root.glob("*.json") if p.name != "MANIFEST.json"))
            submitted = []

            async def no_compute(request):
                submitted.append(request["key"])
                raise AssertionError("compute submitted past an open breaker")

            app._submit = no_compute
            server.call(app.breaker.record_failure)
            status, headers, reply = server.request("POST", "/v1/sweep", SWEEP)
            quarantined = app.memo.quarantined
        assert status == 503
        assert json.loads(reply)["error"]["type"] == "BreakerOpenError"
        assert "retry-after" in headers
        assert submitted == []
        assert quarantined == 1

    def test_only_a_sweep_with_a_miss_takes_an_admission_ticket(self, tmp_path):
        policy = ServePolicy(max_active=1, max_waiting=0)
        with BackgroundServer(tmp_path / "store", policy=policy) as server:
            app = server.app
            assert server.request("POST", "/v1/sweep", SWEEP)[0] == 200
            release = server.call(asyncio.Event)

            async def hold():
                async with app.admission.slot():
                    await release.wait()

            holder = asyncio.run_coroutine_threadsafe(hold(), server._loop)
            while server.call(lambda: app.admission.active) == 0:
                time.sleep(0.01)
            warm = server.request("POST", "/v1/sweep", SWEEP)
            entry = next(p for p in app.memo.root.glob("*.json") if p.name != "MANIFEST.json")
            entry.unlink()
            shed = server.request("POST", "/v1/sweep", SWEEP)
            server.call(release.set)
            holder.result(timeout=10)
        assert warm[0] == 200 and json.loads(warm[1]["x-repro-sources"]) == {"memo": 2}
        assert shed[0] == 503
        assert json.loads(shed[2])["error"]["type"] == "ShedError"


class TestOneDeadline:
    def test_a_stalled_request_is_closed_at_the_deadline(self, tmp_path):
        policy = ServePolicy(deadline_s=0.3)
        with BackgroundServer(tmp_path / "store", policy=policy) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as client:
                client.sendall(b"POST /v1/evaluate HTTP/1.1\r\nContent-Length: 40\r\n\r\n{")
                started = time.monotonic()
                reply = client.recv(1024)
                waited = time.monotonic() - started
            stats = json.loads(server.request("GET", "/v1/stats")[2])
            status, _, _ = server.request("POST", "/v1/evaluate", PAYLOAD)
        assert reply == b""  # no answer to a request that never arrived
        assert 0.2 < waited < 5.0
        assert stats["requests"]["timeouts"] == 0
        assert status == 200

    @pytest.mark.parametrize(
        "expire, shutdown, caused",
        [(True, False, True), (False, True, False), (True, True, False)],
        ids=["deadline", "shutdown", "both"],
    )
    def test_a_deadline_tells_its_cancellation_from_a_shutdown(self, expire, shutdown, caused):
        from repro.serve.app import _Deadline

        if expire and shutdown and not hasattr(asyncio.Task, "uncancel"):
            pytest.skip("cancellations are counted from Python 3.11 on")

        async def request():
            loop = asyncio.get_running_loop()
            deadline = _Deadline(60.0)
            if expire:
                loop.call_soon(deadline._expire)
            if shutdown:
                loop.call_soon(asyncio.current_task().cancel)
            try:
                await asyncio.sleep(10)
            except asyncio.CancelledError:
                return deadline.caused()
            finally:
                deadline.cancel()

        assert asyncio.run(request()) is caused
