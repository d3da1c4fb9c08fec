"""The benchmark's workloads and how one measured round of each runs.

Every round starts cold: each ``repro`` command is a fresh interpreter
in a fresh temporary directory, with ``TMPDIR``/``XDG_CACHE_HOME``
inside it and every ``REPRO_*`` variable removed from its environment,
so no in-process memo and no on-disk state carries from one round to
the next.  Users pay those memo fills on every CLI invocation, so the
benchmark pays them too.

Rounds are short (one to two seconds) so that a run holds many of them.
A CLI round runs the command cold, into an empty directory if it writes
one; its first ``SETUP_IMPORTS`` rounds each begin with one set-up
sample.  A serve round starts ``repro serve`` on an empty store,
computes a few design points cold through it, then replays a seeded
stream of requests for the same points, each answered from the
integrity-verified memo store.

Outputs are checked against golden digests: a speed-only change must
leave every simulated statistic byte-identical, so any digest change is
a failed run, not a new baseline.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: Client threads generating load: no more than the 2 CPUs it was sized for.
CLIENT_THREADS = 2

#: Fresh ``import repro.cli`` interpreters timed for a CLI workload's set-up,
#: one at the start of each of its first rounds.
SETUP_IMPORTS = 7

#: Per-run timeout as a multiple of the seed machine's median.
TIMEOUT_FACTOR = 5.0

#: Iterations of the pace loop, and its seconds on the seed host running
#: at full speed: a round's times are scaled by ``NOMINAL_PACE_S / pace``.
PACE_ITERATIONS = 600_000
NOMINAL_PACE_S = 0.11

#: Files of a run directory that are bookkeeping, not results.
_NOT_RESULTS = ("MANIFEST.json", "RUN.json")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``argv`` are the ``repro`` arguments of a CLI workload (the harness
    appends ``--out DIR`` to a ``report``); for ``serve_memo`` they are
    the server's.  ``digest`` is the golden sha256 of the results: the
    result files of a ``report``, the standard output of an ``eval``,
    the sorted response bodies of ``serve_memo``.  ``seed_s`` is the
    seed machine's median round, from which the per-run timeout derives.
    """

    name: str
    argv: Tuple[str, ...]
    digest: str
    seed_s: float

    @property
    def is_serve(self) -> bool:
        return self.argv[0] == "serve"

    @property
    def writes_out(self) -> bool:
        return self.argv[0] == "report"

    @property
    def timeout_s(self) -> float:
        return TIMEOUT_FACTOR * self.seed_s


#: The serve workload's design points, (L1 KB, L2 KB) of gcc1 at this
#: trace scale (L2 0 is single-level), and its warm request count.
SERVE_POINTS: Tuple[Tuple[int, int], ...] = ((1, 0), (2, 16))
SERVE_SCALE = 0.1
SERVE_WARM_REQUESTS = 400

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "point_timing",
            ("eval", "--workload", "gcc1", "--scale", "0.1", "--l1-kb", "8", "--l2-kb", "64"),
            "8f91725351f478f34ec1033ea709933b50c5d5458d0c7e3b3692f5fb7553d4a4",
            1.2,
        ),
        Workload(
            "point_exclusive",
            (
                "eval", "--workload", "gcc1", "--scale", "1",
                "--l1-kb", "1", "--l2-kb", "4", "--exclusive",
            ),
            "f47cd1340714b20e1bd22e3a7d6e440c03053069ca5818b26727782f650624c1",
            2.0,
        ),
        Workload(
            "report_ext",
            ("report", "--ids", "table1,fig21,ext3,ext4,ext6,ext8,ext10", "--scale", "0.05"),
            "a1b771dab159f82a15f6e99188ab93968bcb1d6a428a8efcc4d017e09ae5be4a",
            2.0,
        ),
        Workload(
            "serve_memo",
            ("serve", "--workers", "1", "--port", "0"),
            "558ae2294b26754b7099fcd9219a32ce8cc2018f08707686ada78e0c209ea9e8",
            2.5,
        ),
    )
}


def serve_payload(l1_kb: int, l2_kb: int, scale: float = SERVE_SCALE) -> dict:
    return {"l1_kb": l1_kb, "l2_kb": l2_kb, "workload": "gcc1", "scale": scale}


def serve_orders(seed: int, n: int) -> Tuple[List[int], List[int]]:
    """The seeded cold order (a permutation) and warm stream over ``n`` points."""
    rng = random.Random(seed)
    cold = list(range(n))
    rng.shuffle(cold)
    warm = [rng.randrange(n) for _ in range(SERVE_WARM_REQUESTS)]
    return cold, warm


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def result_digest(out_dir: Path) -> Optional[str]:
    """sha256 over the result files of a run directory (None if it has none).

    Results are every ``.json``/``.txt``/``.tsv`` file except the
    manifest and re-run metadata; journals and sidecars are excluded
    because their bytes legitimately vary between equivalent runs.
    """
    if not out_dir.is_dir():
        return None
    lines = [
        f"{path.name}\t{sha256_bytes(path.read_bytes())}\n"
        for path in sorted(out_dir.iterdir())
        if path.suffix in (".json", ".txt", ".tsv") and path.name not in _NOT_RESULTS
    ]
    return sha256_bytes("".join(lines).encode()) if lines else None


def bodies_digest(bodies: Sequence[bytes]) -> str:
    """sha256 of the sorted response bodies (order-free)."""
    return sha256_bytes(b"".join(sorted(bodies)))


def child_env(checkout: Path, tmp: Path) -> Dict[str, str]:
    """The environment of every ``repro`` child: sources, private temp, no knobs."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(checkout / "src")
    env["TMPDIR"] = str(tmp)
    env["XDG_CACHE_HOME"] = str(tmp / "cache")
    return env


def pace_loop_s() -> float:
    """Seconds of a fixed pure-Python loop in this process: the host's current pace."""
    started = time.perf_counter()
    total, table = 0.0, {}
    for i in range(PACE_ITERATIONS):
        x = (i % 97) * 1.5 + 0.25
        total += x * x / (x + 1.0)
        table[i & 1023] = total
    return time.perf_counter() - started


class PaceMeter:
    """The host's pace around each round, from a pace loop between rounds.

    A vCPU of a shared host runs at full speed or well below it, in
    phases of seconds to minutes, and the raw time of one program moves
    with it.  The loop before and after a round, on the same pinned CPU,
    slows down with it, so a time divided by their mean keeps only the
    program's own cost.
    """

    def __init__(self) -> None:
        self.last = pace_loop_s()

    def bracket(self) -> float:
        """Mean pace of the loops just before and just after the round that ended."""
        before, self.last = self.last, pace_loop_s()
        return (before + self.last) / 2


@dataclass
class Tally:
    """Samples per metric plus attempted/failed operation counts."""

    samples: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def add(self, metric: str, value: float) -> None:
        self.samples[metric].append(value)

    def add_paced(self, raw: Dict[str, float], pace: float) -> None:
        """Times of one round scaled to the nominal pace; raw ones kept as ``raw_<name>``."""
        self.add("pace_s", pace)
        for metric, seconds in raw.items():
            self.add(metric, seconds * NOMINAL_PACE_S / pace)
            self.add(f"raw_{metric}", seconds)


@dataclass(frozen=True)
class Exit:
    """How a timed child process ended."""

    wall_s: float
    code: int
    peak_rss_mb: float
    timed_out: bool
    stderr: str
    stdout: bytes

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.timed_out

    def describe(self) -> str:
        timed_out = " (timed out)" if self.timed_out else ""
        return f"exit {self.code}{timed_out}: {self.stderr}"


def _tail(log: IO[bytes], limit: int = 400) -> str:
    log.seek(0)
    return log.read().decode(errors="replace")[-limit:].strip()


@contextmanager
def _child(
    argv: Sequence[str],
    cwd: Path,
    env: Dict[str, str],
    timeout_s: float,
    stdout: Union[int, IO[bytes]],
) -> Iterator[Tuple[subprocess.Popen, IO[bytes], threading.Event]]:
    """A child process that is killed at ``timeout_s`` and always reaped.

    Yields the process, its stderr log and a flag set if it timed out.
    """
    expired = threading.Event()
    with tempfile.TemporaryFile(dir=cwd) as log:
        proc = subprocess.Popen(
            list(argv), cwd=cwd, env=env, stdout=stdout, stderr=log, text=True
        )

        def expire() -> None:
            expired.set()
            proc.kill()

        timer = threading.Timer(timeout_s, expire)
        timer.start()
        try:
            yield proc, log, expired
        finally:
            timer.cancel()
            timer.join()
            if proc.returncode is None:
                proc.kill()
                proc.communicate()


def run_timed(argv: Sequence[str], cwd: Path, env: Dict[str, str], timeout_s: float) -> Exit:
    """Run a child to completion: wall time, exit code, peak RSS and stdout.

    ``wait4`` reaps the child, so its ``ru_maxrss`` is exact.
    """
    with tempfile.TemporaryFile(dir=cwd) as out:
        started = time.perf_counter()
        with _child(argv, cwd, env, timeout_s, out) as (proc, log, expired):
            _, status, usage = os.wait4(proc.pid, 0)
            wall_s = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
            stderr = _tail(log)
        out.seek(0)
        return Exit(
            wall_s, proc.returncode, usage.ru_maxrss / 1024.0, expired.is_set(), stderr,
            out.read(),
        )


def fresh_dir(parent: Path, name: str) -> Path:
    path = parent / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def import_cli(checkout: Path, root: Path, timeout_s: float) -> Exit:
    """A fresh interpreter that only imports the CLI."""
    return run_timed(
        [sys.executable, "-c", "import repro.cli"], root, child_env(checkout, root), timeout_s
    )


def warm_import(checkout: Path, scratch: Path) -> Exit:
    """One discarded import, so bytecode compilation is not timed."""
    return import_cli(checkout, fresh_dir(scratch, "import"), 300.0)


def cli_round(
    workload: Workload, checkout: Path, scratch: Path, tally: Tally, meter: PaceMeter
) -> None:
    """One cold run, after a set-up sample while fewer than ``SETUP_IMPORTS`` exist.

    Set-up is a fresh interpreter importing the CLI; spreading the
    samples over the first rounds keeps them from all landing in one
    burst of host contention.
    """
    root = fresh_dir(scratch, workload.name)
    raw: Dict[str, float] = {}
    if len(tally.samples["setup_s"]) < SETUP_IMPORTS:
        done = import_cli(checkout, root, 60.0)
        if tally.check(done.ok, f"import repro.cli {done.describe()}"):
            raw["setup_s"] = done.wall_s
    out = root / "out"
    argv = [sys.executable, "-m", "repro", *workload.argv]
    if workload.writes_out:
        argv += ["--out", str(out)]
    done = run_timed(argv, root, child_env(checkout, root), workload.timeout_s)
    digest = None
    if done.ok:
        digest = result_digest(out) if workload.writes_out else sha256_bytes(done.stdout)
    if tally.check(
        done.ok and digest == workload.digest,
        f"{workload.name}: digest {digest}, {done.describe()}",
    ):
        raw["wall_s"] = done.wall_s
        tally.add("peak_rss_mb", done.peak_rss_mb)
    shutil.rmtree(root, ignore_errors=True)
    tally.add_paced(raw, meter.bracket())


# -- serve ------------------------------------------------------------------


def http_call(
    port: int, method: str, path: str, payload: Optional[dict] = None, timeout: float = 60.0
) -> Tuple[int, str, bytes]:
    """One HTTP exchange: (status, X-Repro-Source header, body)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        connection.request(method, path, body=body, headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.getheader("X-Repro-Source") or "", response.read()
    finally:
        connection.close()


def _peak_rss_kb(pid: int) -> Optional[int]:
    """One process's own peak RSS (``VmHWM``), Linux only."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
    return int(match.group(1)) if match else None


def _process_tree(pid: int) -> List[int]:
    """``pid`` and every live descendant, from the parent ids in ``/proc``."""
    parents: Dict[int, int] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid ...": comm may hold spaces and parentheses.
            parents[int(stat.parent.name)] = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
    tree, frontier = [pid], {pid}
    while frontier:
        frontier = {child for child, parent in parents.items() if parent in frontier}
        tree.extend(sorted(frontier))
    return tree


def tree_peak_rss_mb(pid: int) -> Optional[float]:
    """Summed peak RSS of a process and its descendants (None if unreadable).

    ``repro serve`` computes in a pool worker, so the server's own peak
    leaves the compute path out; the sum covers both.
    """
    peaks = [_peak_rss_kb(member) for member in _process_tree(pid)]
    if peaks[0] is None:
        return None
    return sum(peak for peak in peaks if peak is not None) / 1024.0


def _closed_loop(
    port: int, payloads: Sequence[dict], timeout: float
) -> Tuple[float, List[Tuple[float, int, str, bytes]]]:
    """Send every payload from ``CLIENT_THREADS`` closed-loop clients.

    Returns the phase's wall time and, in payload order, each request's
    (latency, status, source, body); a transport error reads as status 0.
    """

    def fire(payload: dict) -> Tuple[float, int, str, bytes]:
        started = time.perf_counter()
        try:
            status, source, body = http_call(port, "POST", "/v1/evaluate", payload, timeout)
        except (OSError, http.client.HTTPException) as error:
            status, source, body = 0, "", str(error).encode()
        return time.perf_counter() - started, status, source, body

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as clients:
        replies = list(clients.map(fire, payloads))
    return time.perf_counter() - started, replies


def _await_ready(proc: subprocess.Popen) -> int:
    """Read the server's port from its banner, then poll until /healthz is 200."""
    assert proc.stdout is not None
    banner = proc.stdout.readline()
    match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
    if match is None:
        raise OSError(f"no listening banner from repro serve: {banner!r}")
    port = int(match.group(1))
    while True:
        try:
            if http_call(port, "GET", "/healthz", timeout=5.0)[0] == 200:
                return port
        except ConnectionError:
            pass
        if proc.poll() is not None:
            raise OSError(f"repro serve exited {proc.returncode} before becoming healthy")
        time.sleep(0.002)


def serve_round(
    workload: Workload,
    checkout: Path,
    scratch: Path,
    seed: int,
    tally: Tally,
    meter: PaceMeter,
    points: Optional[Sequence[Tuple[int, int]]] = None,
    scale: float = SERVE_SCALE,
) -> None:
    """Spawn a server on an empty store, fill it cold, then read it warm.

    ``setup_s`` is spawn to the first healthy ``/healthz``; ``wall_s``
    is the first cold request sent to the last warm reply received.
    ``points`` (default: ``SERVE_POINTS``) and ``scale`` exist so a
    smoke test can drive its own store.
    """
    root = fresh_dir(scratch, workload.name)
    env = child_env(checkout, root)
    argv = [sys.executable, "-m", "repro", *workload.argv, "--store", str(root / "store")]
    points = list(SERVE_POINTS if points is None else points)
    payloads = [serve_payload(l1, l2, scale) for l1, l2 in points]
    cold_order, warm_stream = serve_orders(seed, len(points))
    budget = 2 * workload.timeout_s + 60.0
    raw: Dict[str, float] = {}
    started = time.perf_counter()
    with _child(argv, root, env, budget, subprocess.PIPE) as (proc, log, expired):
        try:
            _serve_session(
                workload, proc, started, payloads, cold_order, warm_stream, tally, raw
            )
        except (OSError, http.client.HTTPException, ValueError) as error:
            tally.check(False, f"serve_memo session: {error}; {_tail(log)}")
        finally:
            proc.terminate()
            try:
                proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        tally.check(
            proc.returncode == 0 and not expired.is_set(),
            f"repro serve exited {proc.returncode} on SIGTERM"
            f"{' (timed out)' if expired.is_set() else ''}: {_tail(log)}",
        )
    shutil.rmtree(root, ignore_errors=True)
    tally.add_paced(raw, meter.bracket())


def _serve_session(
    workload: Workload,
    proc: subprocess.Popen,
    started: float,
    payloads: List[dict],
    cold_order: List[int],
    warm_stream: List[int],
    tally: Tally,
    raw: Dict[str, float],
) -> None:
    """One server's session; its raw set-up and wall times go into ``raw``."""
    port = _await_ready(proc)
    raw["setup_s"] = time.perf_counter() - started

    cold_wall, cold = _closed_loop(port, [payloads[i] for i in cold_order], workload.timeout_s)
    bodies: Dict[int, bytes] = {}
    for index, (latency, status, source, body) in zip(cold_order, cold):
        ok = status == 200 and source in ("cold", "coalesced")
        if tally.check(ok, f"cold request {index}: HTTP {status} source {source!r}"):
            bodies[index] = body
            tally.add("cold_latency_ms", latency * 1e3)
    if len(bodies) != len(payloads):
        return
    digest = bodies_digest(list(bodies.values()))
    if not tally.check(digest == workload.digest, f"cold bodies digest {digest}"):
        return

    warm_wall, warm = _closed_loop(port, [payloads[i] for i in warm_stream], workload.timeout_s)
    warm_ok = True
    for index, (latency, status, source, body) in zip(warm_stream, warm):
        ok = status == 200 and source == "memo" and body == bodies[index]
        warm_ok &= tally.check(ok, f"warm request {index}: HTTP {status} source {source!r}")
        if ok:
            tally.add("warm_latency_ms", latency * 1e3)
    if warm_ok:
        raw["wall_s"] = cold_wall + warm_wall
        tally.add("cold_phase_s", cold_wall)
        tally.add("warm_phase_s", warm_wall)
        tally.add("warm_rps", len(warm) / warm_wall)

    status, _, body = http_call(port, "GET", "/healthz")
    if tally.check(status == 200, f"/healthz after the run: HTTP {status}"):
        health = json.loads(body)
        tally.add("memo_hit_ratio", health["memo"]["hit_rate"])
        tally.add("coalesced", health["requests"]["coalesced"])
        tally.add("shed", health["admission"]["shed"])
    rss = tree_peak_rss_mb(proc.pid)
    if tally.check(rss is not None, "no peak RSS readable for repro serve"):
        tally.add("peak_rss_mb", rss)


def run_rounds(
    names: Sequence[str], seconds: float, run_one: Callable[[str], None]
) -> Dict[str, int]:
    """Run rounds round-robin over ``names``, each within a ``seconds`` window.

    Every workload gets at least one round; another starts only while
    its time so far plus its median round still fits the window, so a
    run ends near ``seconds`` per workload whatever the host speed.
    Returns the number of rounds each workload ran.
    """
    durations: Dict[str, List[float]] = {name: [] for name in names}
    active = list(names)
    while active:
        for name in list(active):
            done = durations[name]
            if done and sum(done) + statistics.median(done) > seconds:
                active.remove(name)
                continue
            started = time.perf_counter()
            run_one(name)
            done.append(time.perf_counter() - started)
    return {name: len(done) for name, done in durations.items()}
