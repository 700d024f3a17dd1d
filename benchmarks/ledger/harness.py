"""Server lifecycle, the HTTP load generator and the statistics helpers.

The system under test is only ever ``python -m repro.serve`` as a child
process, driven over HTTP from this one process with at most two
connections (``nproc`` is 2 in the sandbox: one core for the server, one
for the generator).  Nothing here imports ``repro``.
"""

from __future__ import annotations

import atexit
import http.client
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"
#: Everything the benchmark writes lives here (git-ignored, inside the checkout).
BUILD_DIR = REPO_ROOT / ".bench_build" / "ledger"

REQUEST_TIMEOUT_S = 10.0
BOOT_TIMEOUT_S = 120.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def child_env() -> Dict[str, str]:
    """Environment of every child: the repo's sources, a checkout-local kernel cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_NATIVE_CACHE"] = str(BUILD_DIR / "native")
    return env


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


median = statistics.median


def iqr_share(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the spread the acceptance rule is written in."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")


def host_pace() -> float:
    """Seconds this host needs for a fixed pure-python loop (median of 3).

    The one reading of the machine's speed that does not involve the
    system under test; ``cli.measure`` uses it to tell a disturbed host
    from a slow server.
    """
    def once() -> float:
        began = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        return time.perf_counter() - began

    return median([once() for _ in range(3)])


# ---------------------------------------------------------------------- #
# Server subprocess
# ---------------------------------------------------------------------- #
_LIVE: "set[subprocess.Popen]" = set()


def _reap_all() -> None:
    for proc in list(_LIVE):
        _kill(proc)


atexit.register(_reap_all)


def _kill(proc: subprocess.Popen) -> None:
    """SIGKILL and wait; idempotent."""
    if proc.poll() is None:
        try:
            proc.send_signal(signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()
    _LIVE.discard(proc)


class Server:
    """One ``python -m repro.serve`` child bound to an OS-assigned port."""

    def __init__(self, proc: subprocess.Popen, wal_dir: Path, port: int, boot_s: float,
                 health: Dict[str, object]) -> None:
        self.proc = proc
        self.wal_dir = wal_dir
        self.port = port
        self.boot_s = boot_s
        self.health = health  # the first /healthz reply: engine shape, active kernel

    @classmethod
    def spawn(
        cls,
        config_path: Path,
        wal_dir: Path,
        load_path: Optional[Path] = None,
        traced: bool = False,
    ) -> "Server":
        """Start the server and return once ``GET /healthz`` answers 200.

        ``boot_s`` is spawn to that first 200.  The gated deployment runs
        with tracing off (``--trace-sample 0 --slow-ms 0``); ``traced``
        turns every request into a recorded trace plus a line in
        ``<wal_dir>/events.jsonl``.
        """
        wal_dir.mkdir(parents=True, exist_ok=True)
        runinfo = wal_dir / "server.json"
        runinfo.unlink(missing_ok=True)  # a copied WAL dir carries the dead server's
        command = [
            sys.executable, "-m", "repro.serve",
            "--config", str(config_path),
            "--port", "0",
            "--wal-dir", str(wal_dir),
        ]
        if load_path is not None:
            command += ["--load", str(load_path)]
        if traced:
            command += ["--trace-sample", "1.0", "--slow-ms", "0", "--trace-log", "auto"]
        else:
            command += ["--trace-sample", "0", "--slow-ms", "0"]
        began = time.perf_counter()
        with open(wal_dir / "server.log", "ab") as log:
            proc = subprocess.Popen(
                command, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                cwd=str(REPO_ROOT),
            )
        _LIVE.add(proc)
        try:
            port = cls._await_port(proc, runinfo, began)
            conn = Connection(port)
            try:
                while True:
                    reply = conn.request("GET", "/healthz")
                    if reply.status == 200:
                        break
                    if time.perf_counter() - began > BOOT_TIMEOUT_S:
                        raise RuntimeError(f"server never became healthy: {reply.status}")
                    time.sleep(0.005)
            finally:
                conn.close()
        except BaseException:
            _kill(proc)
            raise
        return cls(proc, wal_dir, port, time.perf_counter() - began, reply.json())

    @staticmethod
    def _await_port(proc: subprocess.Popen, runinfo: Path, began: float) -> int:
        while True:
            if proc.poll() is not None:
                log = (runinfo.parent / "server.log").read_text(errors="replace")[-2000:]
                raise RuntimeError(f"server exited with {proc.returncode} during boot:\n{log}")
            try:
                info = json.loads(runinfo.read_text())
                if info.get("pid") == proc.pid:
                    return int(info["port"])
            except (OSError, ValueError):
                pass  # not written yet / half written
            if time.perf_counter() - began > BOOT_TIMEOUT_S:
                raise RuntimeError("server did not publish a port in time")
            time.sleep(0.002)

    def kill(self) -> None:
        _kill(self.proc)

    def cpu_seconds(self) -> float:
        """utime + stime of the server process so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def rss_peak_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def connect(self) -> "Connection":
        return Connection(self.port)


# ---------------------------------------------------------------------- #
# HTTP
# ---------------------------------------------------------------------- #
@dataclass
class Reply:
    status: int  # 0 = transport failure or timeout
    body: bytes

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def json(self):
        return json.loads(self.body)


class Connection:
    """One keep-alive HTTP/1.1 connection; failures become ``status 0``."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self._host, self._port = host, port
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Reply:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=REQUEST_TIMEOUT_S
            )
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return Reply(response.status, response.read())
        except (OSError, http.client.HTTPException):
            # Timeout, refusal or a torn reply: a failed request.  Drop the
            # socket so the next request starts clean.
            self.close()
            return Reply(0, b"")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


# ---------------------------------------------------------------------- #
# Load loops
# ---------------------------------------------------------------------- #
@dataclass
class Sample:
    kind: str
    due: float  # perf_counter time the request was due (closed loop: when sent)
    sent: float
    done: float
    status: int
    body: bytes = b""
    late: float = 0.0  # sent - max(due, previous reply): the generator's own delay

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


@dataclass
class Planned:
    offset: float  # seconds after the loop's start
    kind: str
    method: str
    path: str
    body: Optional[bytes] = None


def open_loop(
    conn: Connection, plan: Sequence[Planned], start: float, paced: bool = False
) -> List[Sample]:
    """Send each planned request at ``start + offset`` regardless of replies.

    One connection carries one request at a time, so a slow reply delays
    the sends behind it; latency is timed **from the due time**, which
    charges that wait to the server that caused it.  ``late`` is only the
    generator's share: how long after both the due time and the previous
    reply the bytes actually left.

    ``paced`` turns the schedule into think time instead: a single caller
    that waits for each reply and then for its next scheduled moment — a
    closed loop, so latency is timed from the send and a slow server is
    offered less.
    """
    out: List[Sample] = []
    free_at = start
    for item in plan:
        due = start + item.offset
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent = time.perf_counter()
        reply = conn.request(item.method, item.path, item.body)
        done = time.perf_counter()
        out.append(
            Sample(item.kind, sent if paced else due, sent, done, reply.status, reply.body,
                   late=sent - max(due, free_at))
        )
        free_at = done
    return out


def closed_loop(conn: Connection, plan: Iterable[Planned]) -> List[Sample]:
    """Send the next request only after the previous reply.

    ``plan`` may be a generator: it is asked for the next request after
    each reply, so it can stop on a deadline or on another thread's signal.
    """
    out: List[Sample] = []
    for item in plan:
        sent = time.perf_counter()
        reply = conn.request(item.method, item.path, item.body)
        out.append(Sample(item.kind, sent, sent, time.perf_counter(), reply.status, reply.body))
    return out


def run_threads(*targets: Callable[[], None], meanwhile: Callable[[], None] = lambda: None) -> None:
    """Run the targets concurrently (one thread each) and re-raise any failure.

    ``meanwhile`` runs on the calling thread once they have started — the
    place to sleep until the warm-up ends and read a counter.
    """
    errors: List[BaseException] = []

    def guard(fn: Callable[[], None]) -> None:
        try:
            fn()
        except BaseException as exc:  # re-raised below, on the caller's thread
            errors.append(exc)

    threads = [threading.Thread(target=guard, args=(fn,)) for fn in targets]
    for thread in threads:
        thread.start()
    try:
        meanwhile()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------- #
# Run directories
# ---------------------------------------------------------------------- #
@dataclass
class RunDir:
    """A private scratch directory under ``.bench_build``; leaving the ``with``
    block kills every server child and removes it."""

    path: Path
    _counter: int = field(default=0)

    @classmethod
    def create(cls) -> "RunDir":
        path = BUILD_DIR / f"run-{os.getpid()}-{time.monotonic_ns()}"
        path.mkdir(parents=True)
        return cls(path)

    def sub(self, stem: str) -> Path:
        self._counter += 1
        return self.path / f"{stem}-{self._counter}"

    def __enter__(self) -> "RunDir":
        return self

    def __exit__(self, *exc) -> None:
        _reap_all()
        shutil.rmtree(self.path, ignore_errors=True)


def host_fingerprint() -> Dict[str, object]:
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=10, check=False,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass  # no git, or not a repository: the driver's checkout is neither
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": sys.platform,
        "cc": shutil.which("cc") or shutil.which("gcc") or shutil.which("clang"),
        "commit": commit,
    }
