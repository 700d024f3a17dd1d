"""The four workloads, their correctness gates and the metrics they report.

Every workload follows one skeleton so that every end-to-end metric is
defined on every workload (the benchmark contract gates each metric on
each workload separately):

    set up (generate inputs, boot to healthy; repeated, median reported)
    -> warm-up -> timed traffic -> final ``/v1/detect`` vs. the offline oracle
    -> SIGKILL -> restart from the WAL dir -> ``/v1/detect`` vs. pre-crash

with short *bursts* of reads placed as far apart in time as the run allows.
The sandbox's speed drifts by tens of percent over seconds (README.md,
"Noise"), so a read latency taken from one half-second burst repeats
badly; the median of each burst, averaged over bursts that are seconds
apart, repeats.

What differs is *which* layers the traffic leans on — see ``WORKLOADS``
for the one-line reason each exists and README.md for the full table.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import shutil
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import inputs
from .harness import (
    SRC_DIR, Connection, Planned, Reply, RunDir, Sample, Server, closed_loop,
    host_pace, median, open_loop, percentile, run_threads,
)
from .inputs import Edge, Scale

WORKLOADS: Dict[str, str] = {
    "single_stream": (
        "open loop, one edge per POST on 2 connections (paper Fig. 10): the ack is the "
        "detection; leans on the gateway window, fsync-per-commit and core reorder"
    ),
    "bulk_stream": (
        "closed loop, 200 edges per POST on 1 connection (Fig. 11 / Table 4): per-request "
        "cost amortises away, leaving JSON decode, WAL bytes, core.batch and graph mutation"
    ),
    "read_write_mix": (
        "paced writer with 4% deletes beside a closed-loop detect/communities reader: "
        "every read pays freeze + a static peel in a thread contending with the writer"
    ),
    "crash_recovery": (
        "bulk posts, SIGKILL, 2 timed restarts from copies of the WAL dir, 5 cold as-of reads: "
        "the only workload where recovery, WAL scan and history.asof do the work"
    ),
}

#: name -> (unit, better, regression bound); README.md, "Bounds", says where they come from.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "write_ack_p50_ms": ("ms", "lower", 0.25),
    "write_ack_p95_ms": ("ms", "lower", 0.25),
    "cpu_ms_per_event": ("ms", "lower", 0.25),
    "events_per_s": ("1/s", "higher", 0.25),
    "detect_ms": ("ms", "lower", 0.25),
    "rss_peak_mb": ("MB", "lower", 0.10),
}

WARMUP_S = 1.5
SINGLE_RATE = 130.0  # events/s over both connections
MIX_RATE = 25.0  # writer ops/s offered: about half of what one connection sustains beside the reader
MIX_DELETE_EVERY = 25  # ops: 4 %, evenly spaced so every seed has the same count
MIX_DELETE_MIN_AGE = 25  # ops (a second) between an insert and its delete
WINDOWS = 4  # a timed window's samples are cut into this many equal runs (see _latency)
BULK_SIZE = 200
BULK_MAX_RPS = 100  # pre-encoded bodies per timed second; over 20k events/s, above the engine
CRASH_POST_SIZE = 25  # posts and restarts per scale: inputs.SCALES
CRASH_ASOF_READS = 5
BURST_DETECTS, BURST_COMMUNITIES = 6, 2
DETECT = Planned(0.0, "detect", "GET", "/v1/detect")
COMMUNITIES = Planned(0.0, "communities", "GET", "/v1/communities?limit=5")
DETECT_KEYS = ("community", "density", "peel_index", "vertices", "edges")


@dataclass
class Metric:
    value: float
    unit: str
    n: int


@dataclass
class Outcome:
    workload: str
    seed: int
    metrics: Dict[str, Metric] = field(default_factory=dict)  # the gated end-to-end set
    extras: Dict[str, Metric] = field(default_factory=dict)  # client-side, reported only
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    lateness_ms: List[float] = field(default_factory=list)
    bursts: List[List[Sample]] = field(default_factory=list)  # reads, one list per burst
    rss_mb: List[float] = field(default_factory=list)  # VmHWM of each server at its end
    service_ms: List[float] = field(default_factory=list)  # timed writes, send to reply
    kernel: Optional[str] = None  # what /healthz says is active
    pace: List[float] = field(default_factory=list)  # harness.host_pace() between phases
    wall_s: float = 0.0
    live: List[Dict[str, object]] = field(default_factory=list)  # layers.scrape_live
    unavailable: Dict[str, str] = field(default_factory=dict)  # probe metric -> reason

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def valid(self) -> bool:
        """An open-loop run whose generator ran late is invalid, not slow."""
        return not self.lateness_ms or median(self.lateness_ms) <= 1.0

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {detail}" if detail else label)

    def count(self, samples: Sequence[Sample]) -> None:
        """Every request is an attempt; non-2xx, refusals and timeouts fail."""
        self.attempted += len(samples)
        bad = [s for s in samples if not 200 <= s.status < 300]
        self.failed += len(bad)
        if bad:
            self.failures.append(f"{len(bad)} {bad[0].kind} request(s) failed, first status {bad[0].status}")


# ---------------------------------------------------------------------- #
# Deployment: generated files + the offline oracle
# ---------------------------------------------------------------------- #
def _repro():
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import repro.api

    return repro.api


def engine_settings() -> Dict[str, object]:
    """The pinned engine: DW on the array graph with the CSR static peel.

    Built by feature detection so that the refactor which removes the
    ``backend`` / ``static`` knobs (ROADMAP, "One graph, one peel") does
    not have to edit a benchmark it is forbidden to touch.
    """
    known = {f.name for f in dataclasses.fields(_repro().EngineConfig)}
    settings: Dict[str, object] = {"semantics": "DW", "kernel": "auto"}
    if "backend" in known:
        settings["backend"] = "array"
    if "static" in known:
        settings["static"] = "csr"
    return settings


@dataclass
class Context:
    scale: Scale
    seed: int
    seconds: float
    run: RunDir
    setup_repeats: int = 2
    warmup_s: float = WARMUP_S
    initial: List[Edge] = field(default_factory=list)
    config_path: Path = Path()
    servers: List[Server] = field(default_factory=list)
    #: Set on a traced run: servers boot with tracing on, and each one that
    #: served traffic is handed over just before it is killed, so that its
    #: operational endpoints can be read.
    on_live: Optional[Callable[[Server, "Outcome"], None]] = None

    def set_up(self, out: Outcome) -> Server:
        """Generate the inputs and boot to healthy; ``setup_s`` is the median."""
        spent: List[float] = []
        server: Optional[Server] = None
        for _ in range(self.setup_repeats):
            if server is not None:
                server.kill()
            began = time.perf_counter()
            self.initial = inputs.initial_edges(self.scale, self.seed)
            load_path = self.run.sub("initial").with_suffix(".txt")
            inputs.write_edgelist(load_path, self.initial)
            self.config_path = self.run.sub("engine").with_suffix(".json")
            self.config_path.write_text(json.dumps(engine_settings()))
            server = self.spawn(self.run.sub("wal"), load_path)
            spent.append(time.perf_counter() - began)
        assert server is not None
        out.metrics["setup_s"] = Metric(median(spent), "s", len(spent))
        out.kernel = server.health.get("kernel", {}).get("active")  # type: ignore[union-attr]
        out.pace.append(host_pace())
        return server

    def spawn(self, wal_dir: Path, load_path: Optional[Path] = None) -> Server:
        server = Server.spawn(self.config_path, wal_dir, load_path, traced=self.on_live is not None)
        self.servers.append(server)
        return server

    def retire(self, server: Server, out: Outcome) -> None:
        """Last look at a server that served traffic, then SIGKILL."""
        if self.on_live is not None:
            self.on_live(server, out)
        out.rss_mb.append(server.rss_peak_mb())
        out.pace.append(host_pace())
        server.kill()

    def client(self):
        return _repro().SpadeClient(engine_settings())


def _expected(client) -> Dict[str, object]:
    report = client.detect()
    return {
        "community": sorted(map(str, report.vertices)),
        "density": report.density,
        "peel_index": report.peel_index,
        "vertices": client.graph.num_vertices(),
        "edges": client.graph.num_edges(),
    }


def fresh_oracle(ctx: Context, ops: Sequence[Tuple[str, Sequence]]) -> Dict[str, object]:
    """Static peel of the surviving edge multiset, through ``SpadeClient.load``.

    ``ops`` is ``("insert", [edges])`` / ``("delete", [(src, dst)])`` in
    any order consistent per pair; see :mod:`ledger.inputs` for why order
    does not matter and equality may be exact.
    """
    live: Dict[Tuple[str, str], float] = {}
    for src, dst, weight in ctx.initial:
        live[(src, dst)] = live.get((src, dst), 0.0) + weight
    for kind, items in ops:
        if kind == "insert":
            for src, dst, weight in items:
                live[(src, dst)] = live.get((src, dst), 0.0) + weight
        else:
            for pair in items:
                del live[pair]
    client = ctx.client()
    client.load([(src, dst, weight) for (src, dst), weight in live.items()])
    return _expected(client)


def check_detect(out: Outcome, label: str, reply: Reply, expected: Dict[str, object]) -> None:
    if not reply.ok:
        out.check(label, False, f"status {reply.status}")
        return
    got = reply.json()
    wrong = [key for key in DETECT_KEYS if got.get(key) != expected[key]]
    out.check(label, not wrong, f"diverged from the offline replay on {wrong}")


# ---------------------------------------------------------------------- #
# Shared phases
# ---------------------------------------------------------------------- #
def _timed(samples: Sequence[Sample], since: float) -> List[Sample]:
    return [s for s in samples if s.due >= since]


def _runs(samples: Sequence[Sample]) -> List[List[Sample]]:
    """``samples`` in time order, cut into ``WINDOWS`` runs of equal length."""
    ordered = sorted(samples, key=lambda s: s.due)
    size = -(-len(ordered) // WINDOWS)
    return [ordered[i:i + size] for i in range(0, len(ordered), size)]


def _latency(out: Outcome, name: str, samples: Sequence[Sample], q: float, bucket=None) -> None:
    """The ``q``-th percentile of each quarter of the window, then the median of the four.

    The host slows down for seconds at a time; a percentile over the whole
    window is set by the slow stretch, the median of per-quarter
    percentiles is not (ISSUE 11: "median of per-window percentiles").
    """
    good = [s for s in samples if 200 <= s.status < 300]
    if good:
        target = out.metrics if bucket is None else bucket
        per_run = [percentile([s.latency_ms for s in run], q) for run in _runs(good)]
        target[name] = Metric(median(per_run), "ms", len(good))


def _write_metrics(out: Outcome, writes: Sequence[Sample], events: int,
                   window_s: float, cpu_s: float) -> None:
    out.count(writes)
    _latency(out, "write_ack_p50_ms", writes, 50)
    _latency(out, "write_ack_p95_ms", writes, 95)
    if len(writes) >= 1000:  # ten samples beyond it, or it is not worth printing
        _latency(out, "client.write_ack_p99_ms", writes, 99, out.extras)
    out.service_ms = [(s.done - s.sent) * 1e3 for s in writes]
    out.metrics["cpu_ms_per_event"] = Metric(cpu_s / events * 1e3, "ms", events)
    out.metrics["events_per_s"] = Metric(events / window_s, "1/s", events)


def _burst(out: Outcome, conn: Connection) -> None:
    """One short burst of reads on an otherwise idle server."""
    out.bursts.append(closed_loop(conn, [DETECT] * BURST_DETECTS + [COMMUNITIES] * BURST_COMMUNITIES))


def _over_bursts(out: Outcome, kind: str) -> Optional[Metric]:
    """Median latency of ``kind`` within each burst, averaged over the bursts."""
    per_burst = [
        [s.latency_ms for s in burst if s.kind == kind and 200 <= s.status < 300]
        for burst in out.bursts
    ]
    medians = [median(values) for values in per_burst if values]
    if not medians:
        return None
    return Metric(sum(medians) / len(medians), "ms", sum(map(len, per_burst)))


def _crash_and_recover(ctx: Context, out: Outcome, server: Server, conn: Connection,
                       expected: Dict[str, object], restarts: int = 1) -> Server:
    """Final gate, SIGKILL, then ``restarts`` timed boots from the crashed WAL dir.

    Each restart runs on its own identical copy, so every boot replays the
    same bytes; the reply after each must equal the pre-crash reply.
    """
    before = conn.request("GET", "/v1/detect")
    check_detect(out, "final /v1/detect", before, expected)
    conn.close()
    ctx.retire(server, out)
    (server.wal_dir / "server.log").unlink(missing_ok=True)
    boots: List[float] = []
    for index in range(restarts):
        if index:
            server.kill()
        copy = ctx.run.sub("recovered")
        shutil.copytree(server.wal_dir, copy)
        server = ctx.spawn(copy)
        boots.append(server.boot_s)
        after = server.connect()
        reply = after.request("GET", "/v1/detect")
        after.close()
        out.check(
            f"restart {index + 1} /v1/detect",
            reply.ok and before.ok and reply.json() == before.json(),
            "differs from the pre-crash reply",
        )
        out.rss_mb.append(server.rss_peak_mb())
    out.extras["client.recovery_s"] = Metric(median(boots), "s", len(boots))
    return server


def _recover_and_read(ctx: Context, out: Outcome, server: Server, conn: Connection,
                      expected: Dict[str, object]) -> None:
    """Crash, restart once, and take the last read burst on the recovered server."""
    server = _crash_and_recover(ctx, out, server, conn, expected)
    conn = server.connect()
    _burst(out, conn)
    conn.close()
    _finish(out, ctx)


def _finish(out: Outcome, ctx: Context) -> None:
    for burst in out.bursts:
        out.count(burst)
    detect, communities = _over_bursts(out, "detect"), _over_bursts(out, "communities")
    if detect is not None:
        out.metrics["detect_ms"] = detect
    if communities is not None:
        out.extras["client.communities_ms"] = communities
    out.metrics["rss_peak_mb"] = Metric(max(out.rss_mb), "MB", len(out.rss_mb))
    out.pace.append(host_pace())
    for server in ctx.servers:
        server.kill()


def _arrivals(ctx: Context, rate: float, salt: str) -> List[float]:
    """Warm-up arrivals, then the timed window's: the same count on every seed."""
    warm = inputs.poisson_schedule(ctx.seed, rate, ctx.warmup_s, salt + ":warm")
    timed = inputs.poisson_schedule(ctx.seed, rate, ctx.seconds, salt)
    return warm + [ctx.warmup_s + t for t in timed]


def _cpu_after_warmup(server: Server, since: float, cpu: List[float]) -> Callable[[], None]:
    """For ``run_threads(meanwhile=...)``: note the server's CPU time when warm-up ends."""
    def wait_and_read() -> None:
        time.sleep(max(0.0, since - time.perf_counter()))
        cpu.append(server.cpu_seconds())
    return wait_and_read


# ---------------------------------------------------------------------- #
# single_stream
# ---------------------------------------------------------------------- #
def single_stream(ctx: Context, out: Outcome) -> None:
    server = ctx.set_up(out)
    due = _arrivals(ctx, SINGLE_RATE, "single")
    edges = inputs.EdgeSource(ctx.scale, ctx.seed, "stream").take(len(due))
    # Arrivals alternate between the two connections: the stream stays
    # Poisson, but no seed piles a burst onto one connection's queue.
    plans: Tuple[List[Planned], List[Planned]] = ([], [])
    for index, (offset, edge) in enumerate(zip(due, edges)):
        plans[index % 2].append(
            Planned(offset, "insert", "POST", "/v1/edges", inputs.single_body(edge))
        )
    conns = (server.connect(), server.connect())
    _burst(out, conns[0])
    everything: List[Sample] = []
    cpu: List[float] = []
    start = time.perf_counter() + 0.05
    since = start + ctx.warmup_s
    run_threads(
        lambda: everything.extend(open_loop(conns[0], plans[0], start)),
        lambda: everything.extend(open_loop(conns[1], plans[1], start)),
        meanwhile=_cpu_after_warmup(server, since, cpu),
    )
    cpu_s = server.cpu_seconds() - cpu[0]
    writes = _timed(everything, since)
    window = max(s.done for s in writes) - since
    _write_metrics(out, writes, len(writes), window, cpu_s)
    out.lateness_ms = [s.late * 1e3 for s in writes]
    conns[1].close()
    _burst(out, conns[0])
    expected = fresh_oracle(ctx, [("insert", edges)])
    _recover_and_read(ctx, out, server, conns[0], expected)


# ---------------------------------------------------------------------- #
# bulk_stream
# ---------------------------------------------------------------------- #
def bulk_stream(ctx: Context, out: Outcome) -> None:
    server = ctx.set_up(out)
    source = inputs.EdgeSource(ctx.scale, ctx.seed, "stream")
    warm_posts = 10
    batches = [source.take(BULK_SIZE)
               for _ in range(warm_posts + int(ctx.seconds * BULK_MAX_RPS))]
    bodies = [inputs.bulk_body(batch) for batch in batches]
    conn = server.connect()
    _burst(out, conn)
    clock: Dict[str, float] = {}

    def posts() -> Iterator[Planned]:
        for index, body in enumerate(bodies):
            if index == warm_posts:
                clock["start"], clock["cpu"] = time.perf_counter(), server.cpu_seconds()
            if index > warm_posts and time.perf_counter() - clock["start"] >= ctx.seconds:
                return
            yield Planned(0.0, "bulk", "POST", "/v1/edges", body)

    samples = closed_loop(conn, posts())
    cpu_s = server.cpu_seconds() - clock["cpu"]
    writes = samples[warm_posts:]
    window = writes[-1].done - clock["start"]
    _write_metrics(out, writes, len(writes) * BULK_SIZE, window, cpu_s)
    _burst(out, conn)
    expected = fresh_oracle(ctx, [("insert", batch) for batch in batches[: len(samples)]])
    _recover_and_read(ctx, out, server, conn, expected)


# ---------------------------------------------------------------------- #
# read_write_mix
# ---------------------------------------------------------------------- #
def _mix_plan(ctx: Context) -> Tuple[List[Planned], List[Tuple[str, Sequence]]]:
    due = _arrivals(ctx, MIX_RATE, "mix")
    source = inputs.EdgeSource(ctx.scale, ctx.seed, "stream")
    rng = random.Random(f"{ctx.seed}:deletes")
    plan: List[Planned] = []
    ops: List[Tuple[str, Sequence]] = []
    inserted: List[Tuple[str, str]] = []  # by op index; ("", "") where the op was a delete
    live: set = set()
    for index, offset in enumerate(due):
        old = (
            [p for p in inserted[: max(0, index - MIX_DELETE_MIN_AGE)] if p in live]
            if index % MIX_DELETE_EVERY == MIX_DELETE_EVERY - 1
            else []
        )
        if old:
            pair = rng.choice(old)
            live.discard(pair)
            inserted.append(("", ""))
            ops.append(("delete", [pair]))
            plan.append(Planned(offset, "delete", "POST", "/v1/edges", inputs.delete_body(*pair)))
            continue
        edge = next(source)
        live.add(edge[:2])
        inserted.append(edge[:2])
        ops.append(("insert", [edge]))
        plan.append(Planned(offset, "insert", "POST", "/v1/edges", inputs.single_body(edge)))
    return plan, ops


def read_write_mix(ctx: Context, out: Outcome) -> None:
    server = ctx.set_up(out)
    plan, ops = _mix_plan(ctx)
    writer, reader = server.connect(), server.connect()
    done = threading.Event()
    cpu: List[float] = []
    written: List[Sample] = []
    read: List[Sample] = []
    start = time.perf_counter() + 0.05
    since = start + ctx.warmup_s

    def write() -> None:
        try:
            written.extend(open_loop(writer, plan, start, paced=True))
        finally:
            done.set()

    def until_the_writer_ends() -> Iterator[Planned]:
        for read_request in itertools.cycle([DETECT] * 4 + [COMMUNITIES]):
            if done.is_set():
                return
            yield read_request

    run_threads(
        write,
        lambda: read.extend(closed_loop(reader, until_the_writer_ends())),
        meanwhile=_cpu_after_warmup(server, since, cpu),
    )
    cpu_s = server.cpu_seconds() - cpu[0]
    writes = _timed(written, since)
    inserts = [s for s in writes if s.kind == "insert"]
    window = max(s.done for s in writes) - since
    out.count([s for s in writes if s.kind == "delete"])
    _write_metrics(out, inserts, len(writes), window, cpu_s)
    timed_reads = _timed(read, since)
    out.bursts = _runs(timed_reads)
    _latency(out, "client.delete_ack_p50_ms", [s for s in writes if s.kind == "delete"], 50, out.extras)
    _latency(out, "client.detect_p95_ms", [s for s in timed_reads if s.kind == "detect"], 95, out.extras)
    reader.close()
    _crash_and_recover(ctx, out, server, writer, fresh_oracle(ctx, ops))
    _finish(out, ctx)


# ---------------------------------------------------------------------- #
# crash_recovery
# ---------------------------------------------------------------------- #
def crash_recovery(ctx: Context, out: Outcome) -> None:
    server = ctx.set_up(out)
    posts = ctx.scale.crash_posts
    source = inputs.EdgeSource(ctx.scale, ctx.seed, "stream")
    batches = [source.take(CRASH_POST_SIZE) for _ in range(posts)]
    bodies = [inputs.bulk_body(batch) for batch in batches]
    conn = server.connect()
    cpu_before, began = server.cpu_seconds(), time.perf_counter()
    writes = closed_loop(conn, [Planned(0.0, "bulk", "POST", "/v1/edges", body) for body in bodies])
    window, cpu_s = writes[-1].done - began, server.cpu_seconds() - cpu_before
    _write_metrics(out, writes, posts * CRASH_POST_SIZE, window, cpu_s)
    seqs = [s.status == 200 and json.loads(s.body).get("wal_seq") for s in writes]
    out.check("one WAL record per post", seqs == list(range(1, posts + 1)), f"acked seqs {seqs[:5]}...")

    # Offline prefix replay: the incremental engine fed the same posts.
    Batch = _repro().InsertBatch
    targets = [round(posts * (k + 1) / (CRASH_ASOF_READS + 1)) for k in range(CRASH_ASOF_READS)]
    offline = ctx.client()
    offline.load(ctx.initial)
    prefix: Dict[int, Dict[str, object]] = {}
    for seq, batch in enumerate(batches, start=1):
        offline.apply([Batch.of(batch)])
        if seq in targets:
            prefix[seq] = _expected(offline)

    server = _crash_and_recover(ctx, out, server, conn, _expected(offline), ctx.scale.crash_restarts)
    conn = server.connect()
    for seq in targets:
        # The first read of a sequence reconstructs it (a cache miss); the
        # communities read that follows is served from the cached snapshot.
        # Each pair is a burst of its own: they are seconds apart.
        cold = closed_loop(conn, [
            Planned(0.0, "detect", "GET", f"/v1/detect?asof={seq}"),
            Planned(0.0, "communities", "GET", f"/v1/communities?asof={seq}&limit=5"),
        ])
        check_detect(out, f"asof={seq}", Reply(cold[0].status, cold[0].body), prefix[seq])
        out.bursts.append(cold)
    conn.close()
    if ctx.on_live is not None:
        ctx.on_live(server, out)
    out.rss_mb[-1] = server.rss_peak_mb()  # as-of reads grew it
    _finish(out, ctx)


RUNNERS: Dict[str, Callable[[Context, Outcome], None]] = {
    "single_stream": single_stream,
    "bulk_stream": bulk_stream,
    "read_write_mix": read_write_mix,
    "crash_recovery": crash_recovery,
}


def run_workload(name: str, ctx: Context) -> Outcome:
    out = Outcome(name, ctx.seed)
    RUNNERS[name](ctx, out)
    return out
