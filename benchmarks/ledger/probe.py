"""Layer probe: the generated inputs replayed in-process, layer by layer.

The serving workloads measure the stack from outside; this module calls
each layer's public functions directly on the same generated inputs and
times them with **bench-owned spans** (the library is not instrumented
by this benchmark).  A span is ``name, start, end, parent, event``: spans
of one replayed event share its ``event`` id, spans are kept in memory
and written to ``spans.jsonl`` when the probe ends, and a span's *self
time* is its duration minus the part its children cover.

Coupling is deliberately thin: every probe imports what it needs inside
its own function, and a probe whose function has been renamed or removed
reports its metrics as unavailable (with the reason) instead of failing
the run — a later refactor must be able to delete a layer without having
to edit the benchmark that judges it.

How to add a probe: write ``def _probe_<layer>(env, spans) -> Dict[str,
Metric]``, list the names it reports in ``PROBES``, and add those names
to ``BENCHMARK.json`` ``per_layer`` and to README.md.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import inputs
from .harness import median
from .workloads import Context, Metric, _repro

PROBE_EVENTS = 400  # single events per path (direct engine / commit-path replay)
PROBE_BATCHES = 20
PROBE_DELETES = 8
REPEATS = 5


class Spans:
    """In-memory span recorder (single-threaded, strictly nested)."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, event: Optional[int] = None) -> Iterator[None]:
        row: Dict[str, object] = {
            "id": len(self.rows) + 1, "name": name, "event": event,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.rows.append(row)
        self._stack.append(row["id"])  # type: ignore[arg-type]
        row["start"] = time.perf_counter()
        try:
            yield
        finally:
            row["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        return [r["end"] - r["start"] for r in self.rows if r["name"] == name]  # type: ignore[operator]

    def self_times(self) -> Dict[int, float]:
        """Duration minus child-covered time, per span id (children never overlap)."""
        own = {r["id"]: r["end"] - r["start"] for r in self.rows}  # type: ignore[operator]
        for r in self.rows:
            if r["parent"] is not None:
                own[r["parent"]] -= r["end"] - r["start"]  # type: ignore[operator,index]
        return own  # type: ignore[return-value]

    def write(self, path: Path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for r in self.rows:
                handle.write(json.dumps({**r, "self": own[r["id"]]}) + "\n")  # type: ignore[index]


@dataclass
class Env:
    ctx: Context
    initial: List[inputs.Edge]
    stream: inputs.EdgeSource
    tmp: Path
    snapshot: object = None  # frozen by the graph probe, peeled by the peel probes
    client: object = None  # the loaded SpadeClient, shared by the core probes
    singles: Optional[List[inputs.Edge]] = None


def _us(seconds: Sequence[float], n: Optional[int] = None) -> Metric:
    return Metric(median(seconds) * 1e6, "us", n if n is not None else len(seconds))


def _ms(seconds: Sequence[float]) -> Metric:
    return Metric(median(seconds) * 1e3, "ms", len(seconds))


# ---------------------------------------------------------------------- #
# Probes (each returns the metrics it could measure)
# ---------------------------------------------------------------------- #
def _probe_graph(env: Env, spans: Spans) -> Dict[str, Metric]:
    from repro.graph.backend import create_graph

    graph = create_graph("array")
    with spans.span("graph.add_edge"):
        for src, dst, weight in env.initial:
            graph.add_edge(src, dst, weight)
    for edge in env.stream.take(REPEATS):
        graph.add_edge(*edge)  # bump the version: freeze() caches per version
        with spans.span("graph.freeze"):
            snapshot = graph.freeze()
    env.snapshot = snapshot
    return {
        "graph.add_edge_us": Metric(
            spans.durations("graph.add_edge")[0] / len(env.initial) * 1e6, "us", len(env.initial)),
        "graph.freeze_ms": _ms(spans.durations("graph.freeze")),
    }


def _probe_peel(kernel: str) -> Callable[[Env, Spans], Dict[str, Metric]]:
    def run(env: Env, spans: Spans) -> Dict[str, Metric]:
        from repro.peeling.static import peel_csr

        name = f"peeling.peel_csr.{kernel}"
        for _ in range(REPEATS if kernel == "native" else 1):
            with spans.span(name):
                peel_csr(env.snapshot, "DW", kernel=kernel)
        return {f"peeling.peel_csr_ms.{kernel}": _ms(spans.durations(name))}

    return run


def _probe_load(env: Env, spans: Spans) -> Dict[str, Metric]:
    env.client = env.ctx.client()
    with spans.span("core.load"):
        env.client.load(env.initial)
    return {"core.load_s": Metric(spans.durations("core.load")[0], "s", 1)}


def _probe_insert(env: Env, spans: Spans) -> Dict[str, Metric]:
    """Alternate two paths over one engine state: the bare engine call, and a
    replay of the gateway's commit (WAL append with fsync, then ``SpadeClient.apply``)."""
    from repro.serve.wal import WriteAheadLog

    api = _repro()
    engine = env.client.engine
    env.singles = env.stream.take(2 * PROBE_EVENTS)
    area = 0
    with WriteAheadLog(env.tmp / "probe-wal", fsync=True) as wal:
        for index, (src, dst, weight) in enumerate(env.singles):
            if index % 2 == 0:
                with spans.span("core.insert", event=index):
                    engine.insert_edge(src, dst, weight)
            else:
                op = api.InsertBatch.of([(src, dst, weight)])
                with spans.span("probe.commit", event=index):
                    with spans.span("serve.wal.append", event=index):
                        wal.append_op(op)
                    with spans.span("api.client.apply", event=index):
                        env.client.apply([op])
            area += engine.last_stats.affected_area
    insert = spans.durations("core.insert")
    apply = spans.durations("api.client.apply")
    return {
        "core.insert_us": _us(insert),
        "api.client.apply_overhead_us": Metric((median(apply) - median(insert)) * 1e6, "us", len(apply)),
        "serve.wal.append_us": _us(spans.durations("serve.wal.append")),
        "core.reorder.affected_area_per_event": Metric(area / len(env.singles), "count", len(env.singles)),
    }


def _probe_batch(env: Env, spans: Spans) -> Dict[str, Metric]:
    engine = env.client.engine
    size = 200
    for index in range(PROBE_BATCHES):
        batch = env.stream.take(size)
        with spans.span("core.insert_batch", event=index):
            engine.insert_batch_edges(batch)
    per_edge = [d / size for d in spans.durations("core.insert_batch")]
    return {"core.insert_batch_us_per_edge": _us(per_edge, PROBE_BATCHES * size)}


def _probe_delete(env: Env, spans: Spans) -> Dict[str, Metric]:
    engine = env.client.engine
    repeeled = 0
    victims = list(dict.fromkeys(edge[:2] for edge in env.singles or []))[:PROBE_DELETES]
    for index, pair in enumerate(victims):
        with spans.span("core.delete", event=index):
            engine.delete_edges([pair])
        repeeled += engine.last_stats.repeeled_positions
    return {
        "core.delete_ms": _ms(spans.durations("core.delete")),
        "core.deletion.repeeled_positions_per_delete": Metric(repeeled / len(victims), "count", len(victims)),
    }


def _probe_enumerate(env: Env, spans: Spans) -> Dict[str, Metric]:
    from repro.core.enumeration import enumerate_csr

    snapshot = env.client.snapshot()
    for _ in range(3):
        with spans.span("core.enumerate"):
            enumerate_csr(snapshot, max_instances=5, semantics_name="DW")
    return {"core.enumerate_ms": _ms(spans.durations("core.enumerate"))}


def _probe_wal_scan(env: Env, spans: Spans) -> Dict[str, Metric]:
    from repro.serve.wal import WriteAheadLog, iter_ops

    path = WriteAheadLog.path_in(env.tmp / "probe-wal")
    with spans.span("serve.wal.scan"):
        ops = sum(1 for _ in iter_ops(path))
    return {"serve.wal.scan_ops_per_s": Metric(ops / spans.durations("serve.wal.scan")[0], "1/s", ops)}


def _probe_checkpoint(env: Env, spans: Spans) -> Dict[str, Metric]:
    from repro.serve.recovery import CheckpointStore, graph_from_snapshot

    store = CheckpointStore(env.tmp / "probe-checkpoints")
    snapshot = env.client.snapshot()
    for _ in range(3):
        with spans.span("serve.recovery.checkpoint_save"):
            store.save(snapshot, 0, 0)
    for _ in range(3):
        with spans.span("serve.recovery.checkpoint_load"):
            loaded, _meta = store.latest()
    with spans.span("serve.recovery.graph_from_snapshot"):
        graph_from_snapshot(loaded, backend="array")
    return {
        "serve.recovery.checkpoint_save_ms": _ms(spans.durations("serve.recovery.checkpoint_save")),
        "serve.recovery.checkpoint_load_ms": _ms(spans.durations("serve.recovery.checkpoint_load")),
        "serve.recovery.graph_from_snapshot_ms": _ms(spans.durations("serve.recovery.graph_from_snapshot")),
    }


#: (probe, {metric it reports: unit}) in dependency order: the core probes
#: share the client ``_probe_load`` builds.
PROBES: List[Tuple[Callable[[Env, Spans], Dict[str, Metric]], Dict[str, str]]] = [
    (_probe_graph, {"graph.add_edge_us": "us", "graph.freeze_ms": "ms"}),
    (_probe_peel("native"), {"peeling.peel_csr_ms.native": "ms"}),
    (_probe_peel("python"), {"peeling.peel_csr_ms.python": "ms"}),
    (_probe_load, {"core.load_s": "s"}),
    (_probe_insert, {"core.insert_us": "us", "api.client.apply_overhead_us": "us",
                     "serve.wal.append_us": "us", "core.reorder.affected_area_per_event": "count"}),
    (_probe_batch, {"core.insert_batch_us_per_edge": "us"}),
    (_probe_delete, {"core.delete_ms": "ms", "core.deletion.repeeled_positions_per_delete": "count"}),
    (_probe_enumerate, {"core.enumerate_ms": "ms"}),
    (_probe_wal_scan, {"serve.wal.scan_ops_per_s": "1/s"}),
    (_probe_checkpoint, {"serve.recovery.checkpoint_save_ms": "ms",
                         "serve.recovery.checkpoint_load_ms": "ms",
                         "serve.recovery.graph_from_snapshot_ms": "ms"}),
]

UNITS: Dict[str, str] = {name: unit for _, names in PROBES for name, unit in names.items()}


def run_probe(ctx: Context, spans_path: Optional[Path] = None):
    """Run every probe; returns ``(metrics, unavailable: name -> reason, spans)``."""
    _repro()  # puts the repository's sources on sys.path
    env = Env(ctx, ctx.initial or inputs.initial_edges(ctx.scale, ctx.seed),
              inputs.EdgeSource(ctx.scale, ctx.seed, "probe"), ctx.run.path)
    spans = Spans()
    metrics: Dict[str, Metric] = {}
    unavailable: Dict[str, str] = {}
    for probe, names in PROBES:
        try:
            metrics.update(probe(env, spans))
        except Exception as exc:  # boundary: a missing layer must not fail the run
            for name in names:
                unavailable[name] = f"{type(exc).__name__}: {exc}"
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans.write(spans_path)
    return metrics, unavailable, spans
