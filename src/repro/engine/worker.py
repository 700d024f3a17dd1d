"""The shard-worker wire protocol and the resident worker apply loop.

One shard of a process-resident deployment (:mod:`repro.serve.workers`)
is a child **process** running :func:`shard_worker_main`: a single
:class:`~repro.core.spade.Spade` engine behind a duplex
``multiprocessing`` pipe, applying pre-weighted updates in arrival order.
The coordinator keeps the global mirror and evaluates all suspiciousness
semantics against it (exactly as the in-process
:class:`~repro.engine.sharded.ShardedSpade` coordinator does), so a
worker never sees a raw weight: its engine runs the identity
*pre-weighted* semantics and only needs the display name.

Boot is zero-copy on the read side: the coordinator freezes the shard's
subgraph into a :class:`~repro.graph.csr.CsrSnapshot` ``.npz`` and the
worker memory-maps it with ``mmap_mode="r"``, filling its
mutable pools straight from the CSR runs with
:func:`~repro.serve.recovery.graph_from_snapshot` so the shard's
maintained answers match an in-process shard bit for bit.

Wire protocol (pickled tuples over the pipe, strictly request/response)::

    ("load",   {"snapshot": path, "semantics": name,
                "edge_grouping": bool, "backend": str,
                "kernel": str | None})
    ("single", ((src, dst, w, src_prior, dst_prior), timestamp))
    ("batch",  [(src, dst, w, src_prior, dst_prior), ...])
    ("delete", [(src, dst), ...])
    ("runs",   [(is_delete, rows), ...])      # a drained parked-queue slice
    ("flush",  None)
    ("detect", None)
    ("ping",   None)
    ("stop",   None)

Any request may carry an optional third element, a metadata dict —
today ``{"trace": trace_id}`` when the coordinator's request is being
traced (:mod:`repro.obs`).  Workers that receive a 2-tuple behave
exactly as before, so mixed coordinator/worker versions interoperate
across the extension.

Every state-touching request answers ``("ok", state)`` where ``state``
carries the shard's current community (the coordinator's shard-local
view), the maintenance-pass counters and the benign-buffer depth —
so the coordinator never needs a second round trip to read back what a
dispatch did.  State payloads also carry ``"elapsed"`` (the worker-side
apply wall time — worker clocks are not comparable to the
coordinator's, so the *duration* is the portable quantity), a
cumulative ``"profile"`` table (:mod:`repro.obs.profile` snapshot), and
echo the request's ``"trace"`` id when one was attached.  Failures
answer ``("error", message)``; the coordinator's policy for those (and
for a dead pipe) is respawn-from-mirror, because worker state is
derived state.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.reorder import ReorderStats
from repro.core.spade import Spade
from repro.core.state import Community
from repro.graph.delta import EdgeUpdate
from repro.peeling.semantics import PeelingSemantics, custom_semantics

__all__ = [
    "WorkerState",
    "decode_state",
    "encode_update",
    "decode_update",
    "preweighted_semantics",
    "shard_worker_main",
]

#: Row shape shipped for one pre-weighted insert update.
Row = Tuple[object, object, float, Optional[float], Optional[float]]


def preweighted_semantics(name: str) -> PeelingSemantics:
    """Shard-side identity semantics: weights arrive final from the mirror.

    The same construction as the in-process coordinator's shard semantics
    (:class:`~repro.engine.sharded.ShardedSpade`): edge weight = carried
    weight, vertex priors always explicit, original display name kept so
    results stay labelled.
    """
    return custom_semantics(name=name, edge_susp=lambda _src, _dst, raw, _graph: raw)


def encode_update(update: EdgeUpdate) -> Row:
    """Flatten a pre-weighted insert update into a picklable row."""
    return (update.src, update.dst, update.weight, update.src_weight, update.dst_weight)


def decode_update(row: Row) -> EdgeUpdate:
    """Rebuild the :class:`EdgeUpdate` an :func:`encode_update` row carries."""
    src, dst, weight, src_weight, dst_weight = row
    return EdgeUpdate(src, dst, weight, src_weight=src_weight, dst_weight=dst_weight)


class WorkerState:
    """The coordinator-side decode of one worker response payload."""

    __slots__ = ("community", "stats", "pending", "elapsed", "profile", "trace")

    def __init__(
        self,
        community: Community,
        stats: ReorderStats,
        pending: int,
        elapsed: float = 0.0,
        profile: Optional[Dict[str, Dict[str, float]]] = None,
        trace: Optional[str] = None,
    ) -> None:
        self.community = community
        self.stats = stats
        self.pending = pending
        self.elapsed = elapsed
        self.profile = profile or {}
        self.trace = trace


def _encode_stats(stats: ReorderStats) -> Tuple[int, int, int, int, int, int]:
    return (
        stats.queued_vertices,
        stats.moved_vertices,
        stats.scanned_positions,
        stats.edge_traversals,
        stats.islands,
        stats.repeeled_positions,
    )


def decode_state(payload: Dict[str, object]) -> WorkerState:
    """Decode an ``("ok", state)`` payload into a :class:`WorkerState`."""
    stats = ReorderStats()
    (
        stats.queued_vertices,
        stats.moved_vertices,
        stats.scanned_positions,
        stats.edge_traversals,
        stats.islands,
        stats.repeeled_positions,
    ) = payload["stats"]  # type: ignore[misc]
    community = Community(
        frozenset(payload["community"]),  # type: ignore[arg-type]
        payload["density"],  # type: ignore[arg-type]
        payload["peel_index"],  # type: ignore[arg-type]
    )
    return WorkerState(
        community,
        stats,
        int(payload["pending"]),  # type: ignore[arg-type]
        elapsed=float(payload.get("elapsed", 0.0)),  # type: ignore[arg-type]
        profile=payload.get("profile"),  # type: ignore[arg-type]
        trace=payload.get("trace"),  # type: ignore[arg-type]
    )


def _state_payload(
    spade: Spade,
    stats: ReorderStats,
    elapsed: float = 0.0,
    trace: Optional[str] = None,
) -> Dict[str, object]:
    from repro.obs import profile as _profile

    community = spade.detect()  # cached between mutations: no re-peel
    payload: Dict[str, object] = {
        "community": list(community.vertices),
        "density": community.density,
        "peel_index": community.peel_index,
        "stats": _encode_stats(stats),
        "pending": spade.pending_edges(),
        "elapsed": elapsed,
        "profile": _profile.snapshot(),
    }
    if trace is not None:
        payload["trace"] = trace
    return payload


def _load_engine(payload: Dict[str, object]) -> Spade:
    # Imported lazily: the serve-layer recovery module is only needed in
    # the child, and only for its pool-faithful snapshot->graph rebuild.
    from repro.graph.csr import CsrSnapshot
    from repro.serve.recovery import graph_from_snapshot

    snapshot = CsrSnapshot.load(str(payload["snapshot"]), mmap_mode="r")
    graph = graph_from_snapshot(snapshot, backend=str(payload["backend"]))
    kernel = payload.get("kernel")
    spade = Spade(
        preweighted_semantics(str(payload["semantics"])),
        edge_grouping=bool(payload["edge_grouping"]),
        kernel=str(kernel) if kernel is not None else None,
    )
    spade.load_graph(graph)
    return spade


def _apply(spade: Spade, kind: str, payload: object) -> ReorderStats:
    """Dispatch one mutating request; return the pass's merged counters."""
    if kind == "single":
        row, timestamp = payload  # type: ignore[misc]
        src, dst, weight, src_prior, dst_prior = row
        spade.insert_edge(
            src, dst, weight, timestamp=timestamp, src_prior=src_prior, dst_prior=dst_prior
        )
        return spade.last_stats
    if kind == "batch":
        spade.insert_batch_edges([decode_update(row) for row in payload])  # type: ignore[union-attr]
        return spade.last_stats
    if kind == "delete":
        spade.delete_edges([(src, dst) for src, dst in payload])  # type: ignore[union-attr]
        return spade.last_stats
    if kind == "runs":
        merged = ReorderStats()
        for is_delete, rows in payload:  # type: ignore[union-attr]
            if is_delete:
                spade.delete_edges([(src, dst) for src, dst in rows])
            else:
                spade.insert_batch_edges([decode_update(row) for row in rows])
            merged.merge(spade.last_stats)
        return merged
    if kind == "flush":
        spade.flush_pending()
        return spade.last_stats
    if kind == "detect":
        return ReorderStats()
    raise ValueError(f"unknown worker request kind {kind!r}")


def shard_worker_main(conn, index: int) -> None:
    """The resident apply loop of one shard worker process.

    Runs until a ``("stop", ...)`` request or the pipe closes (the
    coordinator died — exit quietly rather than orphan).  Every request
    is answered exactly once, so the coordinator can run a strict
    send-then-recv discipline per worker while still overlapping work
    *across* workers.
    """
    spade: Optional[Spade] = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind, payload, *rest = message
        meta: Optional[Dict[str, object]] = rest[0] if rest else None
        trace_id = meta.get("trace") if isinstance(meta, dict) else None  # type: ignore[union-attr]
        if kind == "stop":
            try:
                conn.send(("ok", None))
            except (BrokenPipeError, OSError):
                pass
            break
        try:
            if kind == "ping":
                response: object = {"index": index, "loaded": spade is not None}
            elif kind == "load":
                began = time.perf_counter()
                spade = _load_engine(payload)  # type: ignore[arg-type]
                response = _state_payload(
                    spade,
                    ReorderStats(),
                    elapsed=time.perf_counter() - began,
                    trace=trace_id,  # type: ignore[arg-type]
                )
            else:
                if spade is None:
                    raise RuntimeError("worker received updates before a load")
                began = time.perf_counter()
                stats = _apply(spade, kind, payload)
                response = _state_payload(
                    spade,
                    stats,
                    elapsed=time.perf_counter() - began,
                    trace=trace_id,  # type: ignore[arg-type]
                )
            conn.send(("ok", response))
        except (BrokenPipeError, OSError):
            break
        except BaseException as exc:  # noqa: BLE001 - forwarded to coordinator
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                break
    conn.close()
