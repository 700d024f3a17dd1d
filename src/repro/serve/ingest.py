"""The group-commit ingest gateway: the serving layer's single writer.

Concurrent ``POST /v1/edges`` handlers do not touch the engine.  They
enqueue their parsed events on a bounded :class:`asyncio.Queue` and await
a future; one writer task commits them in windows.  A window is what
queued behind the previous commit, up to ``max_batch`` edges: the writer
never waits for more, so a lone post commits at once and a busy pipeline
batches itself.  Consecutive insert submissions coalesce into a single
:class:`~repro.api.events.InsertBatch` — the paper's Algorithm-2 batch
pass.  Deletes and flushes are ordering barriers: they close the current
window and are applied as their own operations, so the WAL replays
exactly what happened.

Commit protocol (per window, under the shared writer lock, off-loop)::

    1. append the coalesced operation(s) to the WAL   (fsync if configured)
    2. apply them to the engine through SpadeClient.apply
    3. maybe cut a checkpoint (every checkpoint_interval accepted edges)

then publish the new version to the snapshot service — together with the
detection the engine's apply just returned, which is what
``GET /v1/detect`` serves until the next commit — and resolve the
waiters' futures.  An event is acknowledged over HTTP only after step 2,
so every acknowledged event is both durable and applied — the invariant
the kill-and-restart tests exercise.

Backpressure is explicit: a full queue makes :meth:`IngestGateway.submit`
return ``None`` and the HTTP layer answers ``429`` with ``Retry-After``
instead of growing an unbounded buffer in front of a saturated engine.

Degraded read-only mode
-----------------------
A WAL append that fails with ``OSError`` (disk full, EIO — injected or
real) can never be acknowledged, so the gateway flips into **read-only
degraded mode**: the in-flight window's waiters fail with
:class:`~repro.errors.DegradedError` (the HTTP layer answers ``503``
with ``Retry-After``), new submissions are refused immediately, and
snapshot reads keep serving at the last durable version — safe because
the WAL append *precedes* the engine apply, so served state never ran
ahead of the log.  A background probe re-tests the WAL directory every
``probe_interval_ms`` and re-enters read-write the moment an fsynced
probe write succeeds.  ``repro_degraded_mode`` (gauge) and
``repro_wal_errors_total`` (counter) expose the state.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.client import SpadeClient
from repro.api.events import Delete, Event, Flush, InsertBatch
from repro.errors import DegradedError, ReproError
from repro.graph.delta import EdgeUpdate
from repro.obs.context import TraceContext, activate, deactivate
from repro.serve.config import ServeConfig
from repro.serve.metrics import MetricsRegistry, SIZE_BUCKETS
from repro.serve.snapshots import DetectionView, SnapshotService
from repro.serve.wal import WriteAheadLog

__all__ = ["IngestGateway", "Submission"]


class Submission:
    """One queued write request awaiting commit.

    ``trace`` rides along explicitly because the commit happens on an
    executor thread — ``run_in_executor`` does not propagate
    :mod:`contextvars`, so the request's :class:`TraceContext` must
    travel with the data it describes.
    """

    __slots__ = ("kind", "updates", "edges", "future", "enqueued_at", "trace")

    def __init__(
        self,
        kind: str,
        updates: Sequence,
        edges: int,
        future: "asyncio.Future[Dict[str, object]]",
        trace: Optional[TraceContext] = None,
    ) -> None:
        self.kind = kind  # "insert" | "delete" | "flush"
        self.updates = updates
        self.edges = edges
        self.future = future
        self.enqueued_at = time.perf_counter()
        self.trace = trace


class IngestGateway:
    """Bounded queue + writer task turning submissions into committed ops."""

    def __init__(
        self,
        client: SpadeClient,
        service: SnapshotService,
        lock: asyncio.Lock,
        config: ServeConfig,
        metrics: MetricsRegistry,
        wal: Optional[WriteAheadLog] = None,
        checkpoint: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self._client = client
        self._service = service
        self._lock = lock
        self._config = config
        self._wal = wal
        self._checkpoint = checkpoint
        self._queue: "asyncio.Queue[Submission]" = asyncio.Queue(config.queue_size)
        self._task: Optional["asyncio.Task[None]"] = None
        self._seq = 0
        # The engine's exact answer in the state _seq names (None when it
        # has none: shard-local reports, an op rejected half-way).  Only
        # the commit path writes it, next to _seq, so the pair can be
        # published as one on every way out of a window.
        self._detection: Optional[DetectionView] = None
        self._edges_since_checkpoint = 0
        self._degraded = False
        self._degraded_reason: Optional[str] = None
        self._probe_task: Optional["asyncio.Task[None]"] = None

        self._m_accepted = metrics.counter(
            "repro_ingest_events_accepted_total", "Edges accepted (acknowledged)"
        )
        self._m_rejected = metrics.counter(
            "repro_ingest_events_rejected_total", "Edges rejected with 429 backpressure"
        )
        self._m_batches = metrics.counter(
            "repro_ingest_batches_total", "Coalesced operations committed"
        )
        self._m_batch_size = metrics.histogram(
            "repro_ingest_batch_size_edges", "Edges per coalesced operation", SIZE_BUCKETS
        )
        self._m_commit = metrics.histogram(
            "repro_ingest_commit_seconds", "WAL append + engine apply per window"
        )
        self._m_fsync = metrics.histogram(
            "repro_wal_append_seconds", "WAL append (incl. fsync) per operation"
        )
        self._m_apply = metrics.histogram(
            "repro_engine_apply_seconds",
            "Engine apply per operation",
        )
        self._m_latency = metrics.histogram(
            "repro_ingest_ack_seconds", "Submission enqueue to acknowledgment"
        )
        self._m_depth = metrics.gauge(
            "repro_ingest_queue_depth", "Submissions waiting in the ingest queue"
        )
        self._m_degraded = metrics.gauge(
            "repro_degraded_mode",
            "1 while ingest is read-only degraded (WAL unwritable), else 0",
        )
        self._m_wal_errors = metrics.counter(
            "repro_wal_errors_total",
            "WAL append failures and corrupt records dropped at recovery",
        )
        self._m_stage = metrics.histogram(
            "repro_stage_seconds",
            "Per-request pipeline stage latency (tracing-independent)",
            labelnames=("stage",),
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def seq(self) -> int:
        """WAL sequence of the last committed operation."""
        return self._seq

    @property
    def degraded(self) -> bool:
        """True while ingest is refusing writes (read-only degraded mode)."""
        return self._degraded

    @property
    def degraded_reason(self) -> Optional[str]:
        """Why ingest degraded, or ``None`` while read-write."""
        return self._degraded_reason

    def start(self, initial_seq: int = 0) -> None:
        """Start the writer task; ``initial_seq`` resumes a recovered WAL."""
        self._seq = initial_seq
        # An empty apply reports the engine's current view without
        # forcing any deferred work, flagged exact or not like a commit's.
        self._detection = DetectionView.maintained(
            initial_seq, self._client.apply([]), self._client.graph
        )
        self._service.publish(initial_seq, self._detection)
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Drain the queue, commit what is pending, stop the writer."""
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None
        if self._task is None:
            return
        await self._queue.join()
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None

    # ------------------------------------------------------------------ #
    # Producer side (HTTP handlers)
    # ------------------------------------------------------------------ #
    def submit(
        self,
        kind: str,
        updates: Sequence,
        edges: int,
        trace: Optional[TraceContext] = None,
    ) -> Optional["asyncio.Future[Dict[str, object]]"]:
        """Enqueue one write request; ``None`` means full (answer 429).

        Raises :class:`~repro.errors.DegradedError` while ingest is
        read-only degraded (the HTTP layer answers 503).
        """
        if self._degraded:
            raise DegradedError(self._degraded_reason or "WAL unwritable")
        future: "asyncio.Future[Dict[str, object]]" = (
            asyncio.get_running_loop().create_future()
        )
        submission = Submission(kind, updates, edges, future, trace)
        try:
            self._queue.put_nowait(submission)
        except asyncio.QueueFull:
            self._m_rejected.inc(max(1, edges))
            return None
        self._m_depth.set(self._queue.qsize())
        return future

    # ------------------------------------------------------------------ #
    # Writer task
    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        while True:
            first = await self._queue.get()
            window = [first]
            edges = first.edges
            # Group commit: take whatever queued behind the previous
            # commit, never wait for more.  A delete/flush is an ordering
            # barrier: it never coalesces with anything behind it.
            while first.kind == "insert" and edges < self._config.max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                window.append(nxt)
                edges += nxt.edges
                if nxt.kind != "insert":
                    break
            self._m_depth.set(self._queue.qsize())
            try:
                await self._commit_window(window)
            finally:
                for _ in window:
                    self._queue.task_done()

    def _coalesce(
        self, window: List[Submission]
    ) -> List[Tuple[Event, List[Submission]]]:
        """Group consecutive insert submissions into InsertBatch operations."""
        ops: List[Tuple[Event, List[Submission]]] = []
        run: List[Submission] = []

        def close_run() -> None:
            if run:
                updates: List[EdgeUpdate] = []
                for submission in run:
                    updates.extend(submission.updates)
                ops.append((InsertBatch(tuple(updates)), list(run)))
                run.clear()

        for submission in window:
            if submission.kind == "insert":
                run.append(submission)
            elif submission.kind == "delete":
                close_run()
                ops.append((Delete(tuple(submission.updates)), [submission]))
            else:
                close_run()
                ops.append((Flush(), [submission]))
        close_run()
        return ops

    async def _commit_window(self, window: List[Submission]) -> None:
        if self._degraded:
            # Fail fast: submissions that raced into the queue before the
            # degradation flag flipped must not touch the failing WAL.
            error = DegradedError(self._degraded_reason or "WAL unwritable")
            for submission in window:
                if not submission.future.done():
                    submission.future.set_exception(error)
            return
        pickup = time.perf_counter()
        for submission in window:
            self._m_stage.labels(stage="queue_wait").observe(
                pickup - submission.enqueued_at
            )
            if submission.trace is not None:
                submission.trace.add_span(
                    "queue_wait",
                    submission.enqueued_at,
                    pickup,
                    window=len(window),
                )
        ops = self._coalesce(window)
        began = time.perf_counter()
        try:
            async with self._lock:
                results = await asyncio.get_running_loop().run_in_executor(
                    None, self._commit_sync, ops
                )
        except DegradedError as exc:
            # The WAL refused an append: everything committed before the
            # failure is durable and applied (publish its version and its
            # detection — the append precedes the apply, so the engine
            # never saw the refused op); the rest of the window was never
            # acked.  Enter read-only mode and start probing for the disk
            # to come back.
            self._service.publish(self._seq, self._detection)
            self._enter_degraded(exc.reason)
            for submission in window:
                if not submission.future.done():
                    submission.future.set_exception(exc)
            return
        except Exception as exc:  # engine/WAL failure: fail the waiters
            # Ops earlier in the window may have committed before the
            # failure advanced past them — publish their version so reads
            # never stamp the new state with a stale number.  The failing
            # op may have touched the engine, so no report describes the
            # state any more: reads peel it until the next commit.
            self._detection = None
            self._service.publish(self._seq, None)
            for submission in window:
                if not submission.future.done():
                    submission.future.set_exception(exc)
            return
        self._m_commit.observe(time.perf_counter() - began)
        self._service.publish(self._seq, self._detection)
        now = time.perf_counter()
        for (op, submissions), result in zip(ops, results):
            for submission in submissions:
                self._m_latency.observe(now - submission.enqueued_at)
                if not submission.future.done():
                    submission.future.set_result(dict(result))
        self._m_accepted.inc(sum(s.edges for s in window))

    # ------------------------------------------------------------------ #
    # Degraded read-only mode
    # ------------------------------------------------------------------ #
    def _enter_degraded(self, reason: str) -> None:
        if self._degraded:
            return
        self._degraded = True
        self._degraded_reason = reason
        self._m_degraded.set(1)
        self._probe_task = asyncio.get_running_loop().create_task(self._probe_loop())

    def _exit_degraded(self) -> None:
        self._degraded = False
        self._degraded_reason = None
        self._m_degraded.set(0)
        self._probe_task = None

    async def _probe_loop(self) -> None:
        """Re-test the WAL directory until a durable write succeeds again."""
        interval = self._config.probe_interval_ms / 1000.0
        loop = asyncio.get_running_loop()
        while self._degraded:
            await asyncio.sleep(interval)
            if self._wal is None:
                break
            try:
                async with self._lock:
                    await loop.run_in_executor(None, self._wal.probe)
            except OSError:
                continue
            self._exit_degraded()
            return

    def _commit_sync(
        self, ops: List[Tuple[Event, List[Submission]]]
    ) -> List[Dict[str, object]]:
        """WAL-append + apply each operation (runs in a worker thread).

        Tracing: one submission's trace becomes the *primary* for each
        coalesced op — activated as the ambient trace for the duration
        of the op so the WAL appender can attach its child span without
        plumbing.  Every other sampled trace in the op still gets the
        annotations (wal seq, which trace carried the spans), so a
        coalesced-away request remains attributable.
        """
        results: List[Dict[str, object]] = []
        for op, submissions in ops:
            seq = self._seq + 1
            primary: Optional[TraceContext] = next(
                (
                    s.trace
                    for s in submissions
                    if s.trace is not None and s.trace.sampled
                ),
                None,
            )
            token = activate(primary) if primary is not None else None
            try:
                if self._wal is not None:
                    wal_began = time.perf_counter()
                    try:
                        seq, offset = self._wal.append_op(op)
                    except OSError as exc:
                        # Disk full / EIO: nothing durable was added (the WAL
                        # discards partial bytes), so this op and everything
                        # behind it in the window must not be applied or acked.
                        self._m_wal_errors.inc()
                        raise DegradedError(f"WAL append failed: {exc}") from exc
                    wal_elapsed = time.perf_counter() - wal_began
                    self._m_fsync.observe(wal_elapsed)
                    self._m_stage.labels(stage="wal_append").observe(wal_elapsed)
                else:
                    offset = 0
                for submission in submissions:
                    if submission.trace is not None:
                        submission.trace.annotate(
                            wal_seq=seq, coalesced=len(submissions)
                        )
                        if primary is not None and submission.trace is not primary:
                            submission.trace.annotate(spans_on=primary.trace_id)
                apply_span = (
                    primary.start_span("engine_apply", kind=op.__class__.__name__)
                    if primary is not None
                    else None
                )
                try:
                    apply_began = time.perf_counter()
                    report = self._client.apply([op])
                    apply_elapsed = time.perf_counter() - apply_began
                    self._m_apply.observe(apply_elapsed)
                    self._m_stage.labels(stage="engine_apply").observe(apply_elapsed)
                except (ReproError, TypeError, ValueError) as exc:
                    # Deterministic engine rejection (invalid weight, a label
                    # the engine cannot digest...).  The record is already
                    # durable, but replaying it fails identically, so recovery
                    # skips it and the state machines stay in lockstep; the
                    # submitters get the error, later operations in the window
                    # still commit.
                    self._seq = seq
                    self._detection = None  # whatever it did left no report
                    results.append(
                        {"wal_seq": seq, "version": seq, "error": str(exc)}
                    )
                    continue
                finally:
                    if primary is not None:
                        primary.end_span(apply_span)
            finally:
                if token is not None:
                    deactivate(token)
            self._seq = seq
            self._detection = DetectionView.maintained(seq, report, self._client.graph)
            self._m_batches.inc()
            edges = report.edges_applied
            self._m_batch_size.observe(max(1, edges))
            results.append(
                {
                    "wal_seq": seq,
                    "version": seq,
                    "edges": edges,
                    "density": report.density,
                    "community_size": len(report.vertices),
                }
            )
            if self._checkpoint is not None:
                self._edges_since_checkpoint += edges
                if self._edges_since_checkpoint >= self._config.checkpoint_interval:
                    self._checkpoint(seq, offset)
                    self._edges_since_checkpoint = 0
        return results
