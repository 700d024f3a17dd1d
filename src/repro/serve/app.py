"""``ServeApp``: routes, lifecycle and durability wiring for one deployment.

The composition root of the serving subsystem.  One
:class:`~repro.api.EngineConfig` (with its nested
:class:`~repro.serve.config.ServeConfig`) describes the whole deployment;
:class:`ServeApp` recovers or boots the engine, wires the WAL, checkpoint
store, ingest gateway and snapshot service around one shared
``asyncio.Lock``, and exposes the HTTP surface:

==========================  =====================================================
``POST /v1/edges``          single event or bulk ``{"edges": [...]}`` ingest;
                            micro-batched, durable before ack; ``429`` +
                            ``Retry-After`` under backpressure; ``503`` +
                            ``Retry-After`` while read-only degraded (WAL
                            unwritable — reads keep serving)
``POST /v1/flush``          force-flush deferred work (ordering barrier)
``GET /v1/detect``          exact detection at the latest version — the view
                            the writer published with the commit, the one its
                            ack carried — or at a past one with ``?asof=SEQ``
                            (time travel over the WAL; 400 beyond the durable
                            head)
``GET /v1/communities``     dense instances, ``offset``/``limit`` or keyset
                            ``cursor`` paginated; supports ``?asof=SEQ``
``GET /v1/vertices/{v}``    per-vertex stats from the current snapshot
``GET /v1/history/...``     cold-store analytics (``epochs``, ``communities``
                            timeline, ``vertices/{v}``), keyset paginated;
                            requires ``serve.history``
``GET /healthz``            liveness + engine shape + WAL/checkpoint/indexer
                            positions
``GET /metrics``            Prometheus text exposition
``GET /debug/traces``       slowest-recent recorded traces (``min_ms``,
                            ``limit``, ``trace_id`` filters) from the
                            in-memory ring
``GET /debug/profile``      per-peel-phase wall-time counters, python vs.
                            native kernel
==========================  =====================================================

Every data response carries the snapshot ``version`` (the WAL sequence it
reflects), which is the isolation contract clients can assert against —
and an ``X-Repro-Trace-Id`` header naming the request's trace
(:mod:`repro.obs`), whether or not the sampler recorded it.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro import native as _native
from repro._version import __version__
from repro.api.config import EngineConfig
from repro.errors import DegradedError, ReproError
from repro.graph.delta import EdgeUpdate
from repro.history import queries as history_queries
from repro.history.asof import AsofService
from repro.history.cursor import cursor_int, decode_cursor, encode_cursor
from repro.history.indexer import HistoryIndexer, IndexerTask, resolve_db_path
from repro.history.store import HistoryStore
from repro.history.store import connect as history_connect
from repro.obs import profile as obs_profile
from repro.obs.context import TraceContext
from repro.obs.events import EventLog
from repro.obs.recorder import TraceRecorder
from repro.peeling.semantics import PeelingSemantics
from repro.serve.config import ServeConfig
from repro.serve.ingest import IngestGateway
from repro.serve.metrics import MetricsRegistry
from repro.serve.recovery import CheckpointStore, recover
from repro.serve.server import HttpError, HttpServer, Request, Response, json_response
from repro.serve.snapshots import SnapshotService
from repro.serve.wal import WriteAheadLog

__all__ = ["ServeApp", "RUNINFO_FILENAME"]

#: JSON file written into ``wal_dir`` once the server is listening —
#: ``{"host": ..., "port": ..., "pid": ...}`` — so tooling (the CI smoke,
#: the bench) can discover an OS-assigned port.
RUNINFO_FILENAME = "server.json"


def _parse_label(value: object) -> object:
    """Validate a vertex label from the wire (string or finite number).

    Anything else (objects, arrays, null, nan) would be durably WAL-appended
    and then blow up inside the engine with a non-deterministic-looking
    ``TypeError`` — poisoning recovery.  Reject it before the queue.
    """
    if isinstance(value, str):
        if value:
            return value
        raise HttpError(400, "vertex labels must be non-empty")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if isinstance(value, int) or math.isfinite(value):
            return value
        raise HttpError(400, f"numeric vertex labels must be finite, got {value!r}")
    raise HttpError(400, f"vertex labels must be JSON strings or numbers, got {value!r}")


def _parse_prior(value: object) -> Optional[float]:
    """Validate an optional vertex prior (null or a finite non-negative number)."""
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            prior = float(value)
        except OverflowError:  # a JSON integer too large for a double
            prior = math.inf
        if math.isfinite(prior) and prior >= 0:
            return prior
        raise HttpError(400, f"vertex priors must be finite and >= 0, got {value}")
    raise HttpError(400, f"vertex priors must be numbers or null, got {value!r}")


def _parse_update(item: object) -> EdgeUpdate:
    """Coerce one wire-format edge into an :class:`EdgeUpdate` insert."""
    if isinstance(item, Mapping):
        try:
            src = item["src"]
            dst = item["dst"]
        except KeyError as exc:
            raise HttpError(400, f"edge object missing key {exc}")
        weight = item.get("weight", 1.0)
        src_prior = item.get("src_prior")
        dst_prior = item.get("dst_prior")
    elif isinstance(item, Sequence) and not isinstance(item, (str, bytes)):
        if len(item) == 2:
            src, dst = item
            weight, src_prior, dst_prior = 1.0, None, None
        elif len(item) == 3:
            src, dst, weight = item
            src_prior = dst_prior = None
        else:
            raise HttpError(400, f"edge rows must be [src, dst] or [src, dst, weight], got {item!r}")
    else:
        raise HttpError(400, f"unsupported edge shape {item!r}")
    try:
        weight = float(weight)
    except OverflowError:  # a JSON integer too large for a double
        weight = math.inf
    except (TypeError, ValueError):
        raise HttpError(400, f"edge weight must be a number, got {weight!r}")
    if not math.isfinite(weight) or weight <= 0:
        # ``nan <= 0`` is false: without the finiteness test a nan/inf
        # weight would be WAL-appended before the engine rejects it.
        raise HttpError(400, f"edge weight must be finite and > 0, got {weight}")
    src = _parse_label(src)
    dst = _parse_label(dst)
    if src == dst:
        # Reject before the WAL sees it: the graph layer would refuse the
        # self loop anyway, and a pre-validated request fails fast with
        # 400 instead of poisoning a coalesced batch.
        raise HttpError(400, f"self loops are not part of the transaction model: {src!r}")
    return EdgeUpdate(
        src, dst, weight, src_weight=_parse_prior(src_prior), dst_weight=_parse_prior(dst_prior)
    )


def _int_query(request: Request, name: str, default: int, minimum: int, maximum: int) -> int:
    raw = request.query.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise HttpError(400, f"query parameter {name} must be an integer, got {raw!r}")
    if not minimum <= value <= maximum:
        raise HttpError(400, f"query parameter {name} must be in [{minimum}, {maximum}]")
    return value


def _float_query(request: Request, name: str, default: float) -> float:
    raw = request.query.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise HttpError(400, f"query parameter {name} must be a number, got {raw!r}")


class ServeApp:
    """One configured serving deployment (engine + durability + HTTP)."""

    def __init__(
        self,
        config: Union[EngineConfig, Mapping[str, object]],
        semantics: Optional[PeelingSemantics] = None,
        initial_edges: Optional[List[tuple]] = None,
    ) -> None:
        if isinstance(config, Mapping):
            config = EngineConfig.from_dict(config)
        if config.serve is None:
            config = config.replace(serve=ServeConfig())
        self.config = config
        self.serve_config: ServeConfig = config.serve  # type: ignore[assignment]
        self._semantics = semantics
        self._started_at = time.time()

        self.metrics = MetricsRegistry()
        self._m_requests = self.metrics.counter(
            "repro_http_requests_total", "HTTP requests handled"
        )
        self._m_detect_latency = self.metrics.histogram(
            "repro_detect_seconds", "GET /v1/detect end-to-end handler time"
        )
        self._m_detect_reads = self.metrics.counter(
            "repro_detect_reads_total",
            "GET /v1/detect reads by where the answer came from: the engine's "
            "maintained sequence (published on commit) or a snapshot peel",
            labelnames=("source",),
        )
        for source in ("maintained", "peel"):
            self._m_detect_reads.labels(source=source)  # render both, at 0
        self._m_communities_latency = self.metrics.histogram(
            "repro_communities_seconds", "GET /v1/communities end-to-end handler time"
        )
        self._m_version = self.metrics.gauge(
            "repro_snapshot_version", "WAL sequence the latest snapshot reflects"
        )
        self._m_vertices = self.metrics.gauge(
            "repro_graph_vertices", "Vertices in the live graph"
        )
        self._m_edges = self.metrics.gauge(
            "repro_graph_edges", "Unique directed edges in the live graph"
        )
        self._m_checkpoint_fallbacks = self.metrics.counter(
            "repro_checkpoint_fallbacks_total",
            "Corrupt/unloadable checkpoints skipped in favor of an older one",
        )
        self._m_kernel = self.metrics.gauge(
            "repro_kernel_active",
            "1 when the compiled native kernels serve the hot loops, else 0",
        )
        self._m_build = self.metrics.gauge(
            "repro_build_info",
            "Deployment configuration (value is always 1; the labels carry it)",
            labelnames=("version", "kernel", "backend", "shards"),
        )
        self._m_traces = self.metrics.counter(
            "repro_traces_recorded_total",
            "Traces recorded to the ring buffer (sampled + slow)",
        )
        self._m_trace_log_errors = self.metrics.counter(
            "repro_trace_log_errors_total",
            "Event-log appends that failed (tracing keeps serving)",
        )
        self._m_profile_seconds = self.metrics.gauge(
            "repro_profile_seconds",
            "Cumulative wall seconds per peel/reorder phase",
            labelnames=("phase", "kernel"),
        )
        self._m_profile_calls = self.metrics.gauge(
            "repro_profile_calls",
            "Cumulative passes per peel/reorder phase",
            labelnames=("phase", "kernel"),
        )

        # --- observability (tracing + event log) ----------------------- #
        self.obs_config = self.serve_config.obs
        self.recorder = TraceRecorder(self.obs_config.trace_buffer)
        self._event_log: Optional[EventLog] = None
        self.trace_log_path: Optional[Path] = None
        trace_log = self.obs_config.trace_log
        if trace_log == "auto":
            trace_log = (
                str(Path(self.serve_config.wal_dir) / "events.jsonl")
                if self.serve_config.wal_dir is not None
                else None
            )
        if trace_log is not None:
            self.trace_log_path = Path(trace_log)
            self._event_log = EventLog(self.trace_log_path)

        # --- fault injection (chaos testing only) --------------------- #
        self._injector = None
        if self.serve_config.faults is not None:
            from repro.serve.faults import FaultInjector, FaultPlan

            self._injector = FaultInjector(FaultPlan.from_file(self.serve_config.faults))

        # --- kernel resolution (before recovery: a "native" request
        # that cannot be honoured should fail at boot, not mid-replay) -- #
        self.active_kernel: str = _native.resolve_kernel(config.kernel)
        self._m_kernel.set(1 if self.active_kernel == "native" else 0)

        # --- engine (recover or fresh boot) --------------------------- #
        recovered = recover(config, semantics=semantics, initial_edges=initial_edges)
        self.client = recovered.client
        self.recovered_ops = recovered.replayed_ops
        self.wal_corruption = recovered.wal_corruption
        self.checkpoint_fallbacks = recovered.checkpoint_fallbacks
        self.checkpoint_errors = 0
        self._m_checkpoint_fallbacks.inc(recovered.checkpoint_fallbacks)
        self._m_build.labels(
            version=__version__,
            kernel=self.active_kernel,
            backend=self.client.backend,
            shards=self.client.shards,
        ).set(1)
        self._lock = asyncio.Lock()
        self.service = SnapshotService(self.client, self._lock)

        # --- durability ----------------------------------------------- #
        self._wal: Optional[WriteAheadLog] = None
        self._checkpoints: Optional[CheckpointStore] = None
        self._checkpoint_seq: Optional[int] = None
        if self.serve_config.wal_dir is not None:
            self._checkpoints = CheckpointStore(
                self.serve_config.wal_dir, injector=self._injector
            )
            self._wal = WriteAheadLog(
                self.serve_config.wal_dir,
                fsync=self.serve_config.fsync,
                next_seq=recovered.wal_seq + 1,
                truncate_at=recovered.wal_offset,
                injector=self._injector,
            )
            if recovered.wal_seq == 0 and recovered.wal_offset == 0:
                # First boot: cut checkpoint zero so recovery never needs
                # the initial edge list again.
                self._cut_checkpoint(0, 0)
            if self._checkpoint_seq is None:
                self._checkpoint_seq = self._checkpoints.newest_seq()

        # --- time travel + historical analytics ------------------------ #
        self.asof: Optional[AsofService] = None
        self._indexer_task: Optional[IndexerTask] = None
        self.history_db: Optional[Path] = None
        history_cfg = self.serve_config.history
        if self.serve_config.wal_dir is not None:
            # As-of reads only need the WAL + checkpoints, so they are on
            # whenever durability is — the history sidecar is opt-in.
            m_hits = self.metrics.counter(
                "repro_asof_cache_hits_total", "As-of snapshot cache hits"
            )
            m_misses = self.metrics.counter(
                "repro_asof_cache_misses_total", "As-of snapshot cache misses"
            )
            m_resumes = self.metrics.counter(
                "repro_asof_resumes_total",
                "Cold as-of reads that resumed the resident replay cursor",
            )
            m_reconstruct = self.metrics.histogram(
                "repro_asof_reconstruct_seconds",
                "Cold as-of reads (checkpoint load or cursor resume + WAL replay)",
            )
            self.asof = AsofService(
                config,
                semantics=semantics,
                cache_size=(
                    history_cfg.asof_cache_size if history_cfg is not None else 8
                ),
                counters={
                    "hit": m_hits.inc,
                    "miss": m_misses.inc,
                    "resume": m_resumes.inc,
                    "reconstruct": m_reconstruct.observe,
                },
            )
            if history_cfg is not None:
                self.history_db = resolve_db_path(
                    self.serve_config.wal_dir, history_cfg
                )
                # Create the schema now so /v1/history answers (empty)
                # before the indexer's first poll instead of racing it.
                HistoryStore(self.history_db).close()
                self._m_history_epochs = self.metrics.counter(
                    "repro_history_epochs_total",
                    "Epochs this process appended to the cold store",
                )
                self._m_history_lag = self.metrics.gauge(
                    "repro_history_indexer_lag",
                    "WAL sequences between the durable head and the last indexed epoch",
                )
                self._indexer_task = IndexerTask(
                    HistoryIndexer(
                        self.serve_config.wal_dir,
                        history_cfg,
                        config=config,
                        semantics=semantics,
                    ),
                    history_cfg.poll_ms,
                    on_step=self._on_index_step,
                )

        self.gateway = IngestGateway(
            self.client,
            self.service,
            self._lock,
            self.serve_config,
            self.metrics,
            wal=self._wal,
            checkpoint=self._cut_checkpoint if self._checkpoints is not None else None,
        )
        if recovered.wal_corruption is not None:
            # The recovery scan dropped a corrupt WAL suffix — count it
            # (the gateway registered the family) and let /healthz carry
            # the reason so the truncation is reported, never silent.
            self.metrics.get("repro_wal_errors_total").inc()
        self._initial_seq = recovered.wal_seq
        self.server = HttpServer(
            self._handle,
            host=self.serve_config.host,
            port=self.serve_config.port,
            max_body=self.serve_config.max_body_bytes,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _cut_checkpoint(self, wal_seq: int, wal_offset: int) -> None:
        """Freeze the engine graph and persist a checkpoint (writer-held).

        A checkpoint that cannot be written (disk full — injected or
        real) is skipped rather than failing the commit: the WAL already
        holds the full history, so the only cost is a longer replay until
        a later interval succeeds.
        """
        assert self._checkpoints is not None
        try:
            self._checkpoints.save(self.client.snapshot(), wal_seq, wal_offset)
            self._checkpoint_seq = wal_seq
        except OSError:
            self.checkpoint_errors += 1

    def _on_index_step(self, report: Mapping[str, int]) -> None:
        """Fold one indexer poll into the metrics (loop thread)."""
        if report["new_epochs"]:
            self._m_history_epochs.inc(report["new_epochs"])
        self._m_history_lag.set(report["lag"])

    async def start(self) -> None:
        """Start the writer task and the HTTP listener; publish runinfo."""
        self.gateway.start(initial_seq=self._initial_seq)
        if self._indexer_task is not None:
            self._indexer_task.start()
        await self.server.start()
        if self.serve_config.wal_dir is not None:
            runinfo = {
                "host": self.serve_config.host,
                "port": self.server.port,
                "pid": os.getpid(),
                "version": __version__,
            }
            path = Path(self.serve_config.wal_dir) / RUNINFO_FILENAME
            path.write_text(json.dumps(runinfo), encoding="utf-8")

    async def stop(self) -> None:
        """Stop listening, drain pending writes, sync the WAL."""
        await self.server.stop()
        await self.gateway.stop()
        if self._indexer_task is not None:
            await self._indexer_task.stop()
        if self._wal is not None:
            self._wal.sync()
            self._wal.close()
        if self._event_log is not None:
            self._event_log.close()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def _handle(self, request: Request) -> Response:
        """Trace-wrapping entry point: every request gets a trace id.

        The id goes on the response (or error) header either way; the
        span tree is only collected when the deterministic sampler says
        so, and the finished trace is recorded when sampled *or* slower
        than ``obs.slow_ms`` (retroactively, without spans).
        """
        self._m_requests.inc()
        trace = TraceContext.new(
            request.method, request.path, self.obs_config.trace_sample
        )
        try:
            response = await self._dispatch(request, trace)
        except HttpError as exc:
            self._finish_trace(trace, exc.status)
            headers = dict(exc.headers or {})
            headers["X-Repro-Trace-Id"] = trace.trace_id
            exc.headers = headers
            raise
        except Exception:
            self._finish_trace(trace, 500)
            raise
        self._finish_trace(trace, response.status)
        response.headers["X-Repro-Trace-Id"] = trace.trace_id
        return response

    def _finish_trace(self, trace: TraceContext, status: int) -> None:
        """Record a completed trace to the ring + event log when warranted."""
        duration = trace.finish(status)
        slow = (
            self.obs_config.slow_ms > 0
            and duration * 1000.0 >= self.obs_config.slow_ms
        )
        if not (trace.sampled or slow):
            return
        record = trace.to_dict("sampled" if trace.sampled else "slow")
        self.recorder.record(record)
        self._m_traces.inc()
        if self._event_log is not None:
            try:
                self._event_log.write(record)
            except OSError:
                self._m_trace_log_errors.inc()

    async def _dispatch(self, request: Request, trace: TraceContext) -> Response:
        path = request.path.rstrip("/") or "/"
        try:
            if path == "/healthz":
                return await self._handle_health(request)
            if path == "/metrics":
                return await self._handle_metrics(request)
            if path == "/debug/traces":
                self._require(request, "GET")
                return await self._handle_traces(request)
            if path == "/debug/profile":
                self._require(request, "GET")
                return await self._handle_profile(request)
            if path == "/v1/edges":
                self._require(request, "POST")
                return await self._handle_edges(request, trace)
            if path == "/v1/flush":
                self._require(request, "POST")
                return await self._handle_flush(request, trace)
            if path == "/v1/detect":
                self._require(request, "GET")
                return await self._handle_detect(request, trace)
            if path == "/v1/communities":
                self._require(request, "GET")
                return await self._handle_communities(request, trace)
            if path.startswith("/v1/vertices/"):
                self._require(request, "GET")
                return await self._handle_vertex(request, path[len("/v1/vertices/"):])
            if path == "/v1/history/epochs":
                self._require(request, "GET")
                return await self._handle_history_epochs(request)
            if path == "/v1/history/communities":
                self._require(request, "GET")
                return await self._handle_history_communities(request)
            if path.startswith("/v1/history/vertices/"):
                self._require(request, "GET")
                return await self._handle_history_vertex(
                    request, path[len("/v1/history/vertices/"):]
                )
        except DegradedError as exc:
            raise self._degraded_http(exc) from exc
        except ReproError as exc:
            raise HttpError(400, str(exc)) from exc
        raise HttpError(404, f"no route for {request.method} {request.path}")

    @staticmethod
    def _require(request: Request, method: str) -> None:
        if request.method != method:
            raise HttpError(405, f"{request.path} requires {method}")

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #
    async def _handle_edges(self, request: Request, trace: TraceContext) -> Response:
        payload = request.json()
        if isinstance(payload, Mapping) and "edges" in payload:
            rows = payload["edges"]
            if not isinstance(rows, Sequence) or isinstance(rows, (str, bytes)):
                raise HttpError(400, '"edges" must be an array')
            if isinstance(payload.get("op"), str) and payload["op"] == "delete":
                edges = []
                for row in rows:
                    if (
                        not isinstance(row, Sequence)
                        or isinstance(row, (str, bytes))
                        or len(row) != 2
                    ):
                        raise HttpError(400, f"delete rows must be [src, dst], got {row!r}")
                    edges.append((_parse_label(row[0]), _parse_label(row[1])))
                if not edges:
                    raise HttpError(400, "empty delete")
                return await self._submit("delete", edges, len(edges), trace)
            updates = [_parse_update(row) for row in rows]
        elif isinstance(payload, Sequence) and not isinstance(payload, (str, bytes)):
            updates = [_parse_update(row) for row in payload]
        else:
            updates = [_parse_update(payload)]
        if not updates:
            raise HttpError(400, "empty edge list")
        return await self._submit("insert", updates, len(updates), trace)

    async def _handle_flush(self, request: Request, trace: TraceContext) -> Response:
        return await self._submit("flush", (), 0, trace)

    def _degraded_http(self, exc: DegradedError) -> HttpError:
        """Map read-only degraded mode to ``503`` + ``Retry-After``."""
        retry_after = max(1, round(self.serve_config.probe_interval_ms / 1000.0))
        return HttpError(
            503,
            str(exc),
            headers={"Retry-After": str(retry_after)},
        )

    async def _submit(
        self,
        kind: str,
        updates: Sequence,
        edges: int,
        trace: Optional[TraceContext] = None,
    ) -> Response:
        try:
            future = self.gateway.submit(kind, updates, edges, trace)
        except DegradedError as exc:
            raise self._degraded_http(exc) from exc
        if future is None:
            raise HttpError(429, "ingest queue is full", headers={"Retry-After": "1"})
        try:
            result = await future
        except DegradedError as exc:
            # The window this submission rode in hit a WAL append failure:
            # nothing of it was acked or made durable, so 503 + retry is
            # the truthful answer while reads keep serving.
            raise self._degraded_http(exc) from exc
        if "error" in result:
            # The operation was durably logged but deterministically
            # rejected by the engine (e.g. deleting an unknown edge).
            # Recovery skips it the same way, so 400 is the final word.
            raise HttpError(400, str(result["error"]))
        self._m_version.set(result["version"])  # type: ignore[arg-type]
        result = dict(result)
        result["accepted"] = edges
        return json_response(200, result)

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #
    def _asof_seq(self, request: Request) -> Optional[int]:
        """The validated ``asof`` query parameter, or None when absent.

        Only integer syntax is checked here — range validation (negative,
        beyond the durable head) lives in
        :meth:`~repro.history.asof.AsofService.state_at`, which knows
        the head and raises :class:`~repro.errors.AsofRangeError` → 400.
        """
        raw = request.query.get("asof")
        if raw is None:
            return None
        try:
            seq = int(raw)
        except ValueError:
            raise HttpError(400, f"query parameter asof must be an integer, got {raw!r}")
        if self.asof is None:
            raise HttpError(400, "asof reads require a WAL directory (serve.wal_dir)")
        return seq

    async def _handle_detect(self, request: Request, trace: TraceContext) -> Response:
        asof_seq = self._asof_seq(request)
        if asof_seq is not None:
            head = self.gateway.seq
            began = time.perf_counter()
            report = await asyncio.get_running_loop().run_in_executor(
                None, self.asof.detect_at, asof_seq, head
            )
            trace.add_span("asof_detect", began, time.perf_counter(), seq=asof_seq)
            return json_response(200, report)
        began = time.perf_counter()
        view = await self.service.detection()
        ended = time.perf_counter()
        self._m_detect_latency.observe(ended - began)
        self._m_detect_reads.labels(source=view.source).inc()
        trace.add_span("detect", began, ended, version=view.version, source=view.source)
        self._m_version.set(view.version)
        return json_response(200, view.payload)

    async def _handle_communities(self, request: Request, trace: TraceContext) -> Response:
        began = time.perf_counter()
        offset = _int_query(request, "offset", 0, 0, 10**6)
        limit = _int_query(request, "limit", 10, 1, 1000)
        min_density = _float_query(request, "min_density", 0.0)
        min_size = _int_query(request, "min_size", 2, 1, 10**6)
        after_rank: Optional[int] = None
        cursor_token = request.query.get("cursor")
        if cursor_token is not None:
            # Keyset mode: the opaque token supersedes any offset.
            position = decode_cursor(cursor_token, "communities")
            after_rank = cursor_int(position, "rank")
            if after_rank < 0:
                raise HttpError(400, f"cursor rank must be >= 0, got {after_rank}")
        asof_seq = self._asof_seq(request)
        if asof_seq is not None:
            head = self.gateway.seq
            start = offset if after_rank is None else after_rank + 1
            loop = asyncio.get_running_loop()
            report = await loop.run_in_executor(
                None,
                lambda: self.asof.communities_at(
                    asof_seq,
                    head,
                    start=start,
                    limit=limit,
                    min_density=min_density,
                    min_size=min_size,
                ),
            )
            if after_rank is None:
                report["offset"] = offset
        else:
            report = await self.service.communities(
                offset=offset,
                limit=limit,
                min_density=min_density,
                min_size=min_size,
                after_rank=after_rank,
            )
        next_rank = report.pop("next_rank", None)
        report["next_cursor"] = (
            encode_cursor("communities", rank=next_rank)
            if report.get("has_more") and next_rank is not None
            else None
        )
        ended = time.perf_counter()
        self._m_communities_latency.observe(ended - began)
        trace.add_span("communities", began, ended, version=report["version"])
        return json_response(200, report)

    async def _handle_vertex(self, request: Request, label: str) -> Response:
        if not label:
            raise HttpError(404, "missing vertex label")
        info = await self.service.vertex(label)
        if info is None:
            raise HttpError(404, f"unknown vertex {label!r}")
        return json_response(200, info)

    # ------------------------------------------------------------------ #
    # Historical analytics (the SQLite cold store)
    # ------------------------------------------------------------------ #
    async def _history_query(self, fn, *args, **kwargs) -> Response:
        """Run one cold-store query off the loop on a per-request connection.

        SQLite connections are cheap to open and thread-affine, so each
        request opens/uses/closes one inside a single executor thread —
        no pooling, no cross-thread handles, and the indexer's WAL-mode
        writer never blocks these readers.
        """
        if self.history_db is None:
            raise HttpError(
                404,
                "historical analytics are not enabled "
                "(configure serve.history / --history-db)",
            )
        path = self.history_db

        def _run():
            conn = history_connect(path)
            try:
                return fn(conn, *args, **kwargs)
            finally:
                conn.close()

        report = await asyncio.get_running_loop().run_in_executor(None, _run)
        return json_response(200, report)

    async def _handle_history_epochs(self, request: Request) -> Response:
        limit = _int_query(request, "limit", 50, 1, 1000)
        cursor = request.query.get("cursor")
        return await self._history_query(
            history_queries.epochs_page, cursor=cursor, limit=limit
        )

    async def _handle_history_communities(self, request: Request) -> Response:
        rank = _int_query(request, "rank", 0, 0, 10**6)
        limit = _int_query(request, "limit", 50, 1, 1000)
        cursor = request.query.get("cursor")
        return await self._history_query(
            history_queries.community_timeline, rank=rank, cursor=cursor, limit=limit
        )

    async def _handle_history_vertex(self, request: Request, label: str) -> Response:
        if not label:
            raise HttpError(404, "missing vertex label")
        limit = _int_query(request, "limit", 50, 1, 1000)
        min_density = _float_query(request, "min_density", 0.0)
        min_size = _int_query(request, "min_size", 1, 1, 10**6)
        cursor = request.query.get("cursor")
        return await self._history_query(
            history_queries.vertex_history,
            label,
            cursor=cursor,
            limit=limit,
            min_density=min_density,
            min_size=min_size,
        )

    # ------------------------------------------------------------------ #
    # Operational endpoints
    # ------------------------------------------------------------------ #
    async def _handle_health(self, request: Request) -> Response:
        graph = self.client.graph
        payload = {
            "status": "degraded" if self.gateway.degraded else "ok",
            "version": self.service.version,
            "vertices": graph.num_vertices(),
            "edges": graph.num_edges(),
            "pending": self.client.pending_edges(),
            "semantics": self.client.semantics.name,
            "backend": self.client.backend,
            "shards": self.client.shards,
            "kernel": {
                "requested": self.config.kernel,
                "active": self.active_kernel,
                "native_available": _native.available(),
            },
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "recovered_ops": self.recovered_ops,
            "library_version": __version__,
        }
        if self.gateway.degraded:
            payload["degraded_reason"] = self.gateway.degraded_reason
        if self.wal_corruption is not None:
            payload["wal_corruption"] = self.wal_corruption
        if self.checkpoint_fallbacks:
            payload["checkpoint_fallbacks"] = self.checkpoint_fallbacks
        if self.checkpoint_errors:
            payload["checkpoint_errors"] = self.checkpoint_errors
        payload["wal_errors"] = int(self.metrics.get("repro_wal_errors_total").value)
        if self._wal is not None:
            payload["wal_seq"] = self.gateway.seq
        if self._checkpoint_seq is not None:
            payload["checkpoint_seq"] = self._checkpoint_seq
        if self.asof is not None:
            payload["asof_cache"] = self.asof.cache_stats()
        if self._indexer_task is not None:
            payload["history"] = self._indexer_task.status()
        return json_response(200, payload)

    async def _handle_metrics(self, request: Request) -> Response:
        graph = self.client.graph
        self._m_vertices.set(graph.num_vertices())
        self._m_edges.set(graph.num_edges())
        self._m_version.set(self.service.version)
        if self._indexer_task is not None:
            self._m_history_lag.set(self._indexer_task.lag)
        self._refresh_profile_metrics(obs_profile.snapshot())
        return Response(
            200,
            self.metrics.render().encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    # ------------------------------------------------------------------ #
    # Debug surface (tracing + profiling)
    # ------------------------------------------------------------------ #
    async def _handle_traces(self, request: Request) -> Response:
        min_ms = _float_query(request, "min_ms", 0.0)
        limit = _int_query(request, "limit", 50, 1, 10**6)
        trace_id = request.query.get("trace_id")
        if trace_id is not None:
            found = self.recorder.find(trace_id)
            traces = [found] if found is not None else []
        else:
            traces = self.recorder.slowest(min_ms=min_ms, limit=limit)
        return json_response(
            200,
            {
                "count": len(traces),
                "capacity": self.recorder.capacity,
                "recorded": self.recorder.total_recorded,
                "sample_rate": self.obs_config.trace_sample,
                "slow_ms": self.obs_config.slow_ms,
                "traces": traces,
            },
        )

    def _refresh_profile_metrics(self, table: Dict[str, Dict[str, float]]) -> None:
        """Mirror the process profile table into the labeled gauges."""
        for key, cell in table.items():
            phase, kernel = obs_profile.split_key(key)
            self._m_profile_seconds.labels(phase=phase, kernel=kernel).set(
                cell["seconds"]
            )
            self._m_profile_calls.labels(phase=phase, kernel=kernel).set(
                cell["calls"]
            )

    async def _handle_profile(self, request: Request) -> Response:
        process = obs_profile.snapshot()
        self._refresh_profile_metrics(process)
        # One process serves every phase, so ``merged`` (the key scrapers
        # read) is the process table itself.
        return json_response(
            200,
            {"kernel": self.active_kernel, "process": process, "merged": process},
        )
