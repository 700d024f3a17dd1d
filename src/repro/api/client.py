"""``SpadeClient``: the config-driven context-manager façade over the engine.

The paper's Listing 1/2 pitch — "load graph, plug in vsusp/esusp, feed
updates" — as one stable v1 surface::

    from repro.api import EngineConfig, Insert, SpadeClient

    with SpadeClient(EngineConfig(semantics="DW", backend="array")) as client:
        client.load(history)                       # static init (Algorithm 1)
        report = client.apply([Insert("u", "v", 3.0)])
        print(report.density, sorted(report.vertices))

One ingestion method (:meth:`SpadeClient.apply`) accepts the whole typed
tagged-union stream (:class:`~repro.api.events.Insert` /
:class:`~repro.api.events.InsertBatch` / :class:`~repro.api.events.Delete`
/ :class:`~repro.api.events.Flush`, plus plain ``EdgeUpdate`` objects and
``(src, dst[, weight])`` tuples) and always returns one structured
:class:`~repro.api.report.DetectionReport`.  The legacy mutator names
remain as thin delegating shims that emit :class:`DeprecationWarning`.

The client never names a concrete engine class: construction goes through
:meth:`EngineConfig.build`, so the single ``Spade``, the hash-partitioned
``ShardedSpade`` and any future native/process-resident backend are
interchangeable behind it.
"""

from __future__ import annotations

import time
import warnings
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.api.config import EngineConfig
from repro.api.events import Delete, Event, Flush, Insert, InsertBatch, as_events
from repro.api.report import DetectionReport, EventOutcome
from repro.config import VALID_SEMANTICS
from repro.core.batch import BatchInput
from repro.errors import StateError
from repro.core.enumeration import CommunityInstance
from repro.core.reorder import ReorderStats
from repro.core.state import Community
from repro.engine.protocol import DetectionEngine
from repro.graph.backend import convert_graph
from repro.graph.csr import CsrSnapshot
from repro.graph.graph import Vertex
from repro.peeling.result import PeelingResult
from repro.peeling.semantics import PeelingSemantics

__all__ = ["SpadeClient"]


def _copy_stats(stats: ReorderStats) -> ReorderStats:
    copied = ReorderStats()
    copied.merge(stats)
    return copied


def _deprecated(old: str, new: str) -> None:
    warnings.warn(
        f"SpadeClient.{old} is deprecated; use SpadeClient.{new} instead",
        DeprecationWarning,
        stacklevel=3,
    )


class SpadeClient:
    """Config-driven façade over a :class:`DetectionEngine`.

    Parameters
    ----------
    config:
        An :class:`EngineConfig`, a plain mapping (passed through
        :meth:`EngineConfig.from_dict`), or ``None`` for all defaults.
        Keyword ``overrides`` are applied on top (re-validated).
    semantics:
        Optional custom :class:`~repro.peeling.semantics.PeelingSemantics`
        instance overriding the config's named built-in (the ``vsusp`` /
        ``esusp`` plug-in path of Listing 1).
    engine:
        Adopt an already-constructed engine instead of building one — the
        interop path for callers that still hold a raw ``Spade`` /
        ``ShardedSpade`` (see :meth:`wrap`).

    The client is a context manager: ``__exit__`` flushes deferred work so
    no accepted update is silently dropped when the block ends.
    """

    def __init__(
        self,
        config: Union[EngineConfig, Mapping[str, object], None] = None,
        *,
        semantics: Optional[PeelingSemantics] = None,
        engine: Optional[DetectionEngine] = None,
        **overrides: object,
    ) -> None:
        if isinstance(config, Mapping):
            config = EngineConfig.from_dict(config)
        elif config is None:
            config = EngineConfig()
        if overrides:
            config = config.replace(**overrides)
        if engine is not None:
            # Adopting: reconcile the config with the engine's actual shape
            # so reports carry truthful provenance.
            config = config.replace(
                shards=getattr(engine, "num_shards", 1),
                backend=engine.backend,
            )
            if engine.semantics.name in VALID_SEMANTICS:
                config = config.replace(semantics=engine.semantics.name)
            self._engine = engine
        else:
            self._engine = config.build(semantics)
        self._config = config

    @classmethod
    def wrap(cls, engine: DetectionEngine) -> "SpadeClient":
        """Adopt an existing engine behind the façade (no copy)."""
        return cls(engine=engine)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> EngineConfig:
        """The validated configuration this client was built from."""
        return self._config

    @property
    def engine(self) -> DetectionEngine:
        """The underlying detection engine (single or sharded)."""
        return self._engine

    @property
    def semantics(self) -> PeelingSemantics:
        """The active peeling semantics."""
        return self._engine.semantics

    @property
    def backend(self) -> str:
        """The resolved graph backend."""
        return self._engine.backend

    @property
    def kernel(self) -> Optional[str]:
        """The requested hot-loop kernel (``None`` = process default)."""
        return getattr(self._engine, "kernel", None)

    @property
    def shards(self) -> int:
        """Number of shard engines behind the façade (1 = single)."""
        return getattr(self._engine, "num_shards", 1)

    @property
    def graph(self):
        """The evolving transaction graph (the global mirror when sharded)."""
        return self._engine.graph

    @property
    def last_stats(self) -> ReorderStats:
        """Cost accounting of the most recent maintenance pass."""
        return self._engine.last_stats

    @property
    def _maintained_is_static(self) -> bool:
        """Whether the maintained sequence is the one a static peel finds.

        True for semantics whose edge weight is a function of the update
        alone (DG, DW): on exactly representable weights, incremental
        maintenance and a fresh peel of the same graph produce the same
        sequence.  False for ``recompute_on_insert`` semantics (FD): the
        ``1 / log(degree + c)`` weights tie in real arithmetic and not in
        floating point, the two paths sum them in different orders, and
        the maintained sequence — a valid peeling sequence either way —
        can end at a community whose density is percent away from the
        fresh peel's, in either direction.
        """
        return not self._engine.semantics.recompute_on_insert

    def pending_edges(self) -> int:
        """Deferred work: benign buffers plus any cross-shard queue."""
        return self._engine.pending_edges()

    def is_benign(self, src: Vertex, dst: Vertex, weight: float = 1.0) -> bool:
        """Classify an incoming transaction (Definition 4.1)."""
        return self._engine.is_benign(src, dst, weight)

    # ------------------------------------------------------------------ #
    # Context management
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "SpadeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Flush deferred work (safe before a graph is loaded)."""
        try:
            self._engine.flush_pending()
        except StateError:
            # Nothing loaded yet — nothing to flush.  Any other failure
            # must propagate: a swallowed flush error would silently drop
            # accepted updates.
            pass

    # ------------------------------------------------------------------ #
    # Report plumbing
    # ------------------------------------------------------------------ #
    def _report(
        self,
        community: Community,
        outcomes: Tuple[EventOutcome, ...] = (),
        stats: Optional[ReorderStats] = None,
        result: Optional[PeelingResult] = None,
        exact: bool = True,
        elapsed: float = 0.0,
    ) -> DetectionReport:
        return DetectionReport(
            community=community,
            outcomes=outcomes,
            stats=stats if stats is not None else ReorderStats(),
            result=result,
            semantics=self._engine.semantics.name,
            backend=self._engine.backend,
            shards=self.shards,
            exact=exact,
            elapsed_seconds=elapsed,
        )

    @staticmethod
    def _community_of(result: PeelingResult) -> Community:
        return Community(result.community, result.best_density, result.best_index)

    # ------------------------------------------------------------------ #
    # Load
    # ------------------------------------------------------------------ #
    def load(
        self,
        source,
        vertex_priors: Optional[Mapping[Vertex, float]] = None,
    ) -> DetectionReport:
        """Load the initial graph and run the static peel (Listing 1 line 8).

        ``source`` is either an already-weighted graph (adopted, converted
        to the configured backend if needed) or an iterable of
        ``(src, dst[, raw_weight])`` transactions weighted by the
        semantics.  Returns the initial detection with the full peeling
        result attached.
        """
        began = time.perf_counter()
        if hasattr(source, "add_edge"):
            if vertex_priors is not None:
                raise TypeError("vertex_priors only apply when loading raw edges")
            result = self._engine.load_graph(source)
        else:
            result = self._engine.load_edges(source, vertex_priors=vertex_priors)
        elapsed = time.perf_counter() - began
        return self._report(
            self._community_of(result), result=result, exact=True, elapsed=elapsed
        )

    # ------------------------------------------------------------------ #
    # The single ingestion method
    # ------------------------------------------------------------------ #
    def apply(self, updates) -> DetectionReport:
        """Apply a stream of update events; return one structured report.

        ``updates`` is anything :func:`repro.api.events.as_events`
        accepts: a single event, an iterable mixing
        :class:`Insert` / :class:`InsertBatch` / :class:`Delete` /
        :class:`Flush` events, plain :class:`~repro.graph.delta.EdgeUpdate`
        objects (``delete`` flag honoured) and ``(src, dst[, weight])``
        tuples, or a whole :class:`~repro.graph.delta.GraphDelta`.

        Each event dispatches to exactly the legacy maintenance path
        (``insert_edge`` / ``insert_batch_edges`` / ``delete_edges`` /
        ``flush_pending``), so the resulting engine state — and the
        returned community — is bit-identical to the equivalent sequence
        of legacy calls.  The report's community is the view after the
        last event: a single engine's maintained sequence, the
        shard-local lower bound for a sharded one.  ``report.exact`` says
        whether that is also what a static peel of the graph returns
        (not for a shard-local view, and not under FD).
        """
        engine = self._engine
        outcomes = []
        merged = ReorderStats()
        community: Optional[Community] = None
        began = time.perf_counter()
        for event in as_events(updates):
            if isinstance(event, Insert):
                community = engine.insert_edge(
                    event.src,
                    event.dst,
                    event.weight,
                    timestamp=event.timestamp,
                    src_prior=event.src_prior,
                    dst_prior=event.dst_prior,
                )
                kind, edges = "insert", 1
            elif isinstance(event, InsertBatch):
                community = engine.insert_batch_edges(event.updates)
                kind, edges = "insert_batch", len(event.updates)
            elif isinstance(event, Delete):
                community = engine.delete_edges(event.edges)
                kind, edges = "delete", len(event.edges)
            else:  # Flush
                community = engine.flush_pending()
                kind, edges = "flush", 0
            stats = _copy_stats(engine.last_stats)
            merged.merge(stats)
            outcomes.append(
                EventOutcome(
                    kind=kind,
                    edges=edges,
                    density=community.density,
                    community_size=len(community.vertices),
                    stats=stats,
                )
            )
        elapsed = time.perf_counter() - began
        if community is None:
            # Empty stream: report the current (cheap) view without
            # forcing any deferred work — the shard-local view for a
            # sharded engine, the cached community for a single one
            # (whose detect() never touches the benign buffer).
            local = getattr(engine, "detect_local", None)
            community = local() if local is not None else engine.detect()
        return self._report(
            community,
            outcomes=tuple(outcomes),
            stats=merged,
            exact=self.shards == 1 and self._maintained_is_static,
            elapsed=elapsed,
        )

    # ------------------------------------------------------------------ #
    # Detection and exports
    # ------------------------------------------------------------------ #
    def detect(self, include_result: bool = False) -> DetectionReport:
        """Return the exact current detection (Listing 1 line 9).

        For a sharded engine this runs the coordinator pass and the merged
        global peel, so it is always the exact community regardless of the
        per-update shard-local views; a single engine answers from its
        maintained sequence (``report.exact`` as for :meth:`apply`).
        ``include_result=True`` attaches the full peeling sequence export.
        """
        began = time.perf_counter()
        if include_result:
            result = self._engine.result()
            community = self._community_of(result)
        else:
            result = None
            community = self._engine.detect()
        elapsed = time.perf_counter() - began
        return self._report(
            community,
            result=result,
            exact=self.shards > 1 or self._maintained_is_static,
            elapsed=elapsed,
        )

    def flush(self) -> DetectionReport:
        """Force-flush deferred work; equivalent to ``apply([Flush()])``."""
        return self.apply([Flush()])

    def communities(
        self,
        max_instances: int = 10,
        min_density: float = 0.0,
        min_size: int = 2,
    ) -> Sequence[CommunityInstance]:
        """Enumerate individual dense fraud instances (Appendix C.2)."""
        return self._engine.enumerate_frauds(
            max_instances=max_instances,
            min_density=min_density,
            min_size=min_size,
        )

    def snapshot(self) -> CsrSnapshot:
        """Freeze the current graph into an immutable CSR snapshot.

        The snapshot reflects exactly what :meth:`detect` would see (for a
        sharded engine: the coordinator's global mirror).  Graphs on the
        ``dict`` backend are converted to array pools first (a copy);
        ``array`` graphs hit the version-guarded snapshot cache.
        """
        graph = self._engine.graph
        if not hasattr(graph, "freeze"):
            graph = convert_graph(graph, "array")
        return graph.freeze()

    # ------------------------------------------------------------------ #
    # Deprecated legacy shims (kept so migrations can be mechanical)
    # ------------------------------------------------------------------ #
    def insert_edge(
        self,
        src: Vertex,
        dst: Vertex,
        weight: float = 1.0,
        timestamp: Optional[float] = None,
        src_prior: Optional[float] = None,
        dst_prior: Optional[float] = None,
    ) -> Community:
        """Deprecated: use ``apply([Insert(...)])``."""
        _deprecated("insert_edge", "apply([Insert(...)])")
        return self._engine.insert_edge(
            src, dst, weight, timestamp=timestamp, src_prior=src_prior, dst_prior=dst_prior
        )

    def insert_batch_edges(self, batch: BatchInput) -> Community:
        """Deprecated: use ``apply([InsertBatch.of(...)])``."""
        _deprecated("insert_batch_edges", "apply([InsertBatch.of(...)])")
        return self._engine.insert_batch_edges(batch)

    def delete_edges(self, edges: Iterable[Tuple[Vertex, Vertex]]) -> Community:
        """Deprecated: use ``apply([Delete.of(...)])``."""
        _deprecated("delete_edges", "apply([Delete.of(...)])")
        return self._engine.delete_edges(edges)

    def flush_pending(self) -> Community:
        """Deprecated: use ``flush()`` (or ``apply([Flush()])``)."""
        _deprecated("flush_pending", "flush()")
        return self._engine.flush_pending()

    def enumerate_frauds(
        self,
        max_instances: int = 10,
        min_density: float = 0.0,
        min_size: int = 2,
    ) -> Sequence[CommunityInstance]:
        """Deprecated: use ``communities()``."""
        _deprecated("enumerate_frauds", "communities()")
        return self.communities(
            max_instances=max_instances, min_density=min_density, min_size=min_size
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpadeClient(config={self._config!r}, engine={self._engine!r})"
