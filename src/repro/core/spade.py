"""The public Spade API (Listing 1 and Listing 2 of the paper).

:class:`Spade` is the developer-facing object.  A developer supplies the
fraud semantics — either one of the built-ins (DG / DW / FD) or custom
``vsusp`` / ``esusp`` plug-ins — loads a transaction graph, and then feeds
edge updates; the framework takes care of incrementalizing the peeling
algorithm (``ReorderSeq``), of batching (``InsertBatchEdges``) and of edge
grouping (``IsBenign``) transparently.

Mapping to the paper's C++ API:

========================  =====================================================
Paper (Listing 1)          This class
==========================  ===================================================
``LoadGraph(path)``         :meth:`Spade.load_graph` / :meth:`Spade.load_edges`
``VSusp(f)`` / ``ESusp(f)`` constructor ``semantics=`` or :meth:`Spade.set_suspiciousness`
``Detect()``                :meth:`Spade.detect`
``InsertEdge(e)``           :meth:`Spade.insert_edge`
``InsertBatchEdges(e*)``    :meth:`Spade.insert_batch_edges`
``TurnOnEdgeGrouping()``    :meth:`Spade.enable_edge_grouping`
``IsBenign(e)``             :meth:`Spade.is_benign` (built-in, used internally)
``ReorderSeq()``            internal (:mod:`repro.core.reorder`)
==========================  ===================================================

Example
-------
>>> from repro import Spade, dg_semantics
>>> spade = Spade(dg_semantics())
>>> spade.load_edges([("u1", "u2"), ("u2", "u3"), ("u1", "u3")])
>>> sorted(spade.detect().vertices)
['u1', 'u2', 'u3']
>>> community = spade.insert_edge("u4", "u1")
>>> "u4" in community.vertices
False
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Tuple

from repro.core.batch import BatchInput, insert_batch
from repro.core.deletion import delete_edges
from repro.core.enumeration import CommunityInstance, enumerate_communities
from repro.core.grouping import EdgeGrouper, is_benign
from repro.core.insertion import insert_edge as _insert_edge
from repro.core.reorder import ReorderStats
from repro.core.state import Community, PeelingState
from repro.config import validate_config
from repro.errors import StateError
from repro.graph.backend import backend_of, convert_graph, get_default_backend
from repro.graph.delta import EdgeUpdate
from repro.graph.graph import DynamicGraph, Vertex
from repro.peeling.result import PeelingResult
from repro.peeling.semantics import (
    EdgeSuspFn,
    PeelingSemantics,
    VertexSuspFn,
    custom_semantics,
    dg_semantics,
)

__all__ = ["Spade"]


class Spade:
    """Real-time fraud detection by incremental peeling on evolving graphs.

    This is the *single-shard* implementation of the
    :class:`repro.engine.protocol.DetectionEngine` protocol; consumers
    that should scale across cores construct engines through
    :func:`repro.engine.create_engine`, which partitions the vertex space
    over several of these behind a coordinator
    (:class:`repro.engine.sharded.ShardedSpade`).

    Parameters
    ----------
    semantics:
        The peeling semantics.  Defaults to DG (unweighted densest
        subgraph); use :func:`repro.peeling.semantics.dw_semantics`,
        :func:`repro.peeling.semantics.fraudar_semantics` or
        :func:`repro.peeling.semantics.custom_semantics` for the others.
    edge_grouping:
        When true, benign edges are buffered and only urgent edges trigger
        reordering (Section 4.3).  Can also be toggled later with
        :meth:`enable_edge_grouping`.
    backend:
        Graph backend name — ``"dict"`` (label-keyed adjacency dicts) or
        ``"array"`` (interned ids, each vertex's edges a run in numpy
        arenas; the fast path).
        ``None`` uses the process default
        (:func:`repro.graph.backend.get_default_backend`).  When set
        explicitly, :meth:`load_graph` converts an adopted graph of a
        different backend.
    kernel:
        Hot-loop implementation (``"python"`` / ``"native"`` /
        ``"auto"``; ``None`` = process default) — see
        :mod:`repro.native`.  Bit-identical results either way.
    """

    def __init__(
        self,
        semantics: Optional[PeelingSemantics] = None,
        edge_grouping: bool = False,
        backend: Optional[str] = None,
        kernel: Optional[str] = None,
    ) -> None:
        validate_config(backend=backend, kernel=kernel)
        self._semantics = semantics or dg_semantics()
        self._backend = backend
        self._kernel = kernel
        self._state: Optional[PeelingState] = None
        self._grouper: Optional[EdgeGrouper] = None
        self._grouping_enabled = edge_grouping
        self.last_stats: ReorderStats = ReorderStats()

    # ------------------------------------------------------------------ #
    # Configuration (VSusp / ESusp / TurnOnEdgeGrouping)
    # ------------------------------------------------------------------ #
    @property
    def semantics(self) -> PeelingSemantics:
        """The active peeling semantics."""
        return self._semantics

    def set_suspiciousness(
        self,
        vertex_susp: Optional[VertexSuspFn] = None,
        edge_susp: Optional[EdgeSuspFn] = None,
        name: str = "custom",
    ) -> None:
        """Plug in custom ``vsusp`` / ``esusp`` functions (Listing 1 lines 5-7).

        Must be called before the graph is loaded — the suspiciousness
        functions define the edge weights baked into the loaded graph.
        """
        if self._state is not None:
            raise StateError("suspiciousness functions must be set before loading the graph")
        self._semantics = custom_semantics(
            name=name,
            vertex_susp=vertex_susp,
            edge_susp=edge_susp,
            recompute_on_insert=True,
        )

    def enable_edge_grouping(
        self,
        max_buffer: Optional[int] = None,
        max_delay: Optional[float] = None,
    ) -> None:
        """Turn on edge grouping (``TurnOnEdgeGrouping`` in Listing 2)."""
        self._grouping_enabled = True
        if self._state is not None:
            self._grouper = EdgeGrouper(self._state, max_buffer=max_buffer, max_delay=max_delay)

    def disable_edge_grouping(self) -> None:
        """Flush any pending benign edges and turn grouping off."""
        if self._grouper is not None:
            self._grouper.flush()
        self._grouper = None
        self._grouping_enabled = False

    # ------------------------------------------------------------------ #
    # Graph loading
    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> str:
        """The graph backend this engine uses (resolved)."""
        if self._state is not None:
            return backend_of(self._state.graph)
        return self._backend or get_default_backend()

    @property
    def kernel(self) -> Optional[str]:
        """The requested hot-loop kernel (``None`` = process default)."""
        return self._kernel

    def load_graph(self, graph: DynamicGraph) -> PeelingResult:
        """Adopt an already-weighted graph and run the initial static peel.

        The graph is owned by the engine afterwards and mutated in place as
        updates arrive.  When the engine was constructed with an explicit
        ``backend`` that differs from the graph's, the graph is converted
        (copied) into that backend first.
        """
        if self._backend is not None and backend_of(graph) != self._backend:
            graph = convert_graph(graph, self._backend)
        self._state = PeelingState(graph, self._semantics, kernel=self._kernel)
        if self._grouping_enabled:
            self._grouper = EdgeGrouper(self._state)
        return self._state.as_result()

    def load_edges(
        self,
        edges: Iterable[tuple],
        vertex_priors: Optional[Mapping[Vertex, float]] = None,
    ) -> PeelingResult:
        """Build the weighted graph from raw transactions, then load it.

        ``edges`` are ``(src, dst)`` or ``(src, dst, raw_weight)`` tuples;
        the semantics converts raw weights into suspiciousness.
        """
        graph = self._semantics.materialize(
            edges, vertex_priors=vertex_priors, backend=self.backend
        )
        return self.load_graph(graph)

    # ------------------------------------------------------------------ #
    # Detection
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> PeelingState:
        """The maintained peeling state (raises before a graph is loaded)."""
        if self._state is None:
            raise StateError("no graph loaded; call load_graph or load_edges first")
        return self._state

    @property
    def graph(self) -> DynamicGraph:
        """The evolving transaction graph."""
        return self.state.graph

    def detect(self) -> Community:
        """Return the current fraudulent community ``S_P`` (Listing 1 line 9)."""
        return self.state.community()

    def result(self) -> PeelingResult:
        """Export the full peeling result (sequence, weights, community)."""
        return self.state.as_result()

    def enumerate_frauds(
        self,
        max_instances: int = 10,
        min_density: float = 0.0,
        min_size: int = 2,
    ) -> Sequence[CommunityInstance]:
        """Enumerate individual dense fraud instances (Appendix C.2)."""
        return enumerate_communities(
            self.state,
            max_instances=max_instances,
            min_density=min_density,
            min_size=min_size,
        )

    # ------------------------------------------------------------------ #
    # Updates
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
        """Insert one transaction and return the updated community.

        With edge grouping enabled the edge may be deferred (benign) — the
        returned community then reflects the graph *without* the buffered
        benign edges, exactly as in the paper's deployment.

        ``src_prior`` / ``dst_prior`` are optional vertex suspiciousness
        priors ("side information") honoured only when the endpoint is
        new; existing vertices keep their current prior.
        """
        state = self.state
        if self._grouper is not None:
            update = EdgeUpdate(src, dst, weight, src_weight=src_prior, dst_weight=dst_prior)
            flush = self._grouper.offer(update, timestamp=timestamp)
            self.last_stats = flush.stats
            return state.community()
        self.last_stats = _insert_edge(
            state, src, dst, raw_weight=weight, src_prior=src_prior, dst_prior=dst_prior
        )
        return state.community()

    def insert_batch_edges(self, batch: BatchInput) -> Community:
        """Insert a batch of transactions (Algorithm 2) and return the community."""
        state = self.state
        if self._grouper is not None and self._grouper.pending():
            # Pending benign edges must not be reordered past an explicit batch.
            self._grouper.flush()
        self.last_stats = insert_batch(state, batch)
        return state.community()

    def delete_edge(self, src: Vertex, dst: Vertex) -> Community:
        """Delete one outdated transaction and return the updated community.

        Singular convenience symmetric with :meth:`insert_edge`; delegates
        to :meth:`delete_edges`, so :attr:`last_stats` is updated the same
        way.
        """
        return self.delete_edges([(src, dst)])

    def delete_edges(self, edges: Iterable[Tuple[Vertex, Vertex]]) -> Community:
        """Delete outdated transactions (Appendix C.1) and return the community.

        Like the insert paths, the cost of the maintenance pass is recorded
        in :attr:`last_stats` (see ``ReorderStats.repeeled_positions``).
        """
        state = self.state
        self.last_stats = delete_edges(state, edges)
        return state.community()

    def flush_pending(self) -> Community:
        """Force-flush the benign-edge buffer (no-op without edge grouping).

        With nothing buffered this is a guaranteed fast path: the grouper
        is never invoked and the cached community is returned as-is.  The
        sharded coordinator (:class:`repro.engine.sharded.ShardedSpade`)
        calls this on every tick for every shard, so the empty case is
        pinned O(1) by an explicit guard and a regression test rather
        than left to the grouper's own early return.
        """
        if self._grouper is not None and self._grouper.pending():
            self._grouper.flush()
        return self.state.community()

    def pending_edges(self) -> int:
        """Return the number of buffered benign edges awaiting a flush."""
        return self._grouper.pending() if self._grouper is not None else 0

    # ------------------------------------------------------------------ #
    # Built-ins exposed for inspection
    # ------------------------------------------------------------------ #
    def is_benign(self, src: Vertex, dst: Vertex, weight: float = 1.0) -> bool:
        """Classify an incoming transaction as benign or urgent (Definition 4.1)."""
        state = self.state
        edge_weight = self._semantics.edge_weight(src, dst, weight, state.graph)
        return is_benign(state, src, dst, edge_weight)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self._state is None:
            loaded = "unloaded"
        else:
            graph = self._state.graph
            loaded = f"|V|={graph.num_vertices()}, |E|={graph.num_edges()}"
        return (
            f"Spade(semantics={self._semantics.name}, "
            f"backend={self.backend}, {loaded})"
        )
