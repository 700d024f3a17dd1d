"""``ShardedSpade``: hash-partitioned shard engines behind a coordinator.

The ROADMAP's "sharded engines" item: the interner gives every vertex a
dense id; a :class:`~repro.engine.router.ShardRouter` hash-partitions ids
across ``num_shards`` single-engine :class:`~repro.core.spade.Spade`
instances so the per-update reordering work runs on graphs a fraction of
the global size (in the spirit of K-Join's vertex-cover-driven partitioned
parallel joins).

Architecture
------------
* **Coordinator mirror.**  The coordinator maintains the *global* weighted
  graph exactly as a single engine would — same vertex interning order,
  same suspiciousness evaluations against the same graph state, same
  accumulation order — but without any peeling state attached.  All
  ``vsusp`` / ``esusp`` evaluations happen here, against the global view,
  so degree-dependent semantics (Fraudar) see global degrees and the
  per-shard engines receive *pre-weighted* updates they never re-weigh.
* **Shards.**  Each shard owns the subgraph of edges whose source vertex
  it homes.  Intra-shard edges (both endpoints homed locally) are applied
  immediately through the shard's incremental maintenance; the foreign
  endpoint of a cross-shard edge is replicated into the owning shard with
  its global prior.
* **Cross-shard queue.**  Cross-shard updates are parked in a coordinator
  queue and applied as a periodic batch pass (``coordinator_interval``,
  or at the latest when a detection is requested) through the shards'
  existing ``insert_batch_edges`` / ``delete_edges`` paths — batching is
  exactly where Algorithm 2 recoups the deferral.
* **Merged detection.**  :meth:`detect` / :meth:`result` first run the
  coordinator pass (drain the queue, tick every shard's
  ``flush_pending``) and then peel the mirror — through the frozen CSR
  snapshot when the backend supports it.  Because the mirror is
  bit-identical to a single engine's graph, the merged community is
  *exact*: identical to single-engine ``Spade.detect()`` without edge
  grouping (a grouping single engine excludes its deferred benign edges;
  the merged detection is flush-consistent).  The per-update
  return value (:meth:`insert_edge` and friends) is instead the cheap
  **local** approximation — the densest community any one shard currently
  maintains, a lower bound on the global density that never pays for
  cross-shard reconciliation.

Exactness caveats (see README "Sharded engines"): the per-shard grouping
and :meth:`is_benign` use shard-local (lower-bound) densities, which only
makes flushes *more* eager; custom semantics whose ``vsusp`` inspects the
graph see the coordinator's mirror, which during a batch is consulted in
per-update order rather than ``insert_batch``'s create-all-vertices-first
order (DG / DW / FD are insensitive to this).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.batch import BatchInput, normalize_updates
from repro.core.enumeration import CommunityInstance, enumerate_communities
from repro.core.grouping import is_benign_on_graph
from repro.core.reorder import ReorderStats
from repro.core.spade import Spade
from repro.core.state import Community, PeelingState
from repro.config import validate_config
from repro.engine.router import ShardRouter
from repro.errors import StateError
from repro.graph.backend import backend_of, convert_graph, create_graph, get_default_backend
from repro.graph.delta import EdgeUpdate
from repro.graph.graph import DynamicGraph, Vertex
from repro.peeling.result import PeelingResult
from repro.peeling.semantics import (
    PeelingSemantics,
    custom_semantics,
    dg_semantics,
)
from repro.peeling.static import peel, peel_csr

__all__ = ["ShardedSpade"]


def _preweighted(semantics: PeelingSemantics) -> PeelingSemantics:
    """Shard-side semantics: weights arrive final from the coordinator.

    The coordinator evaluates ``vsusp`` / ``esusp`` against the global
    mirror and ships the results inside each update, so the shards run an
    identity semantics (edge weight = carried weight, vertex prior always
    explicit) under the original display name.
    """
    return custom_semantics(
        name=semantics.name,
        edge_susp=lambda _src, _dst, raw, _graph: raw,
    )


class ShardedSpade:
    """Hash-partitioned Spade shards behind a coordinator queue.

    Parameters
    ----------
    semantics:
        The peeling semantics (evaluated exclusively by the coordinator).
    num_shards:
        Number of shard engines the dense-id space is partitioned into.
    edge_grouping:
        Enable per-shard benign-edge grouping (Algorithm 3).  Deferral is
        shard-local; the coordinator pass flushes every shard, so merged
        detections always reflect all accepted updates.
    backend:
        Graph backend for the mirror and every shard (``"dict"`` /
        ``"array"``; ``None`` = process default).
    coordinator_interval:
        Cross-shard queue length that triggers an eager batch pass; the
        queue is always drained before a merged detection regardless.
    """

    def __init__(
        self,
        semantics: Optional[PeelingSemantics] = None,
        num_shards: int = 4,
        edge_grouping: bool = False,
        backend: Optional[str] = None,
        coordinator_interval: int = 1024,
        kernel: Optional[str] = None,
    ) -> None:
        validate_config(
            backend=backend,
            shards=num_shards,
            coordinator_interval=coordinator_interval,
            kernel=kernel,
        )
        self._semantics = semantics or dg_semantics()
        self._shard_semantics = _preweighted(self._semantics)
        self._num_shards = num_shards
        self._edge_grouping = edge_grouping
        self._backend = backend
        self._kernel = kernel
        self._coordinator_interval = coordinator_interval
        self._mirror = None
        self._router: Optional[ShardRouter] = None
        self._shards: List[Spade] = []
        self._pending: List[EdgeUpdate] = []
        self._pending_has_delete = False
        self._version = 0
        self._merged_result: Optional[PeelingResult] = None
        self._merged_version = -1
        self.last_stats: ReorderStats = ReorderStats()
        #: Operational counters for benchmarks and reports.
        self.coordinator_flushes = 0
        self.cross_shard_updates = 0
        self.intra_shard_updates = 0

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    @property
    def semantics(self) -> PeelingSemantics:
        """The active peeling semantics."""
        return self._semantics

    @property
    def num_shards(self) -> int:
        """Number of shard engines."""
        return self._num_shards

    @property
    def shards(self) -> Sequence[Spade]:
        """The shard engines (read-only by convention)."""
        return tuple(self._shards)

    @property
    def router(self) -> ShardRouter:
        """The dense-id partition map (raises before a graph is loaded)."""
        if self._router is None:
            raise StateError("no graph loaded; call load_graph or load_edges first")
        return self._router

    @property
    def backend(self) -> str:
        """The graph backend of the mirror and the shards (resolved)."""
        if self._mirror is not None:
            return backend_of(self._mirror)
        return self._backend or get_default_backend()

    @property
    def kernel(self) -> Optional[str]:
        """The requested hot-loop kernel (``None`` = process default)."""
        return self._kernel

    @property
    def graph(self) -> DynamicGraph:
        """The coordinator's global mirror of the evolving graph.

        Read it freely; mutate only through the engine's update methods,
        or the shards fall out of sync with the mirror.
        """
        return self._require_loaded()

    def _require_loaded(self):
        if self._mirror is None:
            raise StateError("no graph loaded; call load_graph or load_edges first")
        return self._mirror

    # ------------------------------------------------------------------ #
    # Load
    # ------------------------------------------------------------------ #
    def load_graph(self, graph: DynamicGraph) -> PeelingResult:
        """Adopt a weighted graph as the global mirror and partition it.

        The graph becomes the coordinator's mirror (owned, mutated in
        place as updates arrive); its edges are dealt to per-shard
        subgraphs by the router, with foreign endpoints of cross-shard
        edges replicated into the owning shard.
        """
        if self._backend is not None and backend_of(graph) != self._backend:
            graph = convert_graph(graph, self._backend)
        self._mirror = graph
        self._router = ShardRouter(graph.interner, self._num_shards)
        self._shards = []
        for shard_graph in self._partition_graphs():
            shard = Spade(
                self._shard_semantics,
                edge_grouping=self._edge_grouping,
                kernel=self._kernel,
            )
            shard.load_graph(shard_graph)
            self._shards.append(shard)
        self._pending = []
        self._pending_has_delete = False
        self._version += 1
        return self._merged()

    def load_edges(
        self,
        edges: Iterable[tuple],
        vertex_priors: Optional[Mapping[Vertex, float]] = None,
    ) -> PeelingResult:
        """Build the weighted global graph from raw transactions and load it."""
        graph = self._semantics.materialize(
            edges, vertex_priors=vertex_priors, backend=self.backend
        )
        return self.load_graph(graph)

    def _partition_graphs(self) -> List[DynamicGraph]:
        """Deal the mirror into per-shard subgraphs (router-homed edges).

        Vertices first, in global interner order, so shard-local dense
        ids follow the global tie-break order restricted to each shard;
        foreign endpoints of cross-shard edges are replicated with their
        global priors.
        """
        graph = self._require_loaded()
        backend = backend_of(graph)
        shard_graphs = [create_graph(backend) for _ in range(self._num_shards)]
        for label in graph.interner:
            if graph.has_vertex(label):
                shard_graphs[self._router.shard_of(label)].add_vertex(
                    label, graph.vertex_weight(label)
                )
        for src, dst, weight in graph.edges():
            home, cross = self._router.route_edge(src, dst)
            shard_graph = shard_graphs[home]
            if cross and not shard_graph.has_vertex(dst):
                shard_graph.add_vertex(dst, graph.vertex_weight(dst))
            shard_graph.add_edge(src, dst, weight)
        return shard_graphs

    # ------------------------------------------------------------------ #
    # Detection
    # ------------------------------------------------------------------ #
    def detect(self) -> Community:
        """Run the coordinator pass and return the **exact** global community.

        Drains the cross-shard queue, ticks every shard's
        ``flush_pending`` and peels the mirror (via its cached CSR
        snapshot on the array backend).  The result is identical to
        single-engine :meth:`repro.core.spade.Spade.detect` *without edge
        grouping* on the same update stream, and is cached until the next
        mutation.  (A grouping single engine excludes its buffered benign
        edges from detection; the merged detection is flush-consistent —
        it always reflects every accepted update.)
        """
        self._coordinator_pass()
        result = self._merged()
        return Community(result.community, result.best_density, result.best_index)

    def detect_local(self) -> Community:
        """Return the cheap shard-local approximation of the community.

        The densest community maintained by any single shard.  Its density
        is a lower bound on the exact global density (cross-shard edges
        only ever add suspiciousness); no coordinator pass is performed.
        """
        return self._local_community()

    def result(self) -> PeelingResult:
        """Export the merged global peeling result (coordinator pass included)."""
        self._coordinator_pass()
        return self._merged()

    def shard_communities(self) -> List[Community]:
        """Return every shard's current community (coordinator pass included)."""
        self._coordinator_pass()
        return [shard.detect() for shard in self._shards]

    def enumerate_frauds(
        self,
        max_instances: int = 10,
        min_density: float = 0.0,
        min_size: int = 2,
    ) -> Sequence[CommunityInstance]:
        """Enumerate dense fraud instances over the merged global result."""
        self._coordinator_pass()
        result = self._merged()
        state = PeelingState(self._require_loaded(), self._semantics, result=result)
        return enumerate_communities(
            state,
            max_instances=max_instances,
            min_density=min_density,
            min_size=min_size,
        )

    def _merged(self) -> PeelingResult:
        """Peel the mirror (cached per version) — the exact global result."""
        if self._merged_result is not None and self._merged_version == self._version:
            return self._merged_result
        mirror = self._require_loaded()
        if hasattr(mirror, "freeze"):
            result = peel_csr(mirror.freeze(), self._semantics.name, kernel=self._kernel)
        else:
            result = peel(mirror, self._semantics.name)
        self._merged_result = result
        self._merged_version = self._version
        return result

    def _local_community(self) -> Community:
        # Parked cross-shard *deletes* would leave removed weight visible
        # in shard states, letting the local density exceed the global one
        # and flipping the lower-bound guarantee that is_benign relies on
        # (an urgent edge must never look benign).  Parked inserts only
        # withhold weight, so they keep the bound; drain eagerly only when
        # a delete is in the queue.
        if self._pending_has_delete:
            self._apply_pending()
        if not self._shards:
            raise StateError("no graph loaded; call load_graph or load_edges first")
        return max((shard.detect() for shard in self._shards), key=lambda c: c.density)

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
        """Insert one transaction; returns the shard-local community view."""
        update = EdgeUpdate(src, dst, weight, src_weight=src_prior, dst_weight=dst_prior)
        self.last_stats = self._ingest([update], batch=False, timestamp=timestamp)
        return self._local_community()

    def insert_batch_edges(self, batch: BatchInput) -> Community:
        """Insert a batch of transactions; returns the shard-local view."""
        updates = normalize_updates(batch)
        if any(update.delete for update in updates):
            raise ValueError(
                "insert_batch_edges only handles insertions; use delete_edges for deletions"
            )
        self.last_stats = self._ingest(updates, batch=True)
        return self._local_community()

    def delete_edge(self, src: Vertex, dst: Vertex) -> Community:
        """Delete one outdated transaction; returns the shard-local view.

        Singular convenience symmetric with :meth:`insert_edge`.
        """
        return self.delete_edges([(src, dst)])

    def delete_edges(self, edges: Iterable[Tuple[Vertex, Vertex]]) -> Community:
        """Delete outdated transactions; returns the shard-local view."""
        mirror = self._require_loaded()
        stats = ReorderStats()
        immediate: Dict[int, List[Tuple[Vertex, Vertex]]] = {}
        removed = False
        for src, dst in edges:
            if not mirror.has_edge(src, dst):
                continue
            mirror.remove_edge(src, dst)
            removed = True
            home, cross = self._router.route_edge(src, dst)
            if cross and self._num_shards > 1:
                self._pending.append(EdgeUpdate(src, dst, delete=True))
                self._pending_has_delete = True
                self.cross_shard_updates += 1
            else:
                immediate.setdefault(home, []).append((src, dst))
                self.intra_shard_updates += 1
        for home, doomed in immediate.items():
            shard = self._shards[home]
            shard.delete_edges(doomed)
            stats.merge(shard.last_stats)
        if removed:
            self._version += 1
        if len(self._pending) >= self._coordinator_interval:
            self._apply_pending(stats)
        self.last_stats = stats
        return self._local_community()

    def _ingest(
        self,
        updates: List[EdgeUpdate],
        batch: bool,
        timestamp: Optional[float] = None,
    ) -> ReorderStats:
        """Mirror the updates globally, pre-weigh them, and route to shards.

        Mirror maintenance reproduces the single engine's evaluation
        order: ``insert_batch`` creates every new vertex before applying
        any edge; the single-edge path interleaves per update.
        """
        mirror = self._require_loaded()
        semantics = self._semantics
        router = self._router
        stats = ReorderStats()
        immediate: Dict[int, List[EdgeUpdate]] = {}

        def ensure_vertex(label: Vertex, prior: Optional[float]) -> None:
            if mirror.has_vertex(label):
                return
            weight = float(prior) if prior is not None else semantics.vertex_weight(label, mirror)
            mirror.add_vertex(label, weight)

        if batch:
            for update in updates:
                ensure_vertex(update.src, update.src_weight)
                ensure_vertex(update.dst, update.dst_weight)
        for update in updates:
            if not batch:
                ensure_vertex(update.src, update.src_weight)
                ensure_vertex(update.dst, update.dst_weight)
            edge_weight = semantics.edge_weight(update.src, update.dst, update.weight, mirror)
            mirror.add_edge(update.src, update.dst, edge_weight)
            home, cross = router.route_edge(update.src, update.dst)
            pre = EdgeUpdate(
                update.src,
                update.dst,
                weight=edge_weight,
                src_weight=mirror.vertex_weight(update.src),
                dst_weight=mirror.vertex_weight(update.dst),
            )
            if cross and self._num_shards > 1:
                self._pending.append(pre)
                self.cross_shard_updates += 1
            else:
                immediate.setdefault(home, []).append(pre)
                self.intra_shard_updates += 1

        for home, routed in immediate.items():
            shard = self._shards[home]
            if not batch and len(routed) == 1:
                update = routed[0]
                shard.insert_edge(
                    update.src,
                    update.dst,
                    update.weight,
                    timestamp=timestamp,
                    src_prior=update.src_weight,
                    dst_prior=update.dst_weight,
                )
            else:
                shard.insert_batch_edges(routed)
            stats.merge(shard.last_stats)

        self._version += 1
        if len(self._pending) >= self._coordinator_interval:
            self._apply_pending(stats)
        return stats

    # ------------------------------------------------------------------ #
    # Coordinator pass
    # ------------------------------------------------------------------ #
    def _apply_pending(self, stats: Optional[ReorderStats] = None) -> None:
        """Drain the cross-shard queue into the owning shards, in order.

        The queue is FIFO per edge (all updates to one directed edge share
        an owning shard), so applying each shard's slice in order — with
        consecutive runs of inserts batched through ``insert_batch_edges``
        and runs of deletes through ``delete_edges`` — reproduces the
        global per-edge update order.
        """
        if not self._pending:
            return
        queue, self._pending = self._pending, []
        self._pending_has_delete = False
        self.coordinator_flushes += 1
        per_home: Dict[int, List[EdgeUpdate]] = {}
        for update in queue:
            per_home.setdefault(self._router.shard_of(update.src), []).append(update)
        for home, ops in per_home.items():
            shard = self._shards[home]
            i = 0
            while i < len(ops):
                j = i
                if ops[i].delete:
                    while j < len(ops) and ops[j].delete:
                        j += 1
                    shard.delete_edges([(u.src, u.dst) for u in ops[i:j]])
                else:
                    while j < len(ops) and not ops[j].delete:
                        j += 1
                    shard.insert_batch_edges(ops[i:j])
                if stats is not None:
                    stats.merge(shard.last_stats)
                i = j

    def _coordinator_pass(self) -> None:
        """One coordinator tick: drain the queue, flush every shard.

        ``Spade.flush_pending`` is a fast no-op on an empty buffer.
        """
        self._apply_pending()
        for shard in self._shards:
            shard.flush_pending()

    def flush_pending(self) -> Community:
        """Force a coordinator pass; returns the shard-local view."""
        self._coordinator_pass()
        return self._local_community()

    def pending_edges(self) -> int:
        """Cross-shard queue length plus per-shard grouper buffers."""
        return len(self._pending) + sum(shard.pending_edges() for shard in self._shards)

    # ------------------------------------------------------------------ #
    # Built-ins exposed for inspection
    # ------------------------------------------------------------------ #
    def is_benign(self, src: Vertex, dst: Vertex, weight: float = 1.0) -> bool:
        """Definition 4.1 against the global mirror and the local density.

        Uses the shard-local community density, which — with any parked
        deletes drained first (see ``_local_community``) — is a lower
        bound on the exact global density, so the test can only classify
        *more* edges as urgent: deferral never becomes less safe than
        single-engine.
        """
        mirror = self._require_loaded()
        edge_weight = self._semantics.edge_weight(src, dst, weight, mirror)
        return is_benign_on_graph(
            mirror, src, dst, edge_weight, self._local_community().density
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self._mirror is None:
            loaded = "unloaded"
        else:
            loaded = (
                f"|V|={self._mirror.num_vertices()}, "
                f"|E|={self._mirror.num_edges()}, pending={len(self._pending)}"
            )
        return (
            f"ShardedSpade(semantics={self._semantics.name}, "
            f"backend={self.backend}, shards={self._num_shards}, {loaded})"
        )
