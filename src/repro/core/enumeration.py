"""Dense-subgraph enumeration (Appendix C.2 of the paper).

A single densest community is often the union of several *fraud instances*
(Figure 14: three blocks of equal density form one dense subgraph).  When
moderators need the individual instances, Spade enumerates them by
repeatedly reporting the current community and peeling it out of the graph:

1. run the peeling algorithm (or reuse the maintained state) to get ``S_P``;
2. report ``S_P``, remove it (and its incident edges) from consideration;
3. re-peel what remains — the appendix notes this does not need to start
   from scratch, which :func:`enumerate_communities` honours by running the
   restricted :func:`repro.peeling.static.peel_subset` on the shrinking
   remainder only;
4. stop when the remaining density falls below a threshold, the instance
   budget is exhausted, or nothing is left.

The connected-component split (:func:`split_instances`) further separates a
reported community into its weakly connected parts, which is how Figure 15
counts "fraud instances" per timespan.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, List, Optional, Sequence, Set

import numpy as np

from repro.core.state import PeelingState
from repro.graph.graph import DynamicGraph, Vertex
from repro.peeling.result import PeelingResult, best_suffix
from repro.peeling.semantics import subset_density
from repro.peeling.static import peel_csr_ids, peel_subset, peel_subset_csr

__all__ = [
    "CommunityInstance",
    "enumerate_communities",
    "enumerate_csr",
    "split_instances",
]


@dataclass(frozen=True)
class CommunityInstance:
    """One enumerated dense community."""

    vertices: FrozenSet[Vertex]
    density: float
    rank: int

    def __len__(self) -> int:
        return len(self.vertices)


def split_instances(graph: DynamicGraph, community: FrozenSet[Vertex]) -> List[FrozenSet[Vertex]]:
    """Split a community into weakly connected fraud instances.

    Vertices of the community that are isolated within it form singleton
    instances; they typically correspond to vertices kept only because the
    density metric tolerates them (e.g. zero-weight spectators) and are
    reported last.
    """
    remaining: Set[Vertex] = set(community)
    instances: List[FrozenSet[Vertex]] = []
    while remaining:
        root = next(iter(remaining))
        component: Set[Vertex] = set()
        frontier = deque([root])
        remaining.discard(root)
        while frontier:
            vertex = frontier.popleft()
            component.add(vertex)
            for neighbor in graph.neighbors(vertex):
                if neighbor in remaining:
                    remaining.discard(neighbor)
                    frontier.append(neighbor)
        instances.append(frozenset(component))
    instances.sort(key=len, reverse=True)
    return instances


def enumerate_communities(
    state_or_graph,
    max_instances: int = 10,
    min_density: float = 0.0,
    min_size: int = 2,
) -> List[CommunityInstance]:
    """Enumerate dense communities in decreasing density order.

    Parameters
    ----------
    state_or_graph:
        Either a :class:`PeelingState` (preferred — its maintained sequence
        seeds the first community for free) or a plain weighted
        :class:`DynamicGraph`.
    max_instances:
        Upper bound on the number of reported communities.
    min_density:
        Stop when the next community's density drops to or below this value.
    min_size:
        Stop when the next community would be smaller than this.
    """
    if isinstance(state_or_graph, PeelingState):
        graph = state_or_graph.graph
        first: Optional[PeelingResult] = state_or_graph.as_result()
        semantics_name = state_or_graph.semantics.name
    else:
        graph = state_or_graph
        first = None
        semantics_name = "custom"

    remaining: Set[Vertex] = set(graph.vertices())
    instances: List[CommunityInstance] = []

    # Enumeration is read-only: on backends that can freeze (array), peel
    # every shrinking remainder over one immutable CSR snapshot instead of
    # hammering the mutable pools.  The freeze is deferred to the first
    # re-peel so detector-style calls that only consume the maintained
    # sequence (``first``) never pay for it.
    use_csr = hasattr(graph, "freeze")
    snapshot = None

    while remaining and len(instances) < max_instances:
        if first is not None:
            result = first
            first = None
        elif use_csr:
            if snapshot is None:
                snapshot = graph.freeze()
            result = peel_subset_csr(snapshot, remaining, semantics_name=semantics_name)
        else:
            result = peel_subset(graph, remaining, semantics_name=semantics_name)
        community = set(result.community) & remaining
        if not community:
            break
        # Density via the label path on purpose: it accumulates in the
        # same association order on every backend, keeping dict and array
        # enumeration bit-identical (snapshot.subset_density sums pairwise
        # and can drift by ulps on non-dyadic weights).
        density = subset_density(graph, community)
        if density <= min_density or len(community) < min_size:
            break
        instances.append(
            CommunityInstance(vertices=frozenset(community), density=density, rank=len(instances))
        )
        remaining -= community
    return instances


def _subset_density_csr(snapshot, subset: Set[Vertex]) -> float:
    """Label-path ``g(S)`` over a snapshot, bit-matching the mutable path.

    Accumulates in exactly the association order of
    :func:`repro.peeling.semantics.subset_suspiciousness` — per vertex of
    ``set(subset)``, prior first, then out-neighbors in pool order — so an
    enumeration over a snapshot reports the same densities as one over the
    live graph it froze.  The values are laid out in that order with numpy
    (an edge leaving the subset contributes ``0.0``, which adds exactly)
    and summed by ``cumsum``, a strict left-to-right scan: the same float
    additions as the scalar loop, without a python step per edge.
    """
    if not subset:
        return 0.0
    members = set(subset)
    vids = np.fromiter(
        (snapshot.id_of(vertex) for vertex in members), dtype=np.int64, count=len(members)
    )
    vids = vids[vids >= 0]
    vids = vids[snapshot.member[vids]]
    if not len(vids):
        return 0.0
    in_subset = np.zeros(snapshot.num_ids, dtype=bool)
    in_subset[vids] = True
    # Layout: per vertex one slot for its prior, then one per out-edge.
    starts = snapshot.out_offsets[vids]
    counts = snapshot.out_offsets[vids + 1] - starts
    edges_before = np.concatenate(([0], np.cumsum(counts)[:-1]))
    prior_slots = edges_before + np.arange(len(vids))
    positions = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
        starts - edges_before, counts
    )
    values = np.empty(len(positions) + len(vids), dtype=np.float64)
    edge_slots = np.ones(len(values), dtype=bool)
    edge_slots[prior_slots] = False
    values[prior_slots] = snapshot.vertex_weights[vids]
    values[edge_slots] = np.where(
        in_subset[snapshot.out_neighbors[positions]], snapshot.out_weights[positions], 0.0
    )
    return float(np.cumsum(values)[-1]) / len(subset)


def enumerate_csr(
    snapshot,
    max_instances: int = 10,
    min_density: float = 0.0,
    min_size: int = 2,
    semantics_name: str = "custom",
    first: Optional[AbstractSet[Vertex]] = None,
) -> List[CommunityInstance]:
    """Enumerate dense communities from an immutable CSR snapshot alone.

    The read-isolated twin of :func:`enumerate_communities`: the serving
    layer answers ``GET /v1/communities`` from a frozen
    :class:`~repro.graph.csr.CsrSnapshot` while the writer keeps mutating
    the live graph.  The loop is the same report-remove-repeel cycle, with
    the shrinking remainder kept as a dense-id array so a re-peel costs no
    label translation (it runs in a reader thread beside the writer; what
    it does in python, it does holding the interpreter lock).  Labels
    appear only for the reported community, built into the same set the
    label path builds so densities match it bit for bit.
    ``semantics_name`` is unused — no :class:`PeelingResult` is built —
    and stays only because ``benchmarks/ledger``'s probe passes it.

    ``first`` is the same seed :func:`enumerate_communities` takes from a
    :class:`PeelingState`: the community of the whole snapshot, when the
    caller already holds it (an engine's exact detection of the graph
    this snapshot froze — ``DetectionReport.exact``).  Rank 0 then costs
    no whole-graph peel; without it rank 0 comes from a fresh peel, which
    finds the same set.
    """
    if snapshot.labels is None:
        raise ValueError("enumerate_csr needs a snapshot saved with labels")
    remaining_ids = np.sort(np.asarray(snapshot.order, dtype=np.int32))
    remaining: Set[Vertex] = set(snapshot.labels_for(snapshot.order))
    instances: List[CommunityInstance] = []
    while remaining and len(instances) < max_instances:
        if first is not None:
            peeled: AbstractSet[Vertex] = first
            first = None
        else:
            order_ids, weights, total = peel_csr_ids(snapshot, remaining_ids)
            best_k, _ = best_suffix(total, weights)
            peeled = frozenset(snapshot.labels_for(order_ids[best_k:]))
        community = set(peeled) & remaining
        if not community:
            break
        density = _subset_density_csr(snapshot, community)
        if density <= min_density or len(community) < min_size:
            break
        instances.append(
            CommunityInstance(vertices=frozenset(community), density=density, rank=len(instances))
        )
        remaining -= community
        remaining_ids = remaining_ids[
            np.isin(remaining_ids, snapshot.ids_for(community), invert=True)
        ]
    return instances
