"""The dynamic weighted directed graph used throughout the reproduction.

The paper models a transaction graph ``G = (V, E)`` where every vertex
``u_i`` carries a non-negative *suspiciousness* weight ``a_i`` and every
edge ``(u_i, u_j)`` carries a positive suspiciousness weight ``c_ij``
(Section 2.1).  The graph evolves by edge insertion (single or batched);
Appendix C additionally considers edge deletion for outdated transactions.

:class:`DynamicGraph` implements exactly this model with an adjacency-list
representation (a dict of dicts per direction), which is what the original
C++ implementation uses as well (Listing 1: "Spade uses the adjacency list
to store the graph").

Design notes
------------
* Vertices are arbitrary hashable identifiers (ints or strings in practice).
* The graph is *directed*; peeling weights (Equation 2) sum both in- and
  out-edges, which the convenience accessors expose as
  :meth:`DynamicGraph.incident_weight`.
* Inserting an edge that already exists accumulates its weight.  Transaction
  graphs frequently contain repeated (customer, merchant) pairs and the
  density metrics of the paper only ever consume the summed weight.
* Weight constraints from Property 3.1 (``a_i >= 0``, ``c_ij > 0``) are
  enforced eagerly so that incremental maintenance can rely on them.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.errors import InvalidWeightError, UnknownEdgeError, UnknownVertexError
from repro.graph.interning import VertexInterner

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

__all__ = ["Vertex", "Edge", "DynamicGraph", "populate_graph"]


def populate_graph(
    graph,
    vertices: Optional[Iterable[object]] = None,
    edges: Optional[Iterable[tuple]] = None,
) -> None:
    """Apply the constructor arguments shared by every graph backend.

    ``vertices`` may mix bare labels and ``(vertex, weight)`` pairs;
    ``edges`` are ``(src, dst)`` or ``(src, dst, weight)`` tuples.  Kept
    in one place so all backends accept exactly the same input shapes.
    """
    if vertices is not None:
        for item in vertices:
            if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], (int, float)):
                graph.add_vertex(item[0], float(item[1]))
            else:
                graph.add_vertex(item)
    if edges is not None:
        for item in edges:
            if len(item) == 2:
                graph.add_edge(item[0], item[1])
            elif len(item) == 3:
                graph.add_edge(item[0], item[1], float(item[2]))
            else:
                raise ValueError(f"edge tuple must have 2 or 3 elements, got {item!r}")


class DynamicGraph:
    """A directed, weighted, dynamically updatable graph.

    Parameters
    ----------
    vertices:
        Optional iterable of vertices (or ``(vertex, weight)`` pairs) to add
        up front.
    edges:
        Optional iterable of ``(src, dst)`` or ``(src, dst, weight)`` tuples.
        Unweighted edges default to weight ``1.0``.

    Examples
    --------
    >>> g = DynamicGraph()
    >>> g.add_edge("alice", "shop", 2.0)
    2.0
    >>> g.add_edge("bob", "shop")
    1.0
    >>> sorted(g.vertices())
    ['alice', 'bob', 'shop']
    >>> g.total_edge_weight()
    3.0
    """

    __slots__ = (
        "_out",
        "_in",
        "_vertex_weight",
        "_num_edges",
        "_total_edge_weight",
        "_interner",
    )

    #: Backend name used by :mod:`repro.graph.backend` to select this class.
    backend_name = "dict"

    def __init__(
        self,
        vertices: Optional[Iterable[object]] = None,
        edges: Optional[Iterable[tuple]] = None,
    ) -> None:
        self._out: Dict[Vertex, Dict[Vertex, float]] = {}
        self._in: Dict[Vertex, Dict[Vertex, float]] = {}
        self._vertex_weight: Dict[Vertex, float] = {}
        self._num_edges: int = 0
        self._total_edge_weight: float = 0.0
        self._interner = VertexInterner()
        populate_graph(self, vertices, edges)

    # ------------------------------------------------------------------ #
    # Vertices
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex: Vertex, weight: float = 0.0) -> None:
        """Add ``vertex`` with suspiciousness ``weight`` (idempotent).

        Re-adding an existing vertex updates its weight only when a strictly
        larger weight is supplied; this mirrors the "side information sets a
        prior" behaviour of Fraudar where priors only ever accumulate.
        """
        if weight < 0:
            raise InvalidWeightError(f"vertex weight must be >= 0, got {weight} for {vertex!r}")
        if vertex in self._vertex_weight:
            if weight > self._vertex_weight[vertex]:
                self._vertex_weight[vertex] = float(weight)
            return
        self._vertex_weight[vertex] = float(weight)
        self._out[vertex] = {}
        self._in[vertex] = {}
        self._interner.intern(vertex)

    def set_vertex_weight(self, vertex: Vertex, weight: float) -> None:
        """Overwrite the suspiciousness prior of an existing vertex."""
        if vertex not in self._vertex_weight:
            raise UnknownVertexError(vertex)
        if weight < 0:
            raise InvalidWeightError(f"vertex weight must be >= 0, got {weight} for {vertex!r}")
        self._vertex_weight[vertex] = float(weight)

    def has_vertex(self, vertex: Vertex) -> bool:
        """Return whether ``vertex`` is part of the graph."""
        return vertex in self._vertex_weight

    def vertex_weight(self, vertex: Vertex) -> float:
        """Return the suspiciousness prior ``a_i`` of ``vertex``."""
        try:
            return self._vertex_weight[vertex]
        except KeyError:
            raise UnknownVertexError(vertex) from None

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._vertex_weight)

    def num_vertices(self) -> int:
        """Return ``|V|``."""
        return len(self._vertex_weight)

    def total_vertex_weight(self) -> float:
        """Return the sum of all vertex suspiciousness priors."""
        return sum(self._vertex_weight.values())

    # ------------------------------------------------------------------ #
    # Edges
    # ------------------------------------------------------------------ #
    def add_edge(self, src: Vertex, dst: Vertex, weight: float = 1.0) -> float:
        """Insert the directed edge ``(src, dst)`` with suspiciousness ``weight``.

        Missing endpoints are created with a zero prior.  If the edge already
        exists its weight is accumulated, matching how repeated transactions
        between the same customer/merchant pair add suspiciousness.

        Returns the *new* total weight of the edge.
        """
        if weight <= 0:
            raise InvalidWeightError(f"edge weight must be > 0, got {weight} for ({src!r}, {dst!r})")
        if src == dst:
            raise InvalidWeightError(f"self loops are not part of the transaction model: {src!r}")
        if src not in self._vertex_weight:
            self.add_vertex(src)
        if dst not in self._vertex_weight:
            self.add_vertex(dst)
        out_src = self._out[src]
        if dst in out_src:
            out_src[dst] += float(weight)
            self._in[dst][src] += float(weight)
        else:
            out_src[dst] = float(weight)
            self._in[dst][src] = float(weight)
            self._num_edges += 1
        self._total_edge_weight += float(weight)
        return out_src[dst]

    def remove_edge(self, src: Vertex, dst: Vertex) -> float:
        """Remove the directed edge ``(src, dst)`` entirely and return its weight.

        Used by the Appendix C.1 extension (deletion of outdated
        transactions) and by dense-subgraph enumeration.
        """
        if src not in self._out or dst not in self._out[src]:
            raise UnknownEdgeError(src, dst)
        weight = self._out[src].pop(dst)
        del self._in[dst][src]
        self._num_edges -= 1
        self._total_edge_weight -= weight
        return weight

    def has_edge(self, src: Vertex, dst: Vertex) -> bool:
        """Return whether the directed edge ``(src, dst)`` exists."""
        return src in self._out and dst in self._out[src]

    def edge_weight(self, src: Vertex, dst: Vertex) -> float:
        """Return the accumulated weight ``c_ij`` of the directed edge."""
        try:
            return self._out[src][dst]
        except KeyError:
            raise UnknownEdgeError(src, dst) from None

    def edges(self) -> Iterator[Tuple[Vertex, Vertex, float]]:
        """Iterate over ``(src, dst, weight)`` triples."""
        for src, nbrs in self._out.items():
            for dst, weight in nbrs.items():
                yield src, dst, weight

    def num_edges(self) -> int:
        """Return ``|E|`` (unique directed edges)."""
        return self._num_edges

    def total_edge_weight(self) -> float:
        """Return the sum of all edge weights."""
        return self._total_edge_weight

    # ------------------------------------------------------------------ #
    # Neighbourhood accessors
    # ------------------------------------------------------------------ #
    def out_neighbors(self, vertex: Vertex) -> Mapping[Vertex, float]:
        """Return a read-only mapping ``{dst: weight}`` of outgoing edges."""
        try:
            return self._out[vertex]
        except KeyError:
            raise UnknownVertexError(vertex) from None

    def in_neighbors(self, vertex: Vertex) -> Mapping[Vertex, float]:
        """Return a read-only mapping ``{src: weight}`` of incoming edges."""
        try:
            return self._in[vertex]
        except KeyError:
            raise UnknownVertexError(vertex) from None

    def neighbors(self, vertex: Vertex) -> Iterator[Vertex]:
        """Iterate over the (undirected) neighbour set ``N(u)``."""
        seen = set()
        for nbr in self._out.get(vertex, ()):  # noqa: SIM118 - dict keys iteration
            seen.add(nbr)
            yield nbr
        for nbr in self._in.get(vertex, ()):
            if nbr not in seen:
                yield nbr

    def incident_items(self, vertex: Vertex) -> Iterator[Tuple[Vertex, float]]:
        """Iterate over ``(neighbour, weight)`` pairs of *all* incident edges.

        A neighbour connected in both directions is yielded twice (once per
        edge), because the peeling weight of Equation 2 sums both directions.
        """
        for nbr, weight in self._out.get(vertex, {}).items():
            yield nbr, weight
        for nbr, weight in self._in.get(vertex, {}).items():
            yield nbr, weight

    def out_degree(self, vertex: Vertex) -> int:
        """Return the number of outgoing edges of ``vertex``."""
        try:
            return len(self._out[vertex])
        except KeyError:
            raise UnknownVertexError(vertex) from None

    def in_degree(self, vertex: Vertex) -> int:
        """Return the number of incoming edges of ``vertex``."""
        try:
            return len(self._in[vertex])
        except KeyError:
            raise UnknownVertexError(vertex) from None

    def degree(self, vertex: Vertex) -> int:
        """Return the total degree (in + out) of ``vertex``."""
        return self.out_degree(vertex) + self.in_degree(vertex)

    def incident_weight(self, vertex: Vertex) -> float:
        """Return the summed weight of all edges incident to ``vertex``.

        Together with the vertex prior this is the peeling weight of the
        vertex with respect to the full vertex set, ``w_u(S_0)``.
        """
        total = sum(self._out.get(vertex, {}).values())
        total += sum(self._in.get(vertex, {}).values())
        return total

    # ------------------------------------------------------------------ #
    # Dense-id (interned) accessors — the GraphBackend hot-path surface
    # ------------------------------------------------------------------ #
    @property
    def interner(self) -> VertexInterner:
        """The label ↔ dense-id interner owned by this graph."""
        return self._interner

    def vertex_ids(self) -> np.ndarray:
        """Return the dense ids of all vertices, in graph insertion order."""
        id_of = self._interner._id_of
        return np.fromiter(
            (id_of[v] for v in self._vertex_weight),
            dtype=np.int32,
            count=len(self._vertex_weight),
        )

    def has_vertex_id(self, vid: int) -> bool:
        """Return whether the vertex with dense id ``vid`` is in the graph."""
        labels = self._interner._labels
        return 0 <= vid < len(labels) and labels[vid] in self._vertex_weight

    def vertex_weight_id(self, vid: int) -> float:
        """Return the prior ``a_i`` of the vertex with dense id ``vid``."""
        return self.vertex_weight(self._interner.label_of(vid))

    def degree_id(self, vid: int) -> int:
        """Return the total degree of the vertex with dense id ``vid``."""
        return self.degree(self._interner.label_of(vid))

    def incident_weight_id(self, vid: int) -> float:
        """Return the summed incident weight of the vertex with id ``vid``."""
        return self.incident_weight(self._interner.label_of(vid))

    def incident_arrays_id(self, vid: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbor_ids, weights)`` arrays of all incident edges.

        Out-edges come first (in insertion order), then in-edges, matching
        :meth:`incident_items`.  A neighbour connected in both directions
        appears twice.  Per the :class:`~repro.graph.backend.GraphBackend`
        contract the arrays are only guaranteed valid until the next call
        on the same graph — copy to retain (this backend happens to
        allocate fresh arrays, but callers must not rely on that).
        """
        label = self._interner.label_of(vid)
        out = self._out[label]
        inn = self._in[label]
        n = len(out) + len(inn)
        ids = np.empty(n, dtype=np.int32)
        weights = np.empty(n, dtype=np.float64)
        id_of = self._interner._id_of
        i = 0
        for nbr, weight in out.items():
            ids[i] = id_of[nbr]
            weights[i] = weight
            i += 1
        for nbr, weight in inn.items():
            ids[i] = id_of[nbr]
            weights[i] = weight
            i += 1
        return ids, weights

    # ------------------------------------------------------------------ #
    # Whole-graph helpers
    # ------------------------------------------------------------------ #
    def total_suspiciousness(self) -> float:
        """Return ``f(V)``: total vertex plus edge suspiciousness (Equation 1)."""
        return self.total_vertex_weight() + self._total_edge_weight

    def copy(self) -> "DynamicGraph":
        """Return a deep copy of the graph (weights included)."""
        clone = DynamicGraph()
        clone._vertex_weight = dict(self._vertex_weight)
        clone._out = {u: dict(nbrs) for u, nbrs in self._out.items()}
        clone._in = {u: dict(nbrs) for u, nbrs in self._in.items()}
        clone._num_edges = self._num_edges
        clone._total_edge_weight = self._total_edge_weight
        clone._interner = self._interner.copy()
        return clone

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._vertex_weight

    def __len__(self) -> int:
        return len(self._vertex_weight)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DynamicGraph(|V|={self.num_vertices()}, |E|={self.num_edges()}, "
            f"f(V)={self.total_suspiciousness():.3f})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicGraph):
            return NotImplemented
        return self._vertex_weight == other._vertex_weight and self._out == other._out

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("DynamicGraph is mutable and therefore unhashable")

    @classmethod
    def from_edges(cls, edges: Iterable[tuple]) -> "DynamicGraph":
        """Build a graph from an iterable of edge tuples."""
        return cls(edges=edges)

    @classmethod
    def from_graph(cls, graph) -> "DynamicGraph":
        """Replay another backend's vertices and edges into a dict graph.

        Vertices are replayed in insertion order, so the dense ids (and
        with them the peeling tie-break order) match the source graph.
        """
        clone = cls()
        for vertex in graph.vertices():
            clone.add_vertex(vertex, graph.vertex_weight(vertex))
        for src, dst, weight in graph.edges():
            clone.add_edge(src, dst, weight)
        return clone

    @classmethod
    def from_csr(cls, snapshot) -> "DynamicGraph":
        """Rebuild a labelled snapshot's graph: one dict per CSR run, in run order.

        A neighbour run is the vertex's adjacency-dict order, so no edge is
        re-inserted; ids, priors, edge count and total weight are the
        snapshot's own.
        """
        graph = cls()
        labels = snapshot.labels
        graph._interner.intern_many(labels)
        order = snapshot.order.tolist()
        priors = snapshot.vertex_weights.tolist()
        graph._vertex_weight = {labels[vid]: priors[vid] for vid in order}

        def runs(offsets, nbrs, wgts):
            bounds = offsets.tolist()
            nbrs = snapshot.labels_for(nbrs)
            wgts = wgts.tolist()
            return {
                labels[vid]: dict(
                    zip(nbrs[bounds[vid] : bounds[vid + 1]], wgts[bounds[vid] : bounds[vid + 1]])
                )
                for vid in order
            }

        graph._out = runs(snapshot.out_offsets, snapshot.out_neighbors, snapshot.out_weights)
        graph._in = runs(snapshot.in_offsets, snapshot.in_neighbors, snapshot.in_weights)
        graph._num_edges = snapshot.num_edges
        graph._total_edge_weight = snapshot.total_edge_weight
        return graph
