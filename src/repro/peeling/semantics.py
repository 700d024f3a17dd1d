"""Density semantics: the ``vsusp`` / ``esusp`` plug-in interface.

Section 3 of the paper defines Spade's programmability model: a developer
supplies two *suspiciousness functions*,

* ``vsusp(u, G)``  — the prior suspiciousness ``a_i >= 0`` of a vertex, and
* ``esusp((u, v), G)`` — the suspiciousness ``c_ij > 0`` of an edge,

and the framework evaluates the arithmetic density metric

.. math::

    g(S) = \\frac{f(S)}{|S|},\\qquad
    f(S) = \\sum_{u_i \\in S} a_i + \\sum_{(u_i,u_j) \\in E[S]} c_{ij}

(Equation 1).  Property 3.1 states that any metric of this shape with
non-negative vertex weights and positive edge weights is supported.

Three built-in instances mirror Appendix F:

``dg_semantics``
    DG [Charikar 2000]: ``esusp = 1`` for every edge, no vertex prior.
``dw_semantics``
    DW [Gudapati et al. 2021]: ``esusp`` is the raw transaction weight.
``fraudar_semantics``
    FD [Hooi et al. 2016]: ``esusp(u, v) = 1 / log(x + c)`` where ``x`` is
    the degree of the *object* vertex (the merchant / column vertex ``v``),
    and ``vsusp`` returns a per-vertex prior from side information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import InvalidWeightError, SemanticsError
from repro.graph.graph import DynamicGraph, Vertex

__all__ = [
    "VertexSuspFn",
    "EdgeSuspFn",
    "PeelingSemantics",
    "dg_semantics",
    "dw_semantics",
    "fraudar_semantics",
    "custom_semantics",
    "subset_suspiciousness",
    "subset_density",
]

#: ``vsusp(vertex, graph) -> a_i``
VertexSuspFn = Callable[[Vertex, DynamicGraph], float]
#: ``esusp(src, dst, raw_weight, graph) -> c_ij``
EdgeSuspFn = Callable[[Vertex, Vertex, float, DynamicGraph], float]


def _zero_vertex_susp(_vertex: Vertex, _graph: DynamicGraph) -> float:
    """Default vertex suspiciousness: no prior (used by DG and DW)."""
    return 0.0


def _unit_edge_susp(_src: Vertex, _dst: Vertex, _raw: float, _graph: DynamicGraph) -> float:
    """Default edge suspiciousness: every edge counts 1 (DG)."""
    return 1.0


def _raw_edge_susp(_src: Vertex, _dst: Vertex, raw: float, _graph: DynamicGraph) -> float:
    """Edge suspiciousness equal to the raw transaction weight (DW)."""
    return raw


def _intern_edges(edges) -> Tuple[List[Vertex], np.ndarray, np.ndarray]:
    """Check raw edges as ``add_edge`` does and intern their labels.

    Returns the labels in first-appearance order (src, then dst, per
    edge), the ``int64`` ids of every edge's ends interleaved as
    ``(src_0, dst_0, src_1, dst_1, ...)``, and the raw weights in input
    order.
    """
    id_of: Dict[Vertex, int] = {}
    ends: List[int] = []
    raws: List[float] = []
    for item in edges:
        if len(item) == 2:
            src, dst = item
            raw = 1.0
        else:
            src, dst, raw = item[0], item[1], float(item[2])
        if not 0.0 < raw < math.inf:
            raise InvalidWeightError(
                f"edge weight must be finite and > 0, got {raw} for ({src!r}, {dst!r})"
            )
        if src == dst:
            raise InvalidWeightError(f"self loops are not part of the transaction model: {src!r}")
        ends.append(id_of.setdefault(src, len(id_of)))
        ends.append(id_of.setdefault(dst, len(id_of)))
        raws.append(raw)
    return list(id_of), np.array(ends, dtype=np.int64), np.array(raws, dtype=np.float64)


@dataclass(frozen=True)
class PeelingSemantics:
    """A peeling algorithm specification: density metric + suspiciousness.

    Instances are immutable and cheap to share; the Spade engine keeps a
    reference to the semantics it was constructed with and uses it to weigh
    every vertex and edge entering the graph.

    Attributes
    ----------
    name:
        Human-readable identifier used by benchmark tables (``"DG"``,
        ``"DW"``, ``"FD"`` or a custom label).
    vertex_susp:
        The ``vsusp`` plug-in.
    edge_susp:
        The ``esusp`` plug-in.  It receives the raw weight carried by the
        update so that transaction-amount semantics (DW) can use it, while
        structural semantics (DG, FD) are free to ignore it.
    recompute_on_insert:
        When true (the FD default) the edge weight depends on the state of
        the graph at insertion time (e.g. the current degree of the object
        vertex) and must be evaluated lazily per insertion.  When false the
        weight is a pure function of the update itself.
    """

    name: str
    vertex_susp: VertexSuspFn = _zero_vertex_susp
    edge_susp: EdgeSuspFn = _unit_edge_susp
    recompute_on_insert: bool = False

    # ------------------------------------------------------------------ #
    # Evaluation helpers
    # ------------------------------------------------------------------ #
    def vertex_weight(self, vertex: Vertex, graph: DynamicGraph) -> float:
        """Evaluate ``vsusp`` and validate the result (``a_i >= 0``)."""
        value = float(self.vertex_susp(vertex, graph))
        if value < 0 or math.isnan(value) or math.isinf(value):
            raise SemanticsError(
                f"{self.name}: vsusp({vertex!r}) returned {value}, expected a finite value >= 0"
            )
        return value

    def edge_weight(self, src: Vertex, dst: Vertex, raw_weight: float, graph: DynamicGraph) -> float:
        """Evaluate ``esusp`` and validate the result (``c_ij > 0``)."""
        value = float(self.edge_susp(src, dst, raw_weight, graph))
        if value <= 0 or math.isnan(value) or math.isinf(value):
            raise SemanticsError(
                f"{self.name}: esusp({src!r}, {dst!r}) returned {value}, expected a finite value > 0"
            )
        return value

    def materialize(
        self,
        edges,
        vertex_priors: Optional[Mapping[Vertex, float]] = None,
        backend: Optional[str] = None,
    ) -> DynamicGraph:
        """Build a weighted graph from raw transaction edges.

        Parameters
        ----------
        edges:
            Iterable of ``(src, dst)`` or ``(src, dst, raw_weight)`` tuples,
            read once.
        vertex_priors:
            Optional side-information priors overriding ``vsusp``.
        backend:
            Graph backend name (``"dict"`` / ``"array"``); ``None`` uses the
            process default (:func:`repro.graph.backend.get_default_backend`).

        One pass over ``edges`` checks each edge as ``add_edge`` does and
        interns its labels in first-appearance order (src, then dst).
        Duplicate pairs then merge in arrays: the distinct pairs keep the
        order of their first appearance and their raw weights sum in input
        order.  The merged pairs are built into one graph through a CSR
        snapshot.  It holds the raw merged weights and zero priors, and it
        is the graph ``vsusp`` and ``esusp`` are handed, so degree-dependent
        semantics such as Fraudar see the *final* degrees, as the original
        static algorithms do.  ``vsusp`` runs once per vertex and ``esusp``
        once per distinct pair, both in first-appearance order.

        The array backend then writes the evaluated weights into that same
        graph; the dict backend inserts them into a fresh graph, one
        ``add_edge`` per distinct pair.  Either way the result is, bit for
        bit, what inserting the distinct pairs in that order with their
        evaluated weights builds.
        """
        from repro.graph.array_graph import ArrayGraph
        from repro.graph.backend import create_graph
        from repro.graph.csr import CsrSnapshot, sequential_sum

        weighted = create_graph(backend)  # checks the name; the dict backend fills it
        labels, ends, raw = _intern_edges(edges)
        src, dst = ends[0::2], ends[1::2]
        _keys, first, inverse = np.unique(
            src * len(labels) + dst, return_index=True, return_inverse=True
        )
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        first.sort()
        pair_ends = ends.reshape(-1, 2)[first].ravel()
        pair_raw = np.bincount(rank[inverse], raw, len(first))
        snapshot = CsrSnapshot.from_edges(
            pair_ends[0::2], pair_ends[1::2], pair_raw, num_ids=len(labels), labels=labels
        )
        # What a graph that inserts every input edge sums, duplicates unmerged.
        snapshot.total_edge_weight = sequential_sum(raw)
        graph = type(weighted).from_csr(snapshot)
        in_place = isinstance(graph, ArrayGraph)
        if in_place:
            graph.accumulate_weights(ends, raw)

        priors = []
        for vertex in labels:
            if vertex_priors is not None and vertex in vertex_priors:
                prior = float(vertex_priors[vertex])
                if not 0.0 <= prior < math.inf:
                    raise InvalidWeightError(
                        f"vertex weight must be finite and >= 0, got {prior} for {vertex!r}"
                    )
            else:
                prior = self.vertex_weight(vertex, graph)
            priors.append(prior)
        pair_src, pair_dst = pair_ends[0::2].tolist(), pair_ends[1::2].tolist()
        weights = [
            self.edge_weight(labels[s], labels[d], r, graph)
            for s, d, r in zip(pair_src, pair_dst, pair_raw.tolist())
        ]

        if in_place:
            graph.set_edge_weights(pair_ends, np.array(weights, dtype=np.float64), priors)
            return graph
        for vertex, prior in zip(labels, priors):
            weighted.add_vertex(vertex, prior)
        for s, d, weight in zip(pair_src, pair_dst, weights):
            weighted.add_edge(labels[s], labels[d], weight)
        return weighted

    def with_name(self, name: str) -> "PeelingSemantics":
        """Return a copy of the semantics under a different display name."""
        return PeelingSemantics(
            name=name,
            vertex_susp=self.vertex_susp,
            edge_susp=self.edge_susp,
            recompute_on_insert=self.recompute_on_insert,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PeelingSemantics({self.name!r})"


# ---------------------------------------------------------------------- #
# Built-in instances (Appendix F)
# ---------------------------------------------------------------------- #
def dg_semantics() -> PeelingSemantics:
    """DG — unweighted densest subgraph (Charikar).

    ``g(S) = |E[S]| / |S|``: every edge contributes 1, vertices contribute
    nothing.
    """
    return PeelingSemantics(name="DG", vertex_susp=_zero_vertex_susp, edge_susp=_unit_edge_susp)


def dw_semantics() -> PeelingSemantics:
    """DW — edge-weighted dense subgraph (Gudapati et al.).

    ``g(S) = sum of transaction weights within S / |S|``.
    """
    return PeelingSemantics(name="DW", vertex_susp=_zero_vertex_susp, edge_susp=_raw_edge_susp)


def fraudar_semantics(
    column_constant: float = 5.0,
    vertex_priors: Optional[Mapping[Vertex, float]] = None,
) -> PeelingSemantics:
    """FD — Fraudar (Hooi et al. 2016).

    The edge suspiciousness down-weights edges pointing at popular object
    vertices: ``esusp(u_i, u_j) = 1 / log(x + c)`` where ``x`` is the degree
    of the object (destination) vertex and ``c`` a small positive constant
    (the paper and Listing 2 use ``c = 5``).  The vertex suspiciousness is a
    prior taken from side information; by default the prior is zero unless a
    mapping is supplied.
    """
    priors = dict(vertex_priors) if vertex_priors else {}

    def vsusp(vertex: Vertex, _graph: DynamicGraph) -> float:
        return float(priors.get(vertex, 0.0))

    def esusp(_src: Vertex, dst: Vertex, _raw: float, graph: DynamicGraph) -> float:
        degree = graph.degree(dst) if graph.has_vertex(dst) else 0
        return 1.0 / math.log(degree + column_constant)

    return PeelingSemantics(
        name="FD",
        vertex_susp=vsusp,
        edge_susp=esusp,
        recompute_on_insert=True,
    )


def custom_semantics(
    name: str,
    vertex_susp: Optional[VertexSuspFn] = None,
    edge_susp: Optional[EdgeSuspFn] = None,
    recompute_on_insert: bool = False,
) -> PeelingSemantics:
    """Build a user-defined semantics from ``vsusp`` / ``esusp`` plug-ins.

    This is the programmability entry point highlighted by the paper: a
    developer writes roughly 20 lines (the two plug-ins plus wiring) and the
    framework incrementalizes the resulting peeling algorithm automatically.
    """
    return PeelingSemantics(
        name=name,
        vertex_susp=vertex_susp or _zero_vertex_susp,
        edge_susp=edge_susp or _unit_edge_susp,
        recompute_on_insert=recompute_on_insert,
    )


# ---------------------------------------------------------------------- #
# Metric evaluation on materialised graphs
# ---------------------------------------------------------------------- #
def subset_suspiciousness(graph: DynamicGraph, subset: AbstractSet[Vertex]) -> float:
    """Evaluate ``f(S)`` (Equation 1) directly on a weighted graph."""
    total = 0.0
    members = set(subset)
    for vertex in members:
        if graph.has_vertex(vertex):
            total += graph.vertex_weight(vertex)
            for dst, weight in graph.out_neighbors(vertex).items():
                if dst in members:
                    total += weight
    return total


def subset_density(graph: DynamicGraph, subset: AbstractSet[Vertex]) -> float:
    """Evaluate ``g(S) = f(S) / |S|`` directly on a weighted graph."""
    if not subset:
        return 0.0
    return subset_suspiciousness(graph, subset) / len(subset)
