"""The pluggable graph-backend abstraction.

Every layer of the reproduction — the incremental engine in
:mod:`repro.core`, the static peel in :mod:`repro.peeling` and the
pipeline/bench harnesses — talks to the graph through the
:class:`GraphBackend` protocol defined here, never through a concrete
class.  Two interchangeable implementations ship with the package:

``"dict"``
    :class:`~repro.graph.graph.DynamicGraph` — adjacency dicts keyed by
    the original hashable labels; simple, allocation-light for tiny
    graphs, and the historical reference implementation.
``"array"``
    :class:`~repro.graph.array_graph.ArrayGraph` — interned ids over
    numpy edge pools with O(1) incident-weight maintenance; the fast path
    for production-scale streams.

Both expose the same label-facing API *and* the dense-id hot-path API
(``vertex_ids`` / ``*_id`` methods + the ``interner`` property), and the
differential tests assert they produce bit-identical peeling sequences.

Selection
---------
``Spade(backend="dict" | "array")`` picks a backend per engine;
:func:`set_default_backend` (or the ``REPRO_BACKEND`` environment
variable) configures the process-wide default used when no explicit
choice is made.  The test-suite fixture flips the default to run the
whole suite against both backends.

``incident_arrays_id`` contract: the returned arrays may alias a scratch
buffer owned by the graph and are only guaranteed valid until the next
call on the same graph.  Fancy indexing copies, so masked selections are
always safe to keep.
"""

from __future__ import annotations

import os
from typing import Iterator, Mapping, Optional, Protocol, Tuple, Union, runtime_checkable

import numpy as np

from repro.graph.array_graph import ArrayGraph
from repro.graph.graph import DynamicGraph, Vertex
from repro.graph.interning import VertexInterner

__all__ = [
    "GraphBackend",
    "BACKENDS",
    "AnyGraph",
    "SMALL_DEGREE",
    "create_graph",
    "backend_of",
    "convert_graph",
    "get_default_backend",
    "set_default_backend",
]

#: Neighbourhood size below which the hot paths (static peel, weight
#: recovery) use a scalar loop instead of vectorised numpy ops — a handful
#: of scalar reads beats several numpy dispatches for tiny arrays.  The
#: static and incremental engines share this constant so that, per vertex,
#: both always pick the same summation shape and stay bit-consistent.
SMALL_DEGREE = 32


@runtime_checkable
class GraphBackend(Protocol):
    """The minimal surface the rest of the stack requires from a graph.

    Label-facing methods accept/return the caller's original hashable
    vertex labels; the ``*_id`` methods operate on the dense ids assigned
    by the backend's :class:`~repro.graph.interning.VertexInterner` and
    form the hot path of the incremental engine.
    """

    backend_name: str

    # --- structure -------------------------------------------------- #
    def add_vertex(self, vertex: Vertex, weight: float = 0.0) -> None: ...
    def add_edge(self, src: Vertex, dst: Vertex, weight: float = 1.0) -> float: ...
    def remove_edge(self, src: Vertex, dst: Vertex) -> float: ...
    def has_vertex(self, vertex: Vertex) -> bool: ...
    def has_edge(self, src: Vertex, dst: Vertex) -> bool: ...

    # --- label-facing queries ---------------------------------------- #
    def vertex_weight(self, vertex: Vertex) -> float: ...
    def edge_weight(self, src: Vertex, dst: Vertex) -> float: ...
    def vertices(self) -> Iterator[Vertex]: ...
    def edges(self) -> Iterator[Tuple[Vertex, Vertex, float]]: ...
    def num_vertices(self) -> int: ...
    def num_edges(self) -> int: ...
    def total_edge_weight(self) -> float: ...
    def total_vertex_weight(self) -> float: ...
    def incident_items(self, vertex: Vertex) -> Iterator[Tuple[Vertex, float]]: ...
    def incident_weight(self, vertex: Vertex) -> float: ...
    def neighbors(self, vertex: Vertex) -> Iterator[Vertex]: ...
    def out_neighbors(self, vertex: Vertex) -> Mapping[Vertex, float]: ...
    def in_neighbors(self, vertex: Vertex) -> Mapping[Vertex, float]: ...
    def degree(self, vertex: Vertex) -> int: ...

    # --- dense-id hot path ------------------------------------------- #
    @property
    def interner(self) -> VertexInterner: ...
    def vertex_ids(self) -> np.ndarray: ...
    def has_vertex_id(self, vid: int) -> bool: ...
    def vertex_weight_id(self, vid: int) -> float: ...
    def incident_weight_id(self, vid: int) -> float: ...
    def degree_id(self, vid: int) -> int: ...
    def incident_arrays_id(self, vid: int) -> Tuple[np.ndarray, np.ndarray]: ...


AnyGraph = Union[DynamicGraph, ArrayGraph]

#: Registry of backend name -> concrete class.
BACKENDS = {
    DynamicGraph.backend_name: DynamicGraph,
    ArrayGraph.backend_name: ArrayGraph,
}

_default_backend = os.environ.get("REPRO_BACKEND", "dict")


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(f"unknown graph backend {name!r}; choose from {sorted(BACKENDS)}")
    return name


def get_default_backend() -> str:
    """Return the process-wide default backend name."""
    return _default_backend


def set_default_backend(name: str) -> str:
    """Set the process-wide default backend; returns the previous one."""
    global _default_backend
    previous = _default_backend
    _default_backend = _validate(name)
    return previous


def create_graph(backend: Optional[str] = None, vertices=None, edges=None) -> AnyGraph:
    """Instantiate a graph of the requested (or default) backend."""
    name = _validate(backend) if backend is not None else _default_backend
    return BACKENDS[name](vertices=vertices, edges=edges)


def backend_of(graph) -> str:
    """Return the backend name of a graph instance."""
    return getattr(graph, "backend_name", "dict")


def convert_graph(graph, backend: str) -> AnyGraph:
    """Return ``graph`` itself if it already uses ``backend``, else a copy.

    Conversion replays vertices in insertion order and edges in
    enumeration order, so dense ids — and with them the peeling tie-break
    order — are preserved.
    """
    name = _validate(backend)
    if backend_of(graph) == name:
        return graph
    return BACKENDS[name].from_graph(graph)
