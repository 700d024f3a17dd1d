"""Static peeling: Algorithm 1 of the paper, run over dense vertex ids.

The greedy peeling paradigm removes, at every step, the vertex whose removal
decreases ``f`` the least (equivalently, maximises the density of what
remains), using a min-heap keyed by the peeling weight

.. math::

    w_{u_i}(S) = a_i + \\sum_{(u_i,u_j)\\in E, u_j \\in S} c_{ij}
               + \\sum_{(u_j,u_i)\\in E, u_j \\in S} c_{ji}

(Equation 2).  The complexity is ``O(|E| log |V|)``.

This module is the *baseline* re-used throughout the evaluation: DG, DW and
FD are all this routine applied to differently weighted graphs (see
:mod:`repro.peeling.semantics`).  It is also the reference implementation
the property-based tests compare the incremental engine against.

Implementation notes
--------------------
The inner loop runs entirely over the dense ``int32`` ids assigned by the
graph backend's :class:`~repro.graph.interning.VertexInterner`: heap
entries are ``(weight, id)`` pairs, membership/removal flags are numpy
boolean arrays indexed by id, and neighbourhoods arrive as id/weight
arrays from :meth:`incident_arrays_id` — no Python objects are hashed or
compared while peeling.  Labels are only translated back at the boundary
when the :class:`~repro.peeling.result.PeelingResult` is assembled.

Tie-breaking
------------
When several vertices share the minimum peeling weight the algorithm peels
the one with the smallest *insertion index* — which is exactly the dense
id, since the interner assigns ids in graph insertion order.  The
incremental engine uses the same rule, so both produce identical
sequences (bit-identical for dyadic weights).
"""

from __future__ import annotations

import heapq
import time
from typing import AbstractSet, Dict, List, Optional, Tuple

import numpy as np

from repro import native as _native
from repro.obs import profile as _obs_profile
from repro.graph.backend import SMALL_DEGREE
from repro.graph.csr import CsrSnapshot, freeze_graph
from repro.graph.graph import DynamicGraph, Vertex
from repro.peeling.result import PeelingResult

__all__ = [
    "peel",
    "peel_csr",
    "peel_subset",
    "peel_subset_csr",
    "peel_subset_ids",
    "peel_csr_ids",
    "peeling_weights",
]


def peeling_weights(graph, subset: Optional[AbstractSet[Vertex]] = None) -> Dict[Vertex, float]:
    """Return ``w_u(S)`` for every ``u`` in ``S`` (default: the whole graph)."""
    if subset is None:
        if hasattr(graph, "vertex_weight_ids"):
            # Whole-graph fast path: one vectorised gather over the dense
            # prior/incident-weight arrays instead of two method calls per
            # vertex.  Bit-identical to the scalar path (same f64 adds).
            ids = graph.vertex_ids()
            totals = graph.vertex_weight_ids(ids) + graph.incident_weight_ids(ids)
            return dict(zip(graph.interner.labels_for(ids), totals.tolist()))
        weights = {}
        for vertex in graph.vertices():
            weights[vertex] = graph.vertex_weight(vertex) + graph.incident_weight(vertex)
        return weights
    members = set(subset)
    weights = {}
    for vertex in members:
        total = graph.vertex_weight(vertex)
        for nbr, weight in graph.incident_items(vertex):
            if nbr in members:
                total += weight
        weights[vertex] = total
    return weights


def peel(graph, semantics_name: str = "custom") -> PeelingResult:
    """Run Algorithm 1 on a weighted graph and return the peeling result.

    The graph is expected to already carry materialised suspiciousness
    weights (see :meth:`repro.peeling.semantics.PeelingSemantics.materialize`).

    Parameters
    ----------
    graph:
        The weighted graph ``G`` (any :class:`~repro.graph.backend.GraphBackend`).
    semantics_name:
        Label recorded in the result (used by reports and benchmarks).
    """
    order, weights, total = _peel_ids(graph, None)
    return PeelingResult.from_sequence(order, weights, total, semantics_name=semantics_name)


def peel_subset(
    graph,
    subset: AbstractSet[Vertex],
    semantics_name: str = "custom",
) -> PeelingResult:
    """Run Algorithm 1 restricted to the induced subgraph ``G[S]``.

    Used by dense-subgraph enumeration (Appendix C.2), which repeatedly
    peels the graph that remains after removing an already-reported
    community, and by the deletion path's suffix re-peel.
    """
    interner = graph.interner
    member_ids = np.array(
        sorted(interner.id_of(v) for v in subset if graph.has_vertex(v)),
        dtype=np.int32,
    )
    order, weights, total = _peel_ids(graph, member_ids)
    return PeelingResult.from_sequence(order, weights, total, semantics_name=semantics_name)


def peel_subset_ids(graph, member_ids) -> Tuple[np.ndarray, List[float], float]:
    """Id-based :func:`peel_subset` for the maintenance hot paths.

    ``member_ids`` are dense ids of graph vertices (any order; sorted
    internally so the run is deterministic).  Returns
    ``(order_ids, weights, total)`` without any label translation.
    """
    member_ids = np.sort(np.asarray(member_ids, dtype=np.int32))
    order_ids, weights, total = _peel_ids(graph, member_ids, as_ids=True)
    return order_ids, weights, total


def _peel_ids(
    graph,
    member_ids: Optional[np.ndarray],
    as_ids: bool = False,
) -> Tuple[List[Vertex], List[float], float]:
    """Core greedy loop shared by :func:`peel` and :func:`peel_subset`.

    With ``as_ids`` the order comes back as an ``int32`` id array instead
    of labels.
    """
    _began = time.perf_counter()
    if member_ids is None:
        member_ids = graph.vertex_ids()
    interner = graph.interner
    capacity = max(len(interner), 1)

    member = np.zeros(capacity, dtype=bool)
    member[member_ids] = True
    current = np.zeros(capacity, dtype=np.float64)

    total = 0.0
    member_list = member_ids.tolist()
    for vid in member_list:
        vertex_weight = graph.vertex_weight_id(vid)
        total += vertex_weight
        ids, weights = graph.incident_arrays_id(vid)
        degree = len(ids)
        # The scalar/vector split mirrors the reorder engine's weight
        # recovery exactly (same threshold, same accumulation shape), so
        # static and incremental weights stay bit-consistent per vertex.
        if degree == 0:
            incident = 0.0
        elif degree <= SMALL_DEGREE:
            incident = 0.0
            for nbr, weight in zip(ids.tolist(), weights.tolist()):
                if member[nbr]:
                    incident += weight
        else:
            incident = float(weights[member[ids]].sum())
        current[vid] = vertex_weight + incident
    # Every intra-subset edge was counted twice (once per endpoint).
    edge_total = (float(current[member_ids].sum()) - total) / 2.0 if member_list else 0.0
    total += edge_total

    heap: List[Tuple[float, int]] = [(current[vid], vid) for vid in member_list]
    heapq.heapify(heap)

    removed = np.zeros(capacity, dtype=bool)
    order_ids: List[int] = []
    out_weights: List[float] = []

    while heap:
        weight, vid = heapq.heappop(heap)
        if removed[vid]:
            continue
        if weight != current[vid]:
            # Stale entry: the vertex lost incident weight since this entry
            # was pushed.  The up-to-date entry is still in the heap.
            continue
        removed[vid] = True
        order_ids.append(vid)
        out_weights.append(float(weight))
        ids, edge_weights = graph.incident_arrays_id(vid)
        if len(ids):
            live = member[ids] & ~removed[ids]
            if live.any():
                for nbr, edge_weight in zip(ids[live].tolist(), edge_weights[live].tolist()):
                    current[nbr] -= edge_weight
                    heapq.heappush(heap, (current[nbr], nbr))

    _obs_profile.record("peel_heap", "python", time.perf_counter() - _began)
    if as_ids:
        return np.asarray(order_ids, dtype=np.int32), out_weights, total
    return interner.labels_for(order_ids), out_weights, total


# ---------------------------------------------------------------------- #
# CSR fast path
# ---------------------------------------------------------------------- #
def _as_snapshot(source) -> CsrSnapshot:
    """Coerce a graph or snapshot into a :class:`CsrSnapshot`."""
    if isinstance(source, CsrSnapshot):
        return source
    return freeze_graph(source)


def peel_csr(
    source,
    semantics_name: str = "custom",
    kernel: Optional[str] = None,
) -> PeelingResult:
    """Run Algorithm 1 over an immutable CSR snapshot (the fast path).

    ``source`` is either a :class:`~repro.graph.csr.CsrSnapshot` or a graph
    (frozen on the fly — freezing is O(|V| + |E|) and is included in what a
    fair static-baseline measurement should time).  Produces the same
    peeling sequence, weights and densities as :func:`peel` on the source
    graph — bit-identical, not merely equivalent: neighbor runs preserve
    enumeration order and every floating-point accumulation follows the
    same association shape as the heap-based loop.

    ``kernel`` selects the greedy-loop implementation (``"python"`` /
    ``"native"`` / ``"auto"``; ``None`` = the process default) — see
    :mod:`repro.native`.  The native kernel is bit-identical too.
    """
    snapshot = _as_snapshot(source)
    order_ids, weights, total = _peel_csr_ids(snapshot, None, kernel=kernel)
    return PeelingResult.from_sequence(
        snapshot.labels_for(order_ids), weights, total, semantics_name=semantics_name
    )


def peel_subset_csr(
    source,
    subset: AbstractSet[Vertex],
    semantics_name: str = "custom",
    kernel: Optional[str] = None,
) -> PeelingResult:
    """CSR twin of :func:`peel_subset`: peel the induced subgraph ``G[S]``."""
    snapshot = _as_snapshot(source)
    member = snapshot.member
    ids = np.array(
        sorted(
            vid
            for vid in (snapshot.id_of(v) for v in subset)
            if vid >= 0 and member[vid]
        ),
        dtype=np.int32,
    )
    order_ids, weights, total = _peel_csr_ids(snapshot, ids, kernel=kernel)
    return PeelingResult.from_sequence(
        snapshot.labels_for(order_ids), weights, total, semantics_name=semantics_name
    )


def peel_csr_ids(
    source,
    member_ids=None,
    kernel: Optional[str] = None,
) -> Tuple[np.ndarray, List[float], float]:
    """Id-based CSR peel (the maintenance twin of :func:`peel_subset_ids`).

    ``member_ids`` (dense ids, any order — sorted internally) defaults to
    every member vertex of the snapshot.
    """
    snapshot = _as_snapshot(source)
    if member_ids is not None:
        member_ids = np.sort(np.asarray(member_ids, dtype=np.int32))
    return _peel_csr_ids(snapshot, member_ids, kernel=kernel)


def _peel_csr_ids(
    snapshot: CsrSnapshot,
    member_ids: Optional[np.ndarray],
    kernel: Optional[str] = None,
) -> Tuple[np.ndarray, List[float], float]:
    """Greedy peeling over the combined-incidence CSR of a snapshot.

    Two phases, both bit-identical to :func:`_peel_ids`:

    1. **Vectorised initialisation** — the member-restricted incident
       weight of every vertex in a handful of whole-graph numpy passes
       (see the lane-transpose trick below), reproducing the heap path's
       exact association order per vertex.
    2. **Flat greedy loop** — the min-heap loop over the flattened CSR
       adjacency.  The python loop keeps a lazy-deletion heap: one list
       read, one float subtraction and one heap push per live incident
       edge, with periodic heap compaction that keeps the queue at
       O(live vertices) instead of O(|E|) stale entries.  The native
       kernel keeps an indexed heap with one entry per live vertex and
       lowers a neighbour's key in place; both pop the minimum live
       ``(weight, id)`` key at every step, so the sequences are equal.
    """
    _init_began = time.perf_counter()
    inc_off, inc_mid, inc_nbr, inc_w = snapshot.incidence()
    num_ids = snapshot.num_ids
    if member_ids is None:
        member_ids = snapshot.order
    k = len(member_ids)
    if k == 0:
        return np.empty(0, dtype=np.int32), [], 0.0

    member = np.zeros(num_ids, dtype=bool)
    member[member_ids] = True

    # --- initial peeling weights, vectorised ------------------------- #
    # The heap path accumulates each vertex's member-incident weights
    # sequentially (degree <= SMALL_DEGREE) or pairwise over the compacted
    # member weights (heavier).  Both shapes are reproduced exactly here —
    # naive alternatives such as ``np.add.reduceat`` use a different
    # association order and drift by ulps, which breaks tie-breaks.
    counts = inc_off[1:] - inc_off[:-1]
    incident = np.zeros(num_ids, dtype=np.float64)
    if len(inc_nbr):
        masked = np.where(member[inc_nbr], inc_w, 0.0)
        small = np.nonzero(member & (counts > 0) & (counts <= SMALL_DEGREE))[0]
        if len(small):
            # Lane transpose: row j holds every small segment's j-th
            # element (0.0-padded), so summing the rows top-down performs,
            # per vertex, the exact left-to-right scalar accumulation —
            # in at most SMALL_DEGREE vectorised adds for all of them.
            seg_counts = counts[small]
            prefix = np.concatenate(([0], np.cumsum(seg_counts)[:-1]))
            flat = np.arange(int(seg_counts.sum()), dtype=np.int64)
            positions = flat + np.repeat(inc_off[small] - prefix, seg_counts)
            within = flat - np.repeat(prefix, seg_counts)
            seg_index = np.repeat(np.arange(len(small), dtype=np.int64), seg_counts)
            lanes = np.zeros((int(seg_counts.max()), len(small)), dtype=np.float64)
            lanes[within, seg_index] = masked[positions]
            acc = lanes[0].copy()
            for row in lanes[1:]:
                acc += row
            incident[small] = acc
        for vid in np.nonzero(member & (counts > SMALL_DEGREE))[0].tolist():
            s, e = inc_off[vid], inc_off[vid + 1]
            incident[vid] = inc_w[s:e][member[inc_nbr[s:e]]].sum()

    current = np.zeros(num_ids, dtype=np.float64)
    current[member_ids] = snapshot.vertex_weights[member_ids] + incident[member_ids]

    vertex_part = snapshot.vertex_weights[member_ids]
    if np.count_nonzero(vertex_part):
        # Sequential accumulation, matching the heap path's running sum.
        total = 0.0
        for value in vertex_part.tolist():
            total += value
    else:
        total = 0.0
    edge_total = (float(current[member_ids].sum()) - total) / 2.0
    total += edge_total
    _obs_profile.record("peel_csr_init", "python", time.perf_counter() - _init_began)

    # --- native dispatch --------------------------------------------- #
    # The compiled kernel runs the same greedy loop over the same
    # incidence arrays with an indexed heap (see _kernels.c for the
    # bit-identity argument); when selected it replaces the python loop
    # below and the flat_incidence() materialisation entirely.
    if _native.resolve_kernel(kernel) == "native":
        nk = _native.get_kernels()
        if nk is not None and nk.peel_ok:
            _loop_began = time.perf_counter()
            order_ids_arr, out_weights = nk.peel(
                inc_off,
                inc_nbr,
                inc_w,
                num_ids,
                np.ascontiguousarray(member_ids, dtype=np.int32),
                np.ascontiguousarray(current[member_ids]),
            )
            _obs_profile.record("peel_greedy", "native", time.perf_counter() - _loop_began)
            return order_ids_arr, out_weights, total

    # --- greedy loop over the flattened CSR -------------------------- #
    # The loop runs over plain Python lists materialised once from the
    # flat CSR arrays: per incident edge it is one list read, one float
    # subtraction and one heap push — no numpy scalar dispatches, no
    # incident_arrays_id scratch copies, no dict probes.  Arithmetic is
    # the same IEEE f64 sequence as the heap path, so the output is
    # bit-identical.
    _loop_began = time.perf_counter()
    member_list = member_ids.tolist()
    # None marks "not part of this run" (non-members and, later, peeled
    # vertices); only members start with a float value.
    cur: List[Optional[float]] = [None] * num_ids
    for vid, value in zip(member_list, current[member_ids].tolist()):
        cur[vid] = value
    off, nbrs, wts = snapshot.flat_incidence()

    heap: List[Tuple[float, int]] = list(zip(current[member_ids].tolist(), member_list))
    heapq.heapify(heap)
    heappop = heapq.heappop
    heappush = heapq.heappush

    order_ids: List[int] = []
    out_weights: List[float] = []
    live_count = k

    while heap:
        weight, vid = heappop(heap)
        if cur[vid] != weight:
            # Stale lazy-deletion entry, or an already-removed vertex
            # (removal stores None, which never equals a float); the
            # fresh entry (if any) is still queued.
            continue
        cur[vid] = None
        live_count -= 1
        order_ids.append(vid)
        out_weights.append(weight)
        for i in range(off[vid], off[vid + 1]):
            nbr = nbrs[i]
            value = cur[nbr]
            if value is not None:
                value -= wts[i]
                cur[nbr] = value
                heappush(heap, (value, nbr))
        if len(heap) > 4096 and len(heap) > 2 * live_count:
            # Compact the lazy heap: drop every stale entry in one
            # heapify instead of popping them one by one.  A vertex's
            # value strictly decreases, so exactly one entry per live
            # vertex survives the filter; stale entries never produce
            # output, so compaction cannot change the peeling sequence —
            # it only bounds the heap at O(live vertices).
            heap = [entry for entry in heap if cur[entry[1]] == entry[0]]
            heapq.heapify(heap)

    _obs_profile.record("peel_greedy", "python", time.perf_counter() - _loop_began)
    return np.asarray(order_ids, dtype=np.int32), out_weights, total
