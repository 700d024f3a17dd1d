"""Array-backed graph backend: interned ids + numpy adjacency pools.

:class:`ArrayGraph` is a drop-in alternative to
:class:`~repro.graph.graph.DynamicGraph` that stores the graph in flat
numpy arrays indexed by the dense vertex ids of a
:class:`~repro.graph.interning.VertexInterner`:

* per-vertex **edge pools** — ``int32`` neighbour-id arrays paired with
  ``float64`` weight arrays, one per direction, grown by capacity doubling
  so that appending an edge is O(1) amortized;
* an **edge-slot index** ``(src_id, dst_id) -> (out_slot, in_slot)`` giving
  O(1) duplicate detection / accumulation and O(1) edge-weight lookup;
* an **incident-weight accumulator** per vertex, maintained on every edge
  insertion/removal, so ``incident_weight`` — the dominant query of the
  benign/urgent classifier (Definition 4.1) — is O(1) instead of O(deg);
* dense vertex-prior and degree arrays for O(1) scalar queries.

The public, label-facing API matches ``DynamicGraph`` exactly (vertices are
arbitrary hashables, translated at the boundary by the interner); the
additional ``*_id`` methods expose the dense-id hot path consumed by
:mod:`repro.core.reorder` and :mod:`repro.peeling.static`.

Ordering contract
-----------------
Neighbour pools preserve insertion order, and edge removal shifts the pool
instead of swap-removing, so ``incident_items`` / ``incident_arrays_id``
enumerate edges in exactly the same order as the dict backend given the
same operation sequence.  Because the incremental engine sums weights with
numpy in enumeration order, the two backends produce *bit-identical*
peeling sequences — the property the differential tests pin down.

``incident_arrays_id`` returns views into a per-graph scratch buffer that
stay valid only until the next call on the same graph; callers that need
to retain the arrays must copy them (fancy indexing already copies).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import InvalidWeightError, StorageError, UnknownEdgeError, UnknownVertexError
from repro.graph.graph import Vertex, populate_graph
from repro.graph.interning import VertexInterner

__all__ = ["ArrayGraph"]

_EMPTY_IDS = np.empty(0, dtype=np.int32)
_EMPTY_WEIGHTS = np.empty(0, dtype=np.float64)


def _csr_pools(offsets: np.ndarray, nbrs: np.ndarray, wgts: np.ndarray):
    """Split one CSR direction into writable per-vertex pools.

    Returns ``(owner, slot, neighbors, incident, pools)``: each entry's
    owning id and slot within its run, its neighbour id (``int64``), the
    per-id run weight sums, and the ``(nbr_pools, weight_pools, lengths)``
    lists — slices of one writable copy of the run arrays.
    """
    counts = np.diff(offsets)
    owner = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    slot = np.arange(len(nbrs), dtype=np.int64) - np.repeat(offsets[:-1], counts)
    nbrs = np.array(nbrs, dtype=np.int32)
    wgts = np.array(wgts, dtype=np.float64)
    bounds = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
    pools = ([nbrs[a:b] for a, b in bounds], [wgts[a:b] for a, b in bounds], counts.tolist())
    return owner, slot, nbrs.astype(np.int64), np.bincount(owner, wgts, len(counts)), pools


class ArrayGraph:
    """A directed, weighted, dynamically updatable graph on numpy storage.

    Accepts the same constructor arguments as ``DynamicGraph``: an optional
    iterable of vertices (or ``(vertex, weight)`` pairs) and an optional
    iterable of ``(src, dst[, weight])`` edge tuples.
    """

    backend_name = "array"

    __slots__ = (
        "_interner",
        "_vw",
        "_iw",
        "_member",
        "_vertex_order",
        "_out_nbr",
        "_out_w",
        "_out_len",
        "_in_nbr",
        "_in_w",
        "_in_len",
        "_edge_slots",
        "_num_edges",
        "_total_edge_weight",
        "_scratch_ids",
        "_scratch_w",
        "_version",
        "_snapshot_cache",
        "_nat_out_nbr_p",
        "_nat_out_w_p",
        "_nat_out_len",
        "_nat_in_nbr_p",
        "_nat_in_w_p",
        "_nat_in_len",
    )

    def __init__(
        self,
        vertices: Optional[Iterable[object]] = None,
        edges: Optional[Iterable[tuple]] = None,
    ) -> None:
        self._interner = VertexInterner()
        self._vw = np.zeros(8, dtype=np.float64)
        self._iw = np.zeros(8, dtype=np.float64)
        self._member = np.zeros(8, dtype=bool)
        self._vertex_order: List[int] = []
        self._out_nbr: List[Optional[np.ndarray]] = []
        self._out_w: List[Optional[np.ndarray]] = []
        self._out_len: List[int] = []
        self._in_nbr: List[Optional[np.ndarray]] = []
        self._in_w: List[Optional[np.ndarray]] = []
        self._in_len: List[int] = []
        self._edge_slots: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._num_edges = 0
        self._total_edge_weight = 0.0
        self._scratch_ids = np.empty(16, dtype=np.int32)
        self._scratch_w = np.empty(16, dtype=np.float64)
        self._version = 0
        self._snapshot_cache = None
        # Native pointer tables (repro.native): per-vertex pool addresses
        # and live lengths, built lazily by native_adjacency() and then
        # maintained incrementally.  ``_nat_out_len is None`` == disabled.
        self._nat_out_nbr_p: Optional[np.ndarray] = None
        self._nat_out_w_p: Optional[np.ndarray] = None
        self._nat_out_len: Optional[np.ndarray] = None
        self._nat_in_nbr_p: Optional[np.ndarray] = None
        self._nat_in_w_p: Optional[np.ndarray] = None
        self._nat_in_len: Optional[np.ndarray] = None
        populate_graph(self, vertices, edges)

    # ------------------------------------------------------------------ #
    # Storage growth
    # ------------------------------------------------------------------ #
    def _ensure_vid(self, vid: int) -> None:
        """Grow the per-vertex arrays/pools to cover dense id ``vid``."""
        cap = len(self._vw)
        if vid >= cap:
            new_cap = max(16, cap * 2, vid + 1)
            for name in ("_vw", "_iw"):
                old = getattr(self, name)
                grown = np.zeros(new_cap, dtype=np.float64)
                grown[: len(old)] = old
                setattr(self, name, grown)
            member = np.zeros(new_cap, dtype=bool)
            member[: len(self._member)] = self._member
            self._member = member
        while len(self._out_len) <= vid:
            self._out_nbr.append(None)
            self._out_w.append(None)
            self._out_len.append(0)
            self._in_nbr.append(None)
            self._in_w.append(None)
            self._in_len.append(0)
        if self._nat_out_len is not None and len(self._out_len) > len(self._nat_out_len):
            self._nat_grow(len(self._out_len))

    def _pool_append(self, out_dir: bool, vid: int, nbr_id: int, weight: float) -> int:
        """Append one edge to a pool with capacity doubling; return its slot.

        When the native pointer tables are live, a pool reallocation
        refreshes the vertex's pool addresses and every append its live
        length, so the tables always describe the current pools.
        """
        if out_dir:
            nbrs, wgts, lens = self._out_nbr, self._out_w, self._out_len
        else:
            nbrs, wgts, lens = self._in_nbr, self._in_w, self._in_len
        arr = nbrs[vid]
        n = lens[vid]
        realloc = arr is None or n == len(arr)
        if realloc:
            new_cap = max(4, 2 * n)
            grown_n = np.empty(new_cap, dtype=np.int32)
            grown_w = np.empty(new_cap, dtype=np.float64)
            if arr is not None:
                grown_n[:n] = arr[:n]
                grown_w[:n] = wgts[vid][:n]
            nbrs[vid] = grown_n
            wgts[vid] = grown_w
            arr = grown_n
        arr[n] = nbr_id
        wgts[vid][n] = weight
        lens[vid] = n + 1
        if self._nat_out_len is not None:
            if out_dir:
                if realloc:
                    self._nat_out_nbr_p[vid] = arr.ctypes.data
                    self._nat_out_w_p[vid] = wgts[vid].ctypes.data
                self._nat_out_len[vid] = n + 1
            else:
                if realloc:
                    self._nat_in_nbr_p[vid] = arr.ctypes.data
                    self._nat_in_w_p[vid] = wgts[vid].ctypes.data
                self._nat_in_len[vid] = n + 1
        return n

    def _require_member(self, vertex: Vertex) -> int:
        """Translate a label to its id, raising if the vertex is unknown."""
        vid = self._interner.get_id(vertex)
        if vid < 0 or not self._member[vid]:
            raise UnknownVertexError(vertex)
        return vid

    # ------------------------------------------------------------------ #
    # Vertices
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex: Vertex, weight: float = 0.0) -> None:
        """Add ``vertex`` with suspiciousness ``weight`` (idempotent).

        Mirrors ``DynamicGraph.add_vertex``: re-adding only ever raises the
        stored prior.
        """
        if weight < 0:
            raise InvalidWeightError(f"vertex weight must be >= 0, got {weight} for {vertex!r}")
        vid = self._interner.intern(vertex)
        self._ensure_vid(vid)
        if self._member[vid]:
            if weight > self._vw[vid]:
                self._vw[vid] = float(weight)
                self._version += 1
                self._snapshot_cache = None
            return
        self._member[vid] = True
        self._vw[vid] = float(weight)
        self._vertex_order.append(vid)
        self._version += 1
        self._snapshot_cache = None

    def set_vertex_weight(self, vertex: Vertex, weight: float) -> None:
        """Overwrite the suspiciousness prior of an existing vertex."""
        vid = self._require_member(vertex)
        if weight < 0:
            raise InvalidWeightError(f"vertex weight must be >= 0, got {weight} for {vertex!r}")
        self._vw[vid] = float(weight)
        self._version += 1
        self._snapshot_cache = None

    def has_vertex(self, vertex: Vertex) -> bool:
        """Return whether ``vertex`` is part of the graph."""
        vid = self._interner.get_id(vertex)
        return vid >= 0 and bool(self._member[vid])

    def vertex_weight(self, vertex: Vertex) -> float:
        """Return the suspiciousness prior ``a_i`` of ``vertex``."""
        return float(self._vw[self._require_member(vertex)])

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices in insertion order."""
        label_of = self._interner._labels
        return (label_of[vid] for vid in self._vertex_order)

    def num_vertices(self) -> int:
        """Return ``|V|``."""
        return len(self._vertex_order)

    def total_vertex_weight(self) -> float:
        """Return the sum of all vertex suspiciousness priors."""
        if not self._vertex_order:
            return 0.0
        return float(self._vw[np.asarray(self._vertex_order, dtype=np.int64)].sum())

    # ------------------------------------------------------------------ #
    # Edges
    # ------------------------------------------------------------------ #
    def add_edge(self, src: Vertex, dst: Vertex, weight: float = 1.0) -> float:
        """Insert the directed edge ``(src, dst)``, accumulating duplicates.

        Missing endpoints are created with a zero prior; returns the new
        total weight of the edge — the same contract as the dict backend.
        """
        if weight <= 0:
            raise InvalidWeightError(f"edge weight must be > 0, got {weight} for ({src!r}, {dst!r})")
        if src == dst:
            raise InvalidWeightError(f"self loops are not part of the transaction model: {src!r}")
        if not self.has_vertex(src):
            self.add_vertex(src)
        if not self.has_vertex(dst):
            self.add_vertex(dst)
        sid = self._interner.id_of(src)
        did = self._interner.id_of(dst)
        weight = float(weight)
        key = (sid, did)
        slots = self._edge_slots.get(key)
        if slots is not None:
            out_slot, in_slot = slots
            self._out_w[sid][out_slot] += weight
            self._in_w[did][in_slot] += weight
            new_weight = float(self._out_w[sid][out_slot])
        else:
            out_slot = self._pool_append(True, sid, did, weight)
            in_slot = self._pool_append(False, did, sid, weight)
            self._edge_slots[key] = (out_slot, in_slot)
            self._num_edges += 1
            new_weight = weight
        self._iw[sid] += weight
        self._iw[did] += weight
        self._total_edge_weight += weight
        self._version += 1
        self._snapshot_cache = None
        return new_weight

    def remove_edge(self, src: Vertex, dst: Vertex) -> float:
        """Remove the directed edge ``(src, dst)`` entirely; return its weight."""
        sid = self._interner.get_id(src)
        did = self._interner.get_id(dst)
        slots = self._edge_slots.get((sid, did)) if sid >= 0 and did >= 0 else None
        if slots is None:
            raise UnknownEdgeError(src, dst)
        out_slot, in_slot = slots
        weight = float(self._out_w[sid][out_slot])
        self._pool_remove(sid, did, out_slot, in_slot)
        del self._edge_slots[(sid, did)]
        self._num_edges -= 1
        self._total_edge_weight -= weight
        self._iw[sid] -= weight
        self._iw[did] -= weight
        self._version += 1
        self._snapshot_cache = None
        return weight

    def _pool_remove(self, sid: int, did: int, out_slot: int, in_slot: int) -> None:
        """Shift-remove one edge from both pools, keeping enumeration order.

        Later edges in each pool move one slot down, so their entries in
        the edge-slot index are rewritten; removal is O(deg), which keeps
        the (hot) insertion path free of indirection.
        """
        slots = self._edge_slots
        out_nbr, out_w, n_out = self._out_nbr[sid], self._out_w[sid], self._out_len[sid]
        out_nbr[out_slot : n_out - 1] = out_nbr[out_slot + 1 : n_out].copy()
        out_w[out_slot : n_out - 1] = out_w[out_slot + 1 : n_out].copy()
        self._out_len[sid] = n_out - 1
        for moved in out_nbr[out_slot : n_out - 1].tolist():
            key = (sid, moved)
            o_slot, i_slot = slots[key]
            slots[key] = (o_slot - 1, i_slot)
        in_nbr, in_w, n_in = self._in_nbr[did], self._in_w[did], self._in_len[did]
        in_nbr[in_slot : n_in - 1] = in_nbr[in_slot + 1 : n_in].copy()
        in_w[in_slot : n_in - 1] = in_w[in_slot + 1 : n_in].copy()
        self._in_len[did] = n_in - 1
        for moved in in_nbr[in_slot : n_in - 1].tolist():
            key = (moved, did)
            o_slot, i_slot = slots[key]
            slots[key] = (o_slot, i_slot - 1)
        if self._nat_out_len is not None:
            # Shift-removal edits the pools in place: only the lengths move.
            self._nat_out_len[sid] = self._out_len[sid]
            self._nat_in_len[did] = self._in_len[did]

    def has_edge(self, src: Vertex, dst: Vertex) -> bool:
        """Return whether the directed edge ``(src, dst)`` exists."""
        sid = self._interner.get_id(src)
        did = self._interner.get_id(dst)
        return sid >= 0 and did >= 0 and (sid, did) in self._edge_slots

    def edge_weight(self, src: Vertex, dst: Vertex) -> float:
        """Return the accumulated weight ``c_ij`` of the directed edge."""
        sid = self._interner.get_id(src)
        did = self._interner.get_id(dst)
        slots = self._edge_slots.get((sid, did)) if sid >= 0 and did >= 0 else None
        if slots is None:
            raise UnknownEdgeError(src, dst)
        return float(self._out_w[sid][slots[0]])

    def edges(self) -> Iterator[Tuple[Vertex, Vertex, float]]:
        """Iterate over ``(src, dst, weight)`` triples in insertion order."""
        labels = self._interner._labels
        for sid in self._vertex_order:
            nbrs = self._out_nbr[sid]
            wgts = self._out_w[sid]
            src = labels[sid]
            for slot in range(self._out_len[sid]):
                yield src, labels[nbrs[slot]], float(wgts[slot])

    def num_edges(self) -> int:
        """Return ``|E|`` (unique directed edges)."""
        return self._num_edges

    def total_edge_weight(self) -> float:
        """Return the sum of all edge weights."""
        return self._total_edge_weight

    # ------------------------------------------------------------------ #
    # Neighbourhood accessors (label-facing)
    # ------------------------------------------------------------------ #
    def out_neighbors(self, vertex: Vertex) -> Mapping[Vertex, float]:
        """Return a mapping ``{dst: weight}`` of outgoing edges (built on demand)."""
        vid = self._require_member(vertex)
        labels = self._interner._labels
        nbrs, wgts, n = self._out_nbr[vid], self._out_w[vid], self._out_len[vid]
        return {labels[nbrs[i]]: float(wgts[i]) for i in range(n)}

    def in_neighbors(self, vertex: Vertex) -> Mapping[Vertex, float]:
        """Return a mapping ``{src: weight}`` of incoming edges (built on demand)."""
        vid = self._require_member(vertex)
        labels = self._interner._labels
        nbrs, wgts, n = self._in_nbr[vid], self._in_w[vid], self._in_len[vid]
        return {labels[nbrs[i]]: float(wgts[i]) for i in range(n)}

    def neighbors(self, vertex: Vertex) -> Iterator[Vertex]:
        """Iterate over the (undirected) neighbour set ``N(u)``.

        Absent vertices yield nothing, matching the dict backend.
        """
        vid = self._interner.get_id(vertex)
        if vid < 0 or not self._member[vid]:
            return
        labels = self._interner._labels
        seen = set()
        nbrs, n = self._out_nbr[vid], self._out_len[vid]
        for i in range(n):
            nbr = int(nbrs[i])
            seen.add(nbr)
            yield labels[nbr]
        nbrs, n = self._in_nbr[vid], self._in_len[vid]
        for i in range(n):
            nbr = int(nbrs[i])
            if nbr not in seen:
                yield labels[nbr]

    def incident_items(self, vertex: Vertex) -> Iterator[Tuple[Vertex, float]]:
        """Iterate over ``(neighbour, weight)`` pairs of all incident edges."""
        vid = self._interner.get_id(vertex)
        if vid < 0 or not self._member[vid]:
            return
        labels = self._interner._labels
        nbrs, wgts, n = self._out_nbr[vid], self._out_w[vid], self._out_len[vid]
        for i in range(n):
            yield labels[nbrs[i]], float(wgts[i])
        nbrs, wgts, n = self._in_nbr[vid], self._in_w[vid], self._in_len[vid]
        for i in range(n):
            yield labels[nbrs[i]], float(wgts[i])

    def out_degree(self, vertex: Vertex) -> int:
        """Return the number of outgoing edges of ``vertex``."""
        return self._out_len[self._require_member(vertex)]

    def in_degree(self, vertex: Vertex) -> int:
        """Return the number of incoming edges of ``vertex``."""
        return self._in_len[self._require_member(vertex)]

    def degree(self, vertex: Vertex) -> int:
        """Return the total degree (in + out) of ``vertex``."""
        vid = self._require_member(vertex)
        return self._out_len[vid] + self._in_len[vid]

    def incident_weight(self, vertex: Vertex) -> float:
        """Return the summed incident weight of ``vertex`` — O(1).

        Maintained incrementally on every edge mutation instead of being
        recomputed by a scan, which is what makes the benign/urgent test of
        Definition 4.1 constant-time on this backend.  Absent vertices
        answer ``0.0``, matching the dict backend.
        """
        vid = self._interner.get_id(vertex)
        if vid < 0 or not self._member[vid]:
            return 0.0
        return float(self._iw[vid])

    # ------------------------------------------------------------------ #
    # Dense-id (interned) accessors — the GraphBackend hot-path surface
    # ------------------------------------------------------------------ #
    @property
    def interner(self) -> VertexInterner:
        """The label ↔ dense-id interner owned by this graph."""
        return self._interner

    def vertex_ids(self) -> np.ndarray:
        """Return the dense ids of all vertices, in insertion order."""
        return np.asarray(self._vertex_order, dtype=np.int32)

    def has_vertex_id(self, vid: int) -> bool:
        """Return whether the vertex with dense id ``vid`` is in the graph."""
        return 0 <= vid < len(self._member) and bool(self._member[vid])

    def vertex_weight_id(self, vid: int) -> float:
        """Return the prior ``a_i`` of the vertex with dense id ``vid``."""
        return float(self._vw[vid])

    def degree_id(self, vid: int) -> int:
        """Return the total degree of the vertex with dense id ``vid``."""
        if vid >= len(self._out_len):
            return 0
        return self._out_len[vid] + self._in_len[vid]

    def incident_weight_id(self, vid: int) -> float:
        """Return the summed incident weight of the vertex with id ``vid``."""
        return float(self._iw[vid])

    def vertex_weight_ids(self, vids: np.ndarray) -> np.ndarray:
        """Return the priors ``a_i`` of a whole id array in one gather."""
        return self._vw[np.asarray(vids, dtype=np.int64)]

    def incident_weight_ids(self, vids: np.ndarray) -> np.ndarray:
        """Return the maintained incident weights of a whole id array."""
        return self._iw[np.asarray(vids, dtype=np.int64)]

    def member_degrees(self) -> np.ndarray:
        """Return the total degrees of all vertices, in insertion order.

        One vectorised gather over the pool-length lists — O(|V|) with no
        edge traffic, used by :mod:`repro.graph.stats`.
        """
        order = np.asarray(self._vertex_order, dtype=np.int64)
        out_lens = np.asarray(self._out_len, dtype=np.int64)
        in_lens = np.asarray(self._in_len, dtype=np.int64)
        return out_lens[order] + in_lens[order]

    def incident_arrays_id(self, vid: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbor_ids, weights)`` views over all incident edges.

        Out-edges first, then in-edges, in pool order.  The views alias a
        per-graph scratch buffer and are only valid until the next call on
        this graph; copy (or fancy-index) to retain.
        """
        if vid >= len(self._out_len):
            return _EMPTY_IDS, _EMPTY_WEIGHTS
        n_out = self._out_len[vid]
        n_in = self._in_len[vid]
        n = n_out + n_in
        if n == 0:
            return _EMPTY_IDS, _EMPTY_WEIGHTS
        if n > len(self._scratch_ids):
            cap = max(2 * len(self._scratch_ids), n)
            self._scratch_ids = np.empty(cap, dtype=np.int32)
            self._scratch_w = np.empty(cap, dtype=np.float64)
        ids = self._scratch_ids
        weights = self._scratch_w
        if n_out:
            ids[:n_out] = self._out_nbr[vid][:n_out]
            weights[:n_out] = self._out_w[vid][:n_out]
        if n_in:
            ids[n_out:n] = self._in_nbr[vid][:n_in]
            weights[n_out:n] = self._in_w[vid][:n_in]
        return ids[:n], weights[:n]

    # ------------------------------------------------------------------ #
    # Native pointer tables (repro.native reorder kernel)
    # ------------------------------------------------------------------ #
    def native_adjacency(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """Return the pool address/length tables the C reorder kernel walks.

        ``(out_nbr_ptrs, out_w_ptrs, out_lens, in_nbr_ptrs, in_w_ptrs,
        in_lens, pooled)`` — ``uint64`` pool base addresses and ``int64``
        live lengths per dense id, valid for ids ``< pooled``.  Built once
        (O(pooled)) on first use, then maintained incrementally by the
        edge mutation paths, so per-update reorders pay O(1) here.  A
        vertex without an allocated pool has address 0 and length 0; the
        kernel never dereferences a zero-length pool.
        """
        pooled = len(self._out_len)
        if self._nat_out_len is None or len(self._nat_out_len) < pooled:
            self._nat_build(pooled)
        return (
            self._nat_out_nbr_p,
            self._nat_out_w_p,
            self._nat_out_len,
            self._nat_in_nbr_p,
            self._nat_in_w_p,
            self._nat_in_len,
            pooled,
        )

    def _nat_grow(self, pooled: int) -> None:
        """Grow the live pointer tables to cover ``pooled`` ids (zero-filled)."""
        cap = max(2 * len(self._nat_out_len), pooled)
        for name in (
            "_nat_out_nbr_p",
            "_nat_out_w_p",
            "_nat_out_len",
            "_nat_in_nbr_p",
            "_nat_in_w_p",
            "_nat_in_len",
        ):
            old = getattr(self, name)
            grown = np.zeros(cap, dtype=old.dtype)
            grown[: len(old)] = old
            setattr(self, name, grown)

    def _nat_build(self, pooled: int) -> None:
        """(Re)build the pointer tables from scratch over all pools."""
        cap = max(16, 2 * pooled)
        self._nat_out_nbr_p = np.zeros(cap, dtype=np.uint64)
        self._nat_out_w_p = np.zeros(cap, dtype=np.uint64)
        self._nat_out_len = np.zeros(cap, dtype=np.int64)
        self._nat_in_nbr_p = np.zeros(cap, dtype=np.uint64)
        self._nat_in_w_p = np.zeros(cap, dtype=np.uint64)
        self._nat_in_len = np.zeros(cap, dtype=np.int64)
        for vid in range(pooled):
            arr = self._out_nbr[vid]
            if arr is not None:
                self._nat_out_nbr_p[vid] = arr.ctypes.data
                self._nat_out_w_p[vid] = self._out_w[vid].ctypes.data
                self._nat_out_len[vid] = self._out_len[vid]
            arr = self._in_nbr[vid]
            if arr is not None:
                self._nat_in_nbr_p[vid] = arr.ctypes.data
                self._nat_in_w_p[vid] = self._in_w[vid].ctypes.data
                self._nat_in_len[vid] = self._in_len[vid]

    # ------------------------------------------------------------------ #
    # Snapshot export
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Monotone mutation counter (bumped by every structural change)."""
        return self._version

    def freeze(self) -> "CsrSnapshot":
        """Freeze the mutable pools into an immutable CSR snapshot.

        O(|V| + |E|): the offset arrays are a cumsum over the pool lengths
        and the neighbor/weight arrays one concatenation plus a vectorised
        tail mask, preserving pool (= enumeration) order exactly — which
        is what makes the CSR static peel bit-identical to the heap peel.
        The returned :class:`~repro.graph.csr.CsrSnapshot` is decoupled
        from this graph; use :meth:`CsrSnapshot.is_stale` to detect later
        mutations (every mutation bumps :attr:`version`).

        Because snapshots are immutable, the last one is cached and
        returned for free until the next mutation — consecutive read-path
        consumers (enumeration, stats, the exact solver, ``peel_csr``)
        share a single freeze.
        """
        cached = self._snapshot_cache
        if cached is not None and cached.source_version == self._version:
            return cached

        from repro.graph.csr import CsrSnapshot, _frozen

        size = len(self._interner)
        pooled = len(self._out_len)  # ids with allocated pools (<= size)

        def direction(nbr_pools, w_pools, lens):
            counts = np.zeros(size, dtype=np.int64)
            if pooled:
                counts[:pooled] = lens
            offsets = np.concatenate(([0], np.cumsum(counts)))
            # Concatenate the raw pools (capacity included) and drop the
            # unused tails with one vectorised mask — cheaper than
            # materialising a trimmed view per vertex.
            live = [a for a in nbr_pools if a is not None]
            if not live:
                return (
                    _frozen(offsets),
                    _frozen(np.empty(0, np.int32)),
                    _frozen(np.empty(0, np.float64)),
                )
            caps = np.fromiter(
                (0 if a is None else len(a) for a in nbr_pools),
                dtype=np.int64,
                count=len(nbr_pools),
            )
            full_nbr = np.concatenate(live)
            full_w = np.concatenate([a for a in w_pools if a is not None])
            prefix = np.concatenate(([0], np.cumsum(caps)[:-1]))
            keep = (
                np.arange(int(caps.sum()), dtype=np.int64) - np.repeat(prefix, caps)
            ) < np.repeat(counts[:pooled], caps)
            return _frozen(offsets), _frozen(full_nbr[keep]), _frozen(full_w[keep])

        out_offsets, out_neighbors, out_weights = direction(
            self._out_nbr, self._out_w, self._out_len
        )
        in_offsets, in_neighbors, in_weights = direction(
            self._in_nbr, self._in_w, self._in_len
        )
        vertex_weights = np.zeros(size, dtype=np.float64)
        member = np.zeros(size, dtype=bool)
        covered = min(size, len(self._vw))
        vertex_weights[:covered] = self._vw[:covered]
        member[:covered] = self._member[:covered]
        snapshot = CsrSnapshot(
            order=_frozen(np.asarray(self._vertex_order, dtype=np.int32)),
            member=_frozen(member),
            vertex_weights=_frozen(vertex_weights),
            out_offsets=out_offsets,
            out_neighbors=out_neighbors,
            out_weights=out_weights,
            in_offsets=in_offsets,
            in_neighbors=in_neighbors,
            in_weights=in_weights,
            total_edge_weight=self._total_edge_weight,
            source_version=self._version,
            labels=list(self._interner._labels),
        )
        self._snapshot_cache = snapshot
        return snapshot

    # ------------------------------------------------------------------ #
    # Whole-graph helpers
    # ------------------------------------------------------------------ #
    def total_suspiciousness(self) -> float:
        """Return ``f(V)``: total vertex plus edge suspiciousness."""
        return self.total_vertex_weight() + self._total_edge_weight

    def copy(self) -> "ArrayGraph":
        """Return a deep copy of the graph (weights, pools and ids included)."""
        clone = ArrayGraph()
        clone._interner = self._interner.copy()
        clone._vw = self._vw.copy()
        clone._iw = self._iw.copy()
        clone._member = self._member.copy()
        clone._vertex_order = list(self._vertex_order)
        clone._out_nbr = [a.copy() if a is not None else None for a in self._out_nbr]
        clone._out_w = [a.copy() if a is not None else None for a in self._out_w]
        clone._out_len = list(self._out_len)
        clone._in_nbr = [a.copy() if a is not None else None for a in self._in_nbr]
        clone._in_w = [a.copy() if a is not None else None for a in self._in_w]
        clone._in_len = list(self._in_len)
        clone._edge_slots = dict(self._edge_slots)
        clone._num_edges = self._num_edges
        clone._total_edge_weight = self._total_edge_weight
        clone._version = self._version
        # Snapshots are immutable, so sharing the cache across copies is
        # safe: either copy invalidates it with its first mutation.
        clone._snapshot_cache = self._snapshot_cache
        return clone

    def __contains__(self, vertex: Vertex) -> bool:
        return self.has_vertex(vertex)

    def __len__(self) -> int:
        return len(self._vertex_order)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ArrayGraph(|V|={self.num_vertices()}, |E|={self.num_edges()}, "
            f"f(V)={self.total_suspiciousness():.3f})"
        )

    def __eq__(self, other: object) -> bool:
        if not hasattr(other, "vertices") or not hasattr(other, "out_neighbors"):
            return NotImplemented
        mine = {v: self.vertex_weight(v) for v in self.vertices()}
        theirs = {v: other.vertex_weight(v) for v in other.vertices()}
        if mine != theirs:
            return False
        return all(dict(self.out_neighbors(v)) == dict(other.out_neighbors(v)) for v in mine)

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("ArrayGraph is mutable and therefore unhashable")

    @classmethod
    def from_edges(cls, edges: Iterable[tuple]) -> "ArrayGraph":
        """Build a graph from an iterable of edge tuples."""
        return cls(edges=edges)

    @classmethod
    def from_graph(cls, graph) -> "ArrayGraph":
        """Replay another backend's vertices and edges into an array graph.

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
    def from_csr(cls, snapshot) -> "ArrayGraph":
        """Rebuild the graph a labelled snapshot was frozen from, pool for pool.

        A CSR neighbour run *is* that vertex's pool, so the pools are
        slices of one writable copy of the snapshot's arrays (full to
        capacity: the first append reallocates) and the edge-slot index
        pairs each out-slot with its in-slot by sorting both sides on
        ``(src, dst)``.  Ids, priors, membership, edge count and total
        weight are the snapshot's own; no edge is re-inserted.
        """
        graph = cls()
        num = snapshot.num_ids
        graph._interner.intern_many(snapshot.labels)
        graph._vw = np.array(snapshot.vertex_weights, dtype=np.float64)
        graph._member = np.array(snapshot.member, dtype=bool)
        graph._vertex_order = snapshot.order.tolist()
        src, out_slot, dst, out_iw, (graph._out_nbr, graph._out_w, graph._out_len) = (
            _csr_pools(snapshot.out_offsets, snapshot.out_neighbors, snapshot.out_weights)
        )
        in_dst, in_slot, in_src, in_iw, (graph._in_nbr, graph._in_w, graph._in_len) = (
            _csr_pools(snapshot.in_offsets, snapshot.in_neighbors, snapshot.in_weights)
        )
        by_out = np.argsort(src * num + dst)
        by_in = np.argsort(in_src * num + in_dst)
        if not (
            np.array_equal(src[by_out], in_src[by_in])
            and np.array_equal(dst[by_out], in_dst[by_in])
        ):
            raise StorageError("snapshot out- and in-adjacency disagree")
        paired = np.empty_like(in_slot)
        paired[by_out] = in_slot[by_in]
        graph._edge_slots = dict(
            zip(zip(src.tolist(), dst.tolist()), zip(out_slot.tolist(), paired.tolist()))
        )
        graph._iw = out_iw + in_iw
        graph._num_edges = snapshot.num_edges
        graph._total_edge_weight = snapshot.total_edge_weight
        return graph
