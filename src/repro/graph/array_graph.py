"""Array-backed graph backend: interned ids + one adjacency arena per direction.

:class:`ArrayGraph` is a drop-in alternative to
:class:`~repro.graph.graph.DynamicGraph` that stores the graph in flat
numpy arrays indexed by the dense vertex ids of a
:class:`~repro.graph.interning.VertexInterner`:

* one **arena** per direction — an ``int32`` neighbour-id array paired with
  a ``float64`` weight array holding every vertex's edges, plus ``int64``
  per-id ``start`` / ``length`` / ``cap`` arrays locating each vertex's
  *run* inside it;
* an **edge-slot index** ``(src_id, dst_id) -> (out_slot, in_slot)`` giving
  O(1) duplicate detection / accumulation and O(1) edge-weight lookup;
  slots are relative to the run, so a run may move without touching it;
* an **incident-weight accumulator** per vertex, maintained on every edge
  insertion/removal, so ``incident_weight`` — the dominant query of the
  benign/urgent classifier (Definition 4.1) — is O(1) instead of O(deg);
* dense vertex-prior and degree arrays for O(1) scalar queries.

Arena layout
------------
A run keeps insertion order.  Appending to a full run moves the whole run
to the arena tail with doubled capacity (the old slots become dead), so an
append is O(1) amortized.  When the tail reaches the end of the arena, the
arena is compacted if at least half of its used slots are dead — hold no
live edge — by one gather in dense-id order that keeps every run's
capacity.  Unless at least half of it is then free, it is regrown to twice
the slots in use (a doubling when nothing was compacted), so the next
compaction or growth is at least half an arena of appends away.
Because every run is a contiguous slice of two arrays,
:meth:`ArrayGraph.freeze` is one ``np.repeat`` index plus one gather per
array, and the native reorder kernel walks the arena through its two base
pointers and the ``start`` / ``length`` arrays, fetched afresh on every
call.

Ordering contract
-----------------
Edge removal shifts the run instead of swap-removing, so
``incident_items`` / ``incident_arrays_id`` enumerate edges in exactly the
same order as the dict backend given the same operation sequence.  Because
the incremental engine sums weights with numpy in enumeration order, the
two backends produce *bit-identical* peeling sequences — the property the
differential tests pin down.

Snapshots own their bytes: :meth:`ArrayGraph.freeze` gathers into fresh
arrays, never slices of a live arena.  ``incident_arrays_id`` returns views
into a per-graph scratch buffer that stay valid only until the next call on
the same graph; callers that need to retain the arrays must copy them
(fancy indexing already copies).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import InvalidWeightError, StorageError, UnknownEdgeError, UnknownVertexError
from repro.graph.graph import Vertex, populate_graph
from repro.graph.interning import VertexInterner

__all__ = ["ArrayGraph"]

_EMPTY_IDS = np.empty(0, dtype=np.int32)
_EMPTY_WEIGHTS = np.empty(0, dtype=np.float64)


class _Arena:
    """One direction's adjacency: every vertex's run in one pair of arrays.

    Vertex ``vid``'s edges are ``nbr[start[vid] : start[vid] + length[vid]]``
    (weights likewise in ``w``) inside a reservation of ``cap[vid]`` slots.
    Slots ``[0, tail)`` are used; a used slot holding no live edge is dead
    (left behind by a run that moved, or the unfilled end of a run).
    """

    __slots__ = ("nbr", "w", "start", "length", "cap", "tail")

    def __init__(self, ids: int = 0) -> None:
        self.nbr = _EMPTY_IDS.copy()
        self.w = _EMPTY_WEIGHTS.copy()
        self.start = np.zeros(ids, dtype=np.int64)
        self.length = np.zeros(ids, dtype=np.int64)
        self.cap = np.zeros(ids, dtype=np.int64)
        self.tail = 0

    def grow_ids(self, size: int) -> None:
        """Extend the per-id arrays to ``size`` ids (new ids have no run)."""
        for name in ("start", "length", "cap"):
            old = getattr(self, name)
            grown = np.zeros(size, dtype=np.int64)
            grown[: len(old)] = old
            setattr(self, name, grown)

    def run(self, vid: int) -> Tuple[np.ndarray, np.ndarray]:
        """Views of ``vid``'s live neighbour ids and weights (not to retain)."""
        lo = self.start.item(vid)
        hi = lo + self.length.item(vid)
        return self.nbr[lo:hi], self.w[lo:hi]

    def append(self, vid: int, nbr_id: int, weight: float) -> int:
        """Append one edge to ``vid``'s run; return its slot within the run."""
        n = self.length.item(vid)
        if n == self.cap.item(vid):
            self._move_to_tail(vid, n)
        at = self.start.item(vid) + n
        self.nbr[at] = nbr_id
        self.w[at] = weight
        self.length[vid] = n + 1
        return n

    def _move_to_tail(self, vid: int, n: int) -> None:
        """Move ``vid``'s full run to the arena tail with doubled capacity."""
        new_cap = max(4, 2 * n)
        if self.tail + new_cap > len(self.nbr):
            self._make_room(new_cap)
        lo = self.start.item(vid)
        tail = self.tail
        self.nbr[tail : tail + n] = self.nbr[lo : lo + n]
        self.w[tail : tail + n] = self.w[lo : lo + n]
        self.start[vid] = tail
        self.cap[vid] = new_cap
        self.tail = tail + new_cap

    def _make_room(self, need: int) -> None:
        """Compact if at least half the used slots are dead; then regrow to
        twice the slots in use unless at least half the arena is free."""
        if self.tail and 2 * int(self.length.sum()) <= self.tail:
            caps = self.cap
            start = np.cumsum(caps) - caps
            self.tail = int(caps.sum())
            index = np.repeat(self.start - start, caps) + np.arange(self.tail)
            self.nbr[: self.tail] = self.nbr[index]
            self.w[: self.tail] = self.w[index]
            self.start = start
        if 2 * (self.tail + need) > len(self.nbr):
            size = 2 * (self.tail + need)
            for name in ("nbr", "w"):
                old = getattr(self, name)
                grown = np.empty(size, dtype=old.dtype)
                grown[: self.tail] = old[: self.tail]
                setattr(self, name, grown)

    def remove(self, vid: int, slot: int) -> List[int]:
        """Shift-remove ``slot`` from ``vid``'s run; return the moved neighbours."""
        start = self.start.item(vid)
        lo, hi = start + slot, start + self.length.item(vid)
        moved = self.nbr[lo + 1 : hi].tolist()
        self.nbr[lo : hi - 1] = self.nbr[lo + 1 : hi].copy()
        self.w[lo : hi - 1] = self.w[lo + 1 : hi].copy()
        self.length[vid] -= 1
        return moved

    def gather(self, size: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return fresh CSR ``(offsets, neighbors, weights)`` over ids ``< size``."""
        m = min(size, len(self.length))
        counts = np.zeros(size, dtype=np.int64)
        counts[:m] = self.length[:m]
        offsets = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        index = np.repeat(self.start[:m] - offsets[:m], counts[:m]) + np.arange(offsets[-1])
        return offsets, self.nbr[index], self.w[index]

    def copy(self) -> "_Arena":
        """Return an independent copy, layout included."""
        clone = _Arena()
        for name in ("nbr", "w", "start", "length", "cap"):
            setattr(clone, name, getattr(self, name).copy())
        clone.tail = self.tail
        return clone

    @classmethod
    def from_csr(cls, offsets: np.ndarray, nbrs: np.ndarray, wgts: np.ndarray) -> "_Arena":
        """A writable arena holding one CSR direction, every run full to capacity."""
        arena = cls()
        arena.nbr = np.array(nbrs, dtype=np.int32)
        arena.w = np.array(wgts, dtype=np.float64)
        arena.start = np.array(offsets[:-1], dtype=np.int64)
        arena.length = np.diff(offsets).astype(np.int64)
        arena.cap = arena.length.copy()
        arena.tail = len(arena.nbr)
        return arena


def _csr_runs(offsets: np.ndarray, nbrs: np.ndarray, wgts: np.ndarray):
    """Describe one CSR direction entry by entry and load it into an arena.

    Returns ``(owner, slot, neighbors, incident, arena)``: each entry's
    owning id and slot within its run, its neighbour id (``int64``), the
    per-id run weight sums, and the :class:`_Arena` holding a writable copy.
    """
    arena = _Arena.from_csr(offsets, nbrs, wgts)
    counts = arena.length
    owner = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    slot = np.arange(len(arena.nbr), dtype=np.int64) - np.repeat(arena.start, counts)
    incident = np.bincount(owner, arena.w, len(counts))
    return owner, slot, arena.nbr.astype(np.int64), incident, arena


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
        "_out",
        "_in",
        "_edge_slots",
        "_num_edges",
        "_total_edge_weight",
        "_scratch_ids",
        "_scratch_w",
        "_version",
        "_snapshot_cache",
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
        self._out = _Arena(8)
        self._in = _Arena(8)
        self._edge_slots: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._num_edges = 0
        self._total_edge_weight = 0.0
        self._scratch_ids = np.empty(16, dtype=np.int32)
        self._scratch_w = np.empty(16, dtype=np.float64)
        self._version = 0
        self._snapshot_cache = None
        populate_graph(self, vertices, edges)

    # ------------------------------------------------------------------ #
    # Storage growth
    # ------------------------------------------------------------------ #
    def _ensure_vid(self, vid: int) -> None:
        """Grow the per-vertex arrays to cover dense id ``vid``."""
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
            self._out.grow_ids(new_cap)
            self._in.grow_ids(new_cap)

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
        if not 0.0 <= weight < math.inf:
            raise InvalidWeightError(
                f"vertex weight must be finite and >= 0, got {weight} for {vertex!r}"
            )
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
        if not 0.0 <= weight < math.inf:
            raise InvalidWeightError(
                f"vertex weight must be finite and >= 0, got {weight} for {vertex!r}"
            )
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
        if not 0.0 < weight < math.inf:
            raise InvalidWeightError(
                f"edge weight must be finite and > 0, got {weight} for ({src!r}, {dst!r})"
            )
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
            out, inc = self._out, self._in
            at = out.start.item(sid) + out_slot
            out.w[at] += weight
            inc.w[inc.start.item(did) + in_slot] += weight
            new_weight = out.w.item(at)
        else:
            out_slot = self._out.append(sid, did, weight)
            in_slot = self._in.append(did, sid, weight)
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
        weight = self._out.w.item(self._out.start.item(sid) + out_slot)
        self._remove_slots(sid, did, out_slot, in_slot)
        del self._edge_slots[(sid, did)]
        self._num_edges -= 1
        self._total_edge_weight -= weight
        self._iw[sid] -= weight
        self._iw[did] -= weight
        self._version += 1
        self._snapshot_cache = None
        return weight

    def _remove_slots(self, sid: int, did: int, out_slot: int, in_slot: int) -> None:
        """Shift-remove one edge from both runs, keeping enumeration order.

        Later edges in each run move one slot down, so their entries in
        the edge-slot index are rewritten; removal is O(deg), which keeps
        the (hot) insertion path free of indirection.
        """
        slots = self._edge_slots
        for moved in self._out.remove(sid, out_slot):
            key = (sid, moved)
            o_slot, i_slot = slots[key]
            slots[key] = (o_slot - 1, i_slot)
        for moved in self._in.remove(did, in_slot):
            key = (moved, did)
            o_slot, i_slot = slots[key]
            slots[key] = (o_slot, i_slot - 1)

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
        return self._out.w.item(self._out.start.item(sid) + slots[0])

    def edges(self) -> Iterator[Tuple[Vertex, Vertex, float]]:
        """Iterate over ``(src, dst, weight)`` triples in insertion order."""
        labels = self._interner._labels
        for sid in self._vertex_order:
            nbrs, wgts = self._out.run(sid)
            src = labels[sid]
            for nbr, weight in zip(nbrs.tolist(), wgts.tolist()):
                yield src, labels[nbr], weight

    def num_edges(self) -> int:
        """Return ``|E|`` (unique directed edges)."""
        return self._num_edges

    def total_edge_weight(self) -> float:
        """Return the sum of all edge weights."""
        return self._total_edge_weight

    # ------------------------------------------------------------------ #
    # Neighbourhood accessors (label-facing)
    # ------------------------------------------------------------------ #
    def _labelled_run(self, arena: _Arena, vid: int) -> Iterator[Tuple[Vertex, float]]:
        labels = self._interner._labels
        nbrs, wgts = arena.run(vid)
        return ((labels[nbr], weight) for nbr, weight in zip(nbrs.tolist(), wgts.tolist()))

    def out_neighbors(self, vertex: Vertex) -> Mapping[Vertex, float]:
        """Return a mapping ``{dst: weight}`` of outgoing edges (built on demand)."""
        return dict(self._labelled_run(self._out, self._require_member(vertex)))

    def in_neighbors(self, vertex: Vertex) -> Mapping[Vertex, float]:
        """Return a mapping ``{src: weight}`` of incoming edges (built on demand)."""
        return dict(self._labelled_run(self._in, self._require_member(vertex)))

    def neighbors(self, vertex: Vertex) -> Iterator[Vertex]:
        """Iterate over the (undirected) neighbour set ``N(u)``.

        Absent vertices yield nothing, matching the dict backend.
        """
        vid = self._interner.get_id(vertex)
        if vid < 0 or not self._member[vid]:
            return
        labels = self._interner._labels
        seen = set()
        for nbr in self._out.run(vid)[0].tolist():
            seen.add(nbr)
            yield labels[nbr]
        for nbr in self._in.run(vid)[0].tolist():
            if nbr not in seen:
                yield labels[nbr]

    def incident_items(self, vertex: Vertex) -> Iterator[Tuple[Vertex, float]]:
        """Iterate over ``(neighbour, weight)`` pairs of all incident edges."""
        vid = self._interner.get_id(vertex)
        if vid < 0 or not self._member[vid]:
            return
        yield from self._labelled_run(self._out, vid)
        yield from self._labelled_run(self._in, vid)

    def out_degree(self, vertex: Vertex) -> int:
        """Return the number of outgoing edges of ``vertex``."""
        return self._out.length.item(self._require_member(vertex))

    def in_degree(self, vertex: Vertex) -> int:
        """Return the number of incoming edges of ``vertex``."""
        return self._in.length.item(self._require_member(vertex))

    def degree(self, vertex: Vertex) -> int:
        """Return the total degree (in + out) of ``vertex``."""
        return self.degree_id(self._require_member(vertex))

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
        if vid >= len(self._vw):
            return 0
        return self._out.length.item(vid) + self._in.length.item(vid)

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

        One vectorised gather over the run-length arrays — O(|V|) with no
        edge traffic, used by :mod:`repro.graph.stats`.
        """
        order = np.asarray(self._vertex_order, dtype=np.int64)
        return self._out.length[order] + self._in.length[order]

    def incident_arrays_id(self, vid: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbor_ids, weights)`` views over all incident edges.

        Out-edges first, then in-edges, in run order.  The views alias a
        per-graph scratch buffer and are only valid until the next call on
        this graph; copy (or fancy-index) to retain.
        """
        if vid >= len(self._vw):
            return _EMPTY_IDS, _EMPTY_WEIGHTS
        out, inc = self._out, self._in
        n_out = out.length.item(vid)
        n = n_out + inc.length.item(vid)
        if n == 0:
            return _EMPTY_IDS, _EMPTY_WEIGHTS
        if n > len(self._scratch_ids):
            cap = max(2 * len(self._scratch_ids), n)
            self._scratch_ids = np.empty(cap, dtype=np.int32)
            self._scratch_w = np.empty(cap, dtype=np.float64)
        ids = self._scratch_ids
        weights = self._scratch_w
        ids[:n_out], weights[:n_out] = out.run(vid)
        ids[n_out:n], weights[n_out:n] = inc.run(vid)
        return ids[:n], weights[:n]

    def native_adjacency(self) -> Tuple[np.ndarray, ...]:
        """Return the arrays the C reorder kernel walks, as they are now.

        ``(out_nbr, out_w, out_start, out_len, in_nbr, in_w, in_start,
        in_len)``: each direction's arena and its per-id run starts and
        lengths.  Any mutation may replace these arrays (arena growth,
        compaction, new ids), so callers fetch them afresh for every
        kernel call and never keep a base pointer.
        """
        out, inc = self._out, self._in
        return (out.nbr, out.w, out.start, out.length, inc.nbr, inc.w, inc.start, inc.length)

    # ------------------------------------------------------------------ #
    # Snapshot export
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Monotone mutation counter (bumped by every structural change)."""
        return self._version

    def freeze(self) -> "CsrSnapshot":
        """Freeze the arenas into an immutable CSR snapshot.

        O(|V| + |E|): the offsets are a cumsum over the run lengths and
        each neighbor/weight array one gather through a single
        ``np.repeat`` index, preserving run (= enumeration) order exactly
        — which is what makes the CSR static peel bit-identical to the
        heap peel.  The gathered arrays are fresh copies, so the returned
        :class:`~repro.graph.csr.CsrSnapshot` is decoupled from this
        graph; use :meth:`CsrSnapshot.is_stale` to detect later mutations
        (every mutation bumps :attr:`version`).

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
        out_offsets, out_neighbors, out_weights = self._out.gather(size)
        in_offsets, in_neighbors, in_weights = self._in.gather(size)
        vertex_weights = np.zeros(size, dtype=np.float64)
        member = np.zeros(size, dtype=bool)
        covered = min(size, len(self._vw))
        vertex_weights[:covered] = self._vw[:covered]
        member[:covered] = self._member[:covered]
        snapshot = CsrSnapshot(
            order=_frozen(np.asarray(self._vertex_order, dtype=np.int32)),
            member=_frozen(member),
            vertex_weights=_frozen(vertex_weights),
            out_offsets=_frozen(out_offsets),
            out_neighbors=_frozen(out_neighbors),
            out_weights=_frozen(out_weights),
            in_offsets=_frozen(in_offsets),
            in_neighbors=_frozen(in_neighbors),
            in_weights=_frozen(in_weights),
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
        """Return a deep copy of the graph (weights, arenas and ids included)."""
        clone = ArrayGraph()
        clone._interner = self._interner.copy()
        clone._vw = self._vw.copy()
        clone._iw = self._iw.copy()
        clone._member = self._member.copy()
        clone._vertex_order = list(self._vertex_order)
        clone._out = self._out.copy()
        clone._in = self._in.copy()
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
        """Rebuild the graph a labelled snapshot was frozen from, run for run.

        Each direction's arena is one writable copy of the snapshot's
        arrays, every run full to capacity (its first append moves it),
        and the edge-slot index pairs each out-slot with its in-slot by
        sorting both sides on ``(src, dst)``.  Ids, priors, membership,
        edge count and total weight are the snapshot's own; no edge is
        re-inserted.
        """
        graph = cls()
        num = snapshot.num_ids
        graph._interner.intern_many(snapshot.labels)
        graph._vw = np.array(snapshot.vertex_weights, dtype=np.float64)
        graph._member = np.array(snapshot.member, dtype=bool)
        graph._vertex_order = snapshot.order.tolist()
        src, out_slot, dst, out_iw, graph._out = _csr_runs(
            snapshot.out_offsets, snapshot.out_neighbors, snapshot.out_weights
        )
        in_dst, in_slot, in_src, in_iw, graph._in = _csr_runs(
            snapshot.in_offsets, snapshot.in_neighbors, snapshot.in_weights
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

    # ------------------------------------------------------------------ #
    # Bulk load (``PeelingSemantics.materialize``)
    # ------------------------------------------------------------------ #
    def accumulate_weights(self, ends: np.ndarray, weights: np.ndarray) -> None:
        """Set incident weights and the total as ``add_edge`` would sum them.

        ``ends`` interleaves the ids of each edge's ends as ``(src_0,
        dst_0, src_1, dst_1, ...)``.  The result is, bit for bit, what
        inserting edge ``k`` with ``weights[k]`` for ``k = 0, 1, ...`` into
        a graph with no edges accumulates: ``np.bincount`` adds in index
        order and the total is the sequential sum.  The arenas are left as
        they are.
        """
        from repro.graph.csr import sequential_sum

        self._iw = np.bincount(ends, np.repeat(weights, 2), len(self._vw))
        self._total_edge_weight = sequential_sum(weights)
        self._version += 1
        self._snapshot_cache = None

    def set_edge_weights(
        self, ends: np.ndarray, weights: np.ndarray, vertex_weights: Iterable[float]
    ) -> None:
        """Overwrite every edge weight and every prior at once.

        The runs must hold exactly the distinct edges of ``ends`` (laid out
        as in :meth:`accumulate_weights`), each run in edge order, as a
        graph built from them by :meth:`from_csr` or by ``add_edge`` does.
        Edge ``k`` gets ``weights[k]`` and the vertex with id ``i`` gets
        ``vertex_weights[i]``; incident weights and the total are then what
        inserting the edges in that order accumulates.
        """
        from repro.graph.csr import stable_argsort

        for arena, owner in ((self._out, ends[0::2]), (self._in, ends[1::2])):
            order = stable_argsort(owner)
            grouped = owner[order]
            slot = np.arange(len(grouped)) - np.searchsorted(grouped, grouped)
            arena.w[arena.start[grouped] + slot] = weights[order]
        priors = np.asarray(vertex_weights, dtype=np.float64)
        self._vw[: len(priors)] = priors
        self.accumulate_weights(ends, weights)
