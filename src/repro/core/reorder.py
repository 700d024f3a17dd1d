"""Peeling-sequence reordering: the engine behind Spade's incrementality.

Both insertion granularities of the paper — a single edge (Section 4.1,
cases 1–3) and a batch of edges (Section 4.2, Algorithm 2 with the
black/gray/white colouring) — reduce to the same reordering loop.  This
module implements that loop once, carefully, and the thin wrappers in
:mod:`repro.core.insertion` and :mod:`repro.core.batch` provide the
paper-facing entry points.

How the reordering works
------------------------
The maintained state is a valid greedy peeling sequence ``O`` with weights
``Δ`` for the graph *before* the update.  After the new edges are applied,
only a subset of positions can change:

* **Black** vertices are the *seeds*: for every inserted edge, the endpoint
  that appears earlier in ``O`` (its suffix weight grew by the edge weight),
  plus every brand-new vertex (prepended to the head of ``O``).
* **Gray** vertices are the collateral: whenever a vertex enters the pending
  queue ``T``, its neighbours may no longer trust their stored weight and
  are coloured gray.
* **White** vertices are untouched: their stored weight still equals their
  true peeling weight, so they can be re-emitted without looking at the
  graph.

The loop scans ``O`` from the first seed, maintaining a priority queue ``T``
of displaced vertices keyed by their *recovered* peeling weight.  At each
step it compares the head of ``T`` with the next sequence vertex:

* ``Case 1`` — the head of ``T`` is smaller: pop it, place it, and decrease
  the priorities of its neighbours still in ``T``.
* ``Case 2(a)`` — the sequence vertex is black or gray: recover its true
  weight and move it into ``T``.
* ``Case 2(b)`` — the sequence vertex is white: place it as-is.

When ``T`` drains, the contiguous *island* of rewritten positions is flushed
back into the sequence and the scan jumps directly to the next seed — the
skip that gives Spade its affected-area complexity
``O(|E_T| + |E_T| log |V_T|)``.

Hot-path layout
---------------
The loop runs entirely over the dense ids assigned by the graph backend's
interner: heap entries are ``(weight, id)`` pairs (the id *is* the
tie-break key, since ids are assigned in graph insertion order), colour
sets are numpy boolean arrays indexed by id, and weight recovery gathers a
whole neighbourhood — ids, weights, and their positions in the state's
position buffer — as arrays from :meth:`incident_arrays_id` and reduces
them with vectorised masks instead of per-neighbour Python dispatch.
Labels never enter the loop.

Tie-breaking matches the static algorithm (graph insertion order == dense
id), so the reordered sequence is not merely *a* valid peeling sequence of
``G ⊕ ΔG`` but exactly the one a from-scratch run would produce.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import native as _native
from repro.obs import profile as _obs_profile
from repro.graph.backend import SMALL_DEGREE
from repro.graph.graph import Vertex
from repro.core.state import PeelingState

__all__ = ["ReorderStats", "reorder_after_insertions"]


@dataclass
class ReorderStats:
    """Cost accounting for one maintenance pass (the paper's affected area)."""

    #: Number of vertices that entered the pending queue ``T`` (``|V_T|``).
    queued_vertices: int = 0
    #: Number of vertices written back in a different position or with a new weight.
    moved_vertices: int = 0
    #: Number of sequence positions examined by the scan.
    scanned_positions: int = 0
    #: Number of edge traversals performed (``|E_T|`` up to constants).
    edge_traversals: int = 0
    #: Number of contiguous islands that were rewritten.
    islands: int = 0
    #: Number of suffix positions re-peeled by the deletion path (0 for inserts).
    repeeled_positions: int = 0

    def merge(self, other: "ReorderStats") -> None:
        """Accumulate another pass's counters into this one."""
        self.queued_vertices += other.queued_vertices
        self.moved_vertices += other.moved_vertices
        self.scanned_positions += other.scanned_positions
        self.edge_traversals += other.edge_traversals
        self.islands += other.islands
        self.repeeled_positions += other.repeeled_positions

    @property
    def affected_area(self) -> int:
        """A single scalar summary of the work performed."""
        return self.scanned_positions + self.edge_traversals


def reorder_after_insertions(
    state: PeelingState,
    seeds: Optional[Iterable[Vertex]] = None,
    *,
    seed_ids: Optional[Sequence[int]] = None,
) -> ReorderStats:
    """Reorder ``state`` after new edges have been applied to its graph.

    Parameters
    ----------
    state:
        The peeling state.  Its graph must already contain the inserted
        edges, new vertices must already be prepended to the sequence
        (:meth:`PeelingState.prepend_vertex`), and ``state.total`` must
        already account for the added suspiciousness.
    seeds:
        The black vertices as original labels: earlier-positioned endpoints
        of the inserted edges plus any brand-new vertices.
    seed_ids:
        The same, as dense ids (preferred on the hot path).  Exactly one of
        ``seeds`` / ``seed_ids`` should be provided.

    Returns
    -------
    ReorderStats
        Affected-area accounting for the pass.
    """
    stats = ReorderStats()
    graph = state.graph
    interner = graph.interner

    if seed_ids is None:
        seed_ids = []
        for vertex in seeds or ():
            vid = interner.get_id(vertex)
            if vid >= 0:
                seed_ids.append(vid)

    seed_ids = [vid for vid in set(seed_ids) if state.contains_id(vid)]
    n = len(state)
    if not seed_ids or n == 0:
        state.invalidate()
        return stats

    seed_positions = sorted(state.position_id(vid) for vid in seed_ids)
    _began = time.perf_counter()

    # --- native dispatch --------------------------------------------- #
    # The compiled kernel runs the identical scan (same cases, same float
    # association order, same heap pop order — see _kernels.c) over the
    # graph's adjacency arenas, passed afresh on every call (any mutation
    # may move them).  It needs the array backend (arenas) and a reorder
    # kernel that passed the pw_sum self-check; when either is missing the
    # python loop below serves, even under
    # kernel="native" — resolve_kernel already failed loud on the truly
    # unavailable cases (no compiler / failed build / failed self-check).
    if _native.resolve_kernel(getattr(state, "kernel", None)) == "native":
        nk = _native.get_kernels()
        if nk is not None and nk.reorder_ok and hasattr(graph, "native_adjacency"):
            result = _reorder_native(state, nk, seed_ids, seed_positions, stats)
            _obs_profile.record("reorder", "native", time.perf_counter() - _began)
            return result

    # Black (seed) and gray (collateral) vertices trigger the same action —
    # recover-and-queue — so one ``touched`` array serves both colours.
    # Both masks are persistent scratch owned by the state (all-False
    # between passes); this pass resets exactly the entries it sets, so a
    # single-edge update costs O(affected area), not O(|V|).
    touched, in_queue_mask = state.reorder_masks()
    touched[seed_ids] = True

    # The pending queue ``T``.  Queues are tiny for single-edge updates, so
    # the minimum is found by a linear scan over ``in_queue`` until the
    # queue outgrows ``_HEAP_THRESHOLD``; past that a lazy-deletion heap
    # takes over (keeping the paper's O(log |V_T|) bound for big batches).
    # ``heap is None`` means linear mode.
    _HEAP_THRESHOLD = 64
    heap: Optional[List[Tuple[float, int]]] = None
    in_queue: Dict[int, float] = {}
    # Every vertex that entered T, for the O(|E_T|) mask reset at the end.
    queued_log: List[int] = []

    buffer_ids: List[int] = []
    buffer_weights: List[float] = []

    # Local aliases for the sequence buffers; no prepend can happen during a
    # reorder, so the views stay valid for the whole pass.
    order_buf = state._order_buf
    weights_buf = state._weights_buf
    head = state._head
    pos_buf = state._pos_buf

    island_start = seed_positions[0]
    seed_cursor = 0

    # A vertex is *placed* (has its final position in the new sequence) iff
    # its recorded position lies before the current island: flushed islands
    # and skipped gaps end up before every later island, a queued vertex
    # always sits inside the current island (so its stale position can
    # never read as placed), and vertices re-emitted into the island buffer
    # are parked at a sentinel position *before* the island
    # (``emitted_pos``) until the flush writes their real one.  This makes
    # the placed test a single position gather.
    emitted_pos = head - 1

    def recover_weight(vid: int) -> float:
        """Recompute the true peeling weight of ``vid`` w.r.t. the remaining set.

        Placed neighbours are excluded from the weight; everything else —
        pending, still-to-scan, or in later islands — still counts.
        """
        ids, edge_weights = graph.incident_arrays_id(vid)
        degree = len(ids)
        total = graph.vertex_weight_id(vid)
        if degree:
            threshold = head + island_start  # buffer coordinates
            # Scalar/vector split mirrors the static peel's initial-weight
            # computation (same SMALL_DEGREE, same accumulation shape) so
            # recovered weights are bit-consistent with a from-scratch run.
            if degree <= SMALL_DEGREE:
                incident = 0.0
                for weight, position in zip(
                    edge_weights.tolist(), pos_buf[ids].tolist()
                ):
                    if position >= threshold:
                        incident += weight
                total += incident
            else:
                placed = pos_buf[ids] < threshold
                if not placed.any():
                    total += float(edge_weights.sum())
                elif not placed.all():
                    total += float(edge_weights[~placed].sum())
            # Entering T grays every neighbour: their stored weights can no
            # longer be trusted.  (The caller is about to queue ``vid``.)
            touched[ids] = True
        stats.edge_traversals += 2 * degree
        return total

    def push_to_queue(vid: int) -> None:
        """Case 2(a): recover the weight of ``vid``, queue it, gray its neighbours."""
        nonlocal heap
        weight = recover_weight(vid)
        queued_log.append(vid)
        in_queue[vid] = weight
        in_queue_mask[vid] = True
        if heap is not None:
            heapq.heappush(heap, (weight, vid))
        elif len(in_queue) > _HEAP_THRESHOLD:
            heap = [(w, v) for v, w in in_queue.items()]
            heapq.heapify(heap)
        stats.queued_vertices += 1

    def queue_head() -> Optional[Tuple[float, int]]:
        """Return the live minimum of ``T`` (with the ``(weight, id)`` order)."""
        if heap is None:
            best_weight = None
            best_vid = -1
            for vid, weight in in_queue.items():
                if (
                    best_weight is None
                    or weight < best_weight
                    or (weight == best_weight and vid < best_vid)
                ):
                    best_weight = weight
                    best_vid = vid
            if best_weight is None:
                return None
            return best_weight, best_vid
        while heap:
            weight, vid = heap[0]
            if in_queue.get(vid) != weight:
                heapq.heappop(heap)
                continue
            return weight, vid
        return None

    def place_from_queue(weight: float, vid: int) -> None:
        """Case 1: place the (validated) head of ``T``, lower its neighbours."""
        if heap is not None:
            heapq.heappop(heap)
        del in_queue[vid]
        in_queue_mask[vid] = False
        buffer_ids.append(vid)
        buffer_weights.append(weight)
        pos_buf[vid] = emitted_pos
        if not in_queue:
            # Nothing pending — no priorities to lower, skip the traversal.
            return
        ids, edge_weights = graph.incident_arrays_id(vid)
        degree = len(ids)
        stats.edge_traversals += degree
        if degree <= SMALL_DEGREE:
            for nbr, edge_weight in zip(ids.tolist(), edge_weights.tolist()):
                if nbr in in_queue:
                    lowered = in_queue[nbr] - edge_weight
                    in_queue[nbr] = lowered
                    if heap is not None:
                        heapq.heappush(heap, (lowered, nbr))
        elif degree:
            pending = in_queue_mask[ids]
            if pending.any():
                for nbr, edge_weight in zip(
                    ids[pending].tolist(), edge_weights[pending].tolist()
                ):
                    lowered = in_queue[nbr] - edge_weight
                    in_queue[nbr] = lowered
                    if heap is not None:
                        heapq.heappush(heap, (lowered, nbr))

    # Chunk sizes for the vectorised white-run scan: start narrow (short
    # runs are the common case and a 16-wide numpy op is cheap), widen
    # geometrically so long runs amortise the dispatch overhead.
    _SCAN_CHUNK_MIN = 16
    _SCAN_CHUNK_MAX = 512

    def emit_white_run(k: int, head_weight: float, head_vid: int) -> int:
        """Case 2(b), bulk: re-emit the run of white vertices starting at ``k``.

        Scans forward until the first position that triggers Case 1 (the
        queue head becomes the minimum) or Case 2(a) (a black/gray vertex),
        copying everything before it verbatim into the island buffer, and
        returns that stop position (or ``n``).  Neither re-emission nor the
        scan itself touches the heap, so the comparison key stays fixed for
        the whole run — which is what makes it vectorisable.
        """
        # Scalar fast path: a run often stops at its very first position
        # (another seed or a Case-1 trigger), and a pair of scalar reads
        # beats a numpy round-trip there.
        first_vid = int(order_buf[head + k])
        if touched[first_vid]:
            return k
        first_weight = float(weights_buf[head + k])
        if (head_weight, head_vid) < (first_weight, first_vid):
            return k
        chunk = _SCAN_CHUNK_MIN
        while k < n:
            a = head + k
            b = min(head + n, a + chunk)
            chunk = min(chunk * 4, _SCAN_CHUNK_MAX)
            seg_ids = order_buf[a:b]
            seg_weights = weights_buf[a:b]
            stop = (
                touched[seg_ids]
                | (seg_weights > head_weight)
                | ((seg_weights == head_weight) & (seg_ids > head_vid))
            )
            hit = int(np.argmax(stop)) if stop.any() else -1
            run = hit if hit >= 0 else b - a
            if run:
                buffer_ids.extend(seg_ids[:run].tolist())
                buffer_weights.extend(seg_weights[:run].tolist())
                pos_buf[seg_ids[:run]] = emitted_pos
                stats.scanned_positions += run
                k += run
            if hit >= 0:
                return k
        return k

    def flush_island(end: int) -> None:
        """Write the rebuilt island back into positions ``[island_start, end)``."""
        if not buffer_ids:
            return
        if len(buffer_ids) != end - island_start:
            raise AssertionError(
                "island accounting error: "
                f"{len(buffer_ids)} rebuilt vertices for span [{island_start}, {end})"
            )
        ids = np.asarray(buffer_ids, dtype=np.int32)
        new_weights = np.asarray(buffer_weights, dtype=np.float64)
        a = head + island_start
        b = head + end
        moved = int(
            np.count_nonzero(
                (order_buf[a:b] != ids) | (weights_buf[a:b] != new_weights)
            )
        )
        stats.moved_vertices += moved
        # write_segment_ids replaces the sentinel positions of the emitted
        # vertices with their final ones, so the placed test keeps working
        # for every later island.
        state.write_segment_ids(island_start, ids, new_weights)
        buffer_ids.clear()
        buffer_weights.clear()

    k = island_start
    try:
        while True:
            entry = queue_head()
            if entry is None:
                # The island is complete: flush it and jump to the next seed.
                heap = None  # back to linear-scan mode for the next island
                flush_island(k)
                while seed_cursor < len(seed_positions) and seed_positions[seed_cursor] < k:
                    seed_cursor += 1
                if seed_cursor >= len(seed_positions):
                    break
                island_start = k = seed_positions[seed_cursor]
                seed_cursor += 1
                stats.islands += 1
                # Seed the new island: the vertex at this position is black.
                stats.scanned_positions += 1
                push_to_queue(int(order_buf[head + k]))
                k += 1
                continue

            head_weight, head_vid = entry
            if k >= n:
                # The original sequence is exhausted: drain the queue.
                place_from_queue(head_weight, head_vid)
                continue

            # Case 2(b), vectorised: bulk re-emit the white run ahead of ``k``.
            k = emit_white_run(k, head_weight, head_vid)
            if k >= n:
                continue
            sequence_vid = int(order_buf[head + k])
            sequence_weight = float(weights_buf[head + k])
            stats.scanned_positions += 1
            if (head_weight, head_vid) < (sequence_weight, sequence_vid):
                # Case 1: the pending vertex is the true minimum.
                place_from_queue(head_weight, head_vid)
                continue
            # Case 2(a): black or gray — the stored weight cannot be trusted;
            # recover and queue.  (emit_white_run stopped here, so it is one
            # of the two.)
            push_to_queue(sequence_vid)
            k += 1
    finally:
        # Return the borrowed masks clean: reset exactly the entries this
        # pass set — the seeds, every queued vertex and its (grayed)
        # neighbourhood, and any in-queue flags left by an aborted pass.
        touched[seed_ids] = False
        for vid in queued_log:
            touched[vid] = False
            in_queue_mask[vid] = False
            ids, _weights = graph.incident_arrays_id(vid)
            if len(ids):
                touched[ids] = False

    _obs_profile.record("reorder", "python", time.perf_counter() - _began)
    state.invalidate()
    return stats


def _reorder_native(
    state: PeelingState,
    nk,
    seed_ids: Sequence[int],
    seed_positions: Sequence[int],
    stats: ReorderStats,
) -> ReorderStats:
    """Run the reorder pass through the compiled kernel (bit-identical).

    The kernel mutates the sequence buffers, position index and scratch
    masks in place exactly as the python loop does — including the
    finally-style mask reset on error paths — and reports the same
    affected-area counters.
    """
    graph = state.graph
    touched, in_queue_mask = state.reorder_masks()
    inq_val = state.reorder_queue_values()
    raw = nk.reorder(
        graph.native_adjacency(),
        graph._vw,
        state._order_buf,
        state._weights_buf,
        state._head,
        len(state),
        state._pos_buf,
        touched,
        in_queue_mask,
        inq_val,
        np.asarray(seed_ids, dtype=np.int32),
        np.asarray(seed_positions, dtype=np.int64),
        SMALL_DEGREE,
    )
    stats.queued_vertices = int(raw[0])
    stats.moved_vertices = int(raw[1])
    stats.scanned_positions = int(raw[2])
    stats.edge_traversals = int(raw[3])
    stats.islands = int(raw[4])
    state.invalidate()
    return stats
