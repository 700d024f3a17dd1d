"""The peeling-sequence state maintained incrementally by Spade.

Listing 1 of the paper keeps two vectors next to the graph: ``_seq`` (the
peeling sequence ``O``) and ``_weight`` (the peeling weights ``Δ``).  This
module wraps them — together with the total suspiciousness ``f(V)`` and a
position index — into :class:`PeelingState`, the object every incremental
algorithm in :mod:`repro.core` operates on.

Implementation notes
--------------------
* The sequence is stored as a dense ``int32`` id array (ids assigned by the
  graph backend's :class:`~repro.graph.interning.VertexInterner`), aligned
  with a ``float64`` weight array.  Both live inside a shared buffer with
  *head-room*: the paper's rule for vertex insertion prepends new vertices
  to the head of the sequence, and the head-room turns that prepend into an
  O(1)-amortized pointer decrement instead of an ``np.concatenate`` copy.
* Vertex positions are a numpy ``int64`` array indexed by dense id holding
  *buffer* indices, so a prepend shifts every logical position by one
  without renumbering anything, and the reorder engine can gather the
  positions of a whole neighbourhood with one fancy-index.
* Tie-breaking between equal peeling weights uses the order in which
  vertices entered the graph — which is exactly the dense id — so the
  incrementally maintained sequence is *identical* to a from-scratch run,
  not merely equivalent.

The label-facing API (``order``, ``position``, ``write_segment``, …) is
unchanged from the dict-era state; the ``*_id`` twins expose the dense-id
surface the hot paths use.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StateError
from repro.graph.graph import Vertex
from repro.graph.interning import VertexInterner
from repro.peeling.result import PeelingResult
from repro.peeling.semantics import PeelingSemantics
from repro.peeling.static import peel_csr

__all__ = ["PeelingState", "Community"]

#: Initial head-room reserved for prepends in front of the sequence.
_INITIAL_HEADROOM = 32


class Community(Tuple[FrozenSet[Vertex], float, int]):
    """``(vertices, density, peel_index)`` of the current densest suffix."""

    __slots__ = ()

    def __new__(cls, vertices: FrozenSet[Vertex], density: float, peel_index: int) -> "Community":
        return super().__new__(cls, (frozenset(vertices), float(density), int(peel_index)))

    @property
    def vertices(self) -> FrozenSet[Vertex]:
        """The fraudulent community ``S_P``."""
        return self[0]

    @property
    def density(self) -> float:
        """Its density ``g(S_P)``."""
        return self[1]

    @property
    def peel_index(self) -> int:
        """Number of vertices peeled before the community."""
        return self[2]

    def __contains__(self, vertex: object) -> bool:  # type: ignore[override]
        return vertex in self[0]


class _TieBreakView(Mapping):
    """Read-only mapping view ``label -> tie-break index`` over the interner.

    The tie-break index of a vertex *is* its dense id, so this view simply
    re-exposes the interner under the historical ``state.tie_break`` name.
    """

    __slots__ = ("_interner",)

    def __init__(self, interner: VertexInterner) -> None:
        self._interner = interner

    def __getitem__(self, label: Vertex) -> int:
        return self._interner.id_of(label)

    def __len__(self) -> int:
        return len(self._interner)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._interner)


class PeelingState:
    """The incrementally maintained peeling sequence over a weighted graph.

    Parameters
    ----------
    graph:
        The weighted graph ``G`` — any
        :class:`~repro.graph.backend.GraphBackend` (owned by the caller;
        mutated in place as updates arrive).
    semantics:
        The peeling semantics that weighted the graph; used for labelling
        and for weighting future updates.
    result:
        An optional precomputed static peeling result.  When omitted the
        state runs the static algorithm once (the "initialisation" step of
        the paper's pipeline).
    kernel:
        The hot-loop implementation choice (``"python"`` / ``"native"`` /
        ``"auto"``; ``None`` = process default) honored by every
        maintenance pass over this state — see :mod:`repro.native`.
    """

    def __init__(
        self,
        graph,
        semantics: PeelingSemantics,
        result: Optional[PeelingResult] = None,
        kernel: Optional[str] = None,
    ) -> None:
        self.graph = graph
        self.semantics = semantics
        self.kernel = kernel
        if result is None:
            result = peel_csr(graph, semantics.name, kernel=kernel)
        if len(result.order) != graph.num_vertices():
            raise StateError(
                "peeling result does not cover the graph: "
                f"{len(result.order)} sequence entries vs {graph.num_vertices()} vertices"
            )
        interner = graph.interner
        n = len(result.order)
        head = _INITIAL_HEADROOM
        capacity = head + n
        self._order_buf = np.empty(capacity, dtype=np.int32)
        self._weights_buf = np.empty(capacity, dtype=np.float64)
        self._head = head
        self._tail = head + n
        if n:
            ids = interner.ids_for(result.order)
            self._order_buf[head : head + n] = ids
            self._weights_buf[head : head + n] = np.asarray(result.weights, dtype=np.float64)
        self._pos_buf = np.full(max(len(interner), 1), -1, dtype=np.int64)
        if n:
            self._pos_buf[self._order_buf[head : head + n]] = np.arange(head, head + n)
        self.total: float = float(result.total_suspiciousness)
        self._community_cache: Optional[Community] = None
        self._touched_scratch: Optional[np.ndarray] = None
        self._inq_scratch: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Interner plumbing
    # ------------------------------------------------------------------ #
    @property
    def interner(self) -> VertexInterner:
        """The label ↔ dense-id interner shared with the graph."""
        return self.graph.interner

    @property
    def tie_break(self) -> Mapping:
        """Mapping view ``label -> tie-break index`` (the dense id)."""
        return _TieBreakView(self.graph.interner)

    def _ensure_pos_capacity(self, vid: int) -> None:
        if vid >= len(self._pos_buf):
            grown = np.full(max(16, 2 * len(self._pos_buf), vid + 1), -1, dtype=np.int64)
            grown[: len(self._pos_buf)] = self._pos_buf
            self._pos_buf = grown

    def reorder_masks(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the persistent ``(touched, in_queue)`` scratch masks.

        Owned by the state so a maintenance pass costs O(affected area),
        not O(|V|): the reorder engine borrows these id-indexed boolean
        arrays and must leave every entry ``False`` when it returns (it
        resets exactly the entries it set).  Grown to the interner's
        current capacity on demand.
        """
        capacity = max(len(self.graph.interner), 1)
        if self._touched_scratch is None or len(self._touched_scratch) < capacity:
            grown_capacity = max(16, capacity)
            if self._touched_scratch is not None:
                grown_capacity = max(grown_capacity, 2 * len(self._touched_scratch))
            self._touched_scratch = np.zeros(grown_capacity, dtype=bool)
            self._inq_scratch = np.zeros(grown_capacity, dtype=bool)
        return self._touched_scratch, self._inq_scratch

    # ------------------------------------------------------------------ #
    # Sequence views
    # ------------------------------------------------------------------ #
    @property
    def order(self) -> List[Vertex]:
        """The peeling sequence as original vertex labels (materialised)."""
        return self.graph.interner.labels_for(self._order_buf[self._head : self._tail])

    @property
    def order_ids(self) -> np.ndarray:
        """The peeling sequence as dense ids (a live view — do not mutate)."""
        return self._order_buf[self._head : self._tail]

    @property
    def weights(self) -> np.ndarray:
        """The peeling weights ``Δ`` (a live, writable view)."""
        return self._weights_buf[self._head : self._tail]

    # ------------------------------------------------------------------ #
    # Positions
    # ------------------------------------------------------------------ #
    def position(self, vertex: Vertex) -> int:
        """Return the current 0-based position of ``vertex`` in the sequence."""
        try:
            vid = self.graph.interner.id_of(vertex)
        except KeyError:
            raise StateError(f"vertex {vertex!r} is not in the peeling sequence") from None
        return self.position_id(vid)

    def position_id(self, vid: int) -> int:
        """Return the current 0-based position of the vertex with id ``vid``."""
        raw = self._pos_buf[vid] if 0 <= vid < len(self._pos_buf) else -1
        if raw < 0:
            label = self.graph.interner.label_of(vid) if vid >= 0 else vid
            raise StateError(f"vertex {label!r} is not in the peeling sequence")
        return int(raw - self._head)

    def set_position(self, vertex: Vertex, position: int) -> None:
        """Record that ``vertex`` now sits at ``position`` (used by reorders)."""
        vid = self.graph.interner.id_of(vertex)
        self._ensure_pos_capacity(vid)
        self._pos_buf[vid] = position + self._head

    def __len__(self) -> int:
        return self._tail - self._head

    def __contains__(self, vertex: Vertex) -> bool:
        vid = self.graph.interner.get_id(vertex)
        return self.contains_id(vid)

    def contains_id(self, vid: int) -> bool:
        """Return whether the vertex with id ``vid`` is in the sequence."""
        return 0 <= vid < len(self._pos_buf) and self._pos_buf[vid] >= 0

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #
    def register_vertex(self, vertex: Vertex) -> int:
        """Assign a tie-break index (dense id) to a newly seen vertex."""
        vid = self.graph.interner.intern(vertex)
        self._ensure_pos_capacity(vid)
        return vid

    def prepend_vertex(self, vertex: Vertex, weight: float) -> int:
        """Insert a brand-new vertex at the head of the peeling sequence.

        This is the paper's rule for vertex insertion (Section 4.1): the new
        vertex starts at the head; the subsequent edge reordering moves it to
        the position its peeling weight deserves.  O(1) amortized thanks to
        the head-room buffer.  Returns the dense id of the vertex.
        """
        vid = self.register_vertex(vertex)
        if self.contains_id(vid):
            raise StateError(f"vertex {vertex!r} is already in the peeling sequence")
        if self._head == 0:
            self._grow_headroom()
        self._head -= 1
        self._order_buf[self._head] = vid
        self._weights_buf[self._head] = float(weight)
        self._pos_buf[vid] = self._head
        self.invalidate()
        return vid

    def _grow_headroom(self) -> None:
        """Reallocate the sequence buffers with fresh head-room in front."""
        n = self._tail - self._head
        head = max(_INITIAL_HEADROOM, n // 2)
        capacity = head + n
        order = np.empty(capacity, dtype=np.int32)
        weights = np.empty(capacity, dtype=np.float64)
        order[head : head + n] = self._order_buf[self._head : self._tail]
        weights[head : head + n] = self._weights_buf[self._head : self._tail]
        shift = head - self._head
        live = self._pos_buf >= 0
        self._pos_buf[live] += shift
        self._order_buf = order
        self._weights_buf = weights
        self._head = head
        self._tail = head + n

    def write_segment(
        self,
        start: int,
        vertices: Sequence[Vertex],
        weights: Sequence[float],
    ) -> None:
        """Overwrite the sequence segment ``[start, start + len(vertices))``."""
        interner = self.graph.interner
        ids = np.fromiter(
            (interner.id_of(v) for v in vertices), dtype=np.int32, count=len(vertices)
        )
        self.write_segment_ids(start, ids, np.asarray(weights, dtype=np.float64))

    def write_segment_ids(
        self,
        start: int,
        ids: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """Id-based :meth:`write_segment` used by the reorder hot path."""
        end = start + len(ids)
        if end > len(self):
            raise StateError(
                f"segment [{start}, {end}) exceeds the sequence length {len(self)}"
            )
        a = self._head + start
        b = self._head + end
        self._order_buf[a:b] = ids
        self._weights_buf[a:b] = weights
        self._pos_buf[self._order_buf[a:b]] = np.arange(a, b)
        self.invalidate()

    def add_total(self, amount: float) -> None:
        """Account for suspiciousness added to (or removed from) the graph."""
        self.total += float(amount)
        self.invalidate()

    def invalidate(self) -> None:
        """Drop the cached community (called after any mutation)."""
        self._community_cache = None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def full_set_weight(self, vertex: Vertex) -> float:
        """Return ``w_u(S_0)``: the peeling weight w.r.t. the whole graph."""
        graph = self.graph
        return graph.vertex_weight(vertex) + graph.incident_weight(vertex)

    def community(self) -> Community:
        """Return the current fraudulent community ``S_P`` and its density.

        The density profile is derived from the maintained weights via the
        telescoping identity ``f(S_i) = f(S_{i-1}) - Δ_i`` and scanned with
        numpy, so a detection costs ``O(|V|)`` vectorised work — orders of
        magnitude below a static re-peel.
        """
        if self._community_cache is not None:
            return self._community_cache
        n = len(self)
        if n == 0:
            self._community_cache = Community(frozenset(), 0.0, 0)
            return self._community_cache
        weights = self.weights
        prefix = np.concatenate(([0.0], np.cumsum(weights)[:-1]))
        remaining = self.total - prefix
        sizes = np.arange(n, 0, -1, dtype=np.float64)
        densities = remaining / sizes
        best = int(np.argmax(densities))
        members = self.graph.interner.labels_for(self._order_buf[self._head + best : self._tail])
        community = Community(frozenset(members), float(densities[best]), best)
        self._community_cache = community
        return community

    def density_profile(self) -> np.ndarray:
        """Return ``[g(S_0), ..., g(S_{n-1})]`` as a numpy array."""
        n = len(self)
        if n == 0:
            return np.zeros(0)
        weights = self.weights
        prefix = np.concatenate(([0.0], np.cumsum(weights)[:-1]))
        return (self.total - prefix) / np.arange(n, 0, -1, dtype=np.float64)

    def as_result(self) -> PeelingResult:
        """Export the maintained state as an immutable :class:`PeelingResult`."""
        community = self.community()
        return PeelingResult(
            order=tuple(self.order),
            weights=tuple(float(w) for w in self.weights),
            total_suspiciousness=self.total,
            best_index=community.peel_index,
            best_density=community.density,
            community=community.vertices,
            semantics_name=self.semantics.name,
        )

    def check_consistency(self, tolerance: float = 1e-6) -> None:
        """Verify internal invariants; raises :class:`StateError` on failure.

        Intended for tests and debugging: checks position-index alignment
        and the telescoping identity ``sum(Δ) == f(V)``.
        """
        if len(self.order_ids) != len(self.weights):
            raise StateError("order and weights arrays are misaligned")
        if len(self) != self.graph.num_vertices():
            raise StateError(
                f"sequence covers {len(self)} vertices but the graph has "
                f"{self.graph.num_vertices()}"
            )
        for index, vid in enumerate(self.order_ids.tolist()):
            if self.position_id(vid) != index:
                label = self.graph.interner.label_of(vid)
                raise StateError(f"position index for {label!r} is stale")
        drift = abs(float(np.sum(self.weights)) - self.total)
        scale = max(1.0, abs(self.total))
        if drift > tolerance * scale:
            raise StateError(
                f"telescoping violated: sum(Δ)={float(np.sum(self.weights)):.6f} "
                f"!= f(V)={self.total:.6f}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PeelingState({self.semantics.name}, |V|={len(self)}, "
            f"f(V)={self.total:.3f})"
        )
