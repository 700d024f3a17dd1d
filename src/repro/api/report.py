"""The structured result every :class:`repro.api.SpadeClient` call returns.

Three PRs of growth left detection results scattered across three shapes:
``Community`` (a tuple subclass returned per update),
:class:`~repro.peeling.result.PeelingResult` (the full sequence export)
and the sharded engine's shard-local lower-bound view (a ``Community``
again, but with different exactness semantics).  :class:`DetectionReport`
unifies them: one frozen dataclass carrying the community, the optional
full peeling result, per-event outcomes, merged reorder stats, timing and
provenance (semantics / backend / shards / exactness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.core.reorder import ReorderStats
from repro.core.state import Community
from repro.graph.graph import Vertex
from repro.peeling.result import PeelingResult

__all__ = ["DetectionReport", "EventOutcome"]


@dataclass(frozen=True)
class EventOutcome:
    """What one applied event did to the engine.

    ``density`` / ``community_size`` describe the community returned right
    after the event — a single engine's maintained view, the shard-local
    lower bound for a sharded one (see ``DetectionReport.exact``).
    """

    #: Event kind: ``"insert"`` / ``"insert_batch"`` / ``"delete"`` / ``"flush"``.
    kind: str
    #: Number of edges the event carried (0 for a flush).
    edges: int
    #: Density of the community after the event.
    density: float
    #: Size of the community after the event.
    community_size: int
    #: Reorder cost accounting of this event's maintenance pass.
    stats: ReorderStats = field(default_factory=ReorderStats)


@dataclass(frozen=True)
class DetectionReport:
    """Unified detection result: community + outcomes + stats + provenance."""

    #: The detected community (vertices, density, peel index).
    community: Community
    #: Per-event outcomes of the ``apply`` call that produced this report
    #: (empty for plain ``detect()`` / ``load()`` reports).
    outcomes: Tuple[EventOutcome, ...] = ()
    #: Reorder cost accounting merged over every event of the call.
    stats: ReorderStats = field(default_factory=ReorderStats)
    #: The full peeling result (sequence + weights), when the call
    #: computed one (``load`` / ``detect``); ``None`` for cheap updates.
    result: Optional[PeelingResult] = None
    #: Display name of the active semantics.
    semantics: str = "custom"
    #: Graph backend of the engine.
    backend: str = "dict"
    #: Number of shard engines (1 = single engine).
    shards: int = 1
    #: Whether ``community`` is what a static peel of the engine's graph
    #: returns (True).  False for a sharded engine's shard-local
    #: lower-bound view, and for a single engine under FD, whose
    #: maintained sequence is a valid peeling sequence that float ties can
    #: take to a different community than a fresh peel.
    exact: bool = True
    #: Wall-clock seconds spent inside the engine for this call.
    elapsed_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    # Community views
    # ------------------------------------------------------------------ #
    @property
    def vertices(self) -> FrozenSet[Vertex]:
        """The detected fraudulent community ``S_P``."""
        return self.community.vertices

    @property
    def density(self) -> float:
        """Its density ``g(S_P)``."""
        return self.community.density

    @property
    def peel_index(self) -> int:
        """Number of vertices peeled before the community."""
        return self.community.peel_index

    def __contains__(self, vertex: object) -> bool:
        return vertex in self.community.vertices

    # ------------------------------------------------------------------ #
    # Outcome aggregates
    # ------------------------------------------------------------------ #
    @property
    def events(self) -> int:
        """Number of events applied by the call."""
        return len(self.outcomes)

    @property
    def edges_applied(self) -> int:
        """Total number of edges carried by the applied events."""
        return sum(outcome.edges for outcome in self.outcomes)

    @property
    def affected_area(self) -> int:
        """Scalar reorder-work summary merged over the call's events."""
        return self.stats.affected_area

    def summary(self) -> str:
        """Return a one-line human-readable summary."""
        if self.exact:
            view = "exact"
        elif self.shards > 1:
            view = f"shard-local ({self.shards} shards)"
        else:
            view = "maintained"
        return (
            f"{self.semantics}/{self.backend}: community of "
            f"{len(self.community.vertices)} vertices at density "
            f"{self.community.density:.4f} ({view}; {self.events} events, "
            f"{self.edges_applied} edges)"
        )

    def to_dict(self) -> Dict[str, object]:
        """Flatten for JSON logging (vertices sorted for determinism)."""
        return {
            "community": sorted(map(str, self.community.vertices)),
            "density": self.community.density,
            "peel_index": self.community.peel_index,
            "events": self.events,
            "edges_applied": self.edges_applied,
            "affected_area": self.affected_area,
            "semantics": self.semantics,
            "backend": self.backend,
            "shards": self.shards,
            "exact": self.exact,
            "elapsed_seconds": self.elapsed_seconds,
        }
