"""Snapshot-isolated reads: queries never block the writer.

The serving layer runs a strict single-writer / many-readers discipline
on one asyncio loop:

* **One writer.**  Only the ingest gateway's commit path mutates the
  engine, always while holding the shared :class:`asyncio.Lock`.
* **Publish on commit.**  Every committed operation advances a version
  counter (the WAL sequence), and the writer publishes, *with* that
  version, the detection the engine's maintained peeling sequence
  already produced for the write ack (:class:`DetectionView`: community,
  density, peel index, ``|V|``, ``|E|``).  ``GET /v1/detect`` returns the
  published view: no lock, no executor hop, no freeze, no peel — Spade's
  ``Detect()`` is a lookup.  The JSON body is built on the first read of
  a version and kept for the reads that follow, so a commit pays one
  attribute swap and N reads between commits format once.
* **Peel fallback.**  An engine whose per-commit report is not what a
  static peel of its graph returns (``DetectionReport.exact`` is false:
  in-process shards and FD, whose maintained sequence
  can settle on a different community than a fresh peel) publishes no
  view, and neither does an operation the engine rejected half-way.  The
  first ``detect`` read of such a version freezes the graph and peels
  the snapshot in a worker thread — and leaves its answer in the same
  per-version slot, so the reads behind it are lookups too.
* **Frozen snapshots for everything else.**  ``GET /v1/communities`` and
  ``GET /v1/vertices/{v}`` still read an immutable
  :class:`~repro.graph.csr.CsrSnapshot`: the first such read after a
  commit freezes the graph (a version-guarded cache on the array
  backend) under the writer's lock, so it can never observe a
  half-applied batch, and the report-remove-repeel enumeration then runs
  in a worker thread holding no lock at all — seeded with the version's
  detection when there is one, so rank 0 costs no whole-graph peel.

The isolation contract is unchanged — a response at version ``v`` equals
a fresh offline engine replayed through exactly the first ``v``
operations, and a fresh peel of that engine's graph — and, wherever the
view is the published one, is now also tied to the acks: ``/v1/detect``
at version ``v`` carries, by construction, the density and community
size the ack for ``v`` carried.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from repro.api.client import SpadeClient
from repro.api.report import DetectionReport
from repro.core.enumeration import CommunityInstance, enumerate_csr
from repro.core.state import Community
from repro.graph.csr import CsrSnapshot
from repro.peeling.static import peel_csr

__all__ = [
    "DetectionView",
    "SnapshotView",
    "SnapshotService",
    "detect_payload",
    "peel_community",
]


def detect_payload(
    version: int,
    community: Community,
    vertices: int,
    edges: int,
    semantics: str,
    backend: str,
    shards: int,
) -> Dict[str, object]:
    """The ``GET /v1/detect`` response body (live and as-of reads share it)."""
    return {
        "version": version,
        "community": sorted(map(str, community.vertices)),
        "density": community.density,
        "peel_index": community.peel_index,
        "vertices": vertices,
        "edges": edges,
        "semantics": semantics,
        "backend": backend,
        "shards": shards,
        "exact": True,
    }


def peel_community(snapshot: CsrSnapshot, semantics: str) -> Community:
    """The community a static peel of ``snapshot`` finds (the fallback answer)."""
    result = peel_csr(snapshot, semantics)
    return Community(result.community, result.best_density, result.best_index)


class DetectionView:
    """The exact detection at one version, as published to readers.

    ``source`` names where the community came from: ``"maintained"`` —
    the engine's own peeling sequence, handed over by the writer with the
    commit that produced ``version`` — or ``"peel"`` — a static peel of
    the version's frozen snapshot.  ``payload`` is the response body,
    filled in by the first read (treat it as read-only).
    """

    __slots__ = ("version", "community", "vertices", "edges", "source", "payload")

    def __init__(
        self, version: int, community: Community, vertices: int, edges: int, source: str
    ) -> None:
        self.version = version
        self.community = community
        self.vertices = vertices
        self.edges = edges
        self.source = source
        self.payload: Optional[Dict[str, object]] = None

    @classmethod
    def maintained(
        cls, version: int, report: DetectionReport, graph
    ) -> Optional["DetectionView"]:
        """The view of an engine report taken at ``version``, if it is exact.

        Exact here is :attr:`DetectionReport.exact`: the report's community
        is the one a fresh peel of the graph would find.

        ``graph`` is the engine's graph in the state the report describes
        (the writer calls this before anything else mutates it).
        """
        if not report.exact:
            return None
        return cls(
            version,
            report.community,
            graph.num_vertices(),
            graph.num_edges(),
            "maintained",
        )


class SnapshotView:
    """An immutable ``(version, snapshot)`` pair published to readers."""

    __slots__ = ("version", "snapshot")

    def __init__(self, version: int, snapshot: CsrSnapshot) -> None:
        self.version = version
        self.snapshot = snapshot


class SnapshotService:
    """Versioned detection/snapshot publication + the query surface on it."""

    def __init__(self, client: SpadeClient, lock: asyncio.Lock) -> None:
        self._client = client
        self._lock = lock
        self._engine_version = 0
        # Invariant: None, or a view at exactly _engine_version.
        self._detection: Optional[DetectionView] = None
        self._view: Optional[SnapshotView] = None

    # ------------------------------------------------------------------ #
    # Writer side
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Version of the latest committed engine state."""
        return self._engine_version

    def publish(self, version: int, detection: Optional[DetectionView]) -> None:
        """Record that the engine now reflects WAL sequence ``version``.

        ``detection`` is the engine's own exact answer in that state, or
        ``None`` when it has none to give (shard-local per-commit views,
        an operation rejected half-way); reads of the version then peel
        its snapshot.  Version and view change together, so a version is
        never stamped on state it does not reflect.  The cached snapshot
        is left in place: it is version-guarded and refreshed on demand.
        """
        if detection is not None and detection.version != version:
            raise ValueError(
                f"detection view of version {detection.version} published as {version}"
            )
        self._engine_version = version
        self._detection = detection

    # ------------------------------------------------------------------ #
    # Snapshot publication
    # ------------------------------------------------------------------ #
    async def current(self) -> SnapshotView:
        """Return a view of the latest committed state (freeze if stale)."""
        view = self._view
        if view is not None and view.version == self._engine_version:
            return view
        async with self._lock:
            # Re-check under the lock: a concurrent reader may have
            # refreshed while this one awaited the writer.
            view = self._view
            if view is not None and view.version == self._engine_version:
                return view
            # Freeze off the event loop (the engine is stable while the
            # lock is held): an O(|V|+|E|) freeze on the loop thread
            # would stall every connection, acks included.
            snapshot = await asyncio.get_running_loop().run_in_executor(
                None, self._client.snapshot
            )
            view = SnapshotView(self._engine_version, snapshot)
            self._view = view
            return view

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    async def detection(self) -> DetectionView:
        """The exact detection at the latest version, payload included.

        A lookup whenever the version has a view — published by the
        writer, or left behind by an earlier read's fallback peel.
        """
        view = self._detection
        if view is None:
            view = await self._peel_detection()
        if view.payload is None:
            view.payload = detect_payload(
                view.version,
                view.community,
                view.vertices,
                view.edges,
                self._client.semantics.name,
                self._client.backend,
                self._client.shards,
            )
        return view

    async def _peel_detection(self) -> DetectionView:
        """Freeze + static peel, off the loop; kept for the version's next reads."""
        frozen = await self.current()
        community = await asyncio.get_running_loop().run_in_executor(
            None, peel_community, frozen.snapshot, self._client.semantics.name
        )
        view = DetectionView(
            frozen.version,
            community,
            frozen.snapshot.num_vertices,
            frozen.snapshot.num_edges,
            "peel",
        )
        # The writer may have moved on (or another reader got here first)
        # while this one peeled; only a current, empty slot takes the view.
        if self._detection is None and self._engine_version == view.version:
            self._detection = view
        return view

    async def communities(
        self,
        offset: int = 0,
        limit: int = 10,
        min_density: float = 0.0,
        min_size: int = 2,
        after_rank: Optional[int] = None,
    ) -> Dict[str, object]:
        """Paginated dense-instance enumeration over the current snapshot.

        Two pagination modes share one shape: classic ``offset`` (kept
        for existing clients) and keyset (``after_rank`` — the rank of
        the last instance the client saw, from a cursor token the HTTP
        layer decodes).  One extra instance is enumerated beyond the page
        so ``has_more`` is exact; ``next_rank`` is the keyset position a
        follow-up cursor resumes after (the HTTP layer encodes it).
        """
        view = await self.current()
        loop = asyncio.get_running_loop()
        start = offset if after_rank is None else after_rank + 1
        # Rank 0 is the version's detection whenever one is at hand.
        detection = self._detection
        first = (
            detection.community.vertices
            if detection is not None and detection.version == view.version
            else None
        )

        def _enumerate() -> List[CommunityInstance]:
            return enumerate_csr(
                view.snapshot,
                max_instances=start + limit + 1,
                min_density=min_density,
                min_size=min_size,
                first=first,
            )

        instances = await loop.run_in_executor(None, _enumerate)
        page = instances[start : start + limit]
        has_more = len(instances) > start + limit
        report: Dict[str, object] = {
            "version": view.version,
            "limit": limit,
            "count": len(page),
            "communities": [
                {
                    "rank": instance.rank,
                    "density": instance.density,
                    "size": len(instance.vertices),
                    "vertices": sorted(map(str, instance.vertices)),
                }
                for instance in page
            ],
            "has_more": has_more,
            "next_rank": page[-1].rank if page else None,
        }
        if after_rank is None:
            report["offset"] = offset
        return report

    async def vertex(self, label: object) -> Optional[Dict[str, object]]:
        """Per-vertex view (prior, degrees, incident weight) or ``None``."""
        view = await self.current()
        snapshot = view.snapshot
        vid = snapshot.id_of(label)
        if vid < 0 or not bool(snapshot.member[vid]):
            return None
        out_lo, out_hi = int(snapshot.out_offsets[vid]), int(snapshot.out_offsets[vid + 1])
        in_lo, in_hi = int(snapshot.in_offsets[vid]), int(snapshot.in_offsets[vid + 1])
        incident = float(snapshot.out_weights[out_lo:out_hi].sum()) + float(
            snapshot.in_weights[in_lo:in_hi].sum()
        )
        return {
            "version": view.version,
            "label": str(label),
            "prior": float(snapshot.vertex_weights[vid]),
            "out_degree": out_hi - out_lo,
            "in_degree": in_hi - in_lo,
            "incident_weight": incident,
        }
