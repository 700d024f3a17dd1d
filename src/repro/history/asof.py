"""Time-travel reads: reconstruct the graph at any past WAL sequence.

The write-ahead log is a total order over every accepted operation, so
"the graph as of sequence ``S``" is fully determined: load the nearest
checkpoint at or below ``S`` and replay the WAL records with
``seq <= S`` through the same pool-faithful path crash recovery uses
(:func:`repro.serve.recovery.graph_from_snapshot` +
:func:`~repro.serve.recovery.apply_logged`).  Because that path is
bit-identical to the original process — checkpoint zero, which carries
the initial edge list, is never pruned — ``detect?asof=S`` equals an
offline engine replayed through exactly the first ``S`` operations; the
hypothesis property test in ``tests/test_history.py`` pins this across
checkpoint boundaries.

The service keeps one resident *replay cursor*: the last cold read's
client, base checkpoint, WAL offset and sequence.  A cold read of ``S``
resumes it when ``S`` is at or past the cursor and the nearest complete
checkpoint at or below ``S`` is the cursor's base (the same-base rule),
so it applies exactly the records a rebuild would: the cold answer by
construction, whatever reads came before.  Any other cold read drops the
cursor (one resident client at most), rebuilds and becomes the cursor.
The cursor is taken out under the lock, so reads never share a client.

Every read result is also kept in a small LRU cache keyed by sequence.
An entry is the frozen :class:`CsrSnapshot` *and* its community — the
one the replayed engine's maintained sequence held at that point, or
one peel of the snapshot where that is not the static answer (FD) — so
a cached ``detect`` is a lookup, the same price as a live
``/v1/detect``, and a cached ``communities`` enumerates from rank 1.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.api.client import SpadeClient
from repro.api.config import EngineConfig
from repro.core.enumeration import CommunityInstance, enumerate_csr
from repro.core.state import Community
from repro.errors import AsofRangeError, ReproError
from repro.graph.csr import CsrSnapshot
from repro.peeling.semantics import PeelingSemantics
from repro.serve.recovery import CheckpointStore, apply_logged, graph_from_snapshot
from repro.serve.snapshots import detect_payload, peel_community
from repro.serve.wal import WriteAheadLog, iter_ops

__all__ = ["AsofService", "paginate_instances"]


def paginate_instances(
    instances: List[CommunityInstance],
    start: int,
    limit: int,
) -> Tuple[List[CommunityInstance], bool, Optional[int]]:
    """Slice one page out of an enumeration fetched with one extra row.

    ``instances`` must have been enumerated with ``max_instances >=
    start + limit + 1`` so the extra row makes ``has_more`` exact.
    Returns ``(page, has_more, next_rank)`` where ``next_rank`` is the
    keyset position a follow-up cursor resumes after.
    """
    page = instances[start : start + limit]
    has_more = len(instances) > start + limit
    next_rank = page[-1].rank if page else None
    return page, has_more, next_rank


class AsofService:
    """Reconstruct, cache, and query graph states at past WAL sequences."""

    def __init__(
        self,
        config: EngineConfig,
        semantics: Optional[PeelingSemantics] = None,
        cache_size: int = 8,
        counters: Optional[Dict[str, Callable[[], None]]] = None,
    ) -> None:
        serve = config.serve
        if serve is None or serve.wal_dir is None:
            raise ReproError("as-of reads require a WAL directory")
        self._wal_dir = Path(serve.wal_dir)
        self._wal_path = WriteAheadLog.path_in(self._wal_dir)
        # Replay single-engine with no serving section: the merged sharded
        # detect is bit-identical to a single engine (the PR 3 guarantee),
        # and a past state needs no workers, batching, or fault knobs.
        self._config = config.replace(serve=None, shards=1)
        self._semantics = semantics
        self._semantics_name = (
            semantics.name if semantics is not None else self._config.semantics
        )
        self._cache: "OrderedDict[int, Tuple[CsrSnapshot, Community]]" = OrderedDict()
        self._cache_size = max(1, int(cache_size))
        self._lock = threading.Lock()
        # (client, base_checkpoint_seq, wal_offset, at_seq); see the module
        # docstring's same-base rule.
        self._cursor: Optional[Tuple[SpadeClient, Optional[int], int, int]] = None
        # Plain ints under _lock; /healthz reads them, /metrics mirrors
        # them through the hooks below when the app wires counters in.
        self.hits = 0
        self.misses = 0
        self.resumes = 0
        self.replayed_ops = 0
        self.reconstruct_seconds = 0.0
        self._counters = counters or {}

    # ------------------------------------------------------------------ #
    # Reconstruction
    # ------------------------------------------------------------------ #
    def _checkpoint_client(
        self, seq: int
    ) -> Tuple[SpadeClient, Optional[int], int, int]:
        """A fresh client at the nearest checkpoint at or below ``seq``.

        Returns ``(client, base_seq, wal_offset, at_seq)``; ``base_seq`` is
        ``None`` when no checkpoint qualifies.  Checkpoint zero is
        prune-exempt, so that is a deployment that never cut one (or a
        pre-time-travel directory): the client starts from an empty graph,
        which is correct whenever the WAL is the full history.
        """
        checkpoint = CheckpointStore(self._wal_dir).latest(max_seq=seq)
        client = SpadeClient(self._config, semantics=self._semantics)
        if checkpoint is None:
            client.load([])
            return client, None, 0, 0
        snapshot, meta = checkpoint
        client.engine.load_graph(graph_from_snapshot(snapshot, backend=client.backend))
        base = int(meta["wal_seq"])
        return client, base, int(meta["wal_offset"]), base

    def client_with_position(
        self, seq: int
    ) -> Tuple[SpadeClient, int, int]:
        """``(client, wal_offset, at_seq)`` of a fresh client replayed to ``seq``.

        The cold as-of path, shared with the history indexer (which keeps
        the returned client resident and streams further ops into it from
        ``wal_offset``).  ``at_seq`` is the sequence the client actually
        reflects — equal to ``seq`` whenever the WAL reaches it.
        """
        client, _, offset, at_seq = self._checkpoint_client(seq)
        _, offset, at_seq = self.replay_into(client, offset, seq, at_seq)
        return client, offset, at_seq

    def replay_into(
        self, client: SpadeClient, offset: int, seq: int, at_seq: int = 0
    ) -> Tuple[int, int, int]:
        """Apply WAL records from byte ``offset`` with record seq <= ``seq``.

        Each record goes through :func:`~repro.serve.recovery.apply_logged`,
        the rule recovery replays by, which is what keeps as-of states in
        lockstep with what the live process computed.  Returns
        ``(applied, next_offset, at_seq)`` where ``next_offset`` is the
        byte just past the last applied record — the position a resident
        client resumes streaming from.
        """
        applied = 0
        if not self._wal_path.exists():
            return applied, offset, at_seq
        scan = iter_ops(self._wal_path, offset)
        try:
            for rec_seq, op in scan:
                if rec_seq > seq:
                    break
                apply_logged(client, op)
                applied += 1
                offset = scan.next_offset
                at_seq = rec_seq
        finally:
            scan.close()
        return applied, offset, at_seq

    def head_seq(self) -> int:
        """Last durable WAL sequence, probed from disk.

        The serving app passes its in-memory head instead; this probe is
        for standalone use (bench, ``python -m repro.history``).  Starts
        the scan at the newest checkpoint's offset so it is O(suffix).
        """
        store = CheckpointStore(self._wal_dir)
        meta = store.newest_meta()
        head = int(meta["wal_seq"]) if meta else 0
        offset = int(meta["wal_offset"]) if meta else 0
        if not self._wal_path.exists():
            return head
        scan = iter_ops(self._wal_path, offset)
        try:
            for rec_seq, _ in scan:
                head = rec_seq
        finally:
            scan.close()
        return head

    # ------------------------------------------------------------------ #
    # Cached snapshot access
    # ------------------------------------------------------------------ #
    def state_at(self, seq: int, head: int) -> Tuple[CsrSnapshot, Community]:
        """``(snapshot, community)`` of the graph at ``seq`` (LRU-cached).

        The community is the replayed engine's own detection, taken
        before the client is dropped, or a peel of the snapshot when the
        engine's report is not exact (see
        :attr:`~repro.api.report.DetectionReport.exact`).  ``head``
        is the last durable sequence; ``seq`` outside ``[0, head]``
        raises :class:`~repro.errors.AsofRangeError` (→ HTTP 400).
        A miss resumes the replay cursor or rebuilds cold (module
        docstring) outside the lock, so two concurrent cold reads of the
        same sequence may both pay the replay — harmless, the results are
        identical.
        """
        seq = int(seq)
        if seq < 0 or seq > head:
            raise AsofRangeError(seq, head)
        with self._lock:
            cached = self._cache.get(seq)
            if cached is not None:
                self._cache.move_to_end(seq)
                self.hits += 1
                self._tick("hit")
                return cached
            self.misses += 1
            self._tick("miss")
        started = time.perf_counter()
        base = CheckpointStore(self._wal_dir).newest_seq(max_seq=seq)
        with self._lock:
            cursor, self._cursor = self._cursor, None
        resumed = cursor is not None and cursor[1] == base and cursor[3] <= seq
        if not resumed:
            cursor = None  # the old client goes before the new one is built
            cursor = self._checkpoint_client(seq)
        client, base, offset, at_seq = cursor
        applied, offset, at_seq = self.replay_into(client, offset, seq, at_seq)
        snapshot, report = client.snapshot(), client.detect()
        community = (
            report.community
            if report.exact
            else peel_community(snapshot, self._semantics_name)
        )
        entry = (snapshot, community)
        elapsed = time.perf_counter() - started
        with self._lock:
            self.reconstruct_seconds += elapsed
            self.resumes += resumed
            self.replayed_ops += applied
            self._cursor = (client, base, offset, at_seq)
            self._cache[seq] = entry
            self._cache.move_to_end(seq)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        if resumed:
            self._tick("resume")
        self._tick("reconstruct", elapsed)
        return entry

    def _tick(self, event: str, value: float = 1.0) -> None:
        """Fire the app-supplied metrics hook for ``event``, if any.

        ``counters`` maps ``"hit"`` / ``"miss"`` / ``"resume"`` /
        ``"reconstruct"`` to a one-float callable (counter inc / histogram
        observe); the service itself stays metrics-framework-agnostic.
        """
        hook = self._counters.get(event)
        if hook is not None:
            hook(value)

    def cache_stats(self) -> Dict[str, object]:
        """``/healthz``'s ``asof_cache`` section."""
        with self._lock:
            return {
                "size": len(self._cache),
                "capacity": self._cache_size,
                "hits": self.hits,
                "misses": self.misses,
                "resumes": self.resumes,
                "replayed_ops": self.replayed_ops,
                "reconstruct_seconds": round(self.reconstruct_seconds, 6),
            }

    # ------------------------------------------------------------------ #
    # Query surface (mirrors SnapshotService's response shapes + "asof")
    # ------------------------------------------------------------------ #
    def detect_at(self, seq: int, head: int) -> Dict[str, object]:
        """Exact detection over the graph as of ``seq``."""
        snapshot, community = self.state_at(seq, head)
        payload = detect_payload(
            int(seq),
            community,
            snapshot.num_vertices,
            snapshot.num_edges,
            self._semantics_name,
            self._config.backend,
            1,
        )
        payload["asof"] = int(seq)
        return payload

    def communities_at(
        self,
        seq: int,
        head: int,
        start: int = 0,
        limit: int = 10,
        min_density: float = 0.0,
        min_size: int = 2,
    ) -> Dict[str, object]:
        """Paginated dense-instance enumeration as of ``seq``.

        ``start`` is the absolute rank the page begins at (offset mode
        passes the offset; cursor mode passes ``last_rank + 1``); the
        HTTP layer turns ``next_rank`` into an opaque cursor token.
        """
        snapshot, community = self.state_at(seq, head)
        instances = enumerate_csr(
            snapshot,
            max_instances=start + limit + 1,
            min_density=min_density,
            min_size=min_size,
            first=community.vertices,
        )
        page, has_more, next_rank = paginate_instances(instances, start, limit)
        return {
            "version": int(seq),
            "asof": int(seq),
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
            "next_rank": next_rank,
        }
