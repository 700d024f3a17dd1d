"""The historical-analytics indexer: WAL tail → epoch rows.

The indexer turns the write-ahead log into the cold store's timeline.
It keeps one resident replay client (the same reconstruction path as-of
reads use), streams WAL records into it, and every ``epoch_interval``
sequences freezes the graph, enumerates its dense communities, and
appends the epoch to :class:`~repro.history.store.HistoryStore` in a
single SQLite transaction.

Idempotency is structural, not best-effort.  Epochs are keyed by their
WAL sequence; each append is one transaction; resume starts from
``last_indexed_seq()``.  A ``kill -9`` mid-epoch rolls the partial
transaction back, and the restarted indexer re-derives exactly that
epoch — same WAL prefix, same checksum, same row.  Re-indexing an
already-covered prefix is a no-op (checksum-verified), and a checksum
*mismatch* on an existing epoch fails loudly, because one WAL prefix can
only ever enumerate one answer.

Two front ends share the core:

* :class:`IndexerTask` — asyncio background task inside the serving app
  (``--history-db`` / ``serve.history`` config), polling every
  ``poll_ms``.
* ``python -m repro.history`` — the standalone catch-up / follow CLI,
  for indexing a WAL directory without (or beside) a live server.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Dict, Optional

from repro.api.client import SpadeClient
from repro.api.config import EngineConfig
from repro.core.enumeration import enumerate_csr
from repro.errors import ReproError
from repro.history.asof import AsofService
from repro.history.config import HistoryConfig
from repro.history.store import HISTORY_FILENAME, HistoryStore
from repro.peeling.semantics import PeelingSemantics
from repro.serve.wal import WriteAheadLog, iter_ops

__all__ = ["HistoryIndexer", "IndexerTask", "resolve_db_path"]


def resolve_db_path(wal_dir: object, history: HistoryConfig) -> Path:
    """The cold-store file for a deployment (explicit or ``<wal_dir>/``)."""
    if history.db_path is not None:
        return Path(history.db_path)
    return Path(str(wal_dir)) / HISTORY_FILENAME


class HistoryIndexer:
    """Tail one WAL directory into one cold-store file.

    Synchronous core; call :meth:`step` repeatedly (each call is one
    catch-up pass over everything currently durable).  Not thread-safe —
    one indexer per store file, driven from one thread at a time, which
    is exactly what :class:`IndexerTask` and the CLI do.
    """

    def __init__(
        self,
        wal_dir: object,
        history: HistoryConfig,
        config: Optional[EngineConfig] = None,
        semantics: Optional[PeelingSemantics] = None,
    ) -> None:
        self._wal_dir = Path(str(wal_dir))
        self._history = history
        base = config if config is not None else EngineConfig()
        if base.serve is None or base.serve.wal_dir is None:
            from repro.serve.config import ServeConfig

            base = base.replace(serve=ServeConfig(wal_dir=str(self._wal_dir)))
        self._asof = AsofService(base, semantics=semantics)
        self._semantics_name = (
            semantics.name if semantics is not None else base.semantics
        )
        self.db_path = resolve_db_path(self._wal_dir, history)
        self._wal_path = WriteAheadLog.path_in(self._wal_dir)
        # Resident replay position: the client mirrors the graph at
        # _seq, having consumed the WAL through _offset bytes.
        self._client: Optional[SpadeClient] = None
        self._seq = 0
        self._offset = 0
        self.last_error: Optional[str] = None

    # ------------------------------------------------------------------ #
    def _meta_knobs(self) -> Dict[str, object]:
        """The knob tuple epoch rows are only comparable within."""
        return {
            "epoch_interval": self._history.epoch_interval,
            "max_instances": self._history.max_instances,
            "min_density": self._history.min_density,
            "min_size": self._history.min_size,
            "semantics": self._semantics_name,
        }

    def _position_client(self, last_indexed: int) -> None:
        """Seat the resident client at or below the first un-indexed epoch.

        Boot (or re-seat after an error): reconstruct at ``last_indexed``
        via the as-of path, then note the byte offset the follow-on
        stream resumes from.  The client may land *below* ``last_indexed``
        when no checkpoint covers it — the stream then replays through
        already-indexed boundaries, which the seq guard in :meth:`step`
        skips re-enumerating.
        """
        client, offset, at_seq = self._asof.client_with_position(last_indexed)
        self._client = client
        self._seq = at_seq
        self._offset = offset

    def step(self) -> Dict[str, int]:
        """One catch-up pass: index every due epoch now durable in the WAL.

        Returns ``{"new_epochs", "last_indexed_seq", "head_seq", "lag"}``.
        Raises on store knob mismatches and checksum divergence; WAL
        corruption simply ends the pass at the valid prefix (the serving
        process truncates it on its own restart).
        """
        interval = self._history.epoch_interval
        with HistoryStore(self.db_path) as store:
            store.ensure_meta(self._meta_knobs())
            last_indexed = store.last_indexed_seq()
            if self._client is None or self._seq > last_indexed:
                # First pass, or the store went backwards relative to the
                # resident client (fresh db file swapped in): (re)seat.
                self._position_client(last_indexed)
            new_epochs = 0
            head = self._seq
            if self._wal_path.exists():
                scan = iter_ops(self._wal_path, self._offset)
                try:
                    for rec_seq, op in scan:
                        try:
                            self._client.apply([op])
                        except (ReproError, TypeError, ValueError):
                            # Same deterministic-rejection skip as crash
                            # recovery — lockstep with the live process.
                            pass
                        self._seq = rec_seq
                        self._offset = scan.next_offset
                        head = rec_seq
                        if rec_seq % interval == 0 and rec_seq > last_indexed:
                            if self._record_epoch(store, rec_seq):
                                new_epochs += 1
                            last_indexed = rec_seq
                finally:
                    scan.close()
            return {
                "new_epochs": new_epochs,
                "last_indexed_seq": store.last_indexed_seq(),
                "head_seq": head,
                "lag": max(0, head - store.last_indexed_seq()),
            }

    def _record_epoch(self, store: HistoryStore, seq: int) -> bool:
        """Freeze, enumerate, append one epoch (one transaction)."""
        snapshot = self._client.snapshot()
        detection = self._client.detect()
        instances = enumerate_csr(
            snapshot,
            max_instances=self._history.max_instances,
            min_density=self._history.min_density,
            min_size=self._history.min_size,
            first=detection.vertices if detection.exact else None,
        )
        rows = [
            (inst.rank, inst.density, sorted(map(str, inst.vertices)))
            for inst in instances
        ]
        return store.record_epoch(
            seq, snapshot.num_vertices, snapshot.num_edges, rows
        )


class IndexerTask:
    """Asyncio wrapper running :meth:`HistoryIndexer.step` off the loop.

    One poll every ``poll_ms``; each poll runs the synchronous step in
    the default executor so epoch enumeration never stalls the serving
    loop.  Errors are recorded (``last_error``, surfaced via
    ``/healthz``) and polling continues — a sick indexer must not take
    ingest down with it.
    """

    def __init__(
        self,
        indexer: HistoryIndexer,
        poll_ms: float,
        on_step: Optional[object] = None,
    ) -> None:
        self.indexer = indexer
        self._poll_s = max(poll_ms, 1.0) / 1000.0
        self._on_step = on_step
        self._task: Optional[asyncio.Task] = None
        self._stopping = asyncio.Event()
        self.steps = 0
        self.epochs_indexed = 0
        self.lag = 0
        self.last_indexed_seq = 0

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        self._stopping.set()
        if self._task is not None:
            await self._task
            self._task = None

    async def poke(self) -> None:
        """Run one step immediately (tests; deterministic smoke phases)."""
        report = await asyncio.get_running_loop().run_in_executor(
            None, self._step_once
        )
        self._absorb(report)

    def _step_once(self) -> Optional[Dict[str, int]]:
        """The blocking half (executor thread); returns None on error."""
        try:
            report = self.indexer.step()
        except Exception as exc:  # keep serving; surface via /healthz
            self.indexer.last_error = f"{type(exc).__name__}: {exc}"
            return None
        self.indexer.last_error = None
        return report

    def _absorb(self, report: Optional[Dict[str, int]]) -> None:
        """Fold one step's report into the task state (loop thread)."""
        if report is None:
            return
        self.steps += 1
        self.epochs_indexed += report["new_epochs"]
        self.lag = report["lag"]
        self.last_indexed_seq = report["last_indexed_seq"]
        if self._on_step is not None:
            self._on_step(report)  # type: ignore[operator]

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._stopping.is_set():
            report = await loop.run_in_executor(None, self._step_once)
            self._absorb(report)
            try:
                await asyncio.wait_for(self._stopping.wait(), self._poll_s)
            except asyncio.TimeoutError:
                pass

    def status(self) -> Dict[str, object]:
        """``/healthz``'s ``history`` section (merged with store stats)."""
        return {
            "db_path": str(self.indexer.db_path),
            "epoch_interval": self.indexer._history.epoch_interval,
            "steps": self.steps,
            "epochs_indexed": self.epochs_indexed,
            "last_indexed_seq": self.last_indexed_seq,
            "lag": self.lag,
            "last_error": self.indexer.last_error,
        }
