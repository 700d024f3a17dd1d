"""Crash recovery: snapshot checkpoints + WAL-suffix replay.

Durability is two files deep: every accepted operation is in the WAL
(:mod:`repro.serve.wal`), and every ``checkpoint_interval`` accepted edges
the writer freezes the engine's graph into an immutable
:class:`~repro.graph.csr.CsrSnapshot` and persists it as an ``.npz``
checkpoint with a small JSON sidecar recording the WAL position it covers.
Restart then costs ``load(latest checkpoint) + replay(WAL suffix)`` rather
than a full-history replay.

Bit-exactness
-------------
The engine's peeling results are sensitive to *enumeration order*: vertex
tie-breaks follow interner insertion order, and per-vertex incident
weights accumulate in edge-pool order.  A CSR snapshot preserves both —
``order`` is vertex insertion order, labels are in dense-id order, and
each neighbour run *is* that vertex's pool, in pool order — so no merge
is needed: :func:`graph_from_snapshot` fills the backend's pools straight
from the runs (``from_csr``).  ``tests/test_serve_recovery.py`` pins
``freeze(from_csr(s)) == s`` array for array on both backends, and that
the rebuilt graph keeps evolving exactly like the original.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.api.client import SpadeClient
from repro.api.config import EngineConfig
from repro.errors import ReproError, StorageError
from repro.graph.backend import BACKENDS
from repro.graph.csr import CsrSnapshot
from repro.peeling.semantics import PeelingSemantics
from repro.serve.wal import WriteAheadLog, scan_ops

__all__ = [
    "CheckpointStore",
    "RecoveredState",
    "apply_logged",
    "graph_from_snapshot",
    "recover",
]

PathLike = Union[str, Path]


def graph_from_snapshot(snapshot: CsrSnapshot, backend: str = "array"):
    """Rebuild a mutable graph whose pools mirror ``snapshot`` exactly.

    Requires a snapshot saved with labels; dispatches to the backend's
    ``from_csr``, which fills ids, priors and pools straight from the
    snapshot's arrays.
    """
    if snapshot.labels is None:
        raise StorageError("cannot rebuild a graph from a label-less snapshot")
    return BACKENDS[backend].from_csr(snapshot)


def apply_logged(client: SpadeClient, op) -> None:
    """Apply one WAL record the way the process that logged it did.

    The one replay rule recovery and as-of reads share.  A record the
    engine rejects deterministically (the gateway answered 400 for it;
    the exception tuple mirrors the gateway's) is skipped: replaying
    reproduces whatever partial effect it had and fails identically, so
    skipping keeps the replay in lockstep with the original process
    instead of crash-looping on one poisoned record.
    """
    try:
        client.apply([op])
    except (ReproError, TypeError, ValueError):
        pass


def _file_crc(path: PathLike) -> Tuple[int, int]:
    """``(crc32, size)`` of a file's bytes, streamed."""
    crc = 0
    size = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
            size += len(chunk)
    return crc, size


class CheckpointStore:
    """Filesystem layout and lifecycle of ``.npz`` snapshot checkpoints.

    A checkpoint is a pair of files inside ``wal_dir``::

        checkpoint-<seq>.npz    the CsrSnapshot payload
        checkpoint-<seq>.json   {"wal_seq": n, "wal_offset": bytes,
                                 "payload_crc": c, "payload_bytes": b, ...}

    The payload is written atomically (``checkpoint-<seq>.tmp.npz`` +
    fsync + ``os.replace``, matching the sidecar's discipline) and the
    sidecar — written *after* the payload, fsynced — records the
    payload's CRC32 and size.  A crash between the two leaves a payload
    without a sidecar, which :meth:`latest` simply ignores; a payload
    whose bytes no longer match its sidecar (torn sector, truncation,
    bit rot) or that fails to load is **skipped** with a note in
    :attr:`fallbacks`, so recovery falls back to the previous complete
    checkpoint and a longer WAL replay instead of crashing.  Only the
    newest ``keep`` checkpoints are retained.
    """

    def __init__(
        self, wal_dir: PathLike, keep: int = 2, injector: Optional[object] = None
    ) -> None:
        self._dir = Path(wal_dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._keep = max(1, int(keep))
        self._injector = injector
        #: Human-readable reasons for every checkpoint :meth:`latest` skipped.
        self.fallbacks: List[str] = []

    @property
    def directory(self) -> Path:
        return self._dir

    def _payload_path(self, wal_seq: int) -> Path:
        return self._dir / f"checkpoint-{wal_seq:012d}.npz"

    def _meta_path(self, wal_seq: int) -> Path:
        return self._dir / f"checkpoint-{wal_seq:012d}.json"

    def save(self, snapshot: CsrSnapshot, wal_seq: int, wal_offset: int) -> Path:
        """Persist one checkpoint covering the WAL up to ``wal_seq``."""
        payload = self._payload_path(wal_seq)
        # The tmp name must keep the .npz suffix: np.savez appends it to
        # suffix-less paths, and os.replace needs the exact written name.
        tmp = self._dir / f"checkpoint-{wal_seq:012d}.tmp.npz"
        try:
            snapshot.save(tmp)
            # CRC over the bytes as written; an injected truncation below
            # happens *after* this, modelling a torn write the sidecar's
            # checksum is there to catch at load time.
            payload_crc, payload_bytes = _file_crc(tmp)
            if self._injector is not None:
                self._injector.on_checkpoint_payload(tmp)  # type: ignore[attr-defined]
            with tmp.open("rb+") as handle:
                os.fsync(handle.fileno())
            os.replace(tmp, payload)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        meta = {
            "wal_seq": int(wal_seq),
            "wal_offset": int(wal_offset),
            "num_vertices": snapshot.num_vertices,
            "num_edges": snapshot.num_edges,
            "payload_crc": payload_crc,
            "payload_bytes": payload_bytes,
        }
        meta_path = self._meta_path(wal_seq)
        tmp_meta = meta_path.with_suffix(".json.tmp")
        with tmp_meta.open("w", encoding="utf-8") as handle:
            json.dump(meta, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_meta, meta_path)
        self._prune()
        return payload

    def _prune(self) -> None:
        for stray in self._dir.glob("checkpoint-*.tmp.npz"):
            stray.unlink(missing_ok=True)
        complete = sorted(
            meta for meta in self._dir.glob("checkpoint-*.json")
            if meta.with_suffix(".npz").exists()
        )
        for meta in complete[: -self._keep]:
            if self._meta_seq(meta) == 0:
                # Checkpoint zero carries the initial edge list — the only
                # durable record of the pre-WAL graph.  Time-travel reads
                # below the oldest retained checkpoint replay from it, so
                # it is never pruned.
                continue
            meta.with_suffix(".npz").unlink(missing_ok=True)
            meta.unlink(missing_ok=True)

    @staticmethod
    def _meta_seq(meta_path: Path) -> Optional[int]:
        """WAL sequence a checkpoint's file name encodes (None if foreign)."""
        stem = meta_path.stem  # checkpoint-<seq>
        prefix, _, digits = stem.partition("-")
        if prefix != "checkpoint" or not digits.isdigit():
            return None
        return int(digits)

    def newest_seq(self, max_seq: Optional[int] = None) -> Optional[int]:
        """WAL sequence of the newest *complete* checkpoint (no load).

        Filename-only probe for operational reporting (``/healthz``'s
        ``checkpoint_seq``) and the as-of resume decision (``max_seq``
        bounds it like :meth:`latest`): completeness means the
        sidecar/payload pair exists; the payload is not checksum-verified
        here — :meth:`latest` does that when a checkpoint is actually
        loaded.
        """
        seqs = [
            seq
            for meta in self._dir.glob("checkpoint-*.json")
            if meta.with_suffix(".npz").exists()
            and (seq := self._meta_seq(meta)) is not None
            and (max_seq is None or seq <= max_seq)
        ]
        return max(seqs) if seqs else None

    def newest_meta(self) -> Optional[Dict[str, int]]:
        """Sidecar of the newest complete checkpoint, payload untouched.

        For positional probes (where does the WAL suffix past the newest
        checkpoint begin?) that must not pay the payload-CRC cost of
        :meth:`latest`.
        """
        seq = self.newest_seq()
        if seq is None:
            return None
        with self._meta_path(seq).open("r", encoding="utf-8") as handle:
            return json.load(handle)

    def latest(
        self, max_seq: Optional[int] = None
    ) -> Optional[Tuple[CsrSnapshot, Dict[str, int]]]:
        """Load the newest *verifiable* checkpoint, or ``None`` when fresh.

        Walks checkpoints newest-first; a payload whose CRC/size disagrees
        with its sidecar, or that fails to deserialise, is skipped (reason
        appended to :attr:`fallbacks`) and the previous one is tried —
        recovery then replays a longer WAL suffix instead of dying.
        Sidecars without ``payload_crc`` (pre-checksum format) load
        unchecked, so old checkpoint directories still recover.

        ``max_seq`` restricts the walk to checkpoints covering the WAL up
        to that sequence — the as-of read path's "nearest checkpoint at or
        below the target" lookup.
        """
        metas = sorted(self._dir.glob("checkpoint-*.json"), reverse=True)
        for meta_path in metas:
            if max_seq is not None:
                seq = self._meta_seq(meta_path)
                if seq is None or seq > max_seq:
                    continue
            payload = meta_path.with_suffix(".npz")
            if not payload.exists():
                continue
            with meta_path.open("r", encoding="utf-8") as handle:
                meta = json.load(handle)
            expected_crc = meta.get("payload_crc")
            if expected_crc is not None:
                actual_crc, actual_bytes = _file_crc(payload)
                if (
                    actual_crc != expected_crc
                    or actual_bytes != meta.get("payload_bytes", actual_bytes)
                ):
                    self.fallbacks.append(
                        f"{payload.name}: payload checksum mismatch "
                        f"({actual_bytes} bytes, crc {actual_crc} != {expected_crc})"
                    )
                    continue
            try:
                snapshot = CsrSnapshot.load(payload)
            except Exception as exc:  # zipfile/numpy raise a zoo of types
                self.fallbacks.append(f"{payload.name}: unloadable ({exc})")
                continue
            return snapshot, meta
        return None


class RecoveredState:
    """What :func:`recover` hands the serving app at boot.

    ``wal_corruption`` is ``None`` for a clean log; otherwise the reason
    the WAL scan stopped early — recovery then covers exactly the valid
    prefix, ``wal_offset`` is the boundary the reopened WAL truncates
    at, and the app surfaces the reason via ``/healthz`` and
    ``repro_wal_errors_total`` rather than replaying past corruption.
    ``checkpoint_fallbacks`` counts checkpoints that had to be skipped
    (checksum mismatch / unloadable payload) before one verified.
    """

    __slots__ = (
        "client",
        "wal_seq",
        "wal_offset",
        "replayed_ops",
        "from_checkpoint",
        "wal_corruption",
        "checkpoint_fallbacks",
    )

    def __init__(
        self,
        client: SpadeClient,
        wal_seq: int,
        wal_offset: int,
        replayed_ops: int,
        from_checkpoint: bool,
        wal_corruption: Optional[str] = None,
        checkpoint_fallbacks: int = 0,
    ) -> None:
        self.client = client
        self.wal_seq = wal_seq
        self.wal_offset = wal_offset
        self.replayed_ops = replayed_ops
        self.from_checkpoint = from_checkpoint
        self.wal_corruption = wal_corruption
        self.checkpoint_fallbacks = checkpoint_fallbacks


def recover(
    config: EngineConfig,
    semantics: Optional[PeelingSemantics] = None,
    initial_edges: Optional[List[tuple]] = None,
) -> RecoveredState:
    """Rebuild a :class:`SpadeClient` from ``wal_dir`` state (or fresh).

    With a checkpoint present: rebuild its graph pool-faithfully, adopt it
    (``load_graph`` runs the Algorithm-1 static peel), then replay the WAL
    records past the checkpoint's byte offset through ``client.apply`` —
    the identical operations the original process applied, in order.

    Without one (first boot): load ``initial_edges`` (may be empty) the
    ordinary way and replay whatever WAL exists from byte 0.  The caller
    is expected to cut checkpoint zero right away so later recoveries
    never depend on ``initial_edges`` again.
    """
    serve = config.serve
    if serve is None or serve.wal_dir is None:
        client = SpadeClient(config, semantics=semantics)
        client.load(initial_edges or [])
        return RecoveredState(client, 0, 0, 0, False)

    store = CheckpointStore(serve.wal_dir)
    checkpoint = store.latest()
    client = SpadeClient(config, semantics=semantics)
    if checkpoint is not None:
        snapshot, meta = checkpoint
        graph = graph_from_snapshot(snapshot, backend=client.backend)
        client.engine.load_graph(graph)
        wal_seq = int(meta["wal_seq"])
        wal_offset = int(meta["wal_offset"])
    else:
        client.load(initial_edges or [])
        wal_seq = 0
        wal_offset = 0

    wal_path = WriteAheadLog.path_in(serve.wal_dir)
    ops, next_offset, corruption = scan_ops(wal_path, wal_offset)
    for seq, op in ops:
        apply_logged(client, op)
        wal_seq = seq
    return RecoveredState(
        client,
        wal_seq,
        next_offset,
        len(ops),
        checkpoint is not None,
        wal_corruption=corruption,
        checkpoint_fallbacks=len(store.fallbacks),
    )
