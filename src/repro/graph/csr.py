"""Immutable CSR snapshots of a graph for the read-mostly analytics paths.

The mutable backends (:class:`~repro.graph.array_graph.ArrayGraph` adjacency
arenas, :class:`~repro.graph.graph.DynamicGraph` adjacency dicts) are
optimised for the *write* path — O(1) amortized edge insertion with O(1)
incident-weight maintenance.  The read-mostly paths of the evaluation
(static peeling, dense-subgraph enumeration, the exact solver, dataset
statistics) instead want flat, contiguous arrays they can scan with numpy.
:class:`CsrSnapshot` freezes a graph into exactly that: classic compressed
sparse row storage, one ``offsets``/``neighbors``/``weights`` triple per
direction, plus dense vertex weights and an id ↔ label view.

Design points
-------------
* **Immutable.**  Every array a snapshot owns is marked read-only; a
  snapshot taken at version ``k`` of an :class:`ArrayGraph` never changes,
  and :meth:`is_stale` tells callers when the source graph has moved on.
* **O(|V| + |E|) construction.**  ``ArrayGraph.freeze`` derives the offset
  arrays from the run lengths with ``cumsum`` and gathers each array out
  of its arena through one ``np.repeat`` index — no per-vertex numpy
  dispatches; :meth:`CsrSnapshot.from_edges`
  builds a snapshot from flat edge arrays with ``np.bincount`` + stable
  ``argsort`` for callers that never materialise a mutable graph at all.
* **Zero-copy sharing.**  :meth:`save` writes an *uncompressed* ``.npz``;
  :meth:`load` with ``mmap_mode="r"`` memory-maps each stored ``.npy``
  member in place (numpy itself ignores ``mmap_mode`` for zip archives, so
  the member offsets are resolved manually), which makes a snapshot
  shareable across processes without copying a single edge array — the
  natural surface for sharded engines and for a future native extension.
* **Enumeration-order fidelity.**  Neighbor runs preserve the source
  graph's run order (out-edges first, then in-edges, each in insertion
  order), so the CSR static peel sums weights in exactly the same order as
  the heap-based peel and the two produce bit-identical sequences — the
  property pinned by ``tests/test_csr.py``.
"""

from __future__ import annotations

import os
import zipfile
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError

__all__ = ["CsrSnapshot", "freeze_graph"]

_EMPTY_I32 = np.empty(0, dtype=np.int32)
_EMPTY_F64 = np.empty(0, dtype=np.float64)

#: npz member names of the numeric payload (the zero-copy part).
_ARRAY_FIELDS = (
    "order",
    "member",
    "vertex_weights",
    "out_offsets",
    "out_neighbors",
    "out_weights",
    "in_offsets",
    "in_neighbors",
    "in_weights",
)


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark an array read-only and return it."""
    array.flags.writeable = False
    return array


def _segment_gather(
    offsets: np.ndarray, ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(positions, counts)`` covering the CSR segments of ``ids``.

    ``positions`` indexes the flat neighbor/weight arrays; the segments are
    emitted in the order of ``ids``, each in CSR order.
    """
    starts = offsets[ids]
    counts = offsets[ids + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    shifts = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    return np.arange(total, dtype=np.int64) + shifts, counts


class CsrSnapshot:
    """A frozen CSR view of a weighted directed graph.

    Attributes (all read-only numpy arrays over the dense id space
    ``[0, num_ids)`` of the source graph's interner):

    ``order``
        ``int32`` member ids in graph insertion order — the peeling
        tie-break order.
    ``member``
        ``bool`` mask of ids that are graph vertices.
    ``vertex_weights``
        ``float64`` suspiciousness priors ``a_i``.
    ``out_offsets`` / ``out_neighbors`` / ``out_weights``
        Out-adjacency in CSR form (``int64`` offsets of length
        ``num_ids + 1``); likewise ``in_*`` for the in-adjacency.
    """

    __slots__ = (
        "order",
        "member",
        "vertex_weights",
        "out_offsets",
        "out_neighbors",
        "out_weights",
        "in_offsets",
        "in_neighbors",
        "in_weights",
        "total_edge_weight",
        "source_version",
        "_labels",
        "_id_of",
        "_incidence",
        "_flat_incidence",
    )

    def __init__(
        self,
        order: np.ndarray,
        member: np.ndarray,
        vertex_weights: np.ndarray,
        out_offsets: np.ndarray,
        out_neighbors: np.ndarray,
        out_weights: np.ndarray,
        in_offsets: np.ndarray,
        in_neighbors: np.ndarray,
        in_weights: np.ndarray,
        total_edge_weight: float,
        source_version: int = -1,
        labels: Optional[Sequence[Hashable]] = None,
    ) -> None:
        self.order = order
        self.member = member
        self.vertex_weights = vertex_weights
        self.out_offsets = out_offsets
        self.out_neighbors = out_neighbors
        self.out_weights = out_weights
        self.in_offsets = in_offsets
        self.in_neighbors = in_neighbors
        self.in_weights = in_weights
        self.total_edge_weight = float(total_edge_weight)
        self.source_version = int(source_version)
        self._labels = list(labels) if labels is not None else None
        self._id_of: Optional[Dict[Hashable, int]] = None
        self._incidence: Optional[Tuple[np.ndarray, ...]] = None
        self._flat_incidence: Optional[Tuple[list, list, list]] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray,
        num_ids: Optional[int] = None,
        vertex_weights: Optional[np.ndarray] = None,
        labels: Optional[Sequence[Hashable]] = None,
    ) -> "CsrSnapshot":
        """Build a snapshot from flat ``(src, dst, weight)`` edge arrays.

        Pure ``np.bincount`` / cumsum / stable-``argsort`` construction —
        O(|E|) with no per-vertex Python loop.  Neighbor runs come out in
        edge-array order per vertex, matching run insertion order when the
        edge arrays are in insertion order.
        """
        src = np.asarray(src, dtype=np.int32)
        dst = np.asarray(dst, dtype=np.int32)
        weights = np.asarray(weights, dtype=np.float64)
        if num_ids is None:
            num_ids = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
        out_counts = np.bincount(src, minlength=num_ids).astype(np.int64)
        in_counts = np.bincount(dst, minlength=num_ids).astype(np.int64)
        out_offsets = np.concatenate(([0], np.cumsum(out_counts)))
        in_offsets = np.concatenate(([0], np.cumsum(in_counts)))
        out_order = np.argsort(src, kind="stable")
        in_order = np.argsort(dst, kind="stable")
        if vertex_weights is None:
            vertex_weights = np.zeros(num_ids, dtype=np.float64)
        member = np.zeros(num_ids, dtype=bool)
        member[src] = True
        member[dst] = True
        order = np.nonzero(member)[0].astype(np.int32)
        return cls(
            order=_frozen(order),
            member=_frozen(member),
            vertex_weights=_frozen(np.asarray(vertex_weights, dtype=np.float64)),
            out_offsets=_frozen(out_offsets),
            out_neighbors=_frozen(dst[out_order].copy()),
            out_weights=_frozen(weights[out_order].copy()),
            in_offsets=_frozen(in_offsets),
            in_neighbors=_frozen(src[in_order].copy()),
            in_weights=_frozen(weights[in_order].copy()),
            total_edge_weight=float(weights.sum()),
            labels=labels,
        )

    # ------------------------------------------------------------------ #
    # Scalar views
    # ------------------------------------------------------------------ #
    @property
    def num_ids(self) -> int:
        """Size of the dense id space the snapshot covers."""
        return len(self.member)

    @property
    def num_vertices(self) -> int:
        """Number of member vertices (``|V|``)."""
        return len(self.order)

    @property
    def num_edges(self) -> int:
        """Number of unique directed edges (``|E|``)."""
        return len(self.out_neighbors)

    def is_stale(self, graph) -> bool:
        """Return whether ``graph`` has mutated since this snapshot was taken.

        Graphs without a version counter (or snapshots built from raw edge
        arrays) are conservatively reported stale.
        """
        version = getattr(graph, "version", None)
        if version is None or self.source_version < 0:
            return True
        return version != self.source_version

    # ------------------------------------------------------------------ #
    # Labels
    # ------------------------------------------------------------------ #
    @property
    def labels(self) -> Optional[List[Hashable]]:
        """Dense-id → label table (``None`` when saved without labels)."""
        return self._labels

    def label_of(self, vid: int) -> Hashable:
        """Return the label owning dense id ``vid``."""
        if self._labels is None:
            raise ReproError("snapshot was built/loaded without labels")
        return self._labels[vid]

    def labels_for(self, vids) -> List[Hashable]:
        """Translate an id sequence (or numpy array) back to labels."""
        if self._labels is None:
            raise ReproError("snapshot was built/loaded without labels")
        labels = self._labels
        if isinstance(vids, np.ndarray):
            vids = vids.tolist()
        return [labels[vid] for vid in vids]

    def id_of(self, label: Hashable, default: int = -1) -> int:
        """Return the dense id of ``label`` (``default`` when unknown)."""
        if self._id_of is None:
            if self._labels is None:
                raise ReproError("snapshot was built/loaded without labels")
            self._id_of = {label: vid for vid, label in enumerate(self._labels)}
        return self._id_of.get(label, default)

    def ids_for(self, labels: Iterable[Hashable]) -> np.ndarray:
        """Translate known labels into an ``int32`` id array."""
        return np.fromiter((self.id_of(label) for label in labels), dtype=np.int32)

    # ------------------------------------------------------------------ #
    # Derived structure
    # ------------------------------------------------------------------ #
    def degrees(self, ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Return total degrees (in + out) of ``ids`` (default: all members)."""
        if ids is None:
            ids = self.order
        ids = np.asarray(ids, dtype=np.int64)
        return (
            self.out_offsets[ids + 1]
            - self.out_offsets[ids]
            + self.in_offsets[ids + 1]
            - self.in_offsets[ids]
        )

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return flat ``(src, dst, weight)`` arrays of all directed edges."""
        out_counts = self.out_offsets[1:] - self.out_offsets[:-1]
        src = np.repeat(np.arange(self.num_ids, dtype=np.int32), out_counts)
        return src, self.out_neighbors, self.out_weights

    def incidence(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return the combined-incidence CSR ``(offsets, mid, neighbors, weights)``.

        Per vertex the run is its out-neighbors followed by its in-neighbors
        (``mid[v]`` marks the boundary), i.e. exactly the enumeration order
        of ``incident_arrays_id`` on the mutable backends — which is what
        lets :func:`repro.peeling.static.peel_csr` reproduce the heap peel
        bit for bit.  Built vectorised on first use and cached.
        """
        if self._incidence is not None:
            return self._incidence
        out_counts = self.out_offsets[1:] - self.out_offsets[:-1]
        in_counts = self.in_offsets[1:] - self.in_offsets[:-1]
        offsets = np.concatenate(([0], np.cumsum(out_counts + in_counts)))
        mid = offsets[:-1] + out_counts
        m_out = len(self.out_neighbors)
        m_in = len(self.in_neighbors)
        neighbors = np.empty(m_out + m_in, dtype=np.int32)
        weights = np.empty(m_out + m_in, dtype=np.float64)
        if m_out:
            dest = np.arange(m_out, dtype=np.int64) + np.repeat(
                offsets[:-1] - self.out_offsets[:-1], out_counts
            )
            neighbors[dest] = self.out_neighbors
            weights[dest] = self.out_weights
        if m_in:
            dest = np.arange(m_in, dtype=np.int64) + np.repeat(
                mid - self.in_offsets[:-1], in_counts
            )
            neighbors[dest] = self.in_neighbors
            weights[dest] = self.in_weights
        self._incidence = (
            _frozen(offsets),
            _frozen(mid),
            _frozen(neighbors),
            _frozen(weights),
        )
        return self._incidence

    def flat_incidence(self) -> Tuple[list, list, list]:
        """Return ``(offsets, neighbors, weights)`` as plain Python lists.

        The scalar greedy loop of :func:`repro.peeling.static.peel_csr`
        runs over boxed values; materialising them once per snapshot (the
        snapshot is immutable, so the lists never go stale) keeps repeated
        subset peels — e.g. one per enumerated community — from paying an
        O(|E|) conversion each time.
        """
        if self._flat_incidence is None:
            inc_off, _inc_mid, inc_nbr, inc_w = self.incidence()
            self._flat_incidence = (inc_off.tolist(), inc_nbr.tolist(), inc_w.tolist())
        return self._flat_incidence

    # ------------------------------------------------------------------ #
    # Metric evaluation
    # ------------------------------------------------------------------ #
    def subset_suspiciousness(self, ids) -> float:
        """Evaluate ``f(S)`` (Equation 1) over a dense-id subset, vectorised."""
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0:
            return 0.0
        mask = np.zeros(self.num_ids, dtype=bool)
        mask[ids] = True
        total = float(self.vertex_weights[ids].sum())
        positions, _counts = _segment_gather(self.out_offsets, ids)
        if len(positions):
            inside = mask[self.out_neighbors[positions]]
            total += float(self.out_weights[positions][inside].sum())
        return total

    def subset_density(self, ids) -> float:
        """Evaluate ``g(S) = f(S) / |S|`` over a dense-id subset."""
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0:
            return 0.0
        return self.subset_suspiciousness(ids) / len(ids)

    # ------------------------------------------------------------------ #
    # Persistence (.npz + zero-copy mmap)
    # ------------------------------------------------------------------ #
    def save(self, path, include_labels: bool = True) -> None:
        """Persist the snapshot as an *uncompressed* ``.npz`` archive.

        The numeric members are stored uncompressed so that :meth:`load`
        with ``mmap_mode="r"`` can map them in place.  Labels (arbitrary
        hashables) are pickled into their own member; pass
        ``include_labels=False`` for a purely numeric, fully mappable file.
        """
        payload = {name: getattr(self, name) for name in _ARRAY_FIELDS}
        payload["meta_f"] = np.array([self.total_edge_weight], dtype=np.float64)
        payload["meta_i"] = np.array([self.source_version], dtype=np.int64)
        if include_labels and self._labels is not None:
            label_arr = np.empty(len(self._labels), dtype=object)
            label_arr[:] = self._labels
            payload["labels"] = label_arr
        # np.savez appends ".npz" to suffix-less paths; load() mirrors
        # that via _resolve_path so save(path)/load(path) stay symmetric.
        np.savez(os.fspath(path), **payload)

    @staticmethod
    def _resolve_path(path) -> str:
        """Mirror np.savez's suffix behavior on the load side."""
        path = os.fspath(path)
        if not os.path.exists(path) and not path.endswith(".npz"):
            candidate = path + ".npz"
            if os.path.exists(candidate):
                return candidate
        return path

    @classmethod
    def load(cls, path, mmap_mode: Optional[str] = None) -> "CsrSnapshot":
        """Load a saved snapshot.

        With ``mmap_mode=None`` the arrays are read into memory.  With
        ``mmap_mode="r"`` every numeric member is memory-mapped directly
        from the archive (numpy ignores ``mmap_mode`` for ``.npz`` files,
        so the member data offsets are resolved from the zip local headers
        here), giving zero-copy, page-cache-shared loads across processes.

        Numeric members are always read with ``allow_pickle=False``; only
        the optional ``labels`` member is unpickled (labels are arbitrary
        hashables).  Snapshots saved with ``include_labels=False`` are
        therefore loadable from untrusted paths without any unpickling.
        """
        path = cls._resolve_path(path)
        arrays: Dict[str, np.ndarray] = {}
        pickled: List[str] = []
        if mmap_mode is not None:
            for name, (offset, stored) in _npz_member_offsets(path).items():
                key = name[:-4] if name.endswith(".npy") else name
                mapped = _mmap_npy_member(path, offset, mmap_mode) if stored else None
                if mapped is None:
                    pickled.append(key)
                else:
                    arrays[key] = mapped
        else:
            pickled = None  # everything through np.load below
        labels = None
        if pickled is None or pickled:
            with np.load(path, allow_pickle=False) as data:
                wanted = data.files if pickled is None else pickled
                for key in wanted:
                    if key != "labels":
                        arrays[key] = data[key]
                load_labels = "labels" in wanted
            if load_labels:
                with np.load(path, allow_pickle=True) as data:
                    labels = list(data["labels"])
        kwargs = {name: arrays[name] for name in _ARRAY_FIELDS}
        return cls(
            total_edge_weight=float(arrays["meta_f"][0]),
            source_version=int(arrays["meta_i"][0]),
            labels=labels,
            **kwargs,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CsrSnapshot(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"version={self.source_version})"
        )


def _npz_member_offsets(path: str) -> Dict[str, Tuple[int, bool]]:
    """Map npz member name → ``(data_offset, is_stored)`` in the archive.

    The data offset is computed from the zip *local* file header (the
    central directory's ``header_offset`` plus the 30-byte fixed header and
    the variable filename/extra fields), which is where the raw ``.npy``
    byte stream of an uncompressed member begins.
    """
    offsets: Dict[str, Tuple[int, bool]] = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
        for info in archive.infolist():
            raw.seek(info.header_offset)
            header = raw.read(30)
            if len(header) != 30 or header[:4] != b"PK\x03\x04":
                raise ReproError(f"{path}: corrupt zip local header for {info.filename!r}")
            name_len = int.from_bytes(header[26:28], "little")
            extra_len = int.from_bytes(header[28:30], "little")
            offsets[info.filename] = (
                info.header_offset + 30 + name_len + extra_len,
                info.compress_type == zipfile.ZIP_STORED,
            )
    return offsets


def _mmap_npy_member(path: str, offset: int, mmap_mode: str) -> Optional[np.ndarray]:
    """Memory-map one stored ``.npy`` member; ``None`` if it needs pickling."""
    with open(path, "rb") as stream:
        stream.seek(offset)
        version = np.lib.format.read_magic(stream)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(stream)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(stream)
        else:  # pragma: no cover - numpy writes 1.0/2.0 for plain arrays
            return None
        data_offset = stream.tell()
    if dtype.hasobject:
        return None
    return np.memmap(
        path,
        dtype=dtype,
        mode=mmap_mode,
        offset=data_offset,
        shape=shape,
        order="F" if fortran else "C",
    )


def freeze_graph(graph) -> CsrSnapshot:
    """Freeze any :class:`~repro.graph.backend.GraphBackend` into a snapshot.

    Array graphs freeze natively (O(|V| + |E|), one gather out of each
    arena); other backends are replayed into an
    :class:`~repro.graph.array_graph.ArrayGraph` first, which preserves
    dense ids and with them the peeling tie-break order.
    """
    freeze = getattr(graph, "freeze", None)
    if freeze is not None:
        return freeze()
    from repro.graph.array_graph import ArrayGraph

    return ArrayGraph.from_graph(graph).freeze()
