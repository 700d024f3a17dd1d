"""Vertex interning: hashable labels ↔ dense ``int32`` identifiers.

Every graph backend owns a :class:`VertexInterner` that maps the arbitrary
hashable vertex labels used by the public API ("alice", 42, ``("c", 7)``)
to dense non-negative integers assigned in first-seen order.  All hot-path
data structures — adjacency arena runs, peeling positions, tie-break keys —
are indexed by these dense ids, so the inner loops of the incremental
engine (:mod:`repro.core.reorder`) and of the static peel
(:mod:`repro.peeling.static`) never hash or compare Python objects.

Two properties the rest of the stack relies on:

* **Stability** — an id, once assigned, never changes and is never reused,
  so positions and tie-break keys stored in numpy arrays stay valid for
  the lifetime of the session.
* **Insertion order** — ids are assigned in the order labels are first
  interned, which for graphs built through ``add_vertex`` / ``add_edge``
  coincides with graph insertion order.  The peeling tie-break rule
  ("older vertex first") therefore reduces to comparing the ids
  themselves, removing the separate tie-break dictionary from the
  hot path.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Sequence

import numpy as np

__all__ = ["VertexInterner"]


class VertexInterner:
    """A bidirectional, append-only mapping between labels and dense ids."""

    __slots__ = ("_id_of", "_labels")

    def __init__(self) -> None:
        self._id_of: Dict[Hashable, int] = {}
        self._labels: List[Hashable] = []

    # ------------------------------------------------------------------ #
    # Interning
    # ------------------------------------------------------------------ #
    def intern(self, label: Hashable) -> int:
        """Return the id of ``label``, assigning the next dense id if new."""
        vid = self._id_of.get(label)
        if vid is None:
            vid = len(self._labels)
            self._id_of[label] = vid
            self._labels.append(label)
        return vid

    def intern_many(self, labels: Iterable[Hashable]) -> List[int]:
        """Intern every label and return their ids in order."""
        return [self.intern(label) for label in labels]

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def id_of(self, label: Hashable) -> int:
        """Return the id of ``label``; raises ``KeyError`` if never interned."""
        return self._id_of[label]

    def get_id(self, label: Hashable, default: int = -1) -> int:
        """Return the id of ``label`` or ``default`` when unknown."""
        return self._id_of.get(label, default)

    def label_of(self, vid: int) -> Hashable:
        """Return the label that owns id ``vid``."""
        return self._labels[vid]

    def labels_for(self, vids: Sequence[int]) -> List[Hashable]:
        """Translate a sequence (or numpy array) of ids back to labels."""
        labels = self._labels
        if isinstance(vids, np.ndarray):
            vids = vids.tolist()
        return [labels[vid] for vid in vids]

    def ids_for(self, labels: Iterable[Hashable]) -> np.ndarray:
        """Translate known labels into an ``int32`` id array."""
        id_of = self._id_of
        return np.fromiter((id_of[label] for label in labels), dtype=np.int32)

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._id_of

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._labels)

    def copy(self) -> "VertexInterner":
        """Return an independent copy (ids preserved)."""
        clone = VertexInterner()
        clone._id_of = dict(self._id_of)
        clone._labels = list(self._labels)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VertexInterner({len(self._labels)} labels)"
