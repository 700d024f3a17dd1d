"""Seeded inputs: the initial edge list and the event stream behind it.

Everything the server sees is generated here from ``--seed`` and reaches
it only as a file (``--load``) or an HTTP body; nothing is imported from
``repro``.

Shape (ISSUE 11, "Shared scale"): ``V`` accounts labelled ``v<i>``,
dyadic weights ``k/64`` (so every weight sum is exact in float64 and the
correctness gates can demand ``==``), half of all endpoints drawn from a
500-account core (scaled with ``V``), and 5 % of the stream spent on
fraud rings of 30 accounts that each receive 200 edges before the next
ring starts — rings are interleaved with ordinary traffic, so every seed
sees the same share of ring edges in every window.

Two invariants the oracle in :mod:`ledger.workloads` relies on:

* The initial list opens with a **coverage pass** ``v<i> -> v<i+1>`` that
  touches every account in label order, so dense vertex ids are fixed by
  the load and no later event introduces a vertex.
* No generated edge outside that pass joins ``v<i>`` to ``v<i+1>``, so a
  delete of a streamed pair can never remove a coverage edge and isolate
  a vertex.

With both, the final detection depends only on the surviving edge
multiset, not on arrival order — which is what lets a two-connection
workload be checked bit for bit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

Edge = Tuple[str, str, float]

#: (vertices, initial edges, crash_recovery posts, crash_recovery restarts) per scale.
#: Full scale: 380 posts of 25 = 9 500 edges, below ``checkpoint_interval``, so
#: recovery is checkpoint zero + 380 WAL records whatever the machine's speed.
SCALES: Dict[str, Tuple[int, int, int, int]] = {
    "full": (20_000, 120_000, 380, 2),
    "quick": (2_000, 12_000, 40, 1),
}

CORE_SHARE = 0.5  # of endpoints
CORE_FRACTION = 0.025  # of vertices: 500 of 20 000
RING_SHARE = 0.05  # of stream events
RING_ACCOUNTS = 30
RING_EDGES = 200


@dataclass(frozen=True)
class Scale:
    name: str
    vertices: int
    initial_edges: int
    crash_posts: int
    crash_restarts: int

    @classmethod
    def named(cls, name: str) -> "Scale":
        return cls(name, *SCALES[name])

    @property
    def core(self) -> int:
        return max(RING_ACCOUNTS, int(self.vertices * CORE_FRACTION))


class EdgeSource:
    """Deterministic stream of ``(src, dst, weight)`` inserts."""

    def __init__(self, scale: Scale, seed: int, salt: str) -> None:
        self._rng = random.Random(f"{seed}:{salt}")
        self._n = scale.vertices
        self._core = scale.core
        self._ring: List[int] = []
        self._ring_left = 0

    def _endpoint(self) -> int:
        rng = self._rng
        if rng.random() < CORE_SHARE:
            return rng.randrange(self._core)
        return rng.randrange(self._n)

    def _pair(self) -> Tuple[int, int]:
        rng = self._rng
        if rng.random() < RING_SHARE:
            if self._ring_left == 0:
                self._ring = rng.sample(range(self._core, self._n), RING_ACCOUNTS)
                self._ring_left = RING_EDGES
            self._ring_left -= 1
            return tuple(rng.sample(self._ring, 2))  # type: ignore[return-value]
        return self._endpoint(), self._endpoint()

    def __iter__(self) -> Iterator[Edge]:
        return self

    def __next__(self) -> Edge:
        n = self._n
        while True:
            a, b = self._pair()
            if a != b and (a + 1) % n != b:
                return f"v{a}", f"v{b}", self._rng.randrange(1, 257) / 64.0

    def take(self, count: int) -> List[Edge]:
        return [next(self) for _ in range(count)]


def initial_edges(scale: Scale, seed: int) -> List[Edge]:
    """Coverage pass, then skewed edges up to ``scale.initial_edges``."""
    rng = random.Random(f"{seed}:coverage")
    n = scale.vertices
    edges: List[Edge] = [
        (f"v{i}", f"v{(i + 1) % n}", rng.randrange(1, 257) / 64.0) for i in range(n)
    ]
    edges.extend(EdgeSource(scale, seed, "initial").take(scale.initial_edges - n))
    return edges


def write_edgelist(path, edges: List[Edge]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(f"{s}\t{d}\t{w!r}\n" for s, d, w in edges)


def poisson_schedule(seed: int, rate: float, seconds: float, salt: str) -> List[float]:
    """Due times (seconds from the start) of Poisson arrivals over ``[0, seconds)``.

    Exactly ``round(rate * seconds)`` arrivals: the sorted uniforms a
    Poisson process has *given* its count, so every seed offers the same
    number of requests and only their spacing varies.
    """
    rng = random.Random(f"{seed}:{salt}")
    return sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))


# --- HTTP bodies (pre-encoded so the timed loop only writes bytes) ------ #
def single_body(edge: Edge) -> bytes:
    return json.dumps({"src": edge[0], "dst": edge[1], "weight": edge[2]}).encode()


def bulk_body(edges: List[Edge]) -> bytes:
    return json.dumps({"edges": [list(e) for e in edges]}).encode()


def delete_body(src: str, dst: str) -> bytes:
    return json.dumps({"op": "delete", "edges": [[src, dst]]}).encode()
