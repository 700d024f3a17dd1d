"""Test helpers: random graph construction and equivalence assertions.

The equivalence tests between the static and the incremental algorithms use
*dyadic* random weights (integer multiples of 1/64).  Sums and differences
of such weights are exact in binary floating point, so two computation
paths that are mathematically equal produce bit-identical values; ties are
then true ties and the shared tie-breaking rule makes the static and
incremental peeling sequences literally identical, which is the strongest
possible assertion.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.core.state import PeelingState
from repro.graph.graph import DynamicGraph
from repro.peeling.guarantees import is_valid_peeling_sequence
from repro.peeling.semantics import PeelingSemantics, dw_semantics
from repro.peeling.static import peel

__all__ = [
    "peel_phase_calls",
    "dyadic_weight",
    "random_weighted_edges",
    "build_state",
    "assert_matches_static",
    "assert_valid_state",
    "add_until_compaction",
]


def peel_phase_calls(prefix: str = "peel_") -> int:
    """Passes this process has run so far of the peel phases named ``prefix*``."""
    from repro.obs import profile

    return sum(
        cell["calls"] for key, cell in profile.snapshot().items() if key.startswith(prefix)
    )


def dyadic_weight(rng: random.Random, low_units: int = 1, high_units: int = 320) -> float:
    """Return a random weight that is an exact multiple of 1/64."""
    return rng.randint(low_units, high_units) / 64.0


def random_weighted_edges(
    num_vertices: int,
    num_edges: int,
    rng: random.Random,
    dyadic: bool = True,
) -> List[Tuple[int, int, float]]:
    """Generate a random simple directed edge list with positive weights."""
    edges = set()
    out: List[Tuple[int, int, float]] = []
    attempts = 0
    max_possible = num_vertices * (num_vertices - 1)
    target = min(num_edges, max_possible)
    while len(out) < target and attempts < 50 * num_edges + 100:
        attempts += 1
        src, dst = rng.randrange(num_vertices), rng.randrange(num_vertices)
        if src == dst or (src, dst) in edges:
            continue
        edges.add((src, dst))
        weight = dyadic_weight(rng) if dyadic else rng.uniform(0.05, 5.0)
        out.append((src, dst, weight))
    return out


def build_state(
    initial_edges: Sequence[Tuple[int, int, float]],
    semantics: PeelingSemantics = None,
) -> PeelingState:
    """Materialise the initial graph and build a peeling state for it."""
    semantics = semantics or dw_semantics()
    graph = semantics.materialize(initial_edges)
    return PeelingState(graph, semantics)


def assert_valid_state(state: PeelingState) -> None:
    """Assert that the state's sequence is a valid greedy peel of its graph."""
    state.check_consistency()
    check = is_valid_peeling_sequence(state.graph, state.order, list(state.weights))
    assert check.valid, check.message


def assert_matches_static(state: PeelingState, exact: bool = True) -> None:
    """Assert that the maintained sequence matches a from-scratch run.

    With ``exact=True`` (dyadic weights) the sequences must be identical;
    otherwise the maintained sequence only has to be a valid greedy peel
    with the same community density up to floating-point noise.
    """
    assert_valid_state(state)
    static = peel(state.graph, state.semantics.name)
    incremental = state.as_result()
    if exact:
        assert list(static.order) == list(incremental.order)
        assert static.best_density == incremental.best_density
        assert static.community == incremental.community
    else:
        assert abs(static.best_density - incremental.best_density) <= 1e-6 * max(
            1.0, abs(static.best_density)
        )


def _dead_slots(graph) -> List[int]:
    """Used arena slots no run reserves, per direction, of an ``ArrayGraph``.

    Only a compaction lowers this count: appends and removals keep it or
    (moving a full run to the tail) raise it.
    """
    return [arena.tail - int(arena.cap.sum()) for arena in (graph._out, graph._in)]


def add_until_compaction(graph, edges: Sequence[Tuple]) -> List[Tuple]:
    """Add ``edges`` to an ``ArrayGraph`` until an append compacts an arena.

    Returns the edges not yet added; fails if none of them compacted.
    """
    for i, (src, dst, weight) in enumerate(edges):
        before = _dead_slots(graph)
        graph.add_edge(src, dst, weight)
        if any(after < prior for after, prior in zip(_dead_slots(graph), before)):
            return list(edges[i + 1 :])
    raise AssertionError("no append compacted an arena")
