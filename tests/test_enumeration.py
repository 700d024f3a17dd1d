"""Tests for dense-subgraph enumeration (Appendix C.2)."""

from __future__ import annotations

import random

import pytest

from repro.core.enumeration import (
    _subset_density_csr,
    enumerate_communities,
    enumerate_csr,
    split_instances,
)
from repro.core.state import PeelingState
from repro.graph.csr import freeze_graph
from repro.graph.graph import DynamicGraph
from repro.peeling.semantics import dw_semantics, subset_density
from tests.helpers import random_weighted_edges


@pytest.fixture
def three_blocks(dw):
    """Three disjoint cliques of decreasing density plus background noise."""
    graph = DynamicGraph()
    blocks = {
        "A": (4, 6.0),
        "B": (4, 3.0),
        "C": (3, 1.5),
    }
    for name, (size, weight) in blocks.items():
        members = [f"{name}{i}" for i in range(size)]
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                graph.add_edge(u, v, weight)
    graph.add_edge("A0", "B0", 0.25)
    graph.add_edge("B1", "C0", 0.25)
    graph.add_edge("noise1", "noise2", 0.1)
    return graph


class TestEnumerate:
    def test_instances_come_out_in_density_order(self, three_blocks):
        instances = enumerate_communities(three_blocks, max_instances=5, min_density=0.2)
        assert len(instances) >= 2
        densities = [inst.density for inst in instances]
        assert densities == sorted(densities, reverse=True)
        assert {"A0", "A1", "A2", "A3"} <= set(instances[0].vertices)

    def test_second_instance_is_second_block(self, three_blocks):
        instances = enumerate_communities(three_blocks, max_instances=5, min_density=0.2)
        assert {"B0", "B1", "B2", "B3"} <= set(instances[1].vertices)

    def test_max_instances_respected(self, three_blocks):
        instances = enumerate_communities(three_blocks, max_instances=1)
        assert len(instances) == 1

    def test_min_density_cutoff(self, three_blocks):
        instances = enumerate_communities(three_blocks, max_instances=10, min_density=5.0)
        assert len(instances) == 1

    def test_min_size_cutoff(self, three_blocks):
        instances = enumerate_communities(three_blocks, max_instances=10, min_size=3, min_density=0.0)
        assert all(len(inst) >= 3 for inst in instances)

    def test_accepts_peeling_state(self, three_blocks, dw):
        state = PeelingState(three_blocks, dw)
        instances = enumerate_communities(state, max_instances=3, min_density=0.2)
        assert instances[0].vertices == state.community().vertices

    def test_instances_are_disjoint(self, three_blocks):
        instances = enumerate_communities(three_blocks, max_instances=5, min_density=0.1)
        seen = set()
        for instance in instances:
            assert not (seen & instance.vertices)
            seen |= instance.vertices

    def test_ranks_are_sequential(self, three_blocks):
        instances = enumerate_communities(three_blocks, max_instances=5, min_density=0.1)
        assert [inst.rank for inst in instances] == list(range(len(instances)))

    def test_empty_graph(self):
        assert enumerate_communities(DynamicGraph()) == []


class TestEnumerateCsr:
    def test_seeded_first_community_changes_nothing(self, three_blocks, dw):
        # The maintained engine's community as the rank-0 seed: the same
        # instances, densities and ranks as peeling rank 0 from scratch,
        # and the same instances the maintained-state enumeration reports.
        state = PeelingState(three_blocks, dw)
        snapshot = freeze_graph(three_blocks)
        plain = enumerate_csr(snapshot, max_instances=5, min_density=0.2)
        seeded = enumerate_csr(
            snapshot, max_instances=5, min_density=0.2, first=state.community().vertices
        )
        assert seeded == plain
        assert [inst.vertices for inst in plain] == [
            inst.vertices
            for inst in enumerate_communities(state, max_instances=5, min_density=0.2)
        ]

    def test_id_remainder_matches_the_label_path(self):
        # enumerate_communities re-peels label sets (peel_subset_csr);
        # enumerate_csr carries the remainder as dense ids.  Same
        # instances, densities and ranks (dyadic weights: exact).
        rng = random.Random(3)
        for _trial in range(25):
            graph = dw_semantics().materialize(
                random_weighted_edges(30, rng.randint(10, 150), rng), backend="array"
            )
            assert enumerate_csr(freeze_graph(graph), max_instances=8) == (
                enumerate_communities(graph, max_instances=8)
            )


    def test_density_adds_in_the_label_paths_order(self):
        # Non-dyadic weights: any other association order shows in the
        # last bits.  The reference is the scalar label path on the live
        # graph, which the snapshot path promises to match exactly.
        rng = random.Random(3)
        for _trial in range(40):
            edges = [
                (f"v{rng.randrange(25)}", f"v{rng.randrange(25)}", rng.uniform(0.05, 5.0))
                for _ in range(rng.randint(5, 120))
            ]
            graph = dw_semantics().materialize(
                [e for e in edges if e[0] != e[1]], backend="array"
            )
            snapshot = freeze_graph(graph)
            subset = set(rng.sample(sorted(graph.vertices()), rng.randint(1, graph.num_vertices())))
            assert _subset_density_csr(snapshot, subset) == subset_density(graph, subset)


class TestSplitInstances:
    def test_split_connected_components(self, three_blocks):
        community = frozenset({"A0", "A1", "A2", "A3", "C0", "C1", "C2"})
        parts = split_instances(three_blocks, community)
        assert len(parts) == 2
        assert frozenset({"A0", "A1", "A2", "A3"}) in parts

    def test_split_single_component(self, three_blocks):
        parts = split_instances(three_blocks, frozenset({"A0", "A1"}))
        assert parts == [frozenset({"A0", "A1"})]

    def test_split_isolated_vertices(self, three_blocks):
        parts = split_instances(three_blocks, frozenset({"A0", "noise1"}))
        assert len(parts) == 2

    def test_split_empty(self, three_blocks):
        assert split_instances(three_blocks, frozenset()) == []

    def test_split_sorted_by_size(self, three_blocks):
        community = frozenset({"A0", "A1", "A2", "C0", "C1"})
        parts = split_instances(three_blocks, community)
        assert len(parts[0]) >= len(parts[-1])
