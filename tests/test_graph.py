"""Unit tests for the dynamic graph substrate."""

from __future__ import annotations

import math

import pytest

from repro.errors import InvalidWeightError, UnknownEdgeError, UnknownVertexError
from repro.graph.array_graph import ArrayGraph
from repro.graph.graph import DynamicGraph


class TestVertices:
    def test_add_vertex_default_weight(self):
        graph = DynamicGraph()
        graph.add_vertex("a")
        assert graph.has_vertex("a")
        assert graph.vertex_weight("a") == 0.0

    def test_add_vertex_with_weight(self):
        graph = DynamicGraph()
        graph.add_vertex("a", 2.5)
        assert graph.vertex_weight("a") == 2.5

    def test_re_add_vertex_keeps_larger_weight(self):
        graph = DynamicGraph()
        graph.add_vertex("a", 2.0)
        graph.add_vertex("a", 1.0)
        assert graph.vertex_weight("a") == 2.0
        graph.add_vertex("a", 3.0)
        assert graph.vertex_weight("a") == 3.0

    @pytest.mark.parametrize("graph_class", [DynamicGraph, ArrayGraph])
    @pytest.mark.parametrize("weight", [-1.0, math.nan, math.inf, -math.inf])
    def test_negative_vertex_weight_rejected(self, graph_class, weight):
        graph = graph_class()
        with pytest.raises(InvalidWeightError):
            graph.add_vertex("a", weight)
        assert not graph.has_vertex("a")
        graph.add_vertex("b", 1.0)
        with pytest.raises(InvalidWeightError):
            graph.set_vertex_weight("b", weight)
        assert graph.vertex_weight("b") == 1.0

    def test_set_vertex_weight(self):
        graph = DynamicGraph()
        graph.add_vertex("a", 1.0)
        graph.set_vertex_weight("a", 0.5)
        assert graph.vertex_weight("a") == 0.5

    def test_set_vertex_weight_unknown(self):
        graph = DynamicGraph()
        with pytest.raises(UnknownVertexError):
            graph.set_vertex_weight("missing", 1.0)

    def test_vertex_weight_unknown(self):
        graph = DynamicGraph()
        with pytest.raises(UnknownVertexError):
            graph.vertex_weight("missing")

    def test_num_vertices_and_len(self):
        graph = DynamicGraph(vertices=["a", "b", ("c", 1.5)])
        assert graph.num_vertices() == 3
        assert len(graph) == 3
        assert graph.vertex_weight("c") == 1.5

    def test_contains(self):
        graph = DynamicGraph(vertices=["a"])
        assert "a" in graph
        assert "b" not in graph


class TestEdges:
    def test_add_edge_creates_endpoints(self):
        graph = DynamicGraph()
        graph.add_edge("a", "b", 2.0)
        assert graph.has_vertex("a") and graph.has_vertex("b")
        assert graph.edge_weight("a", "b") == 2.0
        assert graph.num_edges() == 1

    def test_add_edge_accumulates_weight(self):
        graph = DynamicGraph()
        graph.add_edge("a", "b", 2.0)
        total = graph.add_edge("a", "b", 3.0)
        assert total == 5.0
        assert graph.num_edges() == 1
        assert graph.total_edge_weight() == 5.0

    def test_edge_direction_matters(self):
        graph = DynamicGraph()
        graph.add_edge("a", "b", 1.0)
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("b", "a")
        graph.add_edge("b", "a", 2.0)
        assert graph.num_edges() == 2

    @pytest.mark.parametrize("graph_class", [DynamicGraph, ArrayGraph])
    @pytest.mark.parametrize("weight", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_zero_or_negative_edge_weight_rejected(self, graph_class, weight):
        graph = graph_class()
        with pytest.raises(InvalidWeightError):
            graph.add_edge("a", "b", weight)
        assert graph.num_vertices() == 0 and graph.num_edges() == 0

    def test_self_loop_rejected(self):
        graph = DynamicGraph()
        with pytest.raises(InvalidWeightError):
            graph.add_edge("a", "a", 1.0)

    def test_remove_edge(self):
        graph = DynamicGraph()
        graph.add_edge("a", "b", 2.0)
        weight = graph.remove_edge("a", "b")
        assert weight == 2.0
        assert not graph.has_edge("a", "b")
        assert graph.num_edges() == 0
        assert graph.total_edge_weight() == 0.0

    def test_remove_missing_edge_raises(self):
        graph = DynamicGraph()
        graph.add_edge("a", "b", 1.0)
        with pytest.raises(UnknownEdgeError) as excinfo:
            graph.remove_edge("b", "a")
        assert excinfo.value.src == "b"
        assert excinfo.value.dst == "a"

    def test_edges_iteration(self):
        graph = DynamicGraph()
        graph.add_edge("a", "b", 1.0)
        graph.add_edge("b", "c", 2.0)
        listed = sorted(graph.edges())
        assert listed == [("a", "b", 1.0), ("b", "c", 2.0)]

    def test_edge_weight_unknown(self):
        graph = DynamicGraph()
        with pytest.raises(UnknownEdgeError) as excinfo:
            graph.edge_weight("x", "y")
        assert excinfo.value.src == "x"
        assert excinfo.value.dst == "y"

    def test_from_edges_constructor(self):
        graph = DynamicGraph.from_edges([("a", "b"), ("b", "c", 2.5)])
        assert graph.num_edges() == 2
        assert graph.edge_weight("a", "b") == 1.0
        assert graph.edge_weight("b", "c") == 2.5


class TestNeighbourhoods:
    @pytest.fixture
    def star(self) -> DynamicGraph:
        graph = DynamicGraph()
        graph.add_edge("c1", "hub", 1.0)
        graph.add_edge("c2", "hub", 2.0)
        graph.add_edge("hub", "out", 4.0)
        return graph

    def test_degrees(self, star):
        assert star.in_degree("hub") == 2
        assert star.out_degree("hub") == 1
        assert star.degree("hub") == 3
        assert star.degree("c1") == 1

    def test_neighbors_undirected_union(self, star):
        assert set(star.neighbors("hub")) == {"c1", "c2", "out"}
        assert set(star.neighbors("c1")) == {"hub"}

    def test_incident_items_counts_both_directions(self, star):
        items = list(star.incident_items("hub"))
        assert sorted(w for _v, w in items) == [1.0, 2.0, 4.0]

    def test_incident_weight(self, star):
        assert star.incident_weight("hub") == 7.0
        assert star.incident_weight("out") == 4.0

    def test_in_out_neighbors(self, star):
        assert dict(star.in_neighbors("hub")) == {"c1": 1.0, "c2": 2.0}
        assert dict(star.out_neighbors("hub")) == {"out": 4.0}

    def test_unknown_vertex_raises(self, star):
        with pytest.raises(UnknownVertexError):
            star.out_neighbors("nope")
        with pytest.raises(UnknownVertexError):
            star.degree("nope")


class TestWholeGraph:
    def test_total_suspiciousness_combines_vertices_and_edges(self):
        graph = DynamicGraph()
        graph.add_vertex("a", 1.0)
        graph.add_vertex("b", 0.5)
        graph.add_edge("a", "b", 2.0)
        assert graph.total_suspiciousness() == pytest.approx(3.5)

    def test_copy_is_independent(self):
        graph = DynamicGraph()
        graph.add_edge("a", "b", 1.0)
        clone = graph.copy()
        clone.add_edge("b", "c", 1.0)
        clone.set_vertex_weight("a", 3.0)
        assert graph.num_edges() == 1
        assert graph.vertex_weight("a") == 0.0
        assert clone.num_edges() == 2

    def test_equality(self):
        g1 = DynamicGraph.from_edges([("a", "b", 1.0)])
        g2 = DynamicGraph.from_edges([("a", "b", 1.0)])
        g3 = DynamicGraph.from_edges([("a", "b", 2.0)])
        assert g1 == g2
        assert g1 != g3

    def test_graph_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(DynamicGraph())

    def test_counts_after_mixed_operations(self):
        graph = DynamicGraph()
        for i in range(10):
            graph.add_edge(f"u{i}", f"u{(i + 1) % 10}", 1.0 + i)
        assert graph.num_vertices() == 10
        assert graph.num_edges() == 10
        graph.remove_edge("u0", "u1")
        assert graph.num_edges() == 9
        assert graph.total_edge_weight() == pytest.approx(sum(1.0 + i for i in range(10)) - 1.0)
