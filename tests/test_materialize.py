"""Tests for the bulk build behind ``PeelingSemantics.materialize``.

The bulk build interns and merges the raw edges in arrays and builds the
graph once.  It must be indistinguishable from the build it replaced:
two passes of per-edge ``add_edge`` (a structural graph of raw weights
that ``vsusp`` / ``esusp`` read, then a weighted graph).  That build is
kept here, verbatim, as the oracle:

* **Oracle** — property-based (hypothesis): every ``freeze()`` array,
  the labels, the incident weights and the total edge weight are ``==``
  the oracle's, and so is what ``Spade.load_edges`` peels, on DG, DW, FD
  and a custom semantics that reads its graph, with duplicate pairs,
  priors, non-dyadic weights, both backends and generator inputs.  The
  semantics must also be called in the same order, on the same values.
* **Error parity** — bad input raises the same typed error with the same
  message as the oracle, and leaves the engine without a graph.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.spade import Spade
from repro.errors import InvalidWeightError, SemanticsError, StateError
from repro.graph.backend import create_graph
from repro.graph.csr import _ARRAY_FIELDS as CSR_ARRAY_FIELDS
from repro.graph.csr import freeze_graph
from repro.peeling.semantics import (
    custom_semantics,
    dg_semantics,
    dw_semantics,
    fraudar_semantics,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def two_pass_materialize(semantics, edges, vertex_priors=None, backend=None):
    """The per-edge build ``materialize`` used before the bulk build."""
    structural = create_graph(backend)
    raw_weights = {}
    for item in edges:
        if len(item) == 2:
            src, dst = item
            raw = 1.0
        else:
            src, dst, raw = item[0], item[1], float(item[2])
        structural.add_edge(src, dst, raw)
        raw_weights[(src, dst)] = raw_weights.get((src, dst), 0.0) + raw

    weighted = create_graph(backend)
    for vertex in structural.vertices():
        if vertex_priors is not None and vertex in vertex_priors:
            prior = float(vertex_priors[vertex])
        else:
            prior = semantics.vertex_weight(vertex, structural)
        weighted.add_vertex(vertex, prior)
    for (src, dst), raw in raw_weights.items():
        weighted.add_edge(src, dst, semantics.edge_weight(src, dst, raw, structural))
    return weighted


def graph_reading_semantics(calls=None):
    """A custom semantics whose weights depend on what its graph holds.

    It reads degrees, priors, edge weights, incident weights and the
    total, so any difference in the graph it is handed shows up in the
    weights; ``calls`` (when given) records every call with its inputs.
    """

    def vsusp(vertex, graph):
        if calls is not None:
            calls.append(("v", vertex, graph.vertex_weight(vertex)))
        return graph.incident_weight(vertex) / (graph.degree(vertex) + 3.0)

    def esusp(src, dst, raw, graph):
        if calls is not None:
            calls.append(("e", src, dst, raw, graph.edge_weight(src, dst)))
        return raw / (1.0 + graph.out_degree(src)) + graph.incident_weight(dst) / (
            1.0 + graph.total_edge_weight()
        )

    return custom_semantics("reads-graph", vertex_susp=vsusp, edge_susp=esusp)


SEMANTICS = {
    "DG": lambda calls=None: dg_semantics(),
    "DW": lambda calls=None: dw_semantics(),
    "FD": lambda calls=None: fraudar_semantics(vertex_priors={0: 0.75, 3: 1.5}),
    "custom": graph_reading_semantics,
}


@st.composite
def raw_edge_lists(draw):
    """Raw transactions over few labels: duplicates, 2-tuples, any weights."""
    labels = draw(st.sampled_from([list(range(9)), [f"u{i}" for i in range(6)] + [7, 8]]))
    count = draw(st.integers(0, 70))
    edges = []
    for _ in range(count):
        src, dst = draw(st.sampled_from([(s, d) for s in labels for d in labels if s != d]))
        if draw(st.integers(0, 9)) == 0:
            edges.append((src, dst))
        else:
            edges.append((src, dst, draw(st.floats(0.01, 50.0))))
    return edges


@st.composite
def priors(draw):
    """``None`` or priors for some labels, including ones that are no vertex."""
    if draw(st.booleans()):
        return None
    keys = draw(st.lists(st.sampled_from(list(range(12)) + ["u1", "u4", "absent"]), unique=True))
    return {key: draw(st.floats(0.0, 4.0)) for key in keys}


def incident_weights(graph):
    return [graph.incident_weight_id(vid) for vid in range(len(graph.interner))]


def assert_same_graph(bulk, oracle):
    """Bit-level equality of two built graphs."""
    assert type(bulk) is type(oracle)
    got, want = freeze_graph(bulk), freeze_graph(oracle)
    for name in CSR_ARRAY_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
    assert got.labels == want.labels
    assert list(bulk.vertices()) == list(oracle.vertices())
    assert incident_weights(bulk) == incident_weights(oracle)
    assert bulk.total_edge_weight() == oracle.total_edge_weight()
    assert bulk.num_edges() == oracle.num_edges()


def outcome(build):
    """``("ok", result)`` or the raised error's type and message."""
    try:
        return "ok", build()
    except Exception as error:  # noqa: BLE001 - the type is what is compared
        return type(error), str(error)


class TestOracle:
    """The bulk build equals the two-pass build, bit for bit."""

    @SETTINGS
    @given(
        edges=raw_edge_lists(),
        vertex_priors=priors(),
        name=st.sampled_from(sorted(SEMANTICS)),
        as_generator=st.booleans(),
    )
    def test_graph_matches_two_pass(self, graph_backend, edges, vertex_priors, name, as_generator):
        bulk_calls, oracle_calls = [], []
        source = (edge for edge in edges) if as_generator else edges
        bulk = SEMANTICS[name](bulk_calls).materialize(source, vertex_priors=vertex_priors)
        oracle = two_pass_materialize(SEMANTICS[name](oracle_calls), edges, vertex_priors)
        assert_same_graph(bulk, oracle)
        assert bulk_calls == oracle_calls

    @SETTINGS
    @given(
        edges=raw_edge_lists(),
        vertex_priors=priors(),
        name=st.sampled_from(sorted(SEMANTICS)),
    )
    def test_load_edges_matches_two_pass(self, graph_backend, edges, vertex_priors, name):
        semantics = SEMANTICS[name]()
        bulk = Spade(semantics).load_edges(iter(edges), vertex_priors=vertex_priors)
        graph = two_pass_materialize(semantics, edges, vertex_priors)
        oracle = Spade(semantics).load_graph(graph)
        assert bulk.order == oracle.order
        assert bulk.weights == oracle.weights
        assert bulk.community == oracle.community
        assert bulk.best_density == oracle.best_density
        assert bulk.total_suspiciousness == oracle.total_suspiciousness

    @pytest.mark.parametrize("name", sorted(SEMANTICS))
    def test_duplicates_merge_in_input_order(self, name):
        """Non-dyadic duplicates whose sum depends on the association order."""
        edges = [("a", "b", 0.1), ("c", "b", 0.7), ("a", "b", 0.2), ("b", "a", 0.3)]
        edges += [("a", "b", 0.3), ("a", "c"), ("c", "b", 0.1), ("a", "b", 1e-17)]
        semantics = SEMANTICS[name]()
        bulk = semantics.materialize(edges)
        assert_same_graph(bulk, two_pass_materialize(semantics, edges))
        assert bulk.num_edges() == 4
        assert list(bulk.vertices()) == ["a", "b", "c"]

    def test_the_graph_read_holds_raw_merged_weights_and_zero_priors(self):
        seen = {}

        def esusp(src, dst, raw, graph):
            seen[(src, dst)] = (raw, graph.edge_weight(src, dst), graph.vertex_weight(dst))
            return 1.0

        semantics = custom_semantics("spy", edge_susp=esusp)
        edges = [("a", "b", 2.0), ("b", "c", 1.0), ("a", "b", 0.5)]
        graph = semantics.materialize(edges, vertex_priors={"b": 9.0})
        assert seen == {("a", "b"): (2.5, 2.5, 0.0), ("b", "c"): (1.0, 1.0, 0.0)}
        assert graph.edge_weight("a", "b") == 1.0
        assert graph.vertex_weight("b") == 9.0

    def test_built_array_graph_accepts_updates(self):
        semantics = dw_semantics()
        edges = [(f"s{i % 17}", f"m{i * 7 % 13}", 1.0 + i / 3.0) for i in range(40)]
        bulk = semantics.materialize(edges[:30], backend="array")
        oracle = two_pass_materialize(semantics, edges[:30], backend="array")
        for src, dst, weight in edges[30:] + [("s0", "m0", 0.5), ("s3", "new", 2.0)]:
            bulk.add_edge(src, dst, weight)
            oracle.add_edge(src, dst, weight)
        bulk.remove_edge("s5", "m9")
        oracle.remove_edge("s5", "m9")
        assert_same_graph(bulk, oracle)


class TestErrorParity:
    """Bad input fails as the two-pass build failed, before any graph is loaded."""

    BAD_EDGES = {
        "self-loop": [("a", "b", 1.0), ("c", "c", 1.0)],
        "zero-weight": [("a", "b", 1.0), ("b", "c", 0.0)],
        "negative-weight": [("a", "b", -2.0)],
        "nan-weight": [("a", "b", 1.0), ("a", "b", math.nan)],
        "inf-weight": [("a", "b", math.inf)],
        "minus-inf-weight": [("a", "b", -math.inf)],
        "weight-not-a-number": [("a", "b", "heavy")],
        "one-element-tuple": [("a",)],
    }

    def assert_same_failure(self, semantics, edges, vertex_priors=None, error=None):
        got = outcome(lambda: semantics.materialize(iter(edges), vertex_priors=vertex_priors))
        want = outcome(lambda: two_pass_materialize(semantics, edges, vertex_priors))
        assert got[0] != "ok" and got == want
        if error is not None:
            assert got[0] is error
        engine = Spade(semantics)
        with pytest.raises(got[0]):
            engine.load_edges(iter(edges), vertex_priors=vertex_priors)
        with pytest.raises(StateError):
            engine.state

    @pytest.mark.parametrize("case", sorted(BAD_EDGES))
    def test_bad_edges(self, case):
        self.assert_same_failure(dw_semantics(), self.BAD_EDGES[case])

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_bad_vsusp(self, value):
        semantics = custom_semantics("bad-v", vertex_susp=lambda v, g: value if v == "b" else 0.0)
        self.assert_same_failure(semantics, [("a", "b", 1.0)], error=SemanticsError)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_bad_esusp(self, value):
        semantics = custom_semantics("bad-e", edge_susp=lambda s, d, r, g: value if d == "c" else r)
        self.assert_same_failure(
            semantics, [("a", "b", 1.0), ("b", "c", 2.0)], error=SemanticsError
        )

    @pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
    def test_bad_prior(self, value):
        self.assert_same_failure(
            dw_semantics(), [("a", "b", 1.0)], {"b": value}, error=InvalidWeightError
        )

    def test_first_failure_in_vertex_order_wins(self):
        """A bad prior before a raising ``vsusp`` fails on the prior, and after it on vsusp."""

        def vsusp(vertex, _graph):
            return -1.0 if vertex == "b" else 0.0

        semantics = custom_semantics("bad-v", vertex_susp=vsusp)
        edges = [("a", "b", 1.0), ("c", "a", 1.0)]
        self.assert_same_failure(semantics, edges, {"a": -1.0}, error=InvalidWeightError)
        self.assert_same_failure(semantics, edges, {"c": -1.0}, error=SemanticsError)


class TestEdgeCases:
    def test_no_edges(self, graph_backend):
        for edges in ([], iter([])):
            bulk = dw_semantics().materialize(edges, vertex_priors={"a": 1.0})
            assert_same_graph(bulk, two_pass_materialize(dw_semantics(), []))
            assert bulk.num_vertices() == 0
        result = Spade(dw_semantics()).load_edges([])
        assert result.order == () and not result.community

    def test_generator_is_read_once(self):
        reads = []

        def stream():
            for edge in [("a", "b", 1.0), ("b", "c", 2.0), ("a", "b", 0.5)]:
                reads.append(edge)
                yield edge

        graph = dw_semantics().materialize(stream())
        assert len(reads) == 3
        assert graph.edge_weight("a", "b") == 1.5

    def test_priors_of_absent_vertices_are_ignored(self, graph_backend):
        priors = {"b": 2.0, "ghost": 5.0, "also-absent": -1.0}
        graph = dw_semantics().materialize([("a", "b", 1.0)], vertex_priors=priors)
        assert not graph.has_vertex("ghost")
        assert graph.vertex_weight("b") == 2.0
        assert graph.total_vertex_weight() == 2.0
