"""Tests for the CSR snapshot engine and the ``peel_csr`` fast path.

Three pillars:

* **Differential** — property-based (hypothesis) proof that the CSR peel
  reproduces the heap peel *bit for bit* (sequences, weights, densities)
  on random DG/DW/FD graphs, full and subset runs, dyadic and arbitrary
  float weights.
* **Snapshot semantics** — freeze → mutate → freeze staleness guard,
  immutability of the frozen arrays, structure fidelity against the
  mutable pools.
* **Persistence** — `.npz` save/load round-trips bit-identically, the
  ``mmap_mode="r"`` load memory-maps every numeric member, and a forked
  worker peels from the mapped snapshot without copying the arrays.
"""

from __future__ import annotations

import multiprocessing
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.deletion import delete_edges, repeel_suffix, safe_prefix_bound
from repro.core.enumeration import enumerate_communities
from repro.core.state import PeelingState
from repro.graph.array_graph import ArrayGraph
from repro.graph.csr import _ARRAY_FIELDS as CSR_ARRAY_FIELDS
from repro.graph.csr import CsrSnapshot, freeze_graph
from repro.graph.graph import DynamicGraph
from repro.graph.stats import compute_stats, degree_distribution
from repro.peeling.semantics import (
    dg_semantics,
    dw_semantics,
    fraudar_semantics,
    subset_density,
)
from repro.peeling.static import (
    peel,
    peel_csr,
    peel_csr_ids,
    peel_subset,
    peel_subset_csr,
    peel_subset_ids,
    peeling_weights,
)

from tests.helpers import add_until_compaction, random_weighted_edges

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

ALL_SEMANTICS = [dg_semantics, dw_semantics, fraudar_semantics]


@st.composite
def csr_edge_lists(draw):
    """Random simple directed edge lists, dyadic or arbitrary-float weighted."""
    n = draw(st.integers(3, 18))
    possible = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = draw(st.integers(1, min(60, len(possible))))
    pairs = draw(st.permutations(possible))[:count]
    dyadic = draw(st.booleans())
    if dyadic:
        weights = draw(
            st.lists(
                st.integers(1, 256).map(lambda u: u / 64.0),
                min_size=count,
                max_size=count,
            )
        )
    else:
        weights = draw(
            st.lists(
                st.floats(0.05, 8.0, allow_nan=False, allow_infinity=False),
                min_size=count,
                max_size=count,
            )
        )
    return [(src, dst, w) for (src, dst), w in zip(pairs, weights)]


def assert_results_identical(a, b):
    """Bit-level equality of two peeling results."""
    assert list(a.order) == list(b.order)
    assert list(a.weights) == list(b.weights)
    assert a.total_suspiciousness == b.total_suspiciousness
    assert a.best_density == b.best_density
    assert a.community == b.community


class TestDifferential:
    """peel_csr must be indistinguishable from the heap peel."""

    @SETTINGS
    @given(edges=csr_edge_lists(), semantics_index=st.integers(0, 2))
    def test_full_peel_matches_heap_bit_for_bit(self, edges, semantics_index):
        semantics = ALL_SEMANTICS[semantics_index]()
        graph = semantics.materialize(edges, backend="array")
        assert_results_identical(peel(graph, semantics.name), peel_csr(graph, semantics.name))

    @SETTINGS
    @given(
        edges=csr_edge_lists(),
        semantics_index=st.integers(0, 2),
        keep=st.floats(0.2, 1.0),
    )
    def test_subset_peel_matches_heap_bit_for_bit(self, edges, semantics_index, keep):
        semantics = ALL_SEMANTICS[semantics_index]()
        graph = semantics.materialize(edges, backend="array")
        vertices = list(graph.vertices())
        subset = set(vertices[: max(1, int(len(vertices) * keep))])
        assert_results_identical(
            peel_subset(graph, subset, semantics.name),
            peel_subset_csr(graph, subset, semantics.name),
        )

    def test_id_based_subset_peel_matches(self):
        rng = random.Random(5)
        edges = random_weighted_edges(25, 120, rng, dyadic=False)
        graph = dw_semantics().materialize(edges, backend="array")
        member_ids = graph.vertex_ids()[::2]
        heap_order, heap_weights, heap_total = peel_subset_ids(graph, member_ids)
        csr_order, csr_weights, csr_total = peel_csr_ids(graph.freeze(), member_ids)
        assert heap_order.tolist() == csr_order.tolist()
        assert heap_weights == csr_weights
        assert heap_total == csr_total

    def test_heavy_degree_vertices_match(self):
        # A star larger than SMALL_DEGREE forces the pairwise-sum branch.
        edges = [("hub", f"leaf{i}", 1.0 + i / 7.0) for i in range(64)]
        edges += [(f"leaf{i}", f"leaf{i+1}", 0.3) for i in range(0, 60, 2)]
        graph = dw_semantics().materialize(edges, backend="array")
        assert_results_identical(peel(graph, "DW"), peel_csr(graph, "DW"))

    def test_dict_graph_freezes_via_conversion(self):
        rng = random.Random(11)
        edges = random_weighted_edges(15, 50, rng)  # dyadic => exact across layouts
        graph = dw_semantics().materialize(edges, backend="dict")
        assert isinstance(graph, DynamicGraph)
        assert_results_identical(peel(graph, "DW"), peel_csr(graph, "DW"))


class TestSnapshotSemantics:
    def test_structure_matches_pools(self):
        rng = random.Random(3)
        edges = random_weighted_edges(20, 80, rng)
        graph = dw_semantics().materialize(edges, backend="array")
        snapshot = graph.freeze()
        assert snapshot.num_vertices == graph.num_vertices()
        assert snapshot.num_edges == graph.num_edges()
        assert snapshot.total_edge_weight == graph.total_edge_weight()
        inc_off, inc_mid, inc_nbr, inc_w = snapshot.incidence()
        for vid in graph.vertex_ids().tolist():
            ids, weights = graph.incident_arrays_id(vid)
            s, e = int(inc_off[vid]), int(inc_off[vid + 1])
            assert inc_nbr[s:e].tolist() == ids.tolist()
            assert inc_w[s:e].tolist() == weights.tolist()
            assert snapshot.degrees(np.array([vid]))[0] == graph.degree_id(vid)

    def test_freeze_mutate_freeze_staleness_guard(self):
        graph = ArrayGraph(edges=[("a", "b", 1.0), ("b", "c", 2.0)])
        first = graph.freeze()
        assert not first.is_stale(graph)
        assert graph.freeze() is first  # cached while unmutated
        graph.add_edge("c", "a", 4.0)
        assert first.is_stale(graph)
        second = graph.freeze()
        assert second is not first
        assert not second.is_stale(graph)
        # The old snapshot still describes the pre-mutation graph.
        assert first.num_edges == 2
        assert second.num_edges == 3
        # Deletions and weight changes also invalidate.
        graph.remove_edge("a", "b")
        assert second.is_stale(graph)

    def test_snapshot_never_aliases_the_arena(self):
        """Every arena layout change leaves earlier snapshots' bytes alone."""
        edges = random_weighted_edges(30, 300, random.Random(1))
        # from_csr starts from a compact arena: every run full, no slack.
        graph = ArrayGraph.from_csr(ArrayGraph(edges=edges[:100]).freeze())
        out = graph._out
        kept = []

        def freeze_and_keep():
            snapshot = graph.freeze()
            kept.append((snapshot, {n: getattr(snapshot, n).copy() for n in CSR_ARRAY_FIELDS}))

        def assert_snapshots_intact():
            for snapshot, arrays in kept:
                for name, array in arrays.items():
                    assert np.array_equal(getattr(snapshot, name), array), name

        src, dst, weight = edges[0]
        freeze_and_keep()
        assert graph.add_edge(src, dst, 0.5) == weight + 0.5  # accumulate in place
        assert_snapshots_intact()

        freeze_and_keep()
        hub = max(graph.vertices(), key=graph.out_degree)
        first = next(iter(graph.out_neighbors(hub)))
        assert graph.out_degree(hub) >= 2
        graph.remove_edge(hub, first)  # shift-remove inside the run
        assert_snapshots_intact()

        freeze_and_keep()
        src, dst, weight = edges[100]
        vid = graph.interner.id_of(src)
        start = int(out.start[vid])
        graph.add_edge(src, dst, weight)  # the full run moves to the tail
        assert int(out.start[vid]) != start
        assert_snapshots_intact()

        freeze_and_keep()
        size = len(out.nbr)
        rest = edges[101:]
        while len(out.nbr) == size:  # grow the arena
            graph.add_edge(*rest.pop(0))
        assert_snapshots_intact()

        freeze_and_keep()
        add_until_compaction(graph, rest)
        assert_snapshots_intact()
        assert not graph.freeze().is_stale(graph)

    def test_snapshot_arrays_are_immutable(self):
        graph = ArrayGraph(edges=[("a", "b", 1.0)])
        snapshot = graph.freeze()
        with pytest.raises(ValueError):
            snapshot.out_weights[0] = 99.0
        with pytest.raises(ValueError):
            snapshot.member[0] = False

    def test_freeze_graph_helper_covers_both_backends(self):
        edges = [("a", "b", 1.0), ("b", "c", 2.0)]
        for backend_cls in (ArrayGraph, DynamicGraph):
            graph = backend_cls(edges=edges)
            snapshot = freeze_graph(graph)
            assert snapshot.num_edges == 2
            assert sorted(snapshot.labels_for(snapshot.order)) == ["a", "b", "c"]

    def test_subset_density_matches_reference(self):
        rng = random.Random(9)
        edges = random_weighted_edges(18, 70, rng)
        graph = dw_semantics().materialize(edges, backend="array")
        snapshot = graph.freeze()
        vertices = list(graph.vertices())
        subset = set(vertices[::3])
        expected = subset_density(graph, subset)
        got = snapshot.subset_density(snapshot.ids_for(subset))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_from_edges_bincount_construction(self):
        src = np.array([0, 0, 1, 2], dtype=np.int32)
        dst = np.array([1, 2, 2, 0], dtype=np.int32)
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        snapshot = CsrSnapshot.from_edges(src, dst, weights, labels=["x", "y", "z"])
        assert snapshot.out_offsets.tolist() == [0, 2, 3, 4]
        assert snapshot.out_neighbors.tolist() == [1, 2, 2, 0]
        assert snapshot.in_offsets.tolist() == [0, 1, 2, 4]
        assert snapshot.in_neighbors.tolist() == [2, 0, 0, 1]
        assert snapshot.total_edge_weight == 10.0


class TestReadPathRouting:
    """The analytics consumers produce identical answers through the snapshot."""

    def test_enumeration_matches_dict_reference(self):
        rng = random.Random(21)
        edges = random_weighted_edges(24, 90, rng)  # dyadic weights
        array_graph = dw_semantics().materialize(edges, backend="array")
        dict_graph = dw_semantics().materialize(edges, backend="dict")
        via_csr = enumerate_communities(array_graph, max_instances=6, min_density=0.0)
        reference = enumerate_communities(dict_graph, max_instances=6, min_density=0.0)
        assert [set(i.vertices) for i in via_csr] == [set(i.vertices) for i in reference]
        # Densities go through the label path on both backends, so they
        # are bit-identical, not merely close.
        assert [i.density for i in via_csr] == [i.density for i in reference]

    def test_exact_pair_weights_identical_across_backends(self):
        rng = random.Random(26)
        edges = random_weighted_edges(12, 40, rng, dyadic=False)
        edges += [(dst, src, w / 2) for src, dst, w in edges[:8]]  # reciprocal pairs
        from repro.peeling.exact import _undirected_weights

        array_pairs = _undirected_weights(dw_semantics().materialize(edges, backend="array"))
        dict_pairs = _undirected_weights(dw_semantics().materialize(edges, backend="dict"))
        assert list(array_pairs.items()) == list(dict_pairs.items())  # order included

    def test_stats_match_dict_reference(self):
        rng = random.Random(22)
        edges = random_weighted_edges(30, 100, rng)
        array_graph = dw_semantics().materialize(edges, backend="array")
        dict_graph = dw_semantics().materialize(edges, backend="dict")
        assert compute_stats(array_graph) == compute_stats(dict_graph)
        assert degree_distribution(array_graph) == degree_distribution(dict_graph)

    def test_deletion_suffix_repeel_csr_matches_heap(self):
        rng = random.Random(23)
        edges = random_weighted_edges(20, 80, rng)
        semantics = dw_semantics()

        def build():
            graph = semantics.materialize(edges, backend="array")
            return PeelingState(graph, semantics)

        doomed = edges[::7]
        state_heap, state_csr = build(), build()
        for state, force in ((state_heap, False), (state_csr, True)):
            graph = state.graph
            lightened = []
            for src, dst, _w in doomed:
                weight = graph.remove_edge(src, dst)
                lightened.append((src, weight))
                lightened.append((dst, weight))
                state.add_total(-weight)
            bound = safe_prefix_bound(state, lightened)
            repeel_suffix(state, bound, use_csr=force)
        assert state_heap.order_ids.tolist() == state_csr.order_ids.tolist()
        assert state_heap.weights.tolist() == state_csr.weights.tolist()
        state_csr.check_consistency()

    def test_delete_edges_still_matches_static(self):
        rng = random.Random(24)
        edges = random_weighted_edges(18, 60, rng)
        semantics = dw_semantics()
        graph = semantics.materialize(edges, backend="array")
        state = PeelingState(graph, semantics)
        delete_edges(state, [(e[0], e[1]) for e in edges[::5]])
        static = peel(state.graph, semantics.name)
        assert list(static.order) == state.order
        assert list(static.weights) == state.weights.tolist()

    def test_peeling_weights_vectorized_matches_scalar(self):
        rng = random.Random(25)
        edges = random_weighted_edges(22, 70, rng, dyadic=False)
        array_graph = dw_semantics().materialize(edges, backend="array")
        ids = array_graph.vertex_ids()
        expected = {
            v: array_graph.vertex_weight(v) + array_graph.incident_weight(v)
            for v in array_graph.vertices()
        }
        assert peeling_weights(array_graph) == expected
        # the vectorized gather really is used: values come back bit-equal
        gathered = array_graph.vertex_weight_ids(ids) + array_graph.incident_weight_ids(ids)
        assert gathered.tolist() == [expected[v] for v in array_graph.vertices()]


def _fork_worker(path, queue):
    loaded = CsrSnapshot.load(path, mmap_mode="r")
    # Zero-copy: the numeric members must be memory-mapped, not heap copies.
    assert isinstance(loaded.out_weights, np.memmap)
    assert isinstance(loaded.in_neighbors, np.memmap)
    result = peel_csr(loaded, "DW")
    queue.put((list(result.order), list(result.weights), result.best_density))


class TestPersistence:
    def _snapshot(self):
        rng = random.Random(31)
        edges = random_weighted_edges(25, 100, rng, dyadic=False)
        graph = dw_semantics().materialize(edges, backend="array")
        return graph, graph.freeze()

    def test_save_load_roundtrip_bit_identical(self, tmp_path):
        _graph, snapshot = self._snapshot()
        path = tmp_path / "snapshot.npz"
        snapshot.save(path)
        for mmap_mode in (None, "r"):
            loaded = CsrSnapshot.load(path, mmap_mode=mmap_mode)
            for name in (
                "order",
                "member",
                "vertex_weights",
                "out_offsets",
                "out_neighbors",
                "out_weights",
                "in_offsets",
                "in_neighbors",
                "in_weights",
            ):
                original = getattr(snapshot, name)
                restored = getattr(loaded, name)
                assert original.dtype == restored.dtype
                assert np.array_equal(original, restored), name
                if mmap_mode == "r":
                    assert isinstance(restored, np.memmap), name
            assert loaded.labels == snapshot.labels
            assert loaded.total_edge_weight == snapshot.total_edge_weight
            assert loaded.source_version == snapshot.source_version

    def test_save_appends_npz_suffix_and_load_mirrors_it(self, tmp_path):
        _graph, snapshot = self._snapshot()
        bare = tmp_path / "snap"  # np.savez will write snap.npz
        snapshot.save(bare)
        assert (tmp_path / "snap.npz").exists()
        for source in (bare, tmp_path / "snap.npz"):
            loaded = CsrSnapshot.load(source, mmap_mode="r")
            assert np.array_equal(loaded.out_weights, snapshot.out_weights)

    def test_save_without_labels(self, tmp_path):
        _graph, snapshot = self._snapshot()
        path = tmp_path / "nolabels.npz"
        snapshot.save(path, include_labels=False)
        loaded = CsrSnapshot.load(path, mmap_mode="r")
        assert loaded.labels is None
        assert np.array_equal(loaded.out_weights, snapshot.out_weights)

    def test_mmap_load_peels_identically(self, tmp_path):
        graph, snapshot = self._snapshot()
        path = tmp_path / "snapshot.npz"
        snapshot.save(path)
        loaded = CsrSnapshot.load(path, mmap_mode="r")
        assert_results_identical(peel(graph, "DW"), peel_csr(loaded, "DW"))

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_forked_worker_peels_from_mmap(self, tmp_path):
        graph, snapshot = self._snapshot()
        path = tmp_path / "snapshot.npz"
        snapshot.save(path)
        reference = peel(graph, "DW")
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        worker = ctx.Process(target=_fork_worker, args=(str(path), queue))
        worker.start()
        order, weights, density = queue.get(timeout=60)
        worker.join(timeout=60)
        assert worker.exitcode == 0
        assert order == list(reference.order)
        assert weights == list(reference.weights)
        assert density == reference.best_density
