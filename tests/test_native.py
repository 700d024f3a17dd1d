"""Tests for the native C kernels: bit-identity, builds, and fallback.

The native kernels' contract is *bit-identity* with the python hot paths
— same IEEE-754 association order, same heap pop order — so the
differential tests here assert literal equality of peeling sequences,
weights and communities across ``kernel="python"`` / ``kernel="native"``
on all three built-in semantics, through inserts, batches, deletions and
the reorder path.  The operational tests pin the build layer (compile
cache reuse, ``status()`` reporting) and the failure policy: loud
:class:`~repro.errors.KernelUnavailableError` under ``kernel="native"``,
a single ``RuntimeWarning`` then silent python fallback under ``"auto"``
— including in a subprocess whose environment has no usable C compiler.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import native
from repro.api.config import EngineConfig
from repro.core.batch import insert_batch
from repro.core.deletion import delete_edges
from repro.core.insertion import insert_edge
from repro.core.state import PeelingState
from repro.errors import KernelUnavailableError
from repro.graph.array_graph import ArrayGraph
from repro.graph.csr import _ARRAY_FIELDS as CSR_ARRAY_FIELDS
from repro.graph.csr import freeze_graph
from repro.native import build as native_build
from repro.peeling.semantics import dg_semantics, dw_semantics, fraudar_semantics
from repro.peeling.static import peel, peel_csr

from tests.helpers import add_until_compaction, dyadic_weight, random_weighted_edges

SRC_DIR = Path(repro.__file__).resolve().parent.parent

needs_native = pytest.mark.skipif(
    not native.available(), reason="native kernels unavailable (no C compiler?)"
)
needs_compiler = pytest.mark.skipif(
    native_build.find_compiler() is None, reason="no C compiler on PATH"
)

SEMANTICS = {"DG": dg_semantics, "DW": dw_semantics, "FD": fraudar_semantics}

HUB = "hub"


def _hub_edges():
    """400 vertices / 2 400 edges, each endpoint on an 8-vertex core w.p. 1/2.

    The core's degrees exceed both ``SMALL_DEGREE`` and numpy's
    128-element pairwise block, so the vectorised branch of the reorder's
    weight recovery runs on this input (the small random graphs never get
    there); the non-dyadic weights make any change in float association
    order visible in the peeling weights.  The 56 core-to-core edges come
    last, so in an insert stream over the tail each of them seeds the
    reorder at a core vertex and recovers its weight.
    """
    rng = random.Random(5)

    def endpoint():
        return rng.randrange(8) if rng.random() < 0.5 else rng.randrange(8, 400)

    seen, edges, degree = set(), [], [0] * 400
    while len(edges) < 2400:
        src, dst = endpoint(), endpoint()
        if src == dst or (src, dst) in seen:
            continue
        seen.add((src, dst))
        edges.append((src, dst, 1.0 + 4.0 * rng.random()))
        degree[src] += 1
        degree[dst] += 1
    assert max(degree) > 128
    edges.sort(key=lambda edge: edge[0] < 8 and edge[1] < 8)
    return edges


def _edges(source, num_vertices, num_edges):
    """The hub-heavy input for ``HUB``, else a random graph seeded by ``source``."""
    if source == HUB:
        return _hub_edges()
    return random_weighted_edges(num_vertices, num_edges, random.Random(source))


def _assert_results_identical(a, b):
    assert list(a.order) == list(b.order)
    assert list(a.weights) == list(b.weights)
    assert a.total_suspiciousness == b.total_suspiciousness
    assert a.best_density == b.best_density
    assert a.community == b.community


def _assert_states_identical(left: PeelingState, right: PeelingState) -> None:
    left.check_consistency()
    right.check_consistency()
    assert list(left.order) == list(right.order)
    assert np.array_equal(left.weights, right.weights)
    assert left.total == right.total
    lc, rc = left.community(), right.community()
    assert lc.vertices == rc.vertices
    assert lc.density == rc.density


@needs_native
class TestStaticDifferential:
    @pytest.mark.parametrize("name", ["DG", "DW", "FD"])
    @pytest.mark.parametrize("seed", [3, 41, HUB])
    def test_peel_csr_bit_identical(self, name, seed):
        semantics = SEMANTICS[name]()
        graph = semantics.materialize(_edges(seed, 40, 220))
        snapshot = freeze_graph(graph)
        python = peel_csr(snapshot, name, kernel="python")
        compiled = peel_csr(snapshot, name, kernel="native")
        _assert_results_identical(python, compiled)
        if seed != HUB:
            # With dyadic weights both also agree with the heap peel over
            # the mutable graph, whichever backend holds it.
            _assert_results_identical(python, peel(graph, name))

    def test_auto_matches_python(self):
        rng = random.Random(9)
        semantics = dw_semantics()
        snapshot = freeze_graph(semantics.materialize(random_weighted_edges(25, 120, rng)))
        _assert_results_identical(
            peel_csr(snapshot, "DW", kernel="auto"),
            peel_csr(snapshot, "DW", kernel="python"),
        )

    def test_singleton_and_empty_graphs(self):
        semantics = dw_semantics()
        for edges in ([], [("a", "b", 1.5)]):
            snapshot = freeze_graph(semantics.materialize(edges))
            _assert_results_identical(
                peel_csr(snapshot, "DW", kernel="python"),
                peel_csr(snapshot, "DW", kernel="native"),
            )


@needs_native
class TestIncrementalDifferential:
    """kernel="python" vs kernel="native" states on the same update stream."""

    def _paired_states(self, semantics, initial):
        states = []
        for kernel in ("python", "native"):
            graph = semantics.materialize(initial)
            states.append(PeelingState(graph, semantics, kernel=kernel))
        return states

    @pytest.mark.parametrize(
        "name, source",
        [pytest.param(name, 17, id=name) for name in SEMANTICS]
        + [pytest.param(name, HUB, id=f"{HUB}-{name}") for name in SEMANTICS],
    )
    def test_insert_stream(self, name, source):
        semantics = SEMANTICS[name]()
        edges = _edges(source, 24, 120)
        # The hub input loads most of its edges and inserts the last 100.
        split = len(edges) - 100 if source == HUB else 60
        python_state, native_state = self._paired_states(semantics, edges[:split])
        _assert_states_identical(python_state, native_state)
        for src, dst, weight in edges[split:]:
            insert_edge(python_state, src, dst, weight)
            insert_edge(native_state, src, dst, weight)
            _assert_states_identical(python_state, native_state)

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_mixed_stream_property(self, seed):
        """Random insert/batch/delete streams stay bit-identical throughout."""
        rng = random.Random(seed)
        semantics = dw_semantics()
        edges = random_weighted_edges(26, 140, rng)
        python_state, native_state = self._paired_states(semantics, edges[:70])
        live = list(edges[:70])
        cursor = 70
        for _round in range(10):
            action = rng.choice(["insert", "batch", "delete"])
            if action == "insert" and cursor < len(edges):
                src, dst, weight = edges[cursor]
                cursor += 1
                insert_edge(python_state, src, dst, weight)
                insert_edge(native_state, src, dst, weight)
                live.append((src, dst, weight))
            elif action == "batch":
                batch = [
                    (rng.randrange(26, 34), rng.randrange(26), dyadic_weight(rng))
                    for _ in range(rng.randint(1, 5))
                ]
                insert_batch(python_state, list(batch))
                insert_batch(native_state, list(batch))
                live.extend(batch)
            elif live:
                src, dst, _w = live.pop(rng.randrange(len(live)))
                live = [e for e in live if (e[0], e[1]) != (src, dst)]
                delete_edges(python_state, [(src, dst)])
                delete_edges(native_state, [(src, dst)])
            _assert_states_identical(python_state, native_state)

    def test_engine_config_kernel_round_trip(self):
        rng = random.Random(23)
        edges = random_weighted_edges(18, 80, rng)
        communities = []
        for kernel in ("python", "native", "auto"):
            config = EngineConfig(semantics="DW", kernel=kernel)
            assert EngineConfig.from_dict(config.to_dict()) == config
            engine = config.build()
            engine.load_edges(edges[:50])
            for src, dst, weight in edges[50:]:
                engine.insert_edge(src, dst, weight)
            communities.append(engine.detect())
        assert communities[0].vertices == communities[1].vertices == communities[2].vertices
        assert communities[0].density == communities[1].density == communities[2].density


def _assert_kernel_view_matches(graph: ArrayGraph) -> None:
    """The kernel's ``(base, start, length)`` view of every id is its incidence."""
    adjacency = graph.native_adjacency()
    out_nbr, out_w, out_start, out_len, in_nbr, in_w, in_start, in_len = adjacency
    assert len(out_start) == len(out_len) == len(in_start) == len(in_len)
    assert len(out_start) >= len(graph.interner)
    for vid in range(len(out_start)):
        runs = []
        for nbr, w, start, length in (
            (out_nbr, out_w, out_start[vid], out_len[vid]),
            (in_nbr, in_w, in_start[vid], in_len[vid]),
        ):
            assert 0 <= start and start + length <= len(nbr) == len(w)
            runs.append((nbr[start : start + length], w[start : start + length]))
        ids, weights = graph.incident_arrays_id(vid)
        assert np.array_equal(np.concatenate([runs[0][0], runs[1][0]]), ids)
        assert np.array_equal(np.concatenate([runs[0][1], runs[1][1]]), weights)


def _compacted_graph(seed: int = 1):
    """An array graph whose last append compacted an arena, plus unused edges."""
    graph = ArrayGraph()
    edges = random_weighted_edges(30, 300, random.Random(seed))
    return graph, add_until_compaction(graph, edges)


class TestArrayGraphArena:
    """The kernel walks the arenas as they are at each call, whatever moved them."""

    def test_view_survives_growth_and_removal(self):
        rng = random.Random(31)
        graph = ArrayGraph()
        graph.add_edge("hub", "v0", 1.0)
        _assert_kernel_view_matches(graph)
        # Enough hub edges to move its runs several times and grow the arenas.
        for i in range(1, 80):
            graph.add_edge("hub", f"v{i}", 1.0 + i / 64.0)
            graph.add_edge(f"v{i}", "hub", 0.5)
        _assert_kernel_view_matches(graph)
        for i in range(0, 40, 3):
            graph.remove_edge("hub", f"v{i}")
        _assert_kernel_view_matches(graph)
        # New vertices grow the per-id arrays.
        for i in range(30):
            graph.add_edge(f"x{i}", f"y{i}", dyadic_weight(rng))
        _assert_kernel_view_matches(graph)

    def test_view_after_compaction(self):
        graph, rest = _compacted_graph()
        _assert_kernel_view_matches(graph)
        for src, dst, weight in rest[:40]:
            graph.add_edge(src, dst, weight)
        _assert_kernel_view_matches(graph)

    def test_view_after_copy(self):
        graph, rest = _compacted_graph(seed=2)
        clone = graph.copy()
        _assert_kernel_view_matches(clone)
        for src, dst, weight in rest[:30]:
            clone.add_edge(src, dst, weight)
        clone.remove_edge(*rest[0][:2])
        _assert_kernel_view_matches(clone)
        _assert_kernel_view_matches(graph)
        assert graph.num_edges() + 29 == clone.num_edges()

    def test_view_after_from_csr(self):
        source, rest = _compacted_graph(seed=3)
        graph = ArrayGraph.from_csr(source.freeze())
        _assert_kernel_view_matches(graph)
        # Every run is full: the first append moves it and grows the arena.
        for src, dst, weight in rest[:30]:
            graph.add_edge(src, dst, weight)
        _assert_kernel_view_matches(graph)

    def test_freeze_round_trips_through_from_csr_after_mixed_stream(self):
        rng = random.Random(47)
        graph = ArrayGraph()
        live = []
        for step in range(600):
            if live and rng.random() < 0.25:
                src, dst = live.pop(rng.randrange(len(live)))
                graph.remove_edge(src, dst)
                continue
            src, dst = rng.randrange(40), rng.randrange(40)
            if src != dst:
                if not graph.has_edge(src, dst):
                    live.append((src, dst))
                graph.add_edge(src, dst, dyadic_weight(rng))
        frozen = graph.freeze()
        again = ArrayGraph.from_csr(frozen).freeze()
        for name in CSR_ARRAY_FIELDS:
            assert np.array_equal(getattr(again, name), getattr(frozen, name)), name
            assert getattr(again, name).dtype == getattr(frozen, name).dtype, name
        assert again.labels == frozen.labels
        assert again.total_edge_weight == frozen.total_edge_weight

    @needs_native
    @pytest.mark.parametrize("layout", ["compacted", "from_csr"])
    def test_native_reorder_matches_python(self, layout):
        """Updates landing on a just-compacted / slack-free arena reorder alike."""
        semantics = dw_semantics()
        states = []
        for kernel in ("python", "native"):
            graph, rest = _compacted_graph(seed=5)
            if layout == "from_csr":
                graph = ArrayGraph.from_csr(graph.freeze())
            states.append(PeelingState(graph, semantics, kernel=kernel))
        python_state, native_state = states
        _assert_states_identical(python_state, native_state)
        for src, dst, weight in rest[:40]:
            insert_edge(python_state, src, dst, weight)
            insert_edge(native_state, src, dst, weight)
            _assert_states_identical(python_state, native_state)
        for src, dst, _weight in rest[:40:7]:
            delete_edges(python_state, [(src, dst)])
            delete_edges(native_state, [(src, dst)])
            _assert_states_identical(python_state, native_state)


class TestBuildLayer:
    @needs_compiler
    def test_compile_cache_reuse(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        cold = native_build.ensure_built()
        assert cold.ok, cold.error
        assert not cold.cached
        assert cold.build_ms > 0
        warm = native_build.ensure_built()
        assert warm.ok
        assert warm.cached
        assert warm.so_path == cold.so_path

    def test_missing_compiler_reports_instead_of_raising(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CC", str(tmp_path / "missing-cc"))
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        result = native_build.ensure_built()
        assert not result.ok
        assert "no C compiler" in result.error

    def test_status_keys(self):
        report = native.status()
        for key in (
            "default_kernel",
            "available",
            "cc",
            "cache_dir",
            "peel",
            "reorder",
            "reason",
            "so_path",
        ):
            assert key in report
        assert report["default_kernel"] in native.VALID_KERNELS
        if report["available"]:
            assert report["peel"] is True
            assert report["so_path"]
            assert report["reason"] is None


class TestFailurePolicy:
    @pytest.fixture(autouse=True)
    def _unavailable(self, monkeypatch):
        """Simulate kernel unavailability without touching the filesystem."""
        monkeypatch.setattr(native, "get_kernels", lambda: None)
        monkeypatch.setattr(native, "_warned_fallback", False)

    def test_native_request_fails_loud(self):
        with pytest.raises(KernelUnavailableError) as excinfo:
            native.resolve_kernel("native")
        assert excinfo.value.reason

    def test_peel_csr_native_fails_loud(self):
        snapshot = freeze_graph(dw_semantics().materialize([("a", "b", 1.0)]))
        with pytest.raises(KernelUnavailableError):
            peel_csr(snapshot, "DW", kernel="native")

    def test_auto_warns_once_then_serves_python(self):
        snapshot = freeze_graph(
            dw_semantics().materialize([("a", "b", 2.0), ("b", "c", 1.0), ("a", "c", 1.5)])
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = peel_csr(snapshot, "DW", kernel="auto")
            second = peel_csr(snapshot, "DW", kernel="auto")
        _assert_results_identical(first, second)
        fallback = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "native kernels unavailable" in str(w.message)
        ]
        assert len(fallback) == 1

    def test_python_request_never_touches_native(self):
        assert native.resolve_kernel("python") == "python"


class TestNoCompilerSubprocess:
    """A fresh process without a usable ``cc``: auto serves, native raises."""

    def test_auto_serves_and_native_raises(self, tmp_path):
        code = textwrap.dedent(
            """
            import warnings

            from repro import native
            from repro.errors import KernelUnavailableError
            from repro.graph.csr import freeze_graph
            from repro.peeling.semantics import dw_semantics
            from repro.peeling.static import peel_csr

            assert not native.available()
            snapshot = freeze_graph(dw_semantics().materialize(
                [("a", "b", 2.0), ("b", "c", 1.0), ("a", "c", 1.5)]
            ))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = peel_csr(snapshot, "DW", kernel="auto")
            assert len(result.order) == 3
            assert any(
                "native kernels unavailable" in str(w.message) for w in caught
            ), "auto fallback must warn"
            try:
                peel_csr(snapshot, "DW", kernel="native")
            except KernelUnavailableError as exc:
                assert "no C compiler" in str(exc)
                print("SUBPROCESS-OK")
            else:
                raise SystemExit("kernel='native' did not fail loud")
            """
        )
        env = dict(os.environ)
        env["REPRO_NATIVE_CC"] = str(tmp_path / "missing-cc")
        env["REPRO_NATIVE_CACHE"] = str(tmp_path / "empty-cache")
        env.pop("REPRO_KERNEL", None)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "SUBPROCESS-OK" in proc.stdout
