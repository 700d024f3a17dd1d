"""The sharded engine layer: protocol, router, and differential exactness.

The central contract under test: ``ShardedSpade.detect()`` — the merged
coordinator-pass detection — is *identical* to single-engine
``Spade.detect()`` for DG / DW / FD over mixed insert / delete / batch
replays, for every shard count.  On dyadic streams the equality is bit
level (sequence, weights, density).  FD's non-dyadic weights let the
single engine's *maintained* sequence settle on a different valid peel
than a fresh one; there the sharded result must equal a fresh peel of
the same graph bit for bit, and the single engine's sequence must be a
valid peel of it.

Also covered here: the ``DetectionEngine`` protocol conformance of both
implementations, the deterministic and balanced router partition,
cross-shard queue semantics, the ``Spade.flush_pending`` empty-buffer
fast path the coordinator tick relies on, and per-shard edge grouping.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.grouping import EdgeGrouper
from repro.core.spade import Spade
from repro.engine import DetectionEngine, ShardRouter, ShardedSpade, create_engine
from repro.errors import StateError
from repro.peeling.semantics import (
    dg_semantics,
    dw_semantics,
    fraudar_semantics,
)
from repro.peeling.guarantees import is_valid_peeling_sequence
from repro.peeling.static import peel
from repro.workloads.grab import GrabConfig, generate_grab_dataset

from tests.helpers import random_weighted_edges

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

SEMANTICS_FACTORIES = {
    "DG": dg_semantics,
    "DW": dw_semantics,
    "FD": fraudar_semantics,
}

SHARD_COUNTS = [1, 2, 4]


def _assert_exact_match(single: Spade, sharded: ShardedSpade, exact_floats: bool = True) -> None:
    """Equality of the two engines' detections and sequences.

    With dyadic edge suspiciousness (DG / DW on dyadic raw weights) every
    float operation is exact, so the merged sharded detection must equal
    the single engine's maintained one bit for bit.

    With non-dyadic weights (FD's ``1/log``) the *single* engine's
    maintained sequence may be a different valid peel than a from-scratch
    peel of its own graph: ulp-level drift flips near-tie orderings, and
    the community can move with them (``--hypothesis-seed=11`` finds one
    with densities 0.5792 vs 0.5581).  The sharded layer itself must
    still introduce **zero** error, which is asserted by requiring its
    merged result to be bit-identical to a fresh peel of the single
    engine's graph; the maintained sequence need only be a valid peel.
    """
    c1, c2 = single.detect(), sharded.detect()
    r1, r2 = single.result(), sharded.result()
    if exact_floats:
        assert c1.vertices == c2.vertices
        assert c1.peel_index == c2.peel_index
        assert c1.density == c2.density
        assert list(r1.order) == list(r2.order)
        assert list(r1.weights) == list(r2.weights)
    else:
        fresh = peel(single.graph, single.semantics.name)
        assert list(fresh.order) == list(r2.order)
        assert list(fresh.weights) == list(r2.weights)
        assert fresh.community == c2.vertices
        check = is_valid_peeling_sequence(single.graph, r1.order, r1.weights)
        assert check.valid, check.message


@st.composite
def dyadic_streams(draw):
    """A dyadic initial edge list plus a mixed insert/delete update script."""
    n = draw(st.integers(4, 16))
    rng = random.Random(draw(st.integers(0, 2**20)))
    initial = random_weighted_edges(n, draw(st.integers(3, 40)), rng)
    script = []
    applied = list(initial)
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["insert", "batch", "delete"]))
        if kind == "delete" and applied:
            count = draw(st.integers(1, min(4, len(applied))))
            doomed = [applied.pop(rng.randrange(len(applied)))[:2] for _ in range(count)]
            script.append(("delete", doomed))
        else:
            fresh = random_weighted_edges(n + 4, draw(st.integers(1, 6)), rng)
            applied.extend(fresh)
            script.append(("insert" if kind == "delete" else kind, fresh))
    return initial, script


class TestProtocol:
    """Both implementations structurally satisfy DetectionEngine."""

    def test_spade_satisfies_protocol(self):
        spade = Spade(dg_semantics())
        spade.load_edges([("a", "b"), ("b", "c")])
        assert isinstance(spade, DetectionEngine)

    def test_sharded_satisfies_protocol(self):
        sharded = ShardedSpade(dg_semantics(), num_shards=2)
        sharded.load_edges([("a", "b"), ("b", "c")])
        assert isinstance(sharded, DetectionEngine)

    def test_create_engine_dispatch(self):
        assert isinstance(create_engine(shards=1), Spade)
        sharded = create_engine(shards=3)
        assert isinstance(sharded, ShardedSpade)
        assert sharded.num_shards == 3

    def test_create_engine_rejects_sharded_options_for_single(self):
        with pytest.raises(TypeError):
            create_engine(shards=1, coordinator_interval=8)

    def test_sharded_requires_load(self):
        sharded = ShardedSpade(dg_semantics(), num_shards=2)
        with pytest.raises(StateError):
            sharded.detect()
        with pytest.raises(StateError):
            sharded.insert_edge("a", "b")


class TestShardRouter:
    """The partition map is deterministic and label-hash independent."""

    def test_partition_is_deterministic_and_total(self):
        sharded = ShardedSpade(dw_semantics(), num_shards=4)
        sharded.load_edges([(f"u{i}", f"u{i + 1}", 1.0) for i in range(50)])
        router = sharded.router
        counts = router.partition_counts()
        assert sum(counts) == 51
        for label in sharded.graph.vertices():
            assert 0 <= router.shard_of(label) < 4
            assert router.shard_of(label) == router.shard_of(label)

    def test_route_edge_owned_by_source_home(self):
        sharded = ShardedSpade(dw_semantics(), num_shards=2)
        sharded.load_edges([("a", "b", 1.0), ("b", "c", 1.0)])
        router = sharded.router
        for src, dst in [("a", "b"), ("b", "c")]:
            home, cross = router.route_edge(src, dst)
            assert home == router.shard_of(src)
            assert cross == (router.shard_of(dst) != home)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            ShardedSpade(num_shards=0)
        with pytest.raises(ValueError):
            ShardRouter(None, 0)


class TestShardRouterBalance:
    """The multiplicative hash spreads dense ids evenly across shards."""

    @pytest.mark.parametrize("num_shards", [2, 4, 8])
    def test_consecutive_ids_are_near_uniform(self, num_shards):
        router = ShardRouter.__new__(ShardRouter)
        router.num_shards = num_shards
        total = 20000
        counts = [0] * num_shards
        for vid in range(total):
            counts[router.shard_of_id(vid)] += 1
        expected = total / num_shards
        # Pearson chi-square against uniform; p=0.001 critical values are
        # 10.8 (df=1), 16.3 (df=3), 24.3 (df=7) — a clumping hash (e.g.
        # ``vid % k`` over strided cohorts) blows straight past these.
        chi2 = sum((count - expected) ** 2 / expected for count in counts)
        assert chi2 < 24.3
        assert max(counts) - min(counts) <= 0.02 * expected

    @pytest.mark.parametrize("num_shards", [4, 8])
    def test_random_id_subsets_stay_balanced(self, num_shards):
        # Active-vertex sets are arbitrary subsets of the id space, not
        # prefixes; the partition must stay balanced on those too.
        router = ShardRouter.__new__(ShardRouter)
        router.num_shards = num_shards
        rng = random.Random(1234)
        sample = rng.sample(range(10**6), 8000)
        counts = [0] * num_shards
        for vid in sample:
            counts[router.shard_of_id(vid)] += 1
        expected = len(sample) / num_shards
        chi2 = sum((count - expected) ** 2 / expected for count in counts)
        assert chi2 < 24.3


class TestShardedDifferential:
    """ShardedSpade.detect() is identical to single-engine Spade.detect()."""

    @SETTINGS
    @given(data=dyadic_streams(), semantics_index=st.integers(0, 2), shards=st.sampled_from(SHARD_COUNTS))
    def test_mixed_replays_match_single_engine(self, data, semantics_index, shards):
        initial, script = data
        name, factory = list(SEMANTICS_FACTORIES.items())[semantics_index]
        exact_floats = name != "FD"  # FD's 1/log weights are not dyadic
        single = Spade(factory())
        single.load_edges(initial)
        sharded = ShardedSpade(factory(), num_shards=shards, coordinator_interval=4)
        sharded.load_edges(initial)
        _assert_exact_match(single, sharded, exact_floats)
        for kind, payload in script:
            if kind == "insert":
                for src, dst, weight in payload:
                    single.insert_edge(src, dst, weight)
                    sharded.insert_edge(src, dst, weight)
            elif kind == "batch":
                single.insert_batch_edges(payload)
                sharded.insert_batch_edges(payload)
            else:
                single.delete_edges(payload)
                sharded.delete_edges(payload)
            _assert_exact_match(single, sharded, exact_floats)

    @pytest.mark.parametrize("algo", ["DG", "DW", "FD"])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_grab_replay_communities_identical(self, algo, shards, tiny_grab_dataset):
        """DG/DW/FD replay workloads: identical communities and order.

        The lognormal weights make the maintained total drift from a
        from-scratch sum by ulps, so the density is compared relatively
        while membership and order must match exactly.
        """
        factory = SEMANTICS_FACTORIES[algo]
        semantics = factory()
        single = Spade(semantics)
        single.load_graph(tiny_grab_dataset.initial_graph(semantics))
        sharded_semantics = factory()
        sharded = ShardedSpade(sharded_semantics, num_shards=shards, coordinator_interval=64)
        sharded.load_graph(tiny_grab_dataset.initial_graph(sharded_semantics))

        increments = list(tiny_grab_dataset.increments)
        third = max(1, len(increments) // 3)
        for edge in increments[:third]:
            single.insert_edge(edge.src, edge.dst, edge.weight)
            sharded.insert_edge(edge.src, edge.dst, edge.weight)
        single.insert_batch_edges([e.as_update() for e in increments[third : 2 * third]])
        sharded.insert_batch_edges([e.as_update() for e in increments[third : 2 * third]])
        doomed = [(src, dst) for src, dst, _ in tiny_grab_dataset.initial_edges[:100]]
        single.delete_edges(doomed)
        sharded.delete_edges(doomed)
        for edge in increments[2 * third :]:
            single.insert_edge(edge.src, edge.dst, edge.weight)
            sharded.insert_edge(edge.src, edge.dst, edge.weight)

        c1, c2 = single.detect(), sharded.detect()
        assert c1.vertices == c2.vertices
        assert c1.peel_index == c2.peel_index
        assert c2.density == pytest.approx(c1.density, rel=1e-9)
        if algo != "FD":
            # The lognormal raw weights pass through DG/DW's esusp exactly,
            # so even the full maintained sequence must match the merged
            # one.  FD's 1/log weights add the maintained-vs-fresh ulp
            # jitter deep in the peel tail (community unaffected).
            r1, r2 = single.result(), sharded.result()
            assert list(r1.order) == list(r2.order)

    def test_enumerate_frauds_matches_single_engine(self, tiny_grab_dataset):
        semantics = dw_semantics()
        single = Spade(semantics)
        single.load_graph(tiny_grab_dataset.initial_graph(semantics))
        sharded_semantics = dw_semantics()
        sharded = ShardedSpade(sharded_semantics, num_shards=4)
        sharded.load_graph(tiny_grab_dataset.initial_graph(sharded_semantics))
        for edge in list(tiny_grab_dataset.increments)[:200]:
            single.insert_edge(edge.src, edge.dst, edge.weight)
            sharded.insert_edge(edge.src, edge.dst, edge.weight)
        mine = sharded.enumerate_frauds(max_instances=3)
        theirs = single.enumerate_frauds(max_instances=3)
        assert [i.vertices for i in mine] == [i.vertices for i in theirs]


class TestCrossShardQueue:
    """Parked cross-shard updates behave like immediately applied ones."""

    def _engines(self, shards=4, interval=1024):
        rng = random.Random(5)
        initial = random_weighted_edges(30, 120, rng)
        single = Spade(dw_semantics())
        single.load_edges(initial)
        sharded = ShardedSpade(dw_semantics(), num_shards=shards, coordinator_interval=interval)
        sharded.load_edges(initial)
        return single, sharded, rng

    def test_queue_drained_by_detect(self):
        single, sharded, rng = self._engines()
        fresh = random_weighted_edges(40, 30, rng)
        for src, dst, weight in fresh:
            single.insert_edge(src, dst, weight)
            sharded.insert_edge(src, dst, weight)
        assert sharded.pending_edges() > 0  # some updates crossed shards
        _assert_exact_match(single, sharded)  # detect() drains the queue
        assert sharded.pending_edges() == 0

    def test_coordinator_interval_triggers_eager_pass(self):
        _, sharded, rng = self._engines(interval=4)
        fresh = random_weighted_edges(40, 40, rng)
        for src, dst, weight in fresh:
            sharded.insert_edge(src, dst, weight)
            assert sharded.pending_edges() < 4 + 1
        assert sharded.coordinator_flushes > 0

    def test_delete_of_parked_edge(self):
        """A cross-shard insert immediately followed by its delete nets out."""
        single, sharded, _ = self._engines()
        # Find a cross-shard pair of fresh labels.
        router = sharded.router
        sharded.insert_edge("fresh-x", "fresh-y", 2.0)
        single.insert_edge("fresh-x", "fresh-y", 2.0)
        single.delete_edges([("fresh-x", "fresh-y")])
        sharded.delete_edges([("fresh-x", "fresh-y")])
        _assert_exact_match(single, sharded)
        assert not sharded.graph.has_edge("fresh-x", "fresh-y")

    def test_batch_rejects_deletions_like_single_engine(self):
        from repro.graph.delta import EdgeUpdate

        single, sharded, _ = self._engines()
        bad = [EdgeUpdate("a", "b", delete=True)]
        with pytest.raises(ValueError):
            single.insert_batch_edges(bad)
        with pytest.raises(ValueError):
            sharded.insert_batch_edges(bad)
        _assert_exact_match(single, sharded)  # nothing was applied

    def test_unknown_edge_deletion_ignored(self):
        single, sharded, _ = self._engines()
        single.delete_edges([("no-such", "edge")])
        sharded.delete_edges([("no-such", "edge")])
        _assert_exact_match(single, sharded)

    def test_local_density_is_lower_bound(self):
        single, sharded, rng = self._engines()
        for src, dst, weight in random_weighted_edges(40, 30, rng):
            single.insert_edge(src, dst, weight)
            sharded.insert_edge(src, dst, weight)
        exact = sharded.detect()
        local = sharded.detect_local()
        assert local.density <= exact.density + 1e-12

    def test_local_density_lower_bound_survives_parked_deletes(self):
        """Parked cross-shard deletes must not inflate the local density.

        Without draining deletes first, removed weight would stay visible
        in shard states and the local density could *exceed* the global
        one, flipping is_benign's safety direction (an urgent edge
        classified benign and deferred).
        """
        block = [(f"b{i}", f"b{j}", 8.0) for i in range(6) for j in range(6) if i != j]
        single = Spade(dw_semantics())
        single.load_edges(block)
        sharded = ShardedSpade(dw_semantics(), num_shards=4, coordinator_interval=10_000)
        sharded.load_edges(block)
        doomed = [(s, d) for s, d, _ in block[:-1]]
        single.delete_edges(doomed)
        sharded.delete_edges(doomed)
        local = sharded.detect_local()
        exact = sharded.detect()
        assert local.density <= exact.density + 1e-12
        # And the benign classification agrees with the single engine.
        assert sharded.is_benign("x", "y", 5.0) == single.is_benign("x", "y", 5.0)
        _assert_exact_match(single, sharded)

    def test_shard_communities_cover_all_shards(self):
        _, sharded, _ = self._engines(shards=3)
        communities = sharded.shard_communities()
        assert len(communities) == 3


class TestFlushPendingFastPath:
    """Spade.flush_pending with an empty buffer must not touch the grouper."""

    def test_empty_flush_returns_cached_community(self, monkeypatch):
        spade = Spade(dw_semantics(), edge_grouping=True)
        rng = random.Random(3)
        spade.load_edges(random_weighted_edges(20, 60, rng))
        cached = spade.detect()

        calls = {"flush": 0}
        original = EdgeGrouper.flush

        def counting_flush(self):
            calls["flush"] += 1
            return original(self)

        monkeypatch.setattr(EdgeGrouper, "flush", counting_flush)
        result = spade.flush_pending()
        assert result is cached  # cache hit: no re-peel, no new detection scan
        assert calls["flush"] == 0  # the grouper was never invoked

    def test_nonempty_flush_still_applies(self):
        spade = Spade(dw_semantics(), edge_grouping=True)
        rng = random.Random(4)
        spade.load_edges(random_weighted_edges(20, 60, rng))
        # A tiny-weight edge between fresh vertices is benign and buffered.
        spade.insert_edge("quiet-a", "quiet-b", 1e-6)
        assert spade.pending_edges() == 1
        spade.flush_pending()
        assert spade.pending_edges() == 0
        assert spade.graph.has_edge("quiet-a", "quiet-b")

    def test_sharded_coordinator_tick_uses_fast_path(self, monkeypatch):
        sharded = ShardedSpade(dw_semantics(), num_shards=2, edge_grouping=True)
        rng = random.Random(5)
        sharded.load_edges(random_weighted_edges(20, 60, rng))
        sharded.detect()  # settle: queue drained, groupers empty

        calls = {"flush": 0}
        original = EdgeGrouper.flush

        def counting_flush(self):
            calls["flush"] += 1
            return original(self)

        monkeypatch.setattr(EdgeGrouper, "flush", counting_flush)
        sharded.detect()  # every tick calls shard.flush_pending()
        assert calls["flush"] == 0


class TestShardGrouping:
    """Per-shard grouping keeps detection exact; shards stay exact peels."""

    def test_grouped_sharded_detect_matches_ungrouped_single(self):
        rng = random.Random(6)
        initial = random_weighted_edges(25, 80, rng)
        single = Spade(dw_semantics())
        single.load_edges(initial)
        sharded = ShardedSpade(dw_semantics(), num_shards=3, edge_grouping=True)
        sharded.load_edges(initial)
        for src, dst, weight in random_weighted_edges(30, 40, rng):
            single.insert_edge(src, dst, weight)
            sharded.insert_edge(src, dst, weight)
        # Merged detection flushes the shard groupers, so deferral is
        # invisible to the exact result.
        _assert_exact_match(single, sharded)

    def test_shard_communities_match_static_peel_of_each_shard(self):
        rng = random.Random(7)
        sharded = ShardedSpade(dw_semantics(), num_shards=2, coordinator_interval=8)
        sharded.load_edges(random_weighted_edges(25, 90, rng))
        for src, dst, weight in random_weighted_edges(30, 40, rng):
            sharded.insert_edge(src, dst, weight)
        communities = sharded.shard_communities()
        assert len(communities) == 2
        for shard, community in zip(sharded.shards, communities):
            fresh = peel(shard.graph, "DW")
            assert community.vertices == fresh.community
            assert community.density == fresh.best_density


class TestSeedThreading:
    """Generators replay bit-identical streams for equal seeds."""

    def test_grab_generation_is_seed_deterministic(self):
        config = GrabConfig(
            name="det", num_customers=120, num_merchants=30, num_edges=600,
            fraud_instances_per_pattern=1, seed=11,
        )
        a = generate_grab_dataset(config)
        b = generate_grab_dataset(config)
        assert a.initial_edges == b.initial_edges
        assert [
            (e.src, e.dst, e.timestamp, e.weight, e.fraud_label) for e in a.increments
        ] == [(e.src, e.dst, e.timestamp, e.weight, e.fraud_label) for e in b.increments]

    def test_explicit_int_seed_matches_config_seed(self):
        config = GrabConfig(
            name="det", num_customers=80, num_merchants=20, num_edges=400, seed=13,
        )
        a = generate_grab_dataset(config)
        b = generate_grab_dataset(config, rng=13)
        assert a.initial_edges == b.initial_edges

    def test_injectors_accept_int_seeds(self):
        from repro.workloads.fraud import inject_collusion

        a = inject_collusion(21, label="x", start=0.0)
        b = inject_collusion(21, label="x", start=0.0)
        assert [(e.src, e.dst, e.timestamp, e.weight) for e in a.edges] == [
            (e.src, e.dst, e.timestamp, e.weight) for e in b.edges
        ]

    def test_injectors_reject_junk_rng(self):
        from repro.errors import WorkloadError
        from repro.workloads.fraud import as_generator

        with pytest.raises(WorkloadError):
            as_generator("not-an-rng")
