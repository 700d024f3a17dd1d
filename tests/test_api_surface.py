"""Public-API contract tests: surface snapshots, deprecations, config.

The v1 façade (`repro.api`) is a compatibility contract: this module
snapshots the exported surfaces (so accidental additions/removals fail
loudly in review), pins the deprecation shims to exactly the renamed
methods, and exercises the ``EngineConfig`` round-trip + central
validation guarantees the rest of the repo relies on.
"""

from __future__ import annotations

import warnings

import pytest

import repro
import repro.api
from repro.api import (
    Delete,
    EngineConfig,
    Flush,
    Insert,
    InsertBatch,
    SpadeClient,
    as_events,
    validate_config,
)
from repro.errors import ConfigError
from repro.graph.delta import EdgeUpdate, GraphDelta


#: The frozen v1 surface of the package root.  Additions are deliberate
#: API decisions — update the snapshot in the same PR that makes them.
REPRO_ALL = {
    "__version__",
    "Spade",
    "DetectionEngine",
    "ShardedSpade",
    "create_engine",
    "EngineConfig",
    "SpadeClient",
    "DetectionReport",
    "Insert",
    "InsertBatch",
    "Delete",
    "Flush",
    "ConfigError",
    "validate_config",
    "ArrayGraph",
    "DynamicGraph",
    "VertexInterner",
    "create_graph",
    "get_default_backend",
    "set_default_backend",
    "EdgeUpdate",
    "GraphDelta",
    "PeelingResult",
    "PeelingSemantics",
    "dg_semantics",
    "dw_semantics",
    "fraudar_semantics",
    "peel",
}

#: The frozen v1 surface of ``repro.api``.
REPRO_API_ALL = {
    "EngineConfig",
    "SpadeClient",
    "Insert",
    "InsertBatch",
    "Delete",
    "Flush",
    "Event",
    "as_events",
    "DetectionReport",
    "EventOutcome",
    "ConfigError",
    "validate_config",
    "semantics_instance",
    "SEMANTICS_FACTORIES",
    "VALID_BACKENDS",
    "VALID_SEMANTICS",
}

EDGES = [("a", "b", 2.0), ("b", "c", 1.0), ("a", "c", 4.0), ("c", "d", 2.0)]


class TestSurfaceSnapshots:
    def test_repro_all_snapshot(self):
        assert set(repro.__all__) == REPRO_ALL

    def test_repro_api_all_snapshot(self):
        assert set(repro.api.__all__) == REPRO_API_ALL

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None


#: SpadeClient methods that must emit DeprecationWarning (renamed away).
DEPRECATED_CLIENT_CALLS = [
    ("insert_edge", lambda c: c.insert_edge("x", "y", 1.0)),
    ("insert_batch_edges", lambda c: c.insert_batch_edges([("x", "y", 1.0)])),
    ("delete_edges", lambda c: c.delete_edges([("a", "b")])),
    ("flush_pending", lambda c: c.flush_pending()),
    ("enumerate_frauds", lambda c: c.enumerate_frauds(max_instances=1)),
]

#: The replacement surface must stay warning-free.
CLEAN_CLIENT_CALLS = [
    ("apply", lambda c: c.apply([Insert("x", "y", 1.0)])),
    ("apply-delete", lambda c: c.apply([Delete.of([("a", "b")])])),
    ("flush", lambda c: c.flush()),
    ("detect", lambda c: c.detect()),
    ("communities", lambda c: c.communities(max_instances=1)),
    ("snapshot", lambda c: c.snapshot()),
]


def _loaded_client() -> SpadeClient:
    client = SpadeClient(EngineConfig(semantics="DW"))
    client.load(EDGES)
    return client


class TestDeprecationShims:
    @pytest.mark.parametrize("name,call", DEPRECATED_CLIENT_CALLS, ids=[n for n, _ in DEPRECATED_CLIENT_CALLS])
    def test_legacy_client_methods_warn(self, name, call):
        client = _loaded_client()
        with pytest.warns(DeprecationWarning, match=name):
            call(client)

    @pytest.mark.parametrize("name,call", CLEAN_CLIENT_CALLS, ids=[n for n, _ in CLEAN_CLIENT_CALLS])
    def test_v1_surface_does_not_warn(self, name, call):
        client = _loaded_client()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            call(client)

    def test_legacy_spade_class_does_not_warn(self):
        """The Spade class itself is not deprecated — only the client shims."""
        spade = repro.Spade(repro.dw_semantics())
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            spade.load_edges(EDGES)
            spade.insert_edge("x", "y", 1.0)
            spade.insert_batch_edges([("y", "z", 1.0)])
            spade.delete_edge("x", "y")
            spade.flush_pending()

    def test_shim_results_match_engine(self):
        """The shims delegate — same result objects as the raw engine path."""
        shimmed = _loaded_client()
        legacy = EngineConfig(semantics="DW").build()
        legacy.load_edges(EDGES)
        with pytest.warns(DeprecationWarning):
            via_shim = shimmed.insert_edge("x", "y", 3.0)
        direct = legacy.insert_edge("x", "y", 3.0)
        assert via_shim == direct


class TestEngineConfig:
    def test_round_trip(self):
        cfg = EngineConfig(
            semantics="FD",
            backend="array",
            shards=4,
            edge_grouping=True,
            coordinator_interval=64,
            kernel="python",
        )
        assert EngineConfig.from_dict(cfg.to_dict()) == cfg

    def test_default_round_trip(self):
        cfg = EngineConfig()
        assert EngineConfig.from_dict(cfg.to_dict()) == cfg

    def test_partial_dict_uses_defaults(self):
        cfg = EngineConfig.from_dict({"semantics": "DW", "shards": 2})
        assert cfg == EngineConfig(semantics="DW", shards=2)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="shardz"):
            EngineConfig.from_dict({"shardz": 4})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"semantics": "XX"},
            {"backend": "sqlite"},
            {"shards": 0},
            {"kernel": "gpu"},
            {"coordinator_interval": 0},
        ],
    )
    def test_invalid_knobs_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            EngineConfig(**kwargs)

    def test_config_error_message_lists_choices(self):
        with pytest.raises(ConfigError, match="dict"):
            EngineConfig(backend="postgres")

    def test_config_error_is_value_error(self):
        """Callers that historically caught ValueError keep working."""
        with pytest.raises(ValueError):
            validate_config(backend="postgres")

    def test_replace_revalidates(self):
        cfg = EngineConfig()
        with pytest.raises(ConfigError):
            cfg.replace(shards=-1)

    def test_build_dispatches_on_shards(self):
        assert isinstance(EngineConfig().build(), repro.Spade)
        sharded = EngineConfig(shards=3, coordinator_interval=8).build()
        assert isinstance(sharded, repro.ShardedSpade)
        assert sharded.num_shards == 3


class TestCentralValidation:
    """The one validate_config choke point is used by every constructor."""

    def test_spade_rejects_bad_backend_eagerly(self):
        with pytest.raises(ConfigError):
            repro.Spade(backend="sqlite")

    def test_removed_executor_knob_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown EngineConfig keys: executor"):
            EngineConfig.from_dict({"executor": "serial"})
        removed = {"executor": "serial"}
        with pytest.raises(TypeError):
            repro.ShardedSpade(num_shards=2, **removed)
        with pytest.raises(TypeError):
            repro.create_engine(shards=2, **removed)

    def test_removed_static_knob_is_rejected(self):
        # ``--static`` is a bench-harness axis (ExperimentConfig), not an
        # engine knob: the engine's peels are always peel_csr.
        with pytest.raises(ConfigError, match="unknown EngineConfig keys: static"):
            EngineConfig.from_dict({"static": "csr"})

    def test_sharded_rejects_bad_shards(self):
        with pytest.raises(ConfigError):
            repro.ShardedSpade(num_shards=0)

    def test_create_engine_rejects_bad_backend(self):
        with pytest.raises(ConfigError):
            repro.create_engine(backend="sqlite")


class TestEventInterop:
    def test_edge_update_insert_coerces(self):
        (event,) = list(as_events([EdgeUpdate("a", "b", 2.0)]))
        assert event == Insert("a", "b", 2.0)

    def test_edge_update_delete_coerces(self):
        (event,) = list(as_events([EdgeUpdate("a", "b", delete=True)]))
        assert event == Delete((("a", "b"),))

    def test_tuples_coerce(self):
        events = list(as_events([("a", "b"), ("b", "c", 3.0)]))
        assert events == [Insert("a", "b"), Insert("b", "c", 3.0)]

    def test_graph_delta_coerces(self):
        delta = GraphDelta.from_edges([("a", "b", 1.0), ("b", "c", 2.0)])
        events = list(as_events(delta))
        assert [e.src for e in events] == ["a", "b"]

    def test_single_event_accepted(self):
        assert list(as_events(Flush())) == [Flush()]

    def test_insert_batch_of_normalizes(self):
        batch = InsertBatch.of([("a", "b"), EdgeUpdate("b", "c", 2.0)])
        assert len(batch) == 2
        assert all(isinstance(u, EdgeUpdate) for u in batch.updates)

    def test_strings_rejected(self):
        with pytest.raises(TypeError):
            list(as_events(["ab"]))
