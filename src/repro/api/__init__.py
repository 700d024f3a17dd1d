"""``repro.api`` — the stable, versioned public surface (v1).

One config object, one client, one update stream, one report:

* :class:`EngineConfig` — every construction knob (semantics, backend,
  shards, edge grouping, coordinator interval, kernel, serving) in a
  single validated frozen dataclass with dict/JSON round-tripping;
* :class:`SpadeClient` — the context-manager façade over the engine
  layer: ``load`` / ``apply`` / ``detect`` / ``snapshot`` /
  ``communities``;
* :class:`Insert` / :class:`InsertBatch` / :class:`Delete` /
  :class:`Flush` — the typed tagged-union update stream consumed by
  :meth:`SpadeClient.apply` (interoperable with the structural
  :class:`~repro.graph.delta.EdgeUpdate`);
* :class:`DetectionReport` / :class:`EventOutcome` — the unified
  structured result (community, density, per-event outcomes, reorder
  stats, timing, exactness).

Everything else in the package — the engine internals, the graph
backends, the bench harness — may keep churning behind this surface;
consumers (and the future native backend) program against ``repro.api``
only.
"""

from __future__ import annotations

from repro.api.client import SpadeClient
from repro.api.config import EngineConfig
from repro.api.events import Delete, Event, Flush, Insert, InsertBatch, as_events
from repro.api.report import DetectionReport, EventOutcome
from repro.config import (
    SEMANTICS_FACTORIES,
    VALID_BACKENDS,
    VALID_SEMANTICS,
    semantics_instance,
    validate_config,
)
from repro.errors import ConfigError

#: The v1 API surface — the contract test snapshots this list.
__all__ = [
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
]
