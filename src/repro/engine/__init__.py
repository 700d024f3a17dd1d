"""The engine layer: one protocol, two interchangeable implementations.

* :class:`~repro.engine.protocol.DetectionEngine` — the structural
  protocol (load / detect / insert / insert_batch / delete / flush /
  enumerate) extracted from the historical ``Spade`` surface;
* :class:`~repro.core.spade.Spade` — the paper's single engine (re-exported
  here as the single-shard implementation);
* :class:`~repro.engine.sharded.ShardedSpade` — hash-partitioned shard
  engines behind a coordinator queue;
* :func:`create_engine` — the factory consumers (streaming replay, the
  Grab pipeline, the bench harness) construct engines through.
"""

from __future__ import annotations

from typing import Optional

from repro.config import validate_config
from repro.core.spade import Spade
from repro.engine.protocol import DetectionEngine
from repro.engine.router import ShardRouter
from repro.engine.sharded import ShardedSpade
from repro.peeling.semantics import PeelingSemantics

__all__ = [
    "DetectionEngine",
    "Spade",
    "ShardedSpade",
    "ShardRouter",
    "create_engine",
]


def create_engine(
    semantics: Optional[PeelingSemantics] = None,
    shards: int = 1,
    edge_grouping: bool = False,
    backend: Optional[str] = None,
    kernel: Optional[str] = None,
    **sharded_options,
) -> DetectionEngine:
    """Build a detection engine: single-shard ``Spade`` or ``ShardedSpade``.

    ``shards <= 1`` returns the plain single engine; anything larger
    returns a :class:`ShardedSpade` partitioned over that many shard
    engines.  ``kernel`` selects the hot-loop implementation
    (``"python"`` / ``"native"`` / ``"auto"``; ``None`` = process
    default).  ``sharded_options`` (``coordinator_interval``) are
    forwarded to :class:`ShardedSpade` and rejected for the single engine.

    Prefer constructing through :class:`repro.api.EngineConfig` /
    :class:`repro.api.SpadeClient`; this factory is the layer they build
    on.
    """
    validate_config(backend=backend, kernel=kernel)
    if shards <= 1:
        if sharded_options:
            unknown = ", ".join(sorted(sharded_options))
            raise TypeError(f"single-engine Spade accepts no sharded options ({unknown})")
        return Spade(semantics, edge_grouping=edge_grouping, backend=backend, kernel=kernel)
    return ShardedSpade(
        semantics,
        num_shards=shards,
        edge_grouping=edge_grouping,
        backend=backend,
        kernel=kernel,
        **sharded_options,
    )
