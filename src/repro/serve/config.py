"""``ServeConfig``: the serving-layer knobs, nested inside ``EngineConfig``.

The serving subsystem adds deployment-shaped knobs (port, batch bound,
WAL directory, checkpoint cadence) that belong in the same JSON
document as the engine knobs — one config file describes one deployment.
:class:`ServeConfig` mirrors :class:`repro.api.EngineConfig`'s contract:
a frozen dataclass that validates on construction and round-trips through
plain dicts, so ``EngineConfig.from_dict(json.load(f))`` rebuilds the
whole thing (engine *and* server) from one file.

This module deliberately imports only :mod:`repro.errors` so that
``repro.api.config`` can nest it without pulling the asyncio server stack
into every ``import repro.api``.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.errors import ConfigError
from repro.history.config import HistoryConfig
from repro.obs.config import ObsConfig

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """A complete, validated serving-layer configuration.

    Attributes
    ----------
    host / port:
        Listen address.  ``port=0`` asks the OS for a free port (the
        resolved port is written to ``<wal_dir>/server.json`` and printed
        at startup), which is what the bench and the CI smoke use.
    max_batch:
        Maximum number of edges coalesced into one Algorithm-2 batch pass
        by the ingest gateway.  The gateway never waits to fill a batch:
        it commits whatever queued behind the previous commit.
    queue_size:
        Bound on the ingest queue (in submitted requests).  A full queue
        makes ``POST /v1/edges`` answer ``429`` with ``Retry-After``
        instead of buffering without limit.
    wal_dir:
        Directory for the write-ahead log and snapshot checkpoints.
        ``None`` disables durability entirely (no WAL, no checkpoints,
        no recovery) — useful for benches and throwaway servers.
    fsync:
        Whether every WAL commit is ``fsync``\\ ed before the HTTP
        acknowledgment (durable against power loss, not just process
        crash).
    checkpoint_interval:
        Number of accepted edges between ``.npz`` snapshot checkpoints.
        Checkpoints bound recovery time: restart replays only the WAL
        suffix past the latest checkpoint.
    max_body_bytes:
        Largest request body the HTTP server accepts (``413`` beyond).
    probe_interval_ms:
        While ingest is read-only degraded (WAL append failed), how often
        the background probe re-tests the WAL directory for writability
        before re-entering read-write mode.
    faults:
        Path to a fault-injection plan JSON (``repro.serve.faults``), or
        ``None`` (the production default).  When set, the deployment's
        WAL appends and checkpoint saves run through a
        deterministic :class:`~repro.serve.faults.FaultInjector` — the
        chaos-testing hook behind ``--faults`` and the CI chaos smoke.
    history:
        Historical-analytics sidecar (:class:`repro.history.HistoryConfig`)
        or ``None`` (default: no background indexer, no ``/v1/history``
        endpoints).  As-of reads (``?asof=SEQ``) only need a ``wal_dir``
        and work either way.  A plain mapping coerces via
        ``HistoryConfig.from_dict`` so one JSON document still describes
        the whole deployment.
    obs:
        Observability knobs (:class:`repro.obs.ObsConfig`): trace
        sampling rate, the always-record slow threshold, the JSONL event
        log destination, and the ``/debug/traces`` ring capacity.
        Always present (tracing defaults on at a 10% sample); a plain
        mapping coerces via ``ObsConfig.from_dict``.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_batch: int = 256
    queue_size: int = 1024
    wal_dir: Optional[str] = None
    fsync: bool = True
    checkpoint_interval: int = 10000
    max_body_bytes: int = 8 * 1024 * 1024
    probe_interval_ms: float = 200.0
    faults: Optional[str] = None
    history: Optional[HistoryConfig] = None
    obs: ObsConfig = ObsConfig()

    def __post_init__(self) -> None:
        if isinstance(self.history, Mapping):
            object.__setattr__(
                self, "history", HistoryConfig.from_dict(self.history)
            )
        if self.history is not None and not isinstance(self.history, HistoryConfig):
            raise ConfigError(
                f"history must be a HistoryConfig, a mapping, or None, "
                f"got {self.history!r}"
            )
        if isinstance(self.obs, Mapping):
            object.__setattr__(self, "obs", ObsConfig.from_dict(self.obs))
        if self.obs is None:
            object.__setattr__(self, "obs", ObsConfig())
        if not isinstance(self.obs, ObsConfig):
            raise ConfigError(
                f"obs must be an ObsConfig, a mapping, or None, got {self.obs!r}"
            )
        if not isinstance(self.host, str) or not self.host:
            raise ConfigError(f"host must be a non-empty string, got {self.host!r}")
        # A JSON config can carry 2.5, true or "10" where an int belongs
        # (and bool is an int subclass), so integer knobs are checked by
        # type before their range.
        for name, low, high in (
            ("port", 0, 65535),
            ("max_batch", 1, None),
            ("queue_size", 1, None),
            ("checkpoint_interval", 1, None),
            ("max_body_bytes", 1024, None),
        ):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or value < low
                or (high is not None and value > high)
            ):
                bound = f">= {low}" if high is None else f"in [{low}, {high}]"
                raise ConfigError(f"{name} must be an integer {bound}, got {value!r}")
        if self.wal_dir is not None and not isinstance(self.wal_dir, str):
            raise ConfigError(f"wal_dir must be a string path or None, got {self.wal_dir!r}")
        if not isinstance(self.fsync, bool):
            raise ConfigError(f"fsync must be true or false, got {self.fsync!r}")
        if (
            isinstance(self.probe_interval_ms, bool)
            or not isinstance(self.probe_interval_ms, numbers.Real)
            or not 0 < self.probe_interval_ms < math.inf
        ):
            raise ConfigError(
                f"probe_interval_ms must be a finite number > 0, "
                f"got {self.probe_interval_ms!r}"
            )
        if self.faults is not None and not isinstance(self.faults, str):
            raise ConfigError(
                f"faults must be a fault-plan path or None, got {self.faults!r}"
            )

    # ------------------------------------------------------------------ #
    # Round-tripping (mirrors EngineConfig's contract)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Export as a plain JSON-serialisable dict (all knobs, always)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ServeConfig":
        """Build (and validate) a config from a dict; unknown keys fail."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown ServeConfig keys: {', '.join(unknown)}; "
                f"valid keys: {', '.join(sorted(known))}"
            )
        return cls(**dict(data))

    def replace(self, **changes: object) -> "ServeConfig":
        """Return a copy with the given knobs changed (re-validated)."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]
