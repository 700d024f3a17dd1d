"""``EngineConfig``: every construction knob in one validated, frozen place.

Construction knobs used to live in two places — ``Spade(backend=...)`` and
``create_engine(shards=..., coordinator_interval=...)``.  :class:`EngineConfig`
captures all of them in one frozen dataclass that validates on
construction (through the central :func:`repro.config.validate_config`) and round-trips through plain dicts
(:meth:`EngineConfig.to_dict` / :meth:`EngineConfig.from_dict`) so the
same configuration can travel through JSON files, CLI flags and process
boundaries unchanged.  ``EngineConfig.build()`` is the one construction
path every in-repo consumer uses.  The bench harness's ``--static
heap|csr`` baseline axis is not an engine knob: it lives on
:class:`repro.bench.harness.ExperimentConfig`, since the engine's load
peel and the serving layer's snapshot peels are always ``peel_csr``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.config import semantics_instance, validate_config
from repro.errors import ConfigError
from repro.peeling.semantics import PeelingSemantics
from repro.serve.config import ServeConfig

__all__ = ["EngineConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """A complete, validated engine configuration.

    Attributes
    ----------
    semantics:
        Built-in semantics name (``"DG"`` / ``"DW"`` / ``"FD"``).  A
        custom :class:`~repro.peeling.semantics.PeelingSemantics` instance
        is supplied at build time (``build(semantics=...)``) instead, so
        the config itself stays JSON-serialisable.
    backend:
        Graph backend (``"dict"`` / ``"array"``; ``None`` = process
        default).
    shards:
        Number of shard engines (1 = single ``Spade``; > 1 builds a
        hash-partitioned :class:`~repro.engine.ShardedSpade`).
    edge_grouping:
        Defer benign edges and reorder only on urgent ones (Section 4.3).
    coordinator_interval:
        Cross-shard queue length that triggers an eager batch pass
        (sharded engines only).
    kernel:
        Hot-loop implementation for the peel and reorder inner loops
        (``"python"`` / ``"native"`` / ``"auto"``).  ``"native"`` runs the
        compiled C kernels of :mod:`repro.native` and fails loud
        (:class:`~repro.errors.KernelUnavailableError`) when they cannot
        be built or loaded; ``"auto"`` (default) uses them when available
        and otherwise falls back to the python paths with a single
        ``RuntimeWarning``.  All three produce bit-identical sequences.
    serve:
        Optional nested :class:`~repro.serve.config.ServeConfig` for the
        HTTP serving layer (``python -m repro.serve``).  ``None`` for
        in-process use; a plain mapping is coerced (and validated), so a
        single JSON document configures engine *and* server.
    """

    semantics: str = "DG"
    backend: Optional[str] = None
    shards: int = 1
    edge_grouping: bool = False
    coordinator_interval: int = 1024
    kernel: str = "auto"
    serve: Optional[ServeConfig] = None

    def __post_init__(self) -> None:
        validate_config(
            semantics=self.semantics,
            backend=self.backend,
            shards=self.shards,
            coordinator_interval=self.coordinator_interval,
            kernel=self.kernel,
        )
        if self.serve is not None and not isinstance(self.serve, ServeConfig):
            if isinstance(self.serve, Mapping):
                object.__setattr__(self, "serve", ServeConfig.from_dict(self.serve))
            else:
                raise ConfigError(
                    f"serve must be a ServeConfig, a mapping or None, got {self.serve!r}"
                )

    # ------------------------------------------------------------------ #
    # Round-tripping
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Export as a plain JSON-serialisable dict (all knobs, always)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "EngineConfig":
        """Build (and validate) a config from a dict; unknown keys fail.

        The inverse of :meth:`to_dict`:
        ``EngineConfig.from_dict(cfg.to_dict()) == cfg`` for every valid
        config.  Missing keys take their defaults, so partial dicts from
        CLI flags or JSON files are fine; unknown keys raise
        :class:`~repro.errors.ConfigError` so typos do not silently
        configure nothing.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown EngineConfig keys: {', '.join(unknown)}; "
                f"valid keys: {', '.join(sorted(known))}"
            )
        return cls(**dict(data))

    def replace(self, **changes: object) -> "EngineConfig":
        """Return a copy with the given knobs changed (re-validated)."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def semantics_instance(self) -> PeelingSemantics:
        """Instantiate the configured built-in semantics."""
        return semantics_instance(self.semantics)

    def build(self, semantics: Optional[PeelingSemantics] = None):
        """Build the configured detection engine.

        ``semantics`` overrides the named built-in with a custom
        :class:`~repro.peeling.semantics.PeelingSemantics` instance (the
        Listing 1 ``vsusp`` / ``esusp`` plug-in path).  Returns a
        :class:`~repro.engine.protocol.DetectionEngine` — the single
        ``Spade`` for ``shards == 1``, a ``ShardedSpade`` otherwise.
        """
        from repro.engine import create_engine

        instance = semantics if semantics is not None else self.semantics_instance()
        options = {}
        if self.shards > 1:
            options = {"coordinator_interval": self.coordinator_interval}
        return create_engine(
            instance,
            shards=self.shards,
            edge_grouping=self.edge_grouping,
            backend=self.backend,
            kernel=self.kernel,
            **options,
        )
