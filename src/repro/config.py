"""Central engine-configuration vocabulary and validation.

Before this module existed every construction site validated its own
knobs its own way: ``Spade`` deferred an invalid backend name to the
first ``load_edges``, ``ShardedSpade.__init__`` hand-rolled three
``ValueError``\\ s, the bench CLIs leaned on ``argparse`` ``choices``, and
the experiment harness validated nothing at all.  This module is the one
place that knows the valid choices for every knob, and
:func:`validate_config` is the one helper every layer calls — raising a
single error type (:class:`repro.errors.ConfigError`) whose message
always lists the valid choices.

The module deliberately sits *below* the engine layer (it imports only
``repro.errors``, ``repro.graph.backend`` and ``repro.peeling.semantics``)
so that ``repro.core``, ``repro.engine`` and ``repro.bench`` can all use
it without import cycles; the public façade
(:class:`repro.api.EngineConfig`) builds on it from above.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.graph.backend import BACKENDS
from repro.native import VALID_KERNELS
from repro.peeling.semantics import (
    PeelingSemantics,
    dg_semantics,
    dw_semantics,
    fraudar_semantics,
)

__all__ = [
    "SEMANTICS_FACTORIES",
    "VALID_BACKENDS",
    "VALID_KERNELS",
    "VALID_SEMANTICS",
    "semantics_instance",
    "validate_config",
]

#: The built-in peeling algorithms of the paper, by display name.
SEMANTICS_FACTORIES: Dict[str, Callable[[], PeelingSemantics]] = {
    "DG": dg_semantics,
    "DW": dw_semantics,
    "FD": fraudar_semantics,
}

#: Valid graph backends (the keys of the backend registry).
VALID_BACKENDS: Tuple[str, ...] = tuple(sorted(BACKENDS))
#: Valid built-in semantics names.
VALID_SEMANTICS: Tuple[str, ...] = tuple(SEMANTICS_FACTORIES)


def _choice(kind: str, value: object, valid: Tuple[str, ...]) -> None:
    if value not in valid:
        raise ConfigError(
            f"unknown {kind} {value!r}; valid choices: {', '.join(valid)}"
        )


def validate_config(
    *,
    semantics: Optional[str] = None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
    coordinator_interval: Optional[int] = None,
    kernel: Optional[str] = None,
) -> None:
    """Validate engine-configuration knobs; raise :class:`ConfigError` if bad.

    Every argument is optional — only the knobs a caller actually has are
    checked, so the same helper serves ``Spade.__init__`` (backend only),
    ``ShardedSpade.__init__`` (backend / shards / interval),
    ``create_engine``, the bench CLIs and
    :class:`repro.api.EngineConfig` (everything).

    ``semantics`` here is the *name* of a built-in ("DG" / "DW" / "FD");
    callers passing a :class:`~repro.peeling.semantics.PeelingSemantics`
    instance bypass the name check by omitting the argument.
    """
    if semantics is not None:
        _choice("semantics", semantics, VALID_SEMANTICS)
    if backend is not None:
        _choice("graph backend", backend, VALID_BACKENDS)
    if shards is not None and shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    if coordinator_interval is not None and coordinator_interval < 1:
        raise ConfigError(
            f"coordinator_interval must be >= 1, got {coordinator_interval}"
        )
    if kernel is not None:
        _choice("kernel", kernel, VALID_KERNELS)


def semantics_instance(name: str) -> PeelingSemantics:
    """Instantiate a built-in semantics by display name (validated)."""
    _choice("semantics", name, VALID_SEMANTICS)
    return SEMANTICS_FACTORIES[name]()
