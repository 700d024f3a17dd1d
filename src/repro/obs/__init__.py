"""``repro.obs``: tracing, structured event logs, and profiling counters.

The serving stack's per-request lens.  One :class:`TraceContext` is
minted per HTTP request (``X-Repro-Trace-Id`` on every response) and
carried through the ingest gateway, the WAL append and the engine
apply, so ``GET /debug/traces`` answers "where did *this* request spend its time".
Recorded traces land in an in-memory :class:`TraceRecorder` ring and,
when configured, a JSONL :class:`EventLog` that
``python -m repro.obs tail`` pretty-prints or follows.

:mod:`repro.obs.profile` is the compute core's counterpart: per-phase
wall-time counters (CSR init, greedy peel loop, reorder window work,
python vs. native kernel) behind ``GET /debug/profile``.

Everything here is stdlib-only and import-light — safe to use from the
innermost hot paths.  The :mod:`repro.obs.events` re-exports are lazy
(PEP 562): the event log rides on :mod:`repro.storage.jsonl`, whose
import chain reaches back into the engine packages, and the hot paths
that import ``repro.obs`` for the profile counters must not drag that
cycle in at module-import time.
"""

from repro.obs.config import ObsConfig
from repro.obs.context import (
    Span,
    TraceContext,
    activate,
    current_trace,
    deactivate,
    sample_decision,
)
from repro.obs.recorder import TraceRecorder

_LAZY_EVENTS = ("EventLog", "follow_events", "read_events")


def __getattr__(name):
    if name in _LAZY_EVENTS:
        from repro.obs import events

        return getattr(events, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "EventLog",
    "ObsConfig",
    "Span",
    "TraceContext",
    "TraceRecorder",
    "activate",
    "current_trace",
    "deactivate",
    "follow_events",
    "read_events",
    "sample_decision",
]
