"""Per-request trace contexts: span trees over ``perf_counter`` timings.

One :class:`TraceContext` is created per HTTP request.  It travels two
ways at once:

* **explicitly**, as a field on the ingest gateway's ``Submission`` —
  ``loop.run_in_executor`` does *not* propagate :mod:`contextvars`, so
  the asyncio handler cannot rely on ambient context to reach the commit
  thread;
* **ambiently**, via :func:`activate` / :func:`current_trace`, inside
  the synchronous commit path.  ``_commit_sync`` activates the request's
  trace at the top of the executor thread, and everything downstream of
  it — WAL append, engine apply — is synchronous in that one thread, so
  deep layers (``wal.py``) can attach spans without threading a trace
  argument through every signature.

Span timings are absolute ``time.perf_counter()`` readings; they are
made relative to the trace start only at export (:meth:`Span.to_dict`),
so externally-timed intervals (a queue wait that began before the trace
reached the gateway is still after the trace *started*) slot in without
clock gymnastics.

Concurrency: a trace is only ever touched by one thread at a time — the
event-loop thread before submission and after the commit future
resolves, the single ingest executor thread in between (the handler is
parked on ``await`` for that whole window) — so spans append without a
lock.

Sampling is deterministic in the trace id (``crc32``), so tests can pick
ids on either side of the threshold and every retry of an id makes the
same decision.
"""

from __future__ import annotations

import contextvars
import itertools
import time
import uuid
import zlib
from typing import Dict, List, Optional

__all__ = [
    "Span",
    "TraceContext",
    "activate",
    "current_trace",
    "deactivate",
    "sample_decision",
]

#: Sampling resolution: rates are compared at 1-in-a-million granularity.
_SAMPLE_DOMAIN = 1_000_000


def sample_decision(trace_id: str, rate: float) -> bool:
    """Deterministic sampling: does ``trace_id`` fall inside ``rate``?

    ``crc32`` hashes the id into ``[0, 2**32)``; reducing modulo
    ``_SAMPLE_DOMAIN`` gives a uniform-enough coordinate to compare
    against the rate.  The same id always answers the same way.
    """
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    coordinate = zlib.crc32(trace_id.encode("ascii")) % _SAMPLE_DOMAIN
    return coordinate < int(rate * _SAMPLE_DOMAIN)


class Span:
    """One timed interval inside a trace (absolute ``perf_counter`` ends)."""

    __slots__ = ("sid", "name", "start", "end", "parent", "attrs")

    def __init__(
        self,
        sid: int,
        name: str,
        start: float,
        end: Optional[float] = None,
        parent: Optional[int] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs or {}

    def to_dict(self, origin: float) -> Dict[str, object]:
        """Export with timings relative to the trace start, in ms."""
        end = self.end if self.end is not None else self.start
        record: Dict[str, object] = {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent,
            "start_ms": round((self.start - origin) * 1000.0, 3),
            "duration_ms": round((end - self.start) * 1000.0, 3),
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class TraceContext:
    """The span tree and identity of one request.

    The request itself is the implicit root: spans opened with no
    enclosing span have ``parent=None``.  Unsampled traces stay
    lightweight — the id exists (the response header always carries
    one), the duration is measured, but span methods are no-ops and the
    commit path never activates the trace.
    """

    __slots__ = (
        "trace_id",
        "method",
        "path",
        "sampled",
        "began",
        "wall_ts",
        "status",
        "duration",
        "spans",
        "annotations",
        "_stack",
        "_ids",
    )

    def __init__(
        self,
        trace_id: str,
        method: str = "",
        path: str = "",
        sampled: bool = True,
    ) -> None:
        self.trace_id = trace_id
        self.method = method
        self.path = path
        self.sampled = sampled
        self.began = time.perf_counter()
        self.wall_ts = time.time()
        self.status: Optional[int] = None
        self.duration: Optional[float] = None
        self.spans: List[Span] = []
        self.annotations: Dict[str, object] = {}
        self._stack: List[Span] = []
        self._ids = itertools.count(1)

    @classmethod
    def new(cls, method: str, path: str, sample_rate: float) -> "TraceContext":
        """Mint a fresh trace for one request, rolling the sampling dice."""
        trace_id = uuid.uuid4().hex[:16]
        return cls(
            trace_id,
            method=method,
            path=path,
            sampled=sample_decision(trace_id, sample_rate),
        )

    # ------------------------------------------------------------------ #
    # Span recording
    # ------------------------------------------------------------------ #
    def start_span(self, name: str, **attrs: object) -> Optional[Span]:
        """Open a span (child of the innermost open span); None if unsampled."""
        if not self.sampled:
            return None
        parent = self._stack[-1].sid if self._stack else None
        span = Span(
            next(self._ids), name, time.perf_counter(), parent=parent, attrs=attrs
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end_span(self, span: Optional[Span]) -> None:
        """Close a span opened with :meth:`start_span` (tolerates None)."""
        if span is None:
            return
        span.end = time.perf_counter()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # out-of-order close: drop through it
            self._stack.remove(span)

    def add_span(
        self, name: str, start: float, end: float, **attrs: object
    ) -> Optional[Span]:
        """Record an externally-timed interval; parents under the open span.

        ``start``/``end`` are ``perf_counter`` readings taken by the
        caller (a queue wait measured before the trace reached this
        layer, a detect timed around the executor hop).
        """
        if not self.sampled:
            return None
        parent = self._stack[-1].sid if self._stack else None
        span = Span(next(self._ids), name, start, end, parent, attrs or None)
        self.spans.append(span)
        return span

    def annotate(self, **attrs: object) -> None:
        """Attach request-level key/values (wal seq, coalesce count, ...)."""
        if self.sampled:
            self.annotations.update(attrs)

    # ------------------------------------------------------------------ #
    # Completion + export
    # ------------------------------------------------------------------ #
    def finish(self, status: int) -> float:
        """Stamp the terminal status; return the request duration (s)."""
        self.status = status
        self.duration = time.perf_counter() - self.began
        return self.duration

    def to_dict(self, reason: str = "sampled") -> Dict[str, object]:
        """Export the trace as one JSON-able record (the event-log schema)."""
        duration = (
            self.duration
            if self.duration is not None
            else time.perf_counter() - self.began
        )
        record: Dict[str, object] = {
            "ts": round(self.wall_ts, 6),
            "trace_id": self.trace_id,
            "method": self.method,
            "path": self.path,
            "status": self.status,
            "duration_ms": round(duration * 1000.0, 3),
            "reason": reason,
            "spans": [span.to_dict(self.began) for span in self.spans],
        }
        if self.annotations:
            record["annotations"] = self.annotations
        return record


# ---------------------------------------------------------------------- #
# Ambient propagation inside the synchronous commit path
# ---------------------------------------------------------------------- #
_current: contextvars.ContextVar[Optional[TraceContext]] = contextvars.ContextVar(
    "repro_obs_trace", default=None
)


def current_trace() -> Optional[TraceContext]:
    """The trace activated in this thread's context, if any."""
    return _current.get()


def activate(trace: TraceContext) -> "contextvars.Token[Optional[TraceContext]]":
    """Make ``trace`` ambient for the current thread; returns a reset token."""
    return _current.set(trace)


def deactivate(token: "contextvars.Token[Optional[TraceContext]]") -> None:
    """Undo a matching :func:`activate`."""
    _current.reset(token)
