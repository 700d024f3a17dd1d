"""Exception hierarchy shared across the repro package.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch a single exception type at the
boundary of their own systems while still being able to distinguish the
individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """A graph operation was invalid (unknown vertex, negative weight, ...)."""


class UnknownVertexError(GraphError):
    """An operation referenced a vertex that is not part of the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not part of the graph")
        self.vertex = vertex


class UnknownEdgeError(GraphError):
    """An operation referenced a directed edge that is not part of the graph.

    Carries the endpoints separately (``src`` / ``dst``) so callers can log
    or retry with structured information instead of parsing a tuple out of a
    vertex error.
    """

    def __init__(self, src: object, dst: object) -> None:
        super().__init__(f"edge ({src!r} -> {dst!r}) is not part of the graph")
        self.src = src
        self.dst = dst


class DuplicateVertexError(GraphError):
    """A vertex was added twice with conflicting attributes."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} already exists with a different weight")
        self.vertex = vertex


class InvalidWeightError(GraphError):
    """A vertex or edge weight violated the density-metric preconditions.

    Property 3.1 of the paper requires vertex weights ``a_i >= 0`` and edge
    weights ``c_ij > 0`` for Spade's incremental maintenance to be correct,
    so the graph layer rejects anything else up front.
    """


class ConfigError(ReproError, ValueError):
    """An engine was configured with an invalid knob value.

    Raised by :func:`repro.config.validate_config` — the single
    validation choke point for backend / static-peel / shard / kernel /
    semantics choices — with a message that lists the valid choices.
    Subclasses :class:`ValueError` so callers that historically caught
    ``ValueError`` around engine construction keep working.
    """


class KernelUnavailableError(ConfigError):
    """``kernel="native"`` was requested but the compiled kernels are unusable.

    Raised by :func:`repro.native.resolve_kernel` when no C compiler is
    found, the on-demand build fails, or the loaded library flunks its
    bit-identity self-check.  Carries the human-readable ``reason``.
    Under ``kernel="auto"`` the same conditions fall back to the python
    hot paths with a single ``RuntimeWarning`` instead.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(f"native kernels unavailable: {reason}")
        self.reason = reason


class SemanticsError(ReproError):
    """A user-supplied suspiciousness function returned an invalid value."""


class StateError(ReproError):
    """The Spade engine was used before it was initialised, or misused."""


class StreamError(ReproError):
    """An update stream violated its contract (e.g. timestamps not sorted)."""


class StorageError(ReproError):
    """A dataset or snapshot could not be read or written."""


class DegradedError(ReproError):
    """The serving layer is in read-only degraded mode.

    Raised by the ingest gateway while the write-ahead log cannot accept
    appends (disk full, I/O errors): writes are refused — the HTTP layer
    answers ``503`` with ``Retry-After`` — while snapshot reads keep
    serving at the last durable version.  Carries the ``reason`` the
    degradation began; an auto-probe re-enters read-write once the WAL
    directory accepts writes again.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(f"serving degraded to read-only: {reason}")
        self.reason = reason


class HistoryError(ReproError):
    """The time-travel / historical-analytics subsystem was misused.

    Raised by :mod:`repro.history` when the cold store cannot be opened,
    an epoch record fails its checksum, or a query is malformed (e.g. an
    undecodable pagination cursor).
    """


class AsofRangeError(HistoryError):
    """An ``asof`` sequence is outside the addressable WAL range.

    Raised by :class:`repro.history.asof.AsofService` for a negative
    sequence or one beyond the durable head — the HTTP layer answers
    ``400``, because no amount of retrying makes an unwritten future
    readable.  Carries the offending ``seq`` and the current ``head``.
    """

    def __init__(self, seq: int, head: int) -> None:
        super().__init__(
            f"asof sequence {seq} is outside the WAL range [0, {head}]"
        )
        self.seq = seq
        self.head = head


class WorkloadError(ReproError):
    """A workload generator was configured with impossible parameters."""


class ExperimentError(ReproError):
    """An experiment harness was configured incorrectly."""
