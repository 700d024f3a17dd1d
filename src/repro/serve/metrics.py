"""Prometheus-text metrics for the serving layer (stdlib-only).

A deliberately tiny subset of the Prometheus client model — counters,
gauges and cumulative histograms rendered in the text exposition format —
so that ``GET /metrics`` works against any Prometheus scraper without
adding a dependency.  All mutation happens on the event loop thread (or
under the writer lock), so the implementation carries no locking.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
]

#: Default buckets for second-denominated latencies (500µs .. 5s).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Default buckets for size-denominated observations (batch sizes etc.).
SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def _fmt(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    if value == int(value):
        return str(int(value))
    return repr(float(value))


def _label_str(labels: Mapping[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    """Render a ``{k="v",...}`` label block (empty string when unlabeled)."""
    pairs = [(key, labels[key]) for key in labels]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    return "{" + ",".join(f'{key}="{value}"' for key, value in pairs) + "}"


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "help", "labels", "_value")

    def __init__(self, name: str, help: str, labels: Optional[Mapping[str, str]] = None) -> None:
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(labels or {})
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def sample_lines(self) -> List[str]:
        return [f"{self.name}{_label_str(self.labels)} {_fmt(self._value)}"]

    def render(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} counter",
            *self.sample_lines(),
        ]


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "labels", "_value")

    def __init__(self, name: str, help: str, labels: Optional[Mapping[str, str]] = None) -> None:
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(labels or {})
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def sample_lines(self) -> List[str]:
        return [f"{self.name}{_label_str(self.labels)} {_fmt(self._value)}"]

    def render(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} gauge",
            *self.sample_lines(),
        ]


class Histogram:
    """A cumulative histogram with fixed upper bounds."""

    __slots__ = ("name", "help", "labels", "buckets", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(labels or {})
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self._counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self._sum += value
        self._count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[index] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket bounds (upper-bound estimate).

        Good enough for health summaries; the bench computes exact
        percentiles from raw samples instead.

        An **empty** histogram answers ``0.0`` for every quantile — a
        deliberate, pinned choice (not NaN, not an exception): scrapers
        and health summaries read quantiles before the first request
        lands, and a zero reads naturally as "no latency observed yet".
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        target = q * self._count
        for index, bound in enumerate(self.buckets):
            if self._counts[index] >= target:
                return bound
        return self.buckets[-1]

    def sample_lines(self) -> List[str]:
        lines = []
        for bound, count in zip(self.buckets, self._counts):
            block = _label_str(self.labels, extra=("le", _fmt(bound)))
            lines.append(f"{self.name}_bucket{block} {count}")
        block = _label_str(self.labels, extra=("le", "+Inf"))
        lines.append(f"{self.name}_bucket{block} {self._count}")
        suffix = _label_str(self.labels)
        lines.append(f"{self.name}_sum{suffix} {_fmt(self._sum)}")
        lines.append(f"{self.name}_count{suffix} {self._count}")
        return lines

    def render(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} histogram",
            *self.sample_lines(),
        ]


class MetricFamily:
    """A labeled family: one name/help, one child metric per label set.

    Per-stage latencies need one sample set per label
    (``repro_stage_seconds{stage="wal_append"}``) under one ``# HELP`` /
    ``# TYPE`` header — the Prometheus child-metric model.  ``labels()``
    returns (creating on first use) the child for one label valuation;
    children keep first-use order in the rendered output.
    """

    def __init__(
        self,
        kind: type,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if not labelnames:
            raise ValueError(f"metric family {name} needs at least one label name")
        self.kind = kind
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._buckets = buckets
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **labels: object):
        """Return the child metric for one label valuation (create once)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name} takes labels {self.labelnames}, got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            ordered = dict(zip(self.labelnames, key))
            if self.kind is Histogram:
                child = Histogram(
                    self.name,
                    self.help,
                    self._buckets if self._buckets is not None else LATENCY_BUCKETS,
                    labels=ordered,
                )
            else:
                child = self.kind(self.name, self.help, labels=ordered)
            self._children[key] = child
        return child

    def render(self) -> List[str]:
        type_name = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}[self.kind]
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {type_name}",
        ]
        for child in self._children.values():
            lines.extend(child.sample_lines())  # type: ignore[attr-defined]
        return lines


def _describe(metric: object) -> str:
    """``"a counter"`` / ``"a histogram family (labels shard)"`` — for errors."""
    if isinstance(metric, MetricFamily):
        kind = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}[metric.kind]
        return f"a {kind} family (labels {', '.join(metric.labelnames)})"
    return f"a {type(metric).__name__.lower()}"


class MetricsRegistry:
    """Name-ordered collection of metrics with one text renderer."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _register(self, metric):
        existing = self._metrics.get(metric.name)
        if existing is not None:
            raise ValueError(
                f"metric {metric.name!r} is already registered as "
                f"{_describe(existing)}; cannot re-register it as "
                f"{_describe(metric)}. Reuse the existing instance via "
                f"registry.get({metric.name!r}) instead."
            )
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str, labelnames: Optional[Sequence[str]] = None):
        if labelnames is not None:
            return self._register(MetricFamily(Counter, name, help, labelnames))
        return self._register(Counter(name, help))

    def gauge(self, name: str, help: str, labelnames: Optional[Sequence[str]] = None):
        if labelnames is not None:
            return self._register(MetricFamily(Gauge, name, help, labelnames))
        return self._register(Gauge(name, help))

    def histogram(
        self,
        name: str,
        help: str,
        buckets: Optional[Sequence[float]] = None,
        labelnames: Optional[Sequence[str]] = None,
    ):
        if labelnames is not None:
            return self._register(MetricFamily(Histogram, name, help, labelnames, buckets))
        return self._register(
            Histogram(name, help, buckets if buckets is not None else LATENCY_BUCKETS)
        )

    def get(self, name: str):
        return self._metrics[name]

    def render(self) -> str:
        """Render every metric in the Prometheus text exposition format."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].render())  # type: ignore[attr-defined]
        return "\n".join(lines) + "\n"
