"""Counters, gauges, and log-bucketed histograms with a registry.

The registry is the one read surface for every counter
(``registry.value(name, **labels)``) and the one place a manager's
count is booked: the owner takes its counters and histograms from the
registry when it is built and books into them directly
(``counter.value += n``; a histogram observe is one ``bisect`` plus
two adds).  Registration is idempotent per ``(name, labels)``, so a
manager rebuilt for the same labels — a promoted container's log
flusher — continues the same series.  A level, or a count kept by a
standalone engine, is a *collector-backed gauge*: a callable that
reads the live value on demand.

Histogram buckets are fixed log-spaced powers of two covering 1 µs to
~17 minutes of virtual time, so percentile reports are deterministic
functions of the observation multiset (quantiles resolve to bucket
upper bounds; the exact min/max/sum ride along).
"""

from __future__ import annotations

from bisect import bisect_left
from math import ceil
from typing import Any, Callable

from repro.errors import SimulationError
from repro.telemetry.catalog import CATALOG, COUNTER, GAUGE, HISTOGRAM

#: Fixed log-spaced bucket upper bounds (microseconds): 2^0 .. 2^30.
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    float(1 << exp) for exp in range(31))

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("value",)

    kind = COUNTER

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def current(self) -> float:
        # A float count (virtual microseconds) reads to three
        # decimals, like the histogram summaries.
        return round(self.value, 3)


class Gauge:
    """A point-in-time level; optionally collector-backed."""

    __slots__ = ("value", "fn")

    kind = GAUGE

    def __init__(self) -> None:
        self.value: float = 0
        self.fn: Callable[[], Any] | None = None

    def set(self, value: float) -> None:
        self.value = value

    def current(self) -> float:
        if self.fn is not None:
            return self.fn()
        return self.value


class Histogram:
    """Log-bucketed distribution with exact count/sum/min/max."""

    __slots__ = ("buckets", "count", "total", "min", "max")

    kind = HISTOGRAM

    def __init__(self) -> None:
        #: one slot per bound plus the overflow bucket.
        self.buckets = [0] * (len(BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        if self.count == 0 or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.count += 1
        self.total += value
        self.buckets[bisect_left(BUCKET_BOUNDS, value)] += 1

    def percentile(self, q: float) -> float:
        """Nearest-rank quantile resolved to its bucket upper bound
        (deterministic; the top bucket reports the exact max)."""
        if self.count == 0:
            return 0.0
        rank = min(self.count, max(1, ceil(q * self.count)))
        seen = 0
        for index, bucket_count in enumerate(self.buckets):
            seen += bucket_count
            if seen >= rank:
                if index >= len(BUCKET_BOUNDS):
                    return self.max
                return min(BUCKET_BOUNDS[index], self.max)
        return self.max  # pragma: no cover - rank <= count always hits

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": round(self.total, 3),
            "min": round(self.min, 3),
            "max": round(self.max, 3),
            "p50": round(self.percentile(0.50), 3),
            "p99": round(self.percentile(0.99), 3),
            "p999": round(self.percentile(0.999), 3),
        }

    def current(self) -> dict[str, float]:
        return self.summary()


class MetricsRegistry:
    """All metrics of one database, keyed by (name, labels)."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelKey], Any] = {}

    # -- registration ---------------------------------------------------

    def _get(self, name: str, labels: dict[str, Any], factory) -> Any:
        kind = CATALOG.get(name)
        if kind is None:
            raise SimulationError(
                f"metric {name!r} is not in the telemetry catalog "
                f"(repro.telemetry.catalog)")
        if kind != factory.kind:
            raise SimulationError(
                f"metric {name!r} is a {kind}, not a {factory.kind}")
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = factory()
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(name, labels, Gauge)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(name, labels, Histogram)

    def gauge_fn(self, name: str, fn: Callable[[], Any],
                 **labels: Any) -> Gauge:
        """Register (or re-point — registration is idempotent, which
        promotion relies on) a collector-backed gauge."""
        gauge = self._get(name, labels, Gauge)
        gauge.fn = fn
        return gauge

    # -- reading --------------------------------------------------------

    def value(self, name: str, **labels: Any) -> Any:
        """The current value of one metric; 0 when never registered."""
        metric = self._metrics.get((name, _label_key(labels)))
        if metric is None:
            return 0
        return metric.current()

    def snapshot(self) -> dict[str, Any]:
        """Every metric's current value, keyed by
        ``name{label="v",...}`` (histograms as summary dicts)."""
        out: dict[str, Any] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            if labels:
                rendered = ",".join(f'{k}="{v}"' for k, v in labels)
                key = f"{name}{{{rendered}}}"
            else:
                key = name
            out[key] = metric.current()
        return out


__all__ = ["MetricsRegistry", "Counter", "Gauge", "Histogram",
           "BUCKET_BOUNDS"]
