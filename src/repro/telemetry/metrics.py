"""Counters, gauges, and log-bucketed histograms with a registry.

The registry is the one read surface for every counter
(``registry.value(name, **labels)``): instrumented code owns counters
and histograms directly (hot-path observes are one ``bisect`` plus two
adds), while per-manager stat objects are exposed through
*collector-backed gauges* — a callable registered once that reads the
live value on demand, so no state is double-booked and
promotion/failover (which swaps the underlying objects) just
re-registers the collector.

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

    __slots__ = ("name", "labels", "value")

    kind = COUNTER

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def current(self) -> int:
        return self.value


class Gauge:
    """A point-in-time level; optionally collector-backed."""

    __slots__ = ("name", "labels", "value", "fn")

    kind = GAUGE

    def __init__(self, name: str, labels: LabelKey,
                 fn: Callable[[], Any] | None = None) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0
        self.fn = fn

    def set(self, value: float) -> None:
        self.value = value

    def current(self) -> float:
        if self.fn is not None:
            return self.fn()
        return self.value


class Histogram:
    """Log-bucketed distribution with exact count/sum/min/max."""

    __slots__ = ("name", "labels", "buckets", "count", "total",
                 "min", "max")

    kind = HISTOGRAM

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
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

    def _get(self, name: str, kind: str, labels: dict[str, Any],
             factory) -> Any:
        cataloged = CATALOG.get(name)
        if cataloged is None:
            raise SimulationError(
                f"metric {name!r} is not in the telemetry catalog "
                f"(repro.telemetry.catalog)")
        if cataloged[0] != kind:
            raise SimulationError(
                f"metric {name!r} is a {cataloged[0]}, not a {kind}")
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = factory(name, key[1])
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(name, COUNTER, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(name, GAUGE, labels, Gauge)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(name, HISTOGRAM, labels, Histogram)

    def gauge_fn(self, name: str, fn: Callable[[], Any],
                 **labels: Any) -> Gauge:
        """Register (or re-point — registration is idempotent, which
        failover/promotion relies on) a collector-backed gauge."""
        gauge = self._get(name, GAUGE, labels, Gauge)
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

    def render_prometheus(self) -> str:
        """Prometheus text-exposition snapshot of every metric."""
        by_name: dict[str, list[tuple[LabelKey, Any]]] = {}
        for (name, labels), metric in self._metrics.items():
            by_name.setdefault(name, []).append((labels, metric))
        lines: list[str] = []
        for name in sorted(by_name):
            kind, help_text = CATALOG[name]
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} "
                         f"{'summary' if kind == HISTOGRAM else kind}")
            for labels, metric in sorted(by_name[name],
                                         key=lambda pair: pair[0]):
                rendered = ",".join(f'{k}="{v}"' for k, v in labels)
                if kind == HISTOGRAM:
                    summary = metric.summary()
                    for quantile in ("p50", "p99", "p999"):
                        q_labels = rendered + ("," if rendered else "") \
                            + f'quantile="{quantile[1:]}"'
                        lines.append(f"{name}{{{q_labels}}} "
                                     f"{summary[quantile]}")
                    suffix = f"{{{rendered}}}" if rendered else ""
                    lines.append(f"{name}_sum{suffix} "
                                 f"{summary['sum']}")
                    lines.append(f"{name}_count{suffix} "
                                 f"{summary['count']}")
                else:
                    suffix = f"{{{rendered}}}" if rendered else ""
                    lines.append(f"{name}{suffix} {metric.current()}")
        return "\n".join(lines) + "\n"


__all__ = ["MetricsRegistry", "Counter", "Gauge", "Histogram",
           "BUCKET_BOUNDS"]
