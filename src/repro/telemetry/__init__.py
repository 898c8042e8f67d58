"""Unified telemetry: deterministic tracing + a metrics registry.

One facade (:class:`~repro.telemetry.facade.Telemetry`, attached as
``db.telemetry``) fronts three pieces:

* a **span tracer** (:mod:`repro.telemetry.spans`) — sampled root
  transactions open a trace whose child spans cover scheduling waits,
  sub-calls, CC validate/install, 2PC, replication shipping, migration
  parking, and group-commit flush epochs, all stamped in virtual time
  (same seed, byte-identical trace);
* a **metrics registry** (:mod:`repro.telemetry.metrics`) — counters,
  gauges (including collector-backed gauges that read live state), and
  log-bucketed histograms, every name validated against the catalog
  (:mod:`repro.telemetry.catalog`);
* **the exporter** (:mod:`repro.telemetry.export`) — Chrome trace-event
  JSON (Perfetto-loadable) with the metrics snapshot embedded.

Everything is driven by the virtual clock and allocates nothing when
disabled, so the simulator's determinism and hot-path speed survive.
"""

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.facade import Telemetry
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Span, TraceHandle, Tracer

__all__ = ["Telemetry", "TelemetryConfig", "MetricsRegistry",
           "Tracer", "TraceHandle", "Span"]
