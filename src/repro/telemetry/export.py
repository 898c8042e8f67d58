"""Exporters: Chrome trace-event JSON and Prometheus-style text.

The Chrome format (loadable at https://ui.perfetto.dev) gets one
process per track — transactions, per-container log devices,
replication, migration — with a thread per root transaction (or
container/replica).  Virtual-clock microseconds map directly onto the
format's ``ts``/``dur`` microsecond fields, so what Perfetto renders
*is* simulated time.

Exports are deterministic: events are sorted by ``(ts, span id)``,
dictionaries are serialized with sorted keys, and nothing
non-deterministic (wall time, object ids) enters the payload — the
determinism tests byte-compare two seeded runs.
"""

from __future__ import annotations

import json
from typing import Any

from repro.telemetry.spans import (
    TRACK_LOG,
    TRACK_MIGRATION,
    TRACK_REPLICATION,
    TRACK_SERVING,
    TRACK_TXN,
    Tracer,
)

#: Stable Chrome pid per track.
TRACK_PIDS = {
    TRACK_TXN: 1,
    TRACK_LOG: 2,
    TRACK_REPLICATION: 3,
    TRACK_MIGRATION: 4,
    TRACK_SERVING: 5,
}

TRACK_LABELS = {
    TRACK_TXN: "transactions",
    TRACK_LOG: "log devices",
    TRACK_REPLICATION: "replication",
    TRACK_MIGRATION: "migration",
    TRACK_SERVING: "serving",
}


def trace_events(tracer: Tracer) -> list[dict[str, Any]]:
    """The tracer's spans as Chrome trace events (complete events,
    ``ph: "X"``), preceded by process-name metadata."""
    used_tracks = {span.track for span in tracer.spans}
    events: list[dict[str, Any]] = []
    for track in sorted(used_tracks, key=TRACK_PIDS.__getitem__):
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": TRACK_PIDS[track],
            "tid": 0,
            "args": {"name": TRACK_LABELS[track]},
        })
    spans = sorted(tracer.spans,
                   key=lambda s: (s.start, s.span_id))
    for span in spans:
        args: dict[str, Any] = {"span_id": span.span_id}
        if span.parent_id:
            args["parent_span_id"] = span.parent_id
        if span.args:
            args.update(span.args)
        events.append({
            "name": span.name,
            "cat": span.track,
            "ph": "X",
            "ts": round(span.start, 3),
            "dur": round(span.end - span.start, 3),
            "pid": TRACK_PIDS[span.track],
            "tid": span.tid,
            "args": args,
        })
    return events


def chrome_payload(telemetry: Any) -> dict[str, Any]:
    """The full export: trace events plus a metrics snapshot.

    ``metadata.backend`` records which execution backend produced the
    spans; timestamps are virtual microseconds on ``sim`` and
    wall-clock microseconds (since backend start) on ``threads``, as
    ``metadata.clock`` states.
    """
    tracer = telemetry.tracer
    events = trace_events(tracer) if tracer is not None else []
    scheduler = telemetry.database.scheduler
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "backend": scheduler.name,
            "clock": ("virtual-microseconds" if scheduler.is_virtual
                      else "wall-microseconds"),
            "dropped_spans": tracer.dropped if tracer else 0,
            "trace_sample": telemetry.config.trace_sample,
        },
        "metrics": telemetry.registry.snapshot(),
    }


def to_json(payload: dict[str, Any]) -> str:
    """Deterministic serialization (sorted keys, fixed separators)."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


__all__ = ["trace_events", "chrome_payload", "to_json", "TRACK_PIDS"]
