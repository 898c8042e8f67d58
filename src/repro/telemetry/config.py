"""Telemetry configuration: the tracing switches.

Telemetry must never cost more than it informs: the metrics registry
is cheap enough to stay on always, while span tracing is *sampled*
(one root in ``trace_sample``) so the wall-clock harness-speed gate
keeps passing.  A diagnostic run asks for full-fidelity tracing
(``trace_sample=1`` plus the system tracks) in its deployment config —
:func:`full_tracing` from code, the ``telemetry`` block of a config
file — like every other deployment choice.  The process environment
is never consulted: what a test or benchmark measures depends on its
config alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import DeploymentError, read_config_keys

#: Default root-trace sampling: one traced root in this many.
DEFAULT_TRACE_SAMPLE = 64


@dataclass
class TelemetryConfig:
    """One database's tracing switches (metrics are always on)."""

    #: Root-trace sampling: 0 = tracing off, 1 = every root, N = one
    #: root in N (selected deterministically by ``txn_id % N``).
    trace_sample: int = DEFAULT_TRACE_SAMPLE
    #: Record the system tracks too (per-container log flush epochs,
    #: replication ship→apply, migration phases).  Off by default:
    #: system spans accrue per *event*, not per sampled root.
    trace_system: bool = False

    def __post_init__(self) -> None:
        if type(self.trace_sample) is not int or self.trace_sample < 0:
            raise DeploymentError(
                f"trace_sample must be an int >= 0, got "
                f"{self.trace_sample!r}")

    # -- serialization --------------------------------------------------

    #: Every key ``from_dict`` accepts (exactly what ``to_dict``
    #: writes), with the type its value must have.
    KEYS = {"trace_sample": int, "trace_system": bool}

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_sample": self.trace_sample,
            "trace_system": self.trace_system,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "TelemetryConfig":
        return TelemetryConfig(**read_config_keys(
            data, "telemetry", TelemetryConfig.KEYS))


def full_tracing() -> TelemetryConfig:
    """Every root traced plus the system tracks — what the trace
    exporter and the determinism tests run under."""
    return TelemetryConfig(trace_sample=1, trace_system=True)


__all__ = ["TelemetryConfig", "full_tracing", "DEFAULT_TRACE_SAMPLE"]
