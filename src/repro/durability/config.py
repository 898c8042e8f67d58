"""Durability configuration: commit persistence as a deployment knob.

The same virtualization claim the deployment spectrum makes for
architecture, concurrency control, replication, and placement extends
to durability: a :class:`DurabilityConfig` inside the
:class:`~repro.core.deployment.DeploymentConfig` decides whether redo
logging is on and *when a commit may be acknowledged* relative to its
log flush — without any application change.

Modes (``durability_mode`` in JSON configs):

* ``"sync"`` — every writing commit pays its own log flush before the
  client sees the result: one ``fsync_cost`` per commit, serialized on
  the container's (single) log device.  Strongest guarantee, highest
  per-commit price — the classic force-at-commit WAL discipline.
* ``"group"`` — epoch-based group commit (SiloR-style): commits
  install optimistically and are acknowledged when their *epoch's*
  batched flush lands.  An epoch opens at the first unflushed append
  and flushes after ``flush_interval_us`` (or earlier once
  ``flush_batch_bytes`` of records accumulated), so one fsync covers
  every commit of the epoch.  Acknowledged commits are always durable;
  the unflushed tail of the current epoch is lost on a crash, but no
  client ever saw those commits complete.
* ``"async"`` — commits are acknowledged immediately; epochs still
  flush in the background on the same cadence.  A crash can lose
  acknowledged commits inside the flush window — the durability
  analogue of async replication's lag window, and
  :func:`~repro.formal.audit.certify_crash_recovery` reports (rather
  than rejects) that loss for this mode only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import DeploymentError, read_config_keys

SYNC = "sync"
GROUP = "group"
ASYNC = "async"

DURABILITY_MODES = (SYNC, GROUP, ASYNC)


@dataclass(frozen=True)
class DurabilityConfig:
    """Per-deployment durability choice.

    ``enabled`` attaches redo logging (and the flush pipeline) at
    database build time; ``mode`` selects the commit-acknowledgement
    discipline.  The flush cadence itself (``flush_interval_us``,
    ``flush_batch_bytes``, ``fsync_cost``) lives with the other
    virtual-time prices in :class:`~repro.sim.costs.CostParameters`.
    """

    enabled: bool = False
    mode: str = GROUP

    def __post_init__(self) -> None:
        if self.mode not in DURABILITY_MODES:
            raise DeploymentError(
                f"unknown durability_mode {self.mode!r}; expected one "
                f"of {', '.join(DURABILITY_MODES)}"
            )

    # -- serialization --------------------------------------------------

    #: Every key ``from_dict`` accepts (exactly what ``to_dict``
    #: writes), with the type its value must have.
    KEYS = {"enabled": bool, "durability_mode": str}

    def to_dict(self) -> dict[str, Any]:
        return {
            "enabled": self.enabled,
            "durability_mode": self.mode,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "DurabilityConfig":
        fields = read_config_keys(data, "durability",
                                  DurabilityConfig.KEYS)
        if "durability_mode" in fields:
            fields["mode"] = fields.pop("durability_mode")
        return DurabilityConfig(**fields)


#: The in-memory default every deployment starts from.
NO_DURABILITY = DurabilityConfig()
