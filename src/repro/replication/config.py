"""Replication configuration: availability as a deployment-time knob.

The paper's central claim — database architecture is a deployment
choice, not an application change — extends to replication exactly as
it did to concurrency control (PR 1): a :class:`ReplicationConfig`
inside the :class:`~repro.core.deployment.DeploymentConfig` decides,
per deployment, whether each container ships its redo log to replica
containers, whether commits wait for replica acknowledgement, and
whether read-only root transactions may be served from replicas.
Application code (reactor types and procedures) never changes.

Modes:

* ``"none"`` — no replication (the single-copy default);
* ``"sync"`` — a commit completes only after every replica of every
  participant container has applied and acknowledged its redo record
  (zero committed-transaction loss on failover, priced in virtual time
  via the cost model's ship/apply/ack parameters);
* ``"async"`` — commits complete immediately; redo records apply on
  replicas in the background after a bounded lag (``async_lag_us``),
  so failover may lose a bounded suffix of commits — including one
  container's half of a cross-container transaction (the inherent
  atomicity price of asynchronous replication; the formal audit
  reports such breaks per failover).  Sync mode has neither loss: the
  kill drains the ship channel, so an installed commit either reaches
  the replicas of every participant or was never reported committed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.errors import DeploymentError, read_config_keys

SYNC = "sync"
ASYNC = "async"
NONE = "none"

REPLICATION_MODES = (SYNC, ASYNC, NONE)


@dataclass(frozen=True)
class ReplicationConfig:
    """Per-deployment replication choice.

    ``replicas_per_container`` replicas are built for *every* container
    of the deployment; ``mode`` selects commit semantics; when
    ``read_from_replicas`` is set, root transactions marked read-only
    are routed round-robin to a replica of their home container
    (bounded-staleness reads on separate simulated cores).
    """

    replicas_per_container: int = 0
    mode: str = NONE
    read_from_replicas: bool = False
    #: Background apply delay bound for ``async`` mode, in virtual
    #: microseconds (applies land at ship + lag + apply cost).
    async_lag_us: float = 200.0

    def __post_init__(self) -> None:
        if self.replicas_per_container < 0:
            raise DeploymentError(
                "replicas_per_container must be >= 0"
            )
        if self.mode not in REPLICATION_MODES:
            raise DeploymentError(
                f"unknown replication mode {self.mode!r}; expected one "
                f"of {', '.join(REPLICATION_MODES)}"
            )
        if self.mode != NONE and self.replicas_per_container == 0:
            raise DeploymentError(
                f"replication mode {self.mode!r} needs "
                "replicas_per_container >= 1"
            )
        if self.mode == NONE and self.replicas_per_container > 0:
            raise DeploymentError(
                f"replicas_per_container="
                f"{self.replicas_per_container} with mode 'none' "
                "would silently build no replicas; pick 'sync' or "
                "'async'"
            )
        if not math.isfinite(self.async_lag_us) or self.async_lag_us < 0:
            raise DeploymentError(
                f"async_lag_us must be a finite number >= 0, got "
                f"{self.async_lag_us!r}")
        if self.read_from_replicas and not self.enabled:
            raise DeploymentError(
                "read_from_replicas requires replication to be enabled "
                "(replicas_per_container >= 1 and mode != 'none')"
            )

    @property
    def enabled(self) -> bool:
        # Validation guarantees replicas and mode agree, so either
        # field decides.
        return self.replicas_per_container > 0

    # -- serialization --------------------------------------------------

    #: Every key ``from_dict`` accepts (exactly what ``to_dict``
    #: writes), with the type its value must have.
    KEYS = {"replicas_per_container": int, "mode": str,
            "read_from_replicas": bool, "async_lag_us": float}

    def to_dict(self) -> dict[str, Any]:
        return {
            "replicas_per_container": self.replicas_per_container,
            "mode": self.mode,
            "read_from_replicas": self.read_from_replicas,
            "async_lag_us": self.async_lag_us,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "ReplicationConfig":
        return ReplicationConfig(**read_config_keys(
            data, "replication", ReplicationConfig.KEYS))


#: The single-copy default every deployment starts from.
NO_REPLICATION = ReplicationConfig()
