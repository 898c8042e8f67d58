"""Migration configuration: elasticity as a deployment-time knob.

The paper's deployment-time virtualization claim, extended once more:
after architecture (PR 0), concurrency control (PR 1) and availability
(PR 2), *placement over time* also becomes a config edit.  A
:class:`MigrationConfig` inside the
:class:`~repro.core.deployment.DeploymentConfig` tunes how online
reactor migrations drain and how the elastic rebalancing policy reacts
to load imbalance — application code (reactor types and procedures)
never changes.

Two usage modes:

* **manual** — ``db.migrate(reactor, dst)`` and ``db.rebalance()``
  are always available; this config only tunes their mechanics;
* **elastic** — with ``auto_rebalance_horizon_us > 0`` the database
  arms an :class:`~repro.migration.policy.ElasticPolicy` at bootstrap
  that samples per-container load every ``check_interval_us`` of
  virtual time (up to the horizon) and triggers migrations whenever
  the most loaded container exceeds ``imbalance_threshold`` times the
  mean load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import DeploymentError, read_config_keys


@dataclass(frozen=True)
class MigrationConfig:
    """Per-deployment online-migration / elastic-rebalancing choice."""

    #: Virtual-time interval between drain-barrier re-checks while a
    #: migration waits for in-flight transactions at the source.
    drain_poll_us: float = 5.0
    #: A container is overloaded when its share of the submission
    #: window exceeds this multiple of the mean per-container load.
    imbalance_threshold: float = 1.3
    #: Upper bound on migrations one ``rebalance()`` call may start.
    max_moves_per_check: int = 4
    #: Virtual-time period of the elastic policy's load checks.
    check_interval_us: float = 20_000.0
    #: Arm the elastic policy until this absolute virtual time
    #: (0 disables it; migrations stay manual).  A finite horizon keeps
    #: the discrete-event simulation drainable.
    auto_rebalance_horizon_us: float = 0.0

    def __post_init__(self) -> None:
        if self.drain_poll_us <= 0:
            raise DeploymentError("drain_poll_us must be > 0")
        if self.imbalance_threshold < 1.0:
            raise DeploymentError(
                "imbalance_threshold must be >= 1.0 (a container at "
                "exactly the mean load is never overloaded)"
            )
        if self.max_moves_per_check < 1:
            raise DeploymentError("max_moves_per_check must be >= 1")
        if self.check_interval_us <= 0:
            raise DeploymentError("check_interval_us must be > 0")
        if self.auto_rebalance_horizon_us < 0:
            raise DeploymentError(
                "auto_rebalance_horizon_us must be >= 0 (0 disables "
                "the elastic policy)"
            )

    @property
    def auto_rebalance(self) -> bool:
        return self.auto_rebalance_horizon_us > 0

    # -- serialization --------------------------------------------------

    #: Every key ``from_dict`` accepts (exactly what ``to_dict``
    #: writes), with the type its value must have.
    KEYS = {"drain_poll_us": float, "imbalance_threshold": float,
            "max_moves_per_check": int, "check_interval_us": float,
            "auto_rebalance_horizon_us": float}

    def to_dict(self) -> dict[str, Any]:
        return {
            "drain_poll_us": self.drain_poll_us,
            "imbalance_threshold": self.imbalance_threshold,
            "max_moves_per_check": self.max_moves_per_check,
            "check_interval_us": self.check_interval_us,
            "auto_rebalance_horizon_us": self.auto_rebalance_horizon_us,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "MigrationConfig":
        return MigrationConfig(**read_config_keys(
            data, "migration", MigrationConfig.KEYS))


#: The manual-migrations default every deployment starts from.
DEFAULT_MIGRATION = MigrationConfig()
