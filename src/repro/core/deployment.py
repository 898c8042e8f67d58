"""Deployment configuration: virtualization of database architecture.

The central systems claim of the paper is that database architecture —
where shared-everything and shared-nothing are just two points of a
spectrum — can be configured at deployment time *without changing
application code*.  A :class:`DeploymentConfig` captures one such
choice: how many containers, how many transaction executors per
container, how root transactions are routed, whether reactors are
pinned to a single executor, and which concurrency-control scheme the
containers run (``cc_scheme``: OCC, 2PL, or none — see
:mod:`repro.concurrency.base`).

The three strategies evaluated in the paper (Section 3.3) have factory
functions:

* :func:`shared_everything_without_affinity` (S1) — one container,
  round-robin routing, all sub-calls inline;
* :func:`shared_everything_with_affinity` (S2) — one container,
  affinity routing (a root transaction on a reactor always runs on the
  same executor), all sub-calls inline;
* :func:`shared_nothing` (S3) — one container *per* executor, reactors
  pinned, cross-container sub-calls migrate control.  ``-sync`` vs
  ``-async`` is a property of the application programs, not of the
  deployment.

Configs serialize to/from plain dicts (and therefore JSON files): an
infrastructure engineer edits a config file and bootstraps — no
application change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.concurrency import BUILTIN_CC_SCHEMES
from repro.durability.config import NO_DURABILITY, DurabilityConfig
from repro.errors import DeploymentError, read_config_keys
from repro.replication.config import NO_REPLICATION, ReplicationConfig
from repro.telemetry.config import TelemetryConfig
from repro.sim.machine import (
    XEON_E3_1276,
    MachineProfile,
    get_profile,
)


class Placement:
    """Maps a reactor (by declaration index / name) to a container."""

    kind = "modulo"

    def container_for(self, name: str, index: int,
                      n_containers: int) -> int:
        return index % n_containers

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Placement":
        kind = data.get("kind", Placement.kind)
        if kind == Placement.kind:
            cls, keys = Placement, {}
        elif kind == RangePlacement.kind:
            cls, keys = RangePlacement, {"block_size": int}
        elif kind == ExplicitPlacement.kind:
            cls, keys = ExplicitPlacement, {"mapping": dict}
        else:
            raise DeploymentError(f"unknown placement kind {kind!r}")
        fields = read_config_keys(data, f"{kind} placement",
                                  {"kind": str, **keys}, required=keys)
        fields.pop("kind", None)
        return cls(**fields)


class RangePlacement(Placement):
    """Contiguous blocks: reactors [0..block) -> container 0, etc.

    This is the paper's Smallbank deployment ("each container holds a
    range of 1000 reactors") and the YCSB key-range deployment.
    """

    kind = "range"

    def __init__(self, block_size: int) -> None:
        if block_size < 1:
            raise DeploymentError("block_size must be positive")
        self.block_size = block_size

    def container_for(self, name: str, index: int,
                      n_containers: int) -> int:
        return min(index // self.block_size, n_containers - 1)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "block_size": self.block_size}


class ExplicitPlacement(Placement):
    """Direct reactor-name -> container-index mapping."""

    kind = "explicit"

    def __init__(self, mapping: dict[str, int]) -> None:
        for name, cid in mapping.items():
            if not isinstance(cid, int) or isinstance(cid, bool) or \
                    cid < 0:
                raise DeploymentError(
                    f"explicit placement of reactor {name!r} must be "
                    f"a container index (an int >= 0), got {cid!r}")
        self.mapping = mapping

    def container_for(self, name: str, index: int,
                      n_containers: int) -> int:
        try:
            return self.mapping[name]
        except KeyError:
            raise DeploymentError(
                f"no explicit placement for reactor {name!r}"
            ) from None

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "mapping": dict(self.mapping)}


ROUND_ROBIN = "round_robin"
AFFINITY = "affinity"

#: Execution backends a deployment may select
#: (:func:`repro.runtime.backend.create_backend` maps the name to an
#: instance; that module cannot be imported here at module scope).
BACKENDS = ("sim", "threads")


@dataclass
class ContainerSpec:
    """Compute resources of one container (``mpl`` is recorded, not
    enforced — see :func:`shared_nothing`)."""

    executors: int = 1
    mpl: int = 1

    def __post_init__(self) -> None:
        if self.executors < 1:
            raise DeploymentError("a container needs >= 1 executor")
        if self.mpl < 1:
            raise DeploymentError("MPL must be >= 1")


@dataclass
class DeploymentConfig:
    """A complete architecture choice for one reactor database.

    ``cc_scheme`` selects the concurrency-control protocol every
    container runs — ``"occ"`` (Silo-style optimistic, the default),
    ``"2pl_nowait"`` / ``"2pl_waitdie"`` (two-phase locking), or
    ``"none"`` (no concurrency control) — making isolation, like
    architecture, a config edit rather than an application change.

    ``replication`` extends the same claim to availability: a
    :class:`~repro.replication.config.ReplicationConfig` decides how
    many log-shipping replicas each container gets, whether commits
    wait for replica acks (``sync``) or apply in the background
    (``async``), and whether read-only root transactions are served
    from replicas — again a config edit only.

    ``durability`` extends the claim to persistence: a
    :class:`~repro.durability.config.DurabilityConfig` decides whether
    redo logging is on and when a commit may be acknowledged relative
    to its log flush (``durability_mode``: ``sync`` force-at-commit,
    ``group`` epoch-based group commit, or ``async`` background
    flushing) — again a config edit, never an application change.
    """

    name: str
    containers: list[ContainerSpec]
    routing: str = AFFINITY
    pin_reactors: bool = False
    machine: MachineProfile = field(default_factory=lambda: XEON_E3_1276)
    placement: Placement = field(default_factory=Placement)
    cc_scheme: str = "occ"
    #: Serve ``read_only`` root transactions from multi-version
    #: snapshots (no locks, no validation, no aborts) under *any*
    #: scheme.
    snapshot_reads: bool = False
    replication: ReplicationConfig = NO_REPLICATION
    durability: DurabilityConfig = NO_DURABILITY
    #: Observability switches (metrics on/off, root-trace sampling).
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    #: Execution backend: ``"sim"`` (virtual-time discrete-event
    #: simulation, the certification oracle) or ``"threads"`` (one OS
    #: thread per container, wall-clock measurement on real hardware
    #: — see :mod:`repro.runtime.threads` and ``docs/backends.md``).
    backend: str = "sim"

    def __post_init__(self) -> None:
        if not self.containers:
            raise DeploymentError("at least one container is required")
        if self.routing not in (ROUND_ROBIN, AFFINITY):
            raise DeploymentError(
                f"unknown routing policy {self.routing!r}"
            )
        if self.routing == ROUND_ROBIN and len(self.containers) > 1:
            raise DeploymentError(
                "round-robin routing models a shared-everything "
                "deployment; use a single container"
            )
        if self.cc_scheme not in BUILTIN_CC_SCHEMES:
            raise DeploymentError(
                f"unknown cc_scheme {self.cc_scheme!r}; expected one "
                f"of {', '.join(BUILTIN_CC_SCHEMES)}"
            )
        if self.backend not in BACKENDS:
            raise DeploymentError(
                f"unknown execution backend {self.backend!r}; "
                f"expected one of {', '.join(BACKENDS)}"
            )
        if self.backend == "threads" and self.replication.enabled:
            raise DeploymentError(
                "the threads backend does not support replication "
                "yet: failover injection and replica log shipping are "
                "simulation-only (run the deployment on backend "
                "'sim', or drop replication)"
            )
        if self.replication.read_from_replicas and \
                self.cc_scheme != "occ" and not self.snapshot_reads:
            raise DeploymentError(
                "read_from_replicas requires cc_scheme 'occ' or "
                "snapshot_reads: replica log applies install "
                "directly (no locks), and only OCC validation or a "
                "pinned snapshot protects a read that overlapped an "
                "apply — under plain 2PL or 'none' a replica read "
                "could commit a torn state"
            )

    @property
    def total_executors(self) -> int:
        return sum(spec.executors for spec in self.containers)

    # -- serialization --------------------------------------------------

    #: Every key ``from_dict`` understands (exactly what ``to_dict``
    #: writes), with the type its value must have; anything else is a
    #: typo an infrastructure engineer should hear about, not a silent
    #: no-op.
    KEYS = {
        "name": str, "machine": str, "containers": list,
        "routing": str, "pin_reactors": bool, "placement": dict,
        "cc_scheme": str, "snapshot_reads": bool, "replication": dict,
        "durability": dict, "telemetry": dict, "backend": str,
    }
    #: The same rule inside one entry of ``containers``.
    CONTAINER_KEYS = {"executors": int, "mpl": int}

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "machine": self.machine.name,
            "containers": [
                {"executors": s.executors, "mpl": s.mpl}
                for s in self.containers
            ],
            "routing": self.routing,
            "pin_reactors": self.pin_reactors,
            "placement": self.placement.to_dict(),
            "cc_scheme": self.cc_scheme,
            "snapshot_reads": self.snapshot_reads,
            "replication": self.replication.to_dict(),
            "durability": self.durability.to_dict(),
            "telemetry": self.telemetry.to_dict(),
            "backend": self.backend,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "DeploymentConfig":
        fields = read_config_keys(data, "deployment",
                                  DeploymentConfig.KEYS,
                                  required=("name", "containers"))
        fields["containers"] = [
            ContainerSpec(**read_config_keys(
                spec, "container", DeploymentConfig.CONTAINER_KEYS))
            for spec in fields["containers"]]
        if "machine" in fields:
            try:
                fields["machine"] = get_profile(fields["machine"])
            except KeyError as exc:
                raise DeploymentError(
                    f"deployment key 'machine': {exc.args[0]}"
                ) from None
        for key, reader in (("placement", Placement),
                            ("replication", ReplicationConfig),
                            ("durability", DurabilityConfig),
                            ("telemetry", TelemetryConfig)):
            if key in fields:
                fields[key] = reader.from_dict(fields[key])
        return DeploymentConfig(**fields)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @staticmethod
    def from_json(text: str) -> "DeploymentConfig":
        return DeploymentConfig.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# The paper's three deployment strategies (Section 3.3)
# ----------------------------------------------------------------------

def shared_everything_without_affinity(
        n_executors: int, machine: MachineProfile = XEON_E3_1276,
        cc_scheme: str = "occ",
        snapshot_reads: bool = False,
        replication: ReplicationConfig | None = None,
        durability: DurabilityConfig | None = None,
        backend: str = "sim"
        ) -> DeploymentConfig:
    """S1: one container, round-robin load balancing, MPL 1."""
    return DeploymentConfig(
        name="shared-everything-without-affinity",
        containers=[ContainerSpec(executors=n_executors, mpl=1)],
        routing=ROUND_ROBIN,
        pin_reactors=False,
        machine=machine,
        cc_scheme=cc_scheme,
        snapshot_reads=snapshot_reads,
        replication=replication or NO_REPLICATION,
        durability=durability or NO_DURABILITY,
        backend=backend,
    )


def shared_everything_with_affinity(
        n_executors: int, machine: MachineProfile = XEON_E3_1276,
        cc_scheme: str = "occ",
        snapshot_reads: bool = False,
        replication: ReplicationConfig | None = None,
        durability: DurabilityConfig | None = None,
        backend: str = "sim"
        ) -> DeploymentConfig:
    """S2: one container, affinity routing, MPL 1 (Silo-like setup)."""
    return DeploymentConfig(
        name="shared-everything-with-affinity",
        containers=[ContainerSpec(executors=n_executors, mpl=1)],
        routing=AFFINITY,
        pin_reactors=False,
        machine=machine,
        cc_scheme=cc_scheme,
        snapshot_reads=snapshot_reads,
        replication=replication or NO_REPLICATION,
        durability=durability or NO_DURABILITY,
        backend=backend,
    )


def shared_nothing(n_containers: int,
                   machine: MachineProfile = XEON_E3_1276,
                   mpl: int = 4, placement: Placement | None = None,
                   cc_scheme: str = "occ",
                   snapshot_reads: bool = False,
                   replication: ReplicationConfig | None = None,
                   durability: DurabilityConfig | None = None,
                   backend: str = "sim"
                   ) -> DeploymentConfig:
    """S3: one executor per container, reactors pinned.

    The ``-sync`` / ``-async`` variants of the paper differ only in how
    application programs synchronize on futures, not in deployment.
    ``mpl`` is recorded on every :class:`ContainerSpec` (validated,
    round-tripped through ``to_dict``) but **not enforced**: an
    executor admits the next request whenever nothing is running or
    ready, so transactions blocked on remote sub-transactions overlap
    with new work at any value.  Whether to enforce it as the paper's
    admission bound is a ROADMAP open question.
    """
    return DeploymentConfig(
        name="shared-nothing",
        containers=[ContainerSpec(executors=1, mpl=mpl)
                    for __ in range(n_containers)],
        routing=AFFINITY,
        pin_reactors=True,
        machine=machine,
        placement=placement or Placement(),
        cc_scheme=cc_scheme,
        snapshot_reads=snapshot_reads,
        replication=replication or NO_REPLICATION,
        durability=durability or NO_DURABILITY,
        backend=backend,
    )
