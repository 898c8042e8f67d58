"""Deployment configuration: factories, validation, serialization."""

import pytest

from repro.core.deployment import (
    AFFINITY,
    ROUND_ROBIN,
    ContainerSpec,
    DeploymentConfig,
    ExplicitPlacement,
    Placement,
    RangePlacement,
    shared_everything_with_affinity,
    shared_everything_without_affinity,
    shared_nothing,
)
from repro.errors import DeploymentError
from repro.sim.machine import OPTERON_6274, XEON_E3_1276

#: The smallest dict ``DeploymentConfig.from_dict`` accepts.
_MINIMAL = {"name": "x", "containers": [{}]}


class TestFactories:
    def test_s1(self):
        config = shared_everything_without_affinity(4)
        assert config.routing == ROUND_ROBIN
        assert len(config.containers) == 1
        assert config.containers[0].executors == 4
        assert not config.pin_reactors

    def test_s2(self):
        config = shared_everything_with_affinity(4)
        assert config.routing == AFFINITY
        assert not config.pin_reactors
        assert config.containers[0].mpl == 1

    def test_s3(self):
        config = shared_nothing(4, mpl=8)
        assert len(config.containers) == 4
        assert all(c.executors == 1 for c in config.containers)
        assert all(c.mpl == 8 for c in config.containers)
        assert config.pin_reactors

    def test_total_executors(self):
        assert shared_nothing(5).total_executors == 5
        assert shared_everything_with_affinity(7).total_executors == 7


class TestValidation:
    def test_needs_containers(self):
        with pytest.raises(DeploymentError):
            DeploymentConfig(name="x", containers=[])

    def test_unknown_routing(self):
        with pytest.raises(DeploymentError):
            DeploymentConfig(name="x", containers=[ContainerSpec()],
                             routing="psychic")

    def test_round_robin_needs_single_container(self):
        with pytest.raises(DeploymentError):
            DeploymentConfig(
                name="x",
                containers=[ContainerSpec(), ContainerSpec()],
                routing=ROUND_ROBIN)

    def test_container_spec_bounds(self):
        with pytest.raises(DeploymentError):
            ContainerSpec(executors=0)
        with pytest.raises(DeploymentError):
            ContainerSpec(mpl=0)


class TestPlacements:
    def test_modulo(self):
        placement = Placement()
        assert placement.container_for("r", 5, 3) == 2

    def test_range(self):
        placement = RangePlacement(10)
        assert placement.container_for("r", 5, 3) == 0
        assert placement.container_for("r", 15, 3) == 1
        assert placement.container_for("r", 999, 3) == 2  # clamped

    def test_range_requires_positive_block(self):
        with pytest.raises(DeploymentError):
            RangePlacement(0)

    def test_explicit(self):
        placement = ExplicitPlacement({"a": 2})
        assert placement.container_for("a", 0, 3) == 2
        with pytest.raises(DeploymentError):
            placement.container_for("b", 0, 3)


class TestSerialization:
    def test_round_trip_via_dict(self):
        config = shared_nothing(3, machine=OPTERON_6274, mpl=2,
                                placement=RangePlacement(100))
        restored = DeploymentConfig.from_dict(config.to_dict())
        assert restored.to_dict() == config.to_dict()
        assert restored.machine is OPTERON_6274
        assert isinstance(restored.placement, RangePlacement)
        assert restored.placement.block_size == 100

    def test_round_trip_via_json(self):
        config = shared_everything_with_affinity(2,
                                                 machine=XEON_E3_1276)
        restored = DeploymentConfig.from_json(config.to_json())
        assert restored.to_dict() == config.to_dict()

    def test_explicit_placement_serializes(self):
        config = shared_nothing(
            2, placement=ExplicitPlacement({"a": 0, "b": 1}))
        restored = DeploymentConfig.from_dict(config.to_dict())
        assert isinstance(restored.placement, ExplicitPlacement)
        assert restored.placement.mapping == {"a": 0, "b": 1}

    def test_unknown_placement_kind(self):
        with pytest.raises(DeploymentError):
            Placement.from_dict({"kind": "astrological"})

    def test_defaults_from_minimal_dict(self):
        config = DeploymentConfig.from_dict({
            "name": "minimal",
            "containers": [{}],
        })
        assert config.routing == AFFINITY
        assert config.machine is XEON_E3_1276
        assert config.cc_scheme == "occ"
        # An absent key — or an empty nested block — takes the config
        # class's own default: ``from_dict`` carries no second copy.
        defaults = DeploymentConfig(name="minimal",
                                    containers=[ContainerSpec()])
        assert config.to_dict() == defaults.to_dict()
        assert DeploymentConfig.from_dict({
            "name": "minimal", "containers": [{}], "placement": {},
            "replication": {}, "durability": {},
            "telemetry": {}}).to_dict() == defaults.to_dict()

    @pytest.mark.parametrize(
        "scheme", ["occ", "2pl_nowait", "2pl_waitdie", "none"])
    def test_cc_scheme_round_trips(self, scheme):
        config = shared_nothing(3, mpl=2, cc_scheme=scheme)
        via_dict = DeploymentConfig.from_dict(config.to_dict())
        assert via_dict.cc_scheme == scheme
        assert via_dict.to_dict() == config.to_dict()
        via_json = DeploymentConfig.from_json(config.to_json())
        assert via_json.cc_scheme == scheme

    def test_unknown_cc_scheme_rejected(self):
        with pytest.raises(DeploymentError):
            shared_nothing(2, cc_scheme="psychic")

    @pytest.mark.parametrize("data, key", [
        ({**shared_nothing(2).to_dict(), "cc_schema": "2pl_nowait"},
         "cc_schema"),
        ({}, "name"),
        ({"name": "x"}, "containers"),
        ({"name": "x", "containers": [{"executors": "a"}]},
         "executors"),
        ({"name": "x", "containers": [{"executers": 4}]}, "executers"),
        ({"name": "x", "containers": [4]}, "container"),
        # The sub-configs read as strictly as the top level: unknown
        # keys (telemetry used to ignore them; ``mode`` was an alias
        # ``to_dict`` never wrote) ...
        ({**_MINIMAL, "telemetry": {"enabeld": False}}, "enabeld"),
        # Metrics are always on: telemetry has no off switch to read.
        ({**_MINIMAL, "telemetry": {"enabled": False}}, "enabled"),
        ({**_MINIMAL, "durability": {"mode": "sync"}}, "mode"),
        # ... values of the wrong type (``bool("false")`` is True) ...
        ({**_MINIMAL, "durability": {"enabled": "false"}}, "enabled"),
        ({**_MINIMAL, "pin_reactors": "false"}, "pin_reactors"),
        ({**_MINIMAL, "snapshot_reads": "false"}, "snapshot_reads"),
        ({**_MINIMAL, "replication": {
            "replicas_per_container": 1, "mode": "sync",
            "read_from_replicas": "false"}}, "read_from_replicas"),
        ({**_MINIMAL, "telemetry": {"trace_system": "false"}},
         "trace_system"),
        ({**_MINIMAL, "telemetry": {"trace_sample": True}},
         "trace_sample"),
        ({**_MINIMAL, "replication": {"replicas_per_container": "two"}},
         "replicas_per_container"),
        ({**_MINIMAL, "replication": {"async_lag_us": "slow"}},
         "async_lag_us"),
        # Migration has no options: a ``migration`` block is a typo.
        ({**_MINIMAL, "migration": 5}, "migration"),
        # ... and what used to escape as a bare KeyError.
        ({**_MINIMAL, "placement": {"kind": "range"}}, "block_size"),
        ({**_MINIMAL, "placement": {"kind": "modulo", "block_size": 2}},
         "block_size"),
        ({**_MINIMAL, "machine": "cray"}, "machine"),
        # An explicit placement's values are container indexes: a
        # string used to surface as a TypeError at bootstrap, and
        # ``true`` was read as container 1.
        ({**_MINIMAL, "placement": {"kind": "explicit",
                                    "mapping": {"cust0": "0"}}},
         "cust0"),
        ({**_MINIMAL, "placement": {"kind": "explicit",
                                    "mapping": {"cust1": True}}},
         "cust1"),
    ])
    def test_malformed_config_rejected_naming_the_key(self, data, key):
        """Typos in config files must fail loudly, naming the key —
        a silently ignored ``cc_schema`` would run the wrong scheme,
        a silently ignored ``executers`` the wrong core count, a
        silently ignored ``enabeld: false`` leaves telemetry on."""
        with pytest.raises(DeploymentError, match=key):
            DeploymentConfig.from_dict(data)

    def test_integers_are_accepted_where_floats_are_expected(self):
        config = DeploymentConfig.from_dict(
            {**_MINIMAL, "replication": {"async_lag_us": 7}})
        assert config.replication.async_lag_us == 7.0
        assert type(config.replication.async_lag_us) is float

    def test_accepted_keys_are_exactly_the_serialized_ones(self):
        """One spelling per option: ``from_dict`` knows no alias that
        ``to_dict`` does not write, so a retired key is a typo."""
        config = shared_nothing(2)
        data = config.to_dict()
        assert set(DeploymentConfig.KEYS) == set(data)
        assert set(DeploymentConfig.CONTAINER_KEYS) == \
            set(data["containers"][0])
        for sub in (config.replication, config.durability,
                    config.telemetry):
            assert set(type(sub).KEYS) == set(sub.to_dict())

    def test_replication_round_trips(self):
        from repro.replication import ReplicationConfig

        config = shared_nothing(
            2, replication=ReplicationConfig(
                replicas_per_container=2, mode="async",
                read_from_replicas=True, async_lag_us=75.0))
        restored = DeploymentConfig.from_json(config.to_json())
        assert restored.replication == config.replication
        assert restored.to_dict() == config.to_dict()

    def test_replication_defaults_to_disabled(self):
        config = DeploymentConfig.from_dict({
            "name": "minimal", "containers": [{}]})
        assert not config.replication.enabled

    def test_architecture_change_is_config_only(self):
        """The paper's claim: architecture changes are config edits."""
        s3 = shared_nothing(4).to_dict()
        s2 = shared_everything_with_affinity(4).to_dict()
        assert s3 != s2
        # Both load through the same code path, no application change.
        assert DeploymentConfig.from_dict(s3).name == "shared-nothing"
        assert DeploymentConfig.from_dict(s2).name == \
            "shared-everything-with-affinity"
