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
    ])
    def test_malformed_config_rejected_naming_the_key(self, data, key):
        """Typos in config files must fail loudly, naming the key —
        a silently ignored ``cc_schema`` would run the wrong scheme,
        a silently ignored ``executers`` the wrong core count."""
        with pytest.raises(DeploymentError, match=key):
            DeploymentConfig.from_dict(data)

    def test_accepted_keys_are_exactly_the_serialized_ones(self):
        """One spelling per option: ``from_dict`` knows no alias that
        ``to_dict`` does not write, so a retired key is a typo."""
        data = shared_nothing(2).to_dict()
        assert DeploymentConfig.KNOWN_KEYS == set(data)
        assert DeploymentConfig.CONTAINER_KEYS == \
            set(data["containers"][0])

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
