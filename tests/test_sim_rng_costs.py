"""Tests for RNG streams, zipfian generation, costs and machines."""

import random

import pytest

from repro.sim.costs import CostParameters
from repro.sim.machine import (
    OPTERON_6274,
    XEON_E3_1276,
    MachineProfile,
    get_profile,
)
from repro.sim.rng import RngFactory, ZipfianGenerator


class TestRngFactory:
    def test_streams_are_reproducible(self):
        a = RngFactory(1).stream("x").random()
        b = RngFactory(1).stream("x").random()
        assert a == b

    def test_streams_are_independent_by_name(self):
        factory = RngFactory(1)
        assert factory.stream("x").random() != \
            factory.stream("y").random()

    def test_seed_changes_stream(self):
        assert RngFactory(1).stream("x").random() != \
            RngFactory(2).stream("x").random()


class TestZipfian:
    def test_range(self):
        zipf = ZipfianGenerator(100, 0.99, random.Random(1))
        values = [zipf.next() for __ in range(1000)]
        assert all(0 <= v < 100 for v in values)

    def test_zero_theta_is_uniformish(self):
        zipf = ZipfianGenerator(10, 0.0, random.Random(1))
        values = [zipf.next() for __ in range(5000)]
        counts = [values.count(i) for i in range(10)]
        assert min(counts) > 300  # roughly uniform

    def test_high_theta_concentrates_on_head(self):
        zipf = ZipfianGenerator(10_000, 5.0, random.Random(1))
        values = [zipf.next() for __ in range(1000)]
        assert values.count(0) > 900

    def test_moderate_skew_orders_popularity(self):
        zipf = ZipfianGenerator(1000, 0.99, random.Random(1))
        values = [zipf.next() for __ in range(20_000)]
        assert values.count(0) > values.count(100) > 0

    def test_higher_theta_more_skew(self):
        low = ZipfianGenerator(1000, 0.5, random.Random(1))
        high = ZipfianGenerator(1000, 0.99, random.Random(1))
        low_head = sum(1 for __ in range(5000) if low.next() < 10)
        high_head = sum(1 for __ in range(5000) if high.next() < 10)
        assert high_head > low_head

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0, 0.5, random.Random(1))
        with pytest.raises(ValueError):
            ZipfianGenerator(10, -1.0, random.Random(1))


class TestCostParameters:
    def test_defaults_have_receive_asymmetry(self):
        costs = CostParameters()
        assert costs.cr > costs.cs  # the paper's Cs/Cr asymmetry

    def test_scaled(self):
        base = CostParameters()
        costs = base.container_scaled(2.0)
        assert costs.cs == pytest.approx(base.cs * 2)
        assert costs.fsync_cost == pytest.approx(base.fsync_cost * 2)
        # Network delays, ratios and flush-policy knobs stay put.
        assert costs.transport_delay == base.transport_delay
        assert costs.repl_ship_delay == base.repl_ship_delay
        assert costs.cold_access_factor == base.cold_access_factor
        assert costs.flush_interval_us == base.flush_interval_us

    def test_symmetric_ablation(self):
        costs = CostParameters().with_symmetric_communication()
        assert costs.cr == costs.cs

    def test_frozen(self):
        with pytest.raises(Exception):
            CostParameters().cs = 1.0  # type: ignore[misc]


class TestMachineProfiles:
    def test_profiles_registered(self):
        assert get_profile("xeon-e3-1276") is XEON_E3_1276
        assert get_profile("opteron-6274") is OPTERON_6274

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            get_profile("cray-1")

    def test_opteron_has_more_threads_and_costlier_cross_core(self):
        assert OPTERON_6274.hardware_threads > \
            XEON_E3_1276.hardware_threads
        assert OPTERON_6274.costs.cr > XEON_E3_1276.costs.cr

    def test_machine_needs_threads(self):
        with pytest.raises(ValueError):
            MachineProfile(name="dud", hardware_threads=0)
