"""Cost model (Figure 3) unit tests."""

import pytest

from repro.bench.metrics import RunSummary
from repro.costmodel import (
    Calibration,
    Call,
    ForkJoinSpec,
    MeasuredCosts,
    calibrate_from_summary,
    destinations,
    fit_measured_costs,
    multi_transfer,
    predict_observable_breakdown,
    tpcc_new_order,
    ycsb_multi_update,
)

CAL = Calibration(cs=1.5, cr=4.5, leaf_exec=2.0, commit_input_gen=9.0)


class TestEquation:
    def test_pure_processing(self):
        assert ForkJoinSpec(p_seq=5.0).latency() == 5.0

    def test_sync_children_add_up(self):
        spec = ForkJoinSpec(
            p_seq=1.0,
            sync_seq=[Call(ForkJoinSpec.leaf(2.0), cs=1.0, cr=3.0)])
        assert spec.latency() == 1.0 + 2.0 + 1.0 + 3.0

    def test_inline_children_have_no_comm(self):
        spec = ForkJoinSpec(sync_seq=[Call(ForkJoinSpec.leaf(2.0))])
        assert spec.latency() == 2.0

    def test_async_children_overlap(self):
        # Two async children of 10 each: latency is bounded by the
        # slowest chain, not the sum.
        spec = ForkJoinSpec(async_calls=[
            Call(ForkJoinSpec.leaf(10.0), cs=1.0, cr=2.0),
            Call(ForkJoinSpec.leaf(10.0), cs=1.0, cr=2.0),
        ])
        assert spec.latency() == 10.0 + 2.0 + 2.0  # L + cr + prefix cs

    def test_prefix_send_costs_accumulate(self):
        calls = [Call(ForkJoinSpec.leaf(0.0), cs=1.0, cr=0.0)
                 for __ in range(5)]
        assert ForkJoinSpec(async_calls=calls).latency() == 5.0

    def test_overlap_leg_can_dominate(self):
        spec = ForkJoinSpec(
            async_calls=[Call(ForkJoinSpec.leaf(1.0), cs=1.0, cr=1.0)],
            p_ovp=100.0)
        assert spec.latency() == 100.0

    def test_recursive_nesting(self):
        inner = ForkJoinSpec(
            p_seq=1.0,
            sync_seq=[Call(ForkJoinSpec.leaf(2.0), cs=0.5, cr=0.5)])
        outer = ForkJoinSpec(sync_seq=[Call(inner, cs=1.0, cr=1.0)])
        assert outer.latency() == (1.0 + 2.0 + 1.0) + 2.0

    def test_sync_ovp_competes_with_async(self):
        spec = ForkJoinSpec(
            async_calls=[Call(ForkJoinSpec.leaf(3.0), cs=1.0, cr=1.0)],
            sync_ovp=[Call(ForkJoinSpec.leaf(2.0), cs=1.0, cr=1.0)])
        # async leg: 3 + 1 + 1 = 5; overlap leg: 2 + 2 = 4.
        assert spec.latency() == 5.0


class TestMultiTransferSpecs:
    def _comm(self, size, remote=True):
        return destinations(CAL, size, [remote] * size)

    def test_ordering_fully_sync_slowest(self):
        comm = self._comm(7)
        latencies = {
            variant: multi_transfer(variant, CAL, comm).latency()
            for variant in ("fully-sync", "partially-async",
                            "fully-async", "opt")
        }
        assert latencies["fully-sync"] > latencies["partially-async"]
        assert latencies["partially-async"] > latencies["fully-async"]
        # opt only strictly wins once processing is not fully hidden
        # under the communication chain (the max() in Figure 3).
        assert latencies["fully-async"] >= latencies["opt"]
        heavy = Calibration(cs=0.5, cr=0.5, leaf_exec=5.0,
                            commit_input_gen=0.0)
        heavy_comm = destinations(heavy, 7, [True] * 7)
        assert multi_transfer("fully-async", heavy,
                              heavy_comm).latency() > \
            multi_transfer("opt", heavy, heavy_comm).latency()

    def test_monotone_in_size(self):
        for variant in ("fully-sync", "opt"):
            previous = 0.0
            for size in range(1, 8):
                latency = multi_transfer(
                    variant, CAL, self._comm(size)).latency()
                assert latency >= previous
                previous = latency

    def test_local_cheaper_than_remote(self):
        remote = multi_transfer("fully-sync", CAL, self._comm(5))
        local = multi_transfer("fully-sync", CAL,
                               self._comm(5, remote=False))
        assert local.latency() < remote.latency()

    def test_fully_sync_is_linear(self):
        lat = [multi_transfer("fully-sync", CAL,
                              self._comm(n)).latency()
               for n in (1, 2, 3)]
        assert lat[2] - lat[1] == pytest.approx(lat[1] - lat[0])

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            multi_transfer("telepathic", CAL, self._comm(1))

    def test_destinations_flag_validation(self):
        with pytest.raises(ValueError):
            destinations(CAL, 3, [True])


class TestOtherPrograms:
    def test_ycsb_more_async_is_slower_than_local(self):
        all_remote = ycsb_multi_update(CAL, n_async=10, n_local=0)
        all_local = ycsb_multi_update(CAL, n_async=0, n_local=10)
        # Dispatching a remote update costs more than doing one
        # locally (the Appendix C observation).
        assert all_remote.latency() > all_local.latency()

    def test_ycsb_fractional_counts(self):
        spec = ycsb_multi_update(CAL, n_async=2.5, n_local=1.0)
        assert len(spec.async_calls) == 3
        assert spec.latency() > 0

    def test_tpcc_new_order_batches_overlap(self):
        one_batch = tpcc_new_order(CAL, local_work=10.0,
                                   remote_batches=[10.0])
        five_batches = tpcc_new_order(
            CAL, local_work=10.0, remote_batches=[2.0] * 5)
        # Five small overlapped batches beat one large batch.
        assert five_batches.latency() < one_batch.latency()


class TestObservableBreakdown:
    def test_components_sum_to_total(self):
        comm = destinations(CAL, 5, [True] * 5)
        for variant in ("fully-sync", "partially-async",
                        "fully-async", "opt"):
            spec = multi_transfer(variant, CAL, comm)
            parts = predict_observable_breakdown(spec, 9.0)
            component_sum = sum(
                v for k, v in parts.items() if k != "total")
            assert component_sum == pytest.approx(parts["total"])

    def test_fully_sync_has_no_async_component(self):
        spec = multi_transfer("fully-sync", CAL,
                              destinations(CAL, 3, [True] * 3))
        parts = predict_observable_breakdown(spec)
        assert parts["async_execution"] == pytest.approx(0.0)

    def test_partially_async_pays_cr_per_transfer(self):
        spec = multi_transfer("partially-async", CAL,
                              destinations(CAL, 4, [True] * 4))
        parts = predict_observable_breakdown(spec)
        assert parts["cr"] == pytest.approx(4 * CAL.cr)

    def test_opt_pays_one_blocking_cr(self):
        spec = multi_transfer("opt", CAL,
                              destinations(CAL, 4, [True] * 4))
        parts = predict_observable_breakdown(spec)
        assert parts["cr"] == pytest.approx(CAL.cr)


class TestCalibration:
    def test_from_summary(self):
        summary = RunSummary(breakdown={
            "sync_execution": 8.0, "cs": 1.5, "cr": 4.5,
            "async_execution": 0.0, "commit_input_gen": 9.0,
        })
        calibration = calibrate_from_summary(summary, n_remote_sync=1,
                                             leaf_per_sync=2)
        assert calibration.cs == 1.5
        assert calibration.cr == 4.5
        assert calibration.leaf_exec == 4.0
        assert calibration.commit_input_gen == 9.0

    def test_needs_data(self):
        with pytest.raises(ValueError):
            calibrate_from_summary(RunSummary())


class TestMeasuredCostFit:
    """fit_measured_costs: least-squares over (op_counts, busy_us)."""

    TRUE = {"commit": 12.0, "remote_call": 3.5, "log_append": 0.8}

    def _sample(self, counts):
        busy = sum(self.TRUE[op] * n for op, n in counts.items())
        return counts, busy

    def test_exact_recovery_on_noiseless_samples(self):
        samples = [
            self._sample({"commit": 10, "remote_call": 0,
                          "log_append": 10}),
            self._sample({"commit": 5, "remote_call": 20,
                          "log_append": 5}),
            self._sample({"commit": 8, "remote_call": 4,
                          "log_append": 40}),
            self._sample({"commit": 20, "remote_call": 7,
                          "log_append": 0}),
        ]
        fit = fit_measured_costs(samples, backend="threads")
        assert isinstance(fit, MeasuredCosts)
        assert fit.backend == "threads"
        assert fit.samples == 4
        for op, true_cost in self.TRUE.items():
            assert fit.costs[op] == pytest.approx(true_cost, rel=1e-5)
        assert fit.residual_us == pytest.approx(0.0, abs=1e-6)

    def test_residual_reflects_noise(self):
        counts, busy = self._sample({"commit": 10, "remote_call": 10,
                                     "log_append": 10})
        samples = [
            self._sample({"commit": 10, "remote_call": 0,
                          "log_append": 10}),
            self._sample({"commit": 5, "remote_call": 20,
                          "log_append": 5}),
            self._sample({"commit": 8, "remote_call": 4,
                          "log_append": 40}),
            (counts, busy + 30.0),  # one perturbed observation
        ]
        fit = fit_measured_costs(samples)
        assert fit.residual_us > 0.0

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            fit_measured_costs([])

    def test_underdetermined_rejected(self):
        samples = [self._sample({"commit": 1, "remote_call": 1,
                                 "log_append": 1})]
        with pytest.raises(ValueError, match="underdetermined"):
            fit_measured_costs(samples)

    def test_dependent_samples_rejected(self):
        base = {"commit": 2, "remote_call": 4, "log_append": 6}
        samples = [self._sample(base),
                   self._sample({k: 2 * v for k, v in base.items()}),
                   self._sample({k: 3 * v for k, v in base.items()})]
        with pytest.raises(ValueError, match="singular"):
            fit_measured_costs(samples, ridge=0.0)
