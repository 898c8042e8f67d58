"""Cost model (Figure 3) unit tests."""

import pytest

from repro.bench.metrics import RunSummary
from repro.costmodel import (
    Calibration,
    Call,
    ForkJoinSpec,
    calibrate_from_summary,
    destinations,
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
