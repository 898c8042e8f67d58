"""TID encoding and epoch management tests."""

import pytest

from repro.concurrency.tid import (
    EPOCH_PERIOD_US,
    SEQ_BITS,
    SEQ_MASK,
    EpochManager,
    TidGenerator,
    make_tid,
)


class TestTidEncoding:
    def test_roundtrip(self):
        tid = make_tid(3, 77)
        assert tid >> SEQ_BITS == 3
        assert tid & SEQ_MASK == 77

    def test_epoch_dominates_ordering(self):
        assert make_tid(2, 1) > make_tid(1, 999_999)

    def test_sequence_overflow_guarded(self):
        with pytest.raises(OverflowError):
            make_tid(1, 1 << 33)


class TestEpochManager:
    def test_starts_at_one(self):
        assert EpochManager().epoch == 1

    def test_advances_with_time(self):
        epochs = EpochManager(period_us=100.0)
        assert epochs.observe_time(50.0) == 1
        assert epochs.observe_time(150.0) == 2
        assert epochs.observe_time(950.0) == 10

    def test_never_goes_backwards(self):
        epochs = EpochManager(period_us=100.0)
        epochs.observe_time(500.0)
        assert epochs.observe_time(10.0) == 6

    def test_default_period(self):
        assert EpochManager().period_us == EPOCH_PERIOD_US

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            EpochManager(period_us=0)


class TestTidGenerator:
    def test_monotonic(self):
        gen = TidGenerator(EpochManager())
        tids = [gen.next_tid(float(i)) for i in range(10)]
        assert tids == sorted(tids)
        assert len(set(tids)) == 10

    def test_respects_floor(self):
        gen = TidGenerator(EpochManager())
        floor = make_tid(1, 500)
        assert gen.next_tid(0.0, at_least=floor) > floor

    def test_epoch_embedded(self):
        epochs = EpochManager(period_us=100.0)
        gen = TidGenerator(epochs)
        tid = gen.next_tid(1000.0)
        assert tid >> SEQ_BITS >= 11

    def test_advance_to_syncs_counters(self):
        epochs = EpochManager()
        gen_a, gen_b = TidGenerator(epochs), TidGenerator(epochs)
        tid = gen_a.next_tid(1.0)
        gen_b.advance_to(tid)
        assert gen_b.next_tid(1.0) > tid
