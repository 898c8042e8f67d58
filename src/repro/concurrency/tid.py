"""Transaction identifiers and epochs (Silo-style).

Silo assigns each committed transaction a TID composed of an epoch
number and a per-worker sequence, such that TIDs order transactions
consistently with their serial order within an epoch.  Our simulated
reproduction keeps the same structure — ``(epoch << SEQ_BITS) | seq`` —
with a per-container sequence counter.  Epochs advance on virtual-time
boundaries; they matter for TID comparison semantics and are exercised
by tests, though we do not implement durability (the paper's prototype
does not either).
"""

from __future__ import annotations

SEQ_BITS = 32
SEQ_MASK = (1 << SEQ_BITS) - 1

#: Virtual microseconds per epoch (Silo uses 40 ms wall-clock epochs).
EPOCH_PERIOD_US = 40_000.0


def make_tid(epoch: int, seq: int) -> int:
    """Pack an epoch and sequence number into a TID."""
    if seq > SEQ_MASK:
        raise OverflowError("sequence number overflow within epoch")
    return (epoch << SEQ_BITS) | seq


class EpochManager:
    """Advances the global epoch with virtual time."""

    __slots__ = ("period_us", "_epoch")

    def __init__(self, period_us: float = EPOCH_PERIOD_US) -> None:
        if period_us <= 0:
            raise ValueError("epoch period must be positive")
        self.period_us = period_us
        self._epoch = 1

    @property
    def epoch(self) -> int:
        return self._epoch

    def observe_time(self, now_us: float) -> int:
        """Advance the epoch to cover the given virtual time."""
        target = 1 + int(now_us / self.period_us)
        if target > self._epoch:
            self._epoch = target
        return self._epoch


class TidGenerator:
    """Per-container monotonic TID source.

    The commit TID of a transaction must exceed every TID in its read
    and write sets (Silo's rule); callers pass that floor via
    ``at_least``.
    """

    __slots__ = ("_epochs", "_last")

    def __init__(self, epochs: EpochManager) -> None:
        self._epochs = epochs
        self._last = make_tid(epochs.epoch, 0)

    @property
    def last(self) -> int:
        return self._last

    def next_tid(self, now_us: float, at_least: int = 0) -> int:
        # make_tid(max(epoch(floor), epoch), seq(floor) + 1) over
        # floor = max(last, at_least, make_tid(epoch, 0)), as integer
        # arithmetic: the epoch floor is already folded into ``floor``,
        # so the next TID is simply its successor.
        floor = self._epochs.observe_time(now_us) << SEQ_BITS
        if self._last > floor:
            floor = self._last
        if at_least > floor:
            floor = at_least
        if floor & SEQ_MASK == SEQ_MASK:
            raise OverflowError("sequence number overflow within epoch")
        self._last = tid = floor + 1
        return tid

    def advance_to(self, tid: int) -> None:
        """Raise the local counter (used after 2PC picks a global TID)."""
        if tid > self._last:
            self._last = tid
