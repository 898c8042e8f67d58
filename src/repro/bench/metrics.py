"""Measurement aggregation.

Follows the paper's methodology (Section 4.1.2, after OLTP-Bench): a
run is divided into fixed-length epochs; average latency / throughput
is computed per epoch over *successful* transactions, and the mean and
standard deviation across epochs are reported.  Abort rates are
reported over the whole measurement window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.runtime.transaction import CATEGORIES, TxnStats


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def stddev(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values)
                     / (len(values) - 1))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; q in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    # The epsilon keeps an exact rank exact: 99.9% of 1000 computes
    # to 999.0000000000001 in floats, which must not ceil to 1000.
    rank = math.ceil(q / 100.0 * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


@dataclass
class EpochSummary:
    """Per-epoch successful-transaction statistics."""

    epoch: int
    committed: int
    aborted: int
    throughput_tps: float
    mean_latency_us: float


@dataclass
class RunSummary:
    """Aggregated statistics for one measurement run."""

    committed: int = 0
    aborted: int = 0
    user_aborts: int = 0
    #: mean of per-epoch throughputs (txn/sec) and its std deviation
    throughput_tps: float = 0.0
    throughput_std: float = 0.0
    #: mean of per-epoch mean latencies (microseconds)
    latency_us: float = 0.0
    p50_us: float = 0.0
    p99_us: float = 0.0
    #: average latency breakdown by cost-model category (microseconds)
    breakdown: dict[str, float] = field(default_factory=dict)
    epochs: list[EpochSummary] = field(default_factory=list)

    @property
    def abort_rate(self) -> float:
        total = self.committed + self.aborted
        return self.aborted / total if total else 0.0

    @property
    def throughput_ktps(self) -> float:
        return self.throughput_tps / 1000.0

    @property
    def latency_ms(self) -> float:
        return self.latency_us / 1000.0


def summarize(stats: Iterable[TxnStats], window_start: float,
              window_end: float, n_epochs: int = 10) -> RunSummary:
    """Aggregate transaction stats over ``[window_start, window_end)``.

    Transactions completing outside the window (warmup / drain) are
    ignored.  The window is split into ``n_epochs`` equal epochs.
    """
    if window_end <= window_start:
        raise ValueError("empty measurement window")
    in_window = [s for s in stats
                 if window_start <= s.end < window_end]
    committed = [s for s in in_window if s.committed]
    aborted = [s for s in in_window if not s.committed]

    epoch_len = (window_end - window_start) / n_epochs
    epochs: list[EpochSummary] = []
    for e in range(n_epochs):
        lo = window_start + e * epoch_len
        hi = lo + epoch_len
        epoch_committed = [s for s in committed if lo <= s.end < hi]
        epoch_aborted = sum(1 for s in aborted if lo <= s.end < hi)
        latencies = [s.latency for s in epoch_committed]
        epochs.append(EpochSummary(
            epoch=e,
            committed=len(epoch_committed),
            aborted=epoch_aborted,
            throughput_tps=len(epoch_committed) / (epoch_len / 1e6),
            mean_latency_us=mean(latencies),
        ))

    summary = RunSummary(
        committed=len(committed),
        aborted=len(aborted),
        user_aborts=sum(1 for s in aborted if s.user_abort),
        epochs=epochs,
    )
    tputs = [e.throughput_tps for e in epochs]
    # Epochs with no completions contribute zero throughput but no
    # latency sample.
    lats = [e.mean_latency_us for e in epochs if e.committed]
    summary.throughput_tps = mean(tputs)
    summary.throughput_std = stddev(tputs)
    summary.latency_us = mean(lats)
    all_lats = [s.latency for s in committed]
    summary.p50_us = percentile(all_lats, 50)
    summary.p99_us = percentile(all_lats, 99)
    if committed:
        summary.breakdown = {
            cat: mean([s.breakdown.get(cat, 0.0) for s in committed])
            for cat in CATEGORIES
        }
    return summary
