"""Open-loop load generation with coordinated-omission-aware recording.

Closed-loop benchmarks (``repro.bench``) measure what N captive
workers experience: each worker waits for its previous transaction
before issuing the next, so a slow server *slows the clients down* and
the recorded latencies silently exclude the requests that were never
sent.  That artifact is *coordinated omission*, and it makes tail
latencies look far better than what an independent client population
would see.

The open-loop generator here avoids it by construction:

* an :class:`ArrivalSchedule` fixes every request's *intended* send
  time before the run starts (fixed-interval or Poisson arrivals at a
  target rate) — arrivals do not react to the server;
* each request's latency is measured from its **intended** send time
  to its completion, not from when the sender thread actually got
  around to writing it.  If the sender falls behind, the queueing delay
  it induced is charged to the requests, exactly as a real independent
  client would experience it;
* the sender never re-anchors the schedule — a stall makes subsequent
  requests late (and their recorded latency larger), it does not
  quietly stretch the experiment.

Percentiles are exact nearest-rank over every recorded sample — no
histogram bucketing error at the p999 tail.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable

from repro.bench.metrics import percentile

#: A request factory: index -> (reactor, proc, args).
SpecFor = Callable[[int], tuple[str, str, tuple]]


class ArrivalSchedule:
    """Intended send times (seconds from run start) for one run.

    Built ahead of the run so arrivals are independent of server
    behavior — the defining property of an open-loop workload.
    """

    __slots__ = ("kind", "rate_tps", "offsets_s")

    def __init__(self, kind: str, rate_tps: float,
                 offsets_s: list[float]) -> None:
        self.kind = kind
        self.rate_tps = rate_tps
        self.offsets_s = offsets_s

    def __len__(self) -> int:
        return len(self.offsets_s)

    @classmethod
    def fixed(cls, rate_tps: float, count: int) -> "ArrivalSchedule":
        """Deterministic arrivals every ``1/rate`` seconds."""
        if rate_tps <= 0:
            raise ValueError("arrival rate must be positive")
        gap = 1.0 / rate_tps
        return cls("fixed", rate_tps,
                   [i * gap for i in range(count)])

    @classmethod
    def poisson(cls, rate_tps: float, count: int,
                seed: int = 42) -> "ArrivalSchedule":
        """Memoryless arrivals: exponential gaps at mean ``1/rate``."""
        if rate_tps <= 0:
            raise ValueError("arrival rate must be positive")
        rng = random.Random(seed)
        offsets: list[float] = []
        at = 0.0
        for _ in range(count):
            at += rng.expovariate(rate_tps)
            offsets.append(at)
        return cls("poisson", rate_tps, offsets)


class OpenLoopResult:
    """What one open-loop run produced, percentiles included."""

    __slots__ = ("schedule", "offered", "committed", "shed", "failed",
                 "duration_s", "latencies_us", "max_send_lag_us")

    def __init__(self, schedule: ArrivalSchedule, offered: int,
                 committed: int, shed: int, failed: int,
                 duration_s: float, latencies_us: list[float],
                 max_send_lag_us: float) -> None:
        self.schedule = schedule
        self.offered = offered
        self.committed = committed
        self.shed = shed
        self.failed = failed
        self.duration_s = duration_s
        #: Ascending intended-send-to-completion latencies of
        #: *successful* requests, microseconds.
        self.latencies_us = latencies_us
        #: Worst observed actual-minus-intended send lag — how far the
        #: sender itself fell behind the schedule.
        self.max_send_lag_us = max_send_lag_us

    def percentile_us(self, pct: float) -> float:
        return percentile(self.latencies_us, pct)

    @property
    def p50_us(self) -> float:
        return self.percentile_us(50.0)

    @property
    def p99_us(self) -> float:
        return self.percentile_us(99.0)

    @property
    def p999_us(self) -> float:
        return self.percentile_us(99.9)

    @property
    def mean_us(self) -> float:
        if not self.latencies_us:
            return 0.0
        return sum(self.latencies_us) / len(self.latencies_us)

    @property
    def achieved_tps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.committed / self.duration_s

    @property
    def shed_fraction(self) -> float:
        if self.offered == 0:
            return 0.0
        return self.shed / self.offered

    def summary(self) -> dict[str, Any]:
        """One BENCH_*.json row fragment for this run."""
        return {
            "arrival_rate": self.schedule.rate_tps,
            "arrival_process": self.schedule.kind,
            "offered": self.offered,
            "committed": self.committed,
            "shed": self.shed,
            "failed": self.failed,
            "shed_fraction": round(self.shed_fraction, 6),
            "throughput_tps": round(self.achieved_tps, 3),
            "latency_us": round(self.mean_us, 3),
            "p50_us": round(self.p50_us, 3),
            "p99_us": round(self.p99_us, 3),
            "p999_us": round(self.p999_us, 3),
            "max_send_lag_us": round(self.max_send_lag_us, 3),
        }


def run_open_loop(client: Any, schedule: ArrivalSchedule,
                  spec_for: SpecFor, *,
                  read_only: bool | None = None,
                  timeout: float = 60.0) -> OpenLoopResult:
    """Drive ``client`` through one open-loop run of ``schedule``.

    ``client`` is anything with the :class:`repro.client.Client`
    surface (submissions resolve asynchronously — in practice a
    ``TcpClient``, where the server's reply resolves them).  Latency is
    recorded from each request's *intended* send time; a shed request
    (typed ``overloaded``) counts in ``shed`` and contributes no
    latency sample, any other failure counts in ``failed``.
    """
    n = len(schedule.offsets_s)
    lock = threading.Lock()
    latencies: list[float] = []
    counts = {"committed": 0, "shed": 0, "failed": 0}
    pending = threading.Semaphore(0)

    start = time.perf_counter()
    max_lag_s = 0.0
    for index, offset in enumerate(schedule.offsets_s):
        intended = start + offset
        delay = intended - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        else:
            max_lag_s = max(max_lag_s, -delay)
        reactor, proc, args = spec_for(index)

        def _done(outcome: Any, _intended: float = intended) -> None:
            elapsed_us = (time.perf_counter() - _intended) * 1e6
            with lock:
                if outcome.committed:
                    counts["committed"] += 1
                    latencies.append(elapsed_us)
                elif getattr(outcome, "shed", False):
                    counts["shed"] += 1
                else:
                    counts["failed"] += 1
            pending.release()

        client.submit(reactor, proc, *args, read_only=read_only,
                      on_done=_done)

    deadline = time.monotonic() + timeout
    for _ in range(n):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not pending.acquire(timeout=remaining):
            raise TimeoutError(
                "open-loop run did not drain within "
                f"{timeout:.1f}s ({n} offered)")
    duration = time.perf_counter() - start

    latencies.sort()
    return OpenLoopResult(
        schedule, n, counts["committed"], counts["shed"],
        counts["failed"], duration, latencies, max_lag_s * 1e6)


__all__ = ["ArrivalSchedule", "OpenLoopResult", "SpecFor",
           "run_open_loop"]
