"""Ablation: cost and behavior of the dynamic safety condition.

Measures (a) the bookkeeping overhead of active-set tracking on a
workload that never violates it, and (b) the abort behavior of a
workload that does: transactions issuing two concurrent asynchronous
sub-transactions to one reactor must abort under shared-nothing and
execute fine (inlined, sequential) under shared-everything —
demonstrating that the condition is dynamic, not static.
"""

from __future__ import annotations

from repro.bench.harness import run_measurement
from repro.bench.report import print_table
from repro.core.deployment import (
    shared_everything_with_affinity,
    shared_nothing,
)
from repro.experiments.common import loaded_smallbank
from repro.workloads import smallbank

N = 12

QUICK = dict(measure_us=40_000.0)


def _race_factory(worker_id: int):
    def factory(worker):
        src = smallbank.reactor_name(worker.rng.randrange(N))
        dst = smallbank.reactor_name((int(src[4:]) + 1) % N)
        # fully-async to a single destination twice: two concurrent
        # sub-transactions on the same reactor within one root.
        return (src, "multi_transfer_fully_async",
                (src, (dst, dst), 1.0))
    return factory


def _safe_factory(worker_id: int):
    def factory(worker):
        src = smallbank.reactor_name(worker.rng.randrange(N))
        dsts = tuple(smallbank.reactor_name((int(src[4:]) + k) % N)
                     for k in (1, 2, 4))
        return (src, "multi_transfer_fully_async", (src, dsts, 1.0))
    return factory


def _danger_aborts(result) -> int:
    """Aborts caused by the safety condition specifically (OCC
    validation conflicts under contention are a different story)."""
    return sum(1 for s in result.raw_stats
               if not s.committed and s.abort_reason
               and "race on reactor" in s.abort_reason)


def _measure(deployment, factory_for, measure_us: float):
    return run_measurement(loaded_smallbank(deployment, N), 2, factory_for,
                           warmup_us=5_000.0, measure_us=measure_us,
                           n_epochs=4)


SAFE = "safe fan-out, shared-nothing"
RACING = "same-reactor race, shared-nothing"
INLINED = "same-reactor race, shared-everything"


def run(measure_us: float = 40_000.0) -> dict:
    """Scenario label -> MeasurementResult."""
    return {
        # (a) overhead question: safe fan-outs under shared-nothing
        # never trip the condition (its bookkeeping is O(1) dict work
        # per call); any aborts are ordinary OCC conflicts between the
        # two workers.
        SAFE: _measure(shared_nothing(3), _safe_factory, measure_us),
        # (b) dangerous program: aborts under shared-nothing...
        RACING: _measure(shared_nothing(3), _race_factory,
                         measure_us),
        # ...but executes fine when calls inline under
        # shared-everything.
        INLINED: _measure(shared_everything_with_affinity(3),
                          _race_factory, measure_us),
    }


def report(results):
    print_table(
        "Ablation: dynamic safety condition",
        ["scenario", "committed", "aborted", "abort %"],
        [[label, r.summary.committed, r.summary.aborted,
          round(r.summary.abort_rate * 100, 2)]
         for label, r in results.items()])


def check(results):
    assert _danger_aborts(results[SAFE]) == 0
    racing = results[RACING].summary
    assert racing.abort_rate > 0.9  # dangerous structure aborted
    assert _danger_aborts(results[RACING]) > 0.9 * racing.aborted
    assert _danger_aborts(results[INLINED]) == 0  # inlined is safe
