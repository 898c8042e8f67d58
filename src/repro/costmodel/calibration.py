"""Cost-model parameter calibration from profiled runs.

The paper calibrates the Figure 3 parameters by profiling a minimal
configuration (e.g. a size-1 fully-sync multi-transfer, or a new-order
with one local and one remote item) and then predicts other sizes and
program formulations.  This module reproduces that workflow: it
extracts ``Cs``, ``Cr``, per-sub-transaction processing and commit
overheads from a :class:`~repro.bench.metrics.RunSummary` breakdown.

Calibration is intentionally *measurement-based* — it never peeks at
the simulator's true cost parameters, so prediction error reflects the
same estimation issues the paper discusses (Section 2.4 limitations).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.metrics import RunSummary


@dataclass(frozen=True)
class Calibration:
    """Calibrated cost-model parameters (all microseconds)."""

    #: Send cost per remote sub-transaction invocation.
    cs: float
    #: Receive cost per (blocking) remote result consumption.
    cr: float
    #: Execution time of one leaf sub-transaction (e.g. one
    #: transact_saving, one stock-update item, one YCSB update).
    leaf_exec: float
    #: Commit + input generation + client dispatch overhead measured
    #: at the calibration point (root transactions only; not part of
    #: the Figure 3 equation).
    commit_input_gen: float


def calibrate_from_summary(summary: RunSummary, n_remote_sync: int = 1,
                           leaf_per_sync: int = 2) -> Calibration:
    """Calibrate from a fully-synchronous single-leaf-chain profile.

    For a size-1 fully-sync multi-transfer: one remote synchronous
    credit plus one local debit; the ``sync_execution`` bucket then
    holds approximately two leaf executions (the remote credit's
    execution observed as synchronous wait, and the local debit), so
    ``leaf_exec = sync_execution / leaf_per_sync``.  ``cs``/``cr`` are
    read off their buckets directly (divided by the number of remote
    synchronous calls profiled).

    This mirrors the paper's procedure and inherits its imprecision:
    parameters are measured "within the 5 usec range" and the split of
    ``sync_execution`` between wait and processing is approximate.
    """
    if n_remote_sync < 1:
        raise ValueError("need at least one remote call to calibrate")
    breakdown = summary.breakdown
    if not breakdown:
        raise ValueError("summary has no committed transactions")
    cs = breakdown.get("cs", 0.0) / n_remote_sync
    cr = breakdown.get("cr", 0.0) / n_remote_sync
    sync_exec = breakdown.get("sync_execution", 0.0)
    leaf_exec = sync_exec / max(1, leaf_per_sync * n_remote_sync)
    return Calibration(
        cs=cs,
        cr=cr,
        leaf_exec=leaf_exec,
        commit_input_gen=breakdown.get("commit_input_gen", 0.0),
    )

