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

from dataclasses import dataclass, field
from typing import Mapping, Sequence

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


# ----------------------------------------------------------------------
# Fitting the virtual cost model against real-hardware measurements
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MeasuredCosts:
    """Per-operation costs fitted from wall-clock measurements.

    Produced by :func:`fit_measured_costs` from runs on the
    ``threads`` execution backend: each sample pairs the operation
    counts a run performed with the CPU-busy microseconds it consumed,
    and the fit solves for the per-operation cost vector that best
    explains the measurements.  The result plugs straight into the
    certify-then-measure loop — certify a deployment on the sim
    backend, measure it on threads, then re-fit the sim's cost
    parameters so virtual predictions track the hardware.
    """

    #: Execution backend the measurements came from.
    backend: str
    #: Fitted microseconds per operation, keyed by operation name.
    costs: dict[str, float] = field(default_factory=dict)
    #: Root-mean-square residual of the fit (µs per sample).
    residual_us: float = 0.0
    #: Number of (counts, busy) samples the fit consumed.
    samples: int = 0


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting (tiny dense system)."""
    n = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) < 1e-12:
            raise ValueError("singular normal equations; add more "
                             "(or more varied) samples")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for row in range(n):
            if row == col:
                continue
            factor = aug[row][col] / aug[col][col]
            for k in range(col, n + 1):
                aug[row][k] -= factor * aug[col][k]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def fit_measured_costs(
        samples: Sequence[tuple[Mapping[str, float], float]],
        backend: str = "threads",
        ridge: float = 1e-9) -> MeasuredCosts:
    """Least-squares fit of per-operation costs to measured busy time.

    ``samples`` is a sequence of ``(op_counts, busy_us)`` pairs: how
    many of each operation a measured run performed (e.g. commits,
    remote sub-calls, log appends — any counters the caller trusts)
    and the wall-clock CPU-busy microseconds the run consumed
    (``ThreadsBackend.container_busy_us`` totals, or a measurement
    window's ``core_busy`` sum on sim).  Solves the normal equations
    ``(AᵀA + ridge·I) c = Aᵀb`` for the cost vector ``c`` ≥ 0 is *not*
    enforced — a negative fitted cost is a signal the sample set does
    not separate that operation, not a value to clamp silently.

    Needs at least as many samples as distinct operations, with
    linearly independent count vectors (vary the workload mix or the
    container count between samples).
    """
    if not samples:
        raise ValueError("no samples to fit")
    ops = sorted({op for counts, __ in samples for op in counts})
    if len(samples) < len(ops):
        raise ValueError(
            f"{len(ops)} operations but only {len(samples)} samples; "
            "the fit is underdetermined")
    design = [[float(counts.get(op, 0.0)) for op in ops]
              for counts, __ in samples]
    busy = [float(b) for __, b in samples]
    n = len(ops)
    normal = [[sum(row[i] * row[j] for row in design)
               + (ridge if i == j else 0.0)
               for j in range(n)] for i in range(n)]
    rhs = [sum(row[i] * b for row, b in zip(design, busy))
           for i in range(n)]
    solution = _solve(normal, rhs)
    costs = dict(zip(ops, solution))
    sq_err = 0.0
    for row, b in zip(design, busy):
        predicted = sum(c * x for c, x in zip(solution, row))
        sq_err += (predicted - b) ** 2
    residual = (sq_err / len(samples)) ** 0.5
    return MeasuredCosts(backend=backend, costs=costs,
                         residual_us=residual, samples=len(samples))
