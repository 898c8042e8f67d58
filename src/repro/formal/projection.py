"""Projection from the reactor model to the classic model.

Executable Definitions 2.3-2.6: the projection renames each data item
by concatenating its reactor identifier (so the disjoint per-reactor
address spaces map into one), unrolls sub-transactions into plain
read/write operations, and preserves the ordering of conflicting
operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.formal.history import ReactorHistory, conflict_edges
from repro.formal.ops import COMMIT, Op, Terminal


@dataclass(frozen=True)
class ClassicOp:
    """A classic-model operation over the merged address space (version
    TIDs carried over, as on :class:`~repro.formal.ops.Op`)."""

    kind: str
    txn: int
    item: str  # "reactor::item" after the name mapping
    tid: int = 0
    snapshot: int | None = None

    def __repr__(self) -> str:
        return f"{self.kind}[{self.txn}:{self.item}]"


@dataclass
class ClassicHistory:
    """A totally ordered classic-model history."""

    events: list[ClassicOp | Terminal] = field(default_factory=list)

    def committed_txns(self) -> set[int]:
        return {e.txn for e in self.events
                if isinstance(e, Terminal) and e.kind == COMMIT}

    def committed_operations(self) -> list[ClassicOp]:
        committed = self.committed_txns()
        return [e for e in self.events
                if isinstance(e, ClassicOp) and e.txn in committed]

    def conflict_edges(self) -> set[tuple[int, int]]:
        return conflict_edges(self.committed_operations(),
                              attrgetter("item"))


def project_op(op: Op) -> ClassicOp:
    """Definition 2.3: name mapping by reactor-id concatenation."""
    return ClassicOp(op.kind, op.txn, f"{op.reactor}::{op.item}",
                     op.tid, op.snapshot)


def project(history: ReactorHistory) -> ClassicHistory:
    """Definitions 2.4-2.6: unroll sub-transactions, keep the order.

    Operating on totally ordered histories, the projection preserves
    the global order of all operations, which in particular preserves
    the order of every conflicting pair (condition 3 of Definition
    2.6).
    """
    projected: list[ClassicOp | Terminal] = []
    for event in history.events:
        if isinstance(event, Op):
            projected.append(project_op(event))
        else:
            projected.append(event)
    return ClassicHistory(projected)
