"""Histories over reactor-model transactions.

A :class:`ReactorHistory` is a totally ordered sequence of basic
operations and terminal events (a convenient special case of the
paper's partial orders: every total order is a valid completion, and
conflict-serializability analysis only consults the order of
conflicting pairs).

Section 2.3 gives two conflict views: leaf-level conflicts between
basic operations (the classic model, after projection) and
sub-transaction-level conflicts (Definition 2.2: two sub-transactions
conflict iff their basic operations contain a conflicting pair on the
same reactor).  Projected to transactions both yield the same edges —
a sub-transaction conflict is witnessed by a conflicting operation
pair — so :func:`conflict_edges` builds the one edge set both views
use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Hashable, Iterable

from repro.formal.ops import ABORT, COMMIT, WRITE, Op, Terminal


def conflict_edges(ops: list[Any],
                   item_of: Callable[[Any], Hashable]
                   ) -> set[tuple[int, int]]:
    """Edges Ti -> Tj of the serialization graph over ``ops``.

    Exactly ``{(a.txn, b.txn) for a before b in ops if a.txn != b.txn
    and a, b name the same item and one of them writes}``, built by
    grouping the operations by ``item_of(op)``: a write follows every
    earlier transaction on its item, a read every earlier writer.

    A snapshot read (``op.snapshot`` set) stands where the version it
    observed stands, not where it ran: after every write of its item
    whose TID is at or below the observed one, before every later
    write.  A read of version *v* thus draws the wr edge from *v*'s
    writer and the rw edge to the next one, as the version order
    (commit TIDs per key) dictates.
    """
    # item -> (transactions that touched it so far, ... that wrote it)
    seen: dict[Hashable, tuple[set[int], set[int]]] = {}
    edges: set[tuple[int, int]] = set()
    snapshot_reads = []
    for op in ops:
        if op.snapshot is not None:
            snapshot_reads.append(op)
            continue
        touched, wrote = seen.setdefault(item_of(op), (set(), set()))
        txn = op.txn
        writes = op.kind == WRITE
        for earlier in touched if writes else wrote:
            if earlier != txn:
                edges.add((earlier, txn))
        touched.add(txn)
        if writes:
            wrote.add(txn)
    if snapshot_reads:
        writes_of: dict[Hashable, list[Any]] = {}
        for op in ops:
            if op.kind == WRITE:
                writes_of.setdefault(item_of(op), []).append(op)
        for read in snapshot_reads:
            txn = read.txn
            for write in writes_of.get(item_of(read), ()):
                if write.txn != txn:
                    edges.add((write.txn, txn) if write.tid <= read.tid
                              else (txn, write.txn))
    return edges


@dataclass
class ReactorHistory:
    """A totally ordered execution of reactor-model transactions."""

    events: list[Op | Terminal] = field(default_factory=list)

    def append(self, event: Op | Terminal) -> None:
        self.events.append(event)

    # ------------------------------------------------------------------

    def operations(self) -> list[Op]:
        return [e for e in self.events if isinstance(e, Op)]

    def committed_txns(self) -> set[int]:
        committed = {e.txn for e in self.events
                     if isinstance(e, Terminal) and e.kind == COMMIT}
        aborted = {e.txn for e in self.events
                   if isinstance(e, Terminal) and e.kind == ABORT}
        return committed - aborted

    def committed_operations(self) -> list[Op]:
        committed = self.committed_txns()
        return [op for op in self.operations() if op.txn in committed]

    def txns(self) -> set[int]:
        return {op.txn for op in self.operations()} | {
            e.txn for e in self.events if isinstance(e, Terminal)}

    def conflict_edges(self) -> set[tuple[int, int]]:
        """Conflict edges between committed transactions; items of
        different reactors are disjoint."""
        return conflict_edges(self.committed_operations(),
                              attrgetter("reactor", "item"))


def history_of(events: Iterable[Op | Terminal]) -> ReactorHistory:
    return ReactorHistory(list(events))
