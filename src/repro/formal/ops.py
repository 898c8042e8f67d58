"""Operations, sub-transactions and transactions of the formal model.

Executable counterparts of Definitions 2.1-2.2 (paper Section 2.3):
transactions comprise sub-transactions; a sub-transaction executes on
exactly one reactor and contains basic read/write operations on that
reactor's data items (nested sub-transactions are flattened into the
history order for checking purposes — ``basic_ops`` in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

READ = "r"
WRITE = "w"
COMMIT = "c"
ABORT = "a"


@dataclass(frozen=True)
class Op:
    """One basic operation of the reactor model.

    ``txn``/``sub`` identify the (sub-)transaction (natural numbers,
    as in the paper); ``reactor`` and ``item`` name the data item —
    items of different reactors are disjoint by construction.

    Recorded runs add version TIDs: ``tid`` is a write's commit TID,
    or the TID of the version a snapshot read observed, and
    ``snapshot`` is that read's snapshot TID (``None`` on every other
    operation).  A snapshot read is ordered by its version, not by its
    place in the history (see :func:`repro.formal.history.conflict_edges`).
    """

    kind: str  # READ or WRITE
    txn: int
    sub: int
    reactor: int
    item: str
    tid: int = 0
    snapshot: int | None = None

    def conflicts_with(self, other: "Op") -> bool:
        """Same named item in the same reactor, at least one write."""
        return (self.reactor == other.reactor
                and self.item == other.item
                and (self.kind == WRITE or other.kind == WRITE))

    def __repr__(self) -> str:
        text = (f"{self.kind}[{self.txn}.{self.sub}@{self.reactor}:"
                f"{self.item}]")
        if self.snapshot is not None:
            text += f"@{self.tid}<={self.snapshot}"
        return text


@dataclass(frozen=True)
class Terminal:
    """A commit or abort event of a transaction."""

    kind: str  # COMMIT or ABORT
    txn: int

    def __repr__(self) -> str:
        return f"{self.kind}[{self.txn}]"


def read(txn: int, sub: int, reactor: int, item: str) -> Op:
    return Op(READ, txn, sub, reactor, item)


def write(txn: int, sub: int, reactor: int, item: str,
          tid: int = 0) -> Op:
    return Op(WRITE, txn, sub, reactor, item, tid)


def commit(txn: int) -> Terminal:
    return Terminal(COMMIT, txn)


def abort(txn: int) -> Terminal:
    return Terminal(ABORT, txn)
