"""Extended Smallbank benchmark (paper Section 4.1.3, Appendix H).

Each customer is a reactor (Figure 20) encapsulating three relations:
``account`` (name -> customer id), ``savings`` and ``checking``.  On
top of the classic Smallbank transaction mix we implement the paper's
extensions: the OLTP-Bench ``transfer`` and the new ``multi-transfer``
(a group transfer from one source to many destinations) in its four
program formulations of Section 4.1.4:

* ``fully-sync`` — sequential transfer sub-transactions, each with a
  synchronous credit and debit;
* ``partially-async`` — transfers overlap the credit with the debit
  but still pay communication per transfer (the implicit sub-
  transaction completion synchronization);
* ``fully-async`` — all credits dispatched asynchronously up front,
  then the per-destination debits on the source;
* ``opt`` — asynchronous credits plus a single combined debit.

The procedure bodies follow Figure 21 of the paper line by line
(including the explicit synchronizations it performs "for code
clarity").
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.database import ReactorDatabase
from repro.core.reactor import ReactorType
from repro.relational import (
    float_col,
    int_col,
    make_schema,
    str_col,
)

INITIAL_BALANCE = 10_000.0

#: The four multi-transfer program formulations of Section 4.1.4.
VARIANTS = ("fully-sync", "partially-async", "fully-async", "opt")


def customer_schema():
    """The three relations of Figure 20.

    The redundant ``cust_id`` columns in savings/checking and the
    account-lookup indirection are kept for strict compliance with the
    benchmark specification, as the paper does (Appendix H).
    """
    return [
        make_schema("account",
                    [str_col("name"), int_col("cust_id")],
                    ["name"]),
        make_schema("savings",
                    [int_col("cust_id"), float_col("balance")],
                    ["cust_id"]),
        make_schema("checking",
                    [int_col("cust_id"), float_col("balance")],
                    ["cust_id"]),
    ]


CUSTOMER = ReactorType("Customer", customer_schema)


# ----------------------------------------------------------------------
# Local building blocks
# ----------------------------------------------------------------------

def _lookup_cust_id(ctx) -> int:
    row = ctx.lookup("account", ctx.my_name())
    if row is None:
        ctx.abort(f"unknown customer {ctx.my_name()!r}")
    return row["cust_id"]


@CUSTOMER.procedure
def transact_saving(ctx, amt: float) -> float:
    """Credit (or debit, when negative) the savings account."""
    cust_id = _lookup_cust_id(ctx)
    row = ctx.lookup("savings", cust_id)
    balance = row["balance"]
    if balance + amt < 0:
        ctx.abort("insufficient savings balance")
    ctx.update("savings", cust_id, {"balance": balance + amt})
    return balance + amt


@CUSTOMER.procedure(read_only=True)
def balance(ctx) -> float:
    """Classic Smallbank Balance: savings + checking.

    Declared read-only: under a deployment with replication and
    ``read_from_replicas``, Balance roots are served from a replica of
    the customer's container (bounded-staleness reads).
    """
    cust_id = _lookup_cust_id(ctx)
    savings = ctx.lookup("savings", cust_id)["balance"]
    checking = ctx.lookup("checking", cust_id)["balance"]
    return savings + checking


@CUSTOMER.procedure
def deposit_checking(ctx, amt: float) -> None:
    if amt < 0:
        ctx.abort("negative deposit")
    cust_id = _lookup_cust_id(ctx)
    row = ctx.lookup("checking", cust_id)
    ctx.update("checking", cust_id, {"balance": row["balance"] + amt})


@CUSTOMER.procedure
def write_check(ctx, amt: float) -> None:
    """WriteCheck: overdraft incurs a 1.0 penalty (per Smallbank)."""
    cust_id = _lookup_cust_id(ctx)
    savings = ctx.lookup("savings", cust_id)["balance"]
    checking = ctx.lookup("checking", cust_id)["balance"]
    total = savings + checking
    penalty = 1.0 if total < amt else 0.0
    ctx.update("checking", cust_id,
               {"balance": checking - amt - penalty})


@CUSTOMER.procedure
def amalgamate_into(ctx, amount: float) -> None:
    """Receive the amalgamated funds into checking."""
    cust_id = _lookup_cust_id(ctx)
    row = ctx.lookup("checking", cust_id)
    ctx.update("checking", cust_id, {"balance": row["balance"] + amount})


@CUSTOMER.procedure
def amalgamate(ctx, dst_cust_name: str):
    """Move all funds of this customer to ``dst_cust_name``."""
    cust_id = _lookup_cust_id(ctx)
    savings = ctx.lookup("savings", cust_id)["balance"]
    checking = ctx.lookup("checking", cust_id)["balance"]
    ctx.update("savings", cust_id, {"balance": 0.0})
    ctx.update("checking", cust_id, {"balance": 0.0})
    fut = yield ctx.call(dst_cust_name, "amalgamate_into",
                         savings + checking)
    yield ctx.get(fut)


@CUSTOMER.procedure
def transfer(ctx, src_cust_name: str, dst_cust_name: str, amt: float,
             sequential: bool = True):
    """OLTP-Bench transfer: credit destination, debit source.

    ``sequential`` is the paper's ``env_seq_transfer`` switch: when
    set, the credit is synchronous (fully-sync); when clear, the
    credit overlaps the debit (partially-async).
    """
    if amt <= 0:
        ctx.abort("non-positive transfer amount")
    res = yield ctx.call(dst_cust_name, "transact_saving", amt)
    if sequential:
        yield ctx.get(res)
    fut = yield ctx.call(src_cust_name, "transact_saving", -amt)
    yield ctx.get(fut)


@CUSTOMER.procedure
def multi_transfer_sync(ctx, src_cust_name: str,
                        dst_cust_names: Sequence[str], amt: float,
                        sequential: bool = True):
    """fully-sync / partially-async multi-transfer (Figure 21).

    The explicit ``get`` on the transfer future is done for safety and
    code clarity; the transfer runs inline on this reactor anyway.
    """
    for dst_cust_name in dst_cust_names:
        res = yield ctx.call(src_cust_name, "transfer", src_cust_name,
                             dst_cust_name, amt, sequential)
        yield ctx.get(res)


@CUSTOMER.procedure
def multi_transfer_fully_async(ctx, src_cust_name: str,
                               dst_cust_names: Sequence[str],
                               amt: float):
    """fully-async multi-transfer: overlap credits and communication."""
    if amt <= 0:
        ctx.abort("non-positive transfer amount")
    for dst_cust_name in dst_cust_names:
        yield ctx.call(dst_cust_name, "transact_saving", amt)
    for __ in dst_cust_names:
        res = yield ctx.call(src_cust_name, "transact_saving", -amt)
        yield ctx.get(res)


@CUSTOMER.procedure
def multi_transfer_opt(ctx, src_cust_name: str,
                       dst_cust_names: Sequence[str], amt: float):
    """opt multi-transfer: single combined debit, credits overlapped."""
    if amt <= 0:
        ctx.abort("non-positive transfer amount")
    for dst_cust_name in dst_cust_names:
        yield ctx.call(dst_cust_name, "transact_saving", amt)
    num_dsts = len(dst_cust_names)
    yield ctx.call(src_cust_name, "transact_saving", -(amt * num_dsts))


# ----------------------------------------------------------------------
# Database construction and input generation
# ----------------------------------------------------------------------

def reactor_name(index: int) -> str:
    return f"cust{index}"


def declarations(n_customers: int) -> list[tuple[str, ReactorType]]:
    return [(reactor_name(i), CUSTOMER) for i in range(n_customers)]


def load(database: ReactorDatabase, n_customers: int,
         initial_balance: float = INITIAL_BALANCE) -> None:
    """Bulk-load customer accounts (non-transactional, setup only)."""
    for i in range(n_customers):
        name = reactor_name(i)
        database.load(name, "account", [{"name": name, "cust_id": i}])
        database.load(name, "savings",
                      [{"cust_id": i, "balance": initial_balance}])
        database.load(name, "checking",
                      [{"cust_id": i, "balance": initial_balance}])


def multi_transfer_spec(variant: str, src: str, dsts: Iterable[str],
                        amount: float = 1.0) -> tuple[str, str, tuple]:
    """Build a (reactor, procedure, args) spec for one formulation."""
    dsts = tuple(dsts)
    if variant == "fully-sync":
        return (src, "multi_transfer_sync", (src, dsts, amount, True))
    if variant == "partially-async":
        return (src, "multi_transfer_sync", (src, dsts, amount, False))
    if variant == "fully-async":
        return (src, "multi_transfer_fully_async", (src, dsts, amount))
    if variant == "opt":
        return (src, "multi_transfer_opt", (src, dsts, amount))
    raise ValueError(f"unknown multi-transfer variant {variant!r}; "
                     f"expected one of {VARIANTS}")


#: The classic Smallbank mix (uniform over the six transactions, per
#: the original benchmark; the paper's experiments use multi-transfer
#: instead, but the full mix is useful for integration workloads).
STANDARD_MIX = (
    "balance",
    "deposit_checking",
    "transact_saving",
    "write_check",
    "amalgamate",
    "transfer",
)

#: 80% Balance reads — the read-replica-routing showcase mix.
READ_HEAVY_MIX = ("balance",) * 8 + ("deposit_checking",
                                     "transact_saving")


class SmallbankWorkload:
    """Closed-loop input generation for the classic Smallbank mix."""

    def __init__(self, n_customers: int,
                 mix: tuple[str, ...] = STANDARD_MIX,
                 hotspot_fraction: float = 0.0) -> None:
        if n_customers < 2:
            raise ValueError("need at least two customers")
        self.n_customers = n_customers
        self.mix = mix
        #: Fraction of accesses hitting the first 10% of accounts
        #: (0 disables the hotspot).
        self.hotspot_fraction = hotspot_fraction

    def _customer(self, rng) -> int:
        if self.hotspot_fraction and \
                rng.random() < self.hotspot_fraction:
            return rng.randrange(max(1, self.n_customers // 10))
        return rng.randrange(self.n_customers)

    def _two_customers(self, rng) -> tuple[str, str]:
        first = self._customer(rng)
        second = self._customer(rng)
        while second == first:
            second = (second + 1) % self.n_customers
        return reactor_name(first), reactor_name(second)

    def next_txn(self, worker) -> tuple[str, str, tuple]:
        rng = worker.rng
        txn = self.mix[rng.randrange(len(self.mix))]
        if txn == "balance":
            return (reactor_name(self._customer(rng)), "balance", ())
        if txn == "deposit_checking":
            return (reactor_name(self._customer(rng)),
                    "deposit_checking", (rng.uniform(1.0, 100.0),))
        if txn == "transact_saving":
            return (reactor_name(self._customer(rng)),
                    "transact_saving", (rng.uniform(-50.0, 100.0),))
        if txn == "write_check":
            return (reactor_name(self._customer(rng)), "write_check",
                    (rng.uniform(1.0, 50.0),))
        if txn == "amalgamate":
            src, dst = self._two_customers(rng)
            return (src, "amalgamate", (dst,))
        src, dst = self._two_customers(rng)
        return (src, "transfer", (src, dst, rng.uniform(1.0, 50.0)))

    def factory_for(self, worker_id: int):
        return self.next_txn


def total_money(database: ReactorDatabase, n_customers: int) -> float:
    """Invariant check: transfers conserve the total balance."""
    total = 0.0
    for i in range(n_customers):
        name = reactor_name(i)
        for table in ("savings", "checking"):
            rows = database.table_rows(name, table)
            total += sum(r["balance"] for r in rows)
    return total
