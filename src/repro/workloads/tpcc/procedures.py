"""TPC-C transactions in the reactor programming model.

All five transactions of the standard mix, ported per the paper's
description of its OLTP-Bench-based implementation (Section 4.1.3):
each warehouse is a reactor; remote-warehouse data access — stock
updates in new-order, customer payment/lookup in payment — becomes an
asynchronous sub-transaction on the remote warehouse reactor, with
calls overlapped as much as possible ("unless otherwise stated, we
overlap calls between reactors as much as possible").

Stock updates to one remote warehouse are batched into a single
sub-transaction per target reactor: invoking two concurrent
sub-transactions of one root on the same reactor is a dangerous
structure under the runtime's safety condition (Section 2.2.4), and
batching is both the natural and the efficient formulation.

``new_order`` accepts two knobs used by the paper's experiments:

* ``sync_remote`` — call remote warehouses synchronously
  (shared-nothing-*sync* program formulation) instead of overlapping;
* ``delay_range`` — the Section 4.3.2 "new-order-delay" variant, which
  models stock replenishment calculations by an artificial 300-400 us
  computation per stock update.
"""

from __future__ import annotations

from repro.core.reactor import ReactorType
from repro.relational import col
from repro.workloads.tpcc.schema import warehouse_schema

WAREHOUSE = ReactorType("Warehouse", warehouse_schema)


def warehouse_name(w_id: int) -> str:
    """Reactor name of warehouse ``w_id``."""
    return f"wh{w_id}"


def warehouse_id(name: str) -> int:
    """Inverse of :func:`warehouse_name`."""
    return int(name[2:])


def _customer_by_last_name(ctx, d_id: int, c_last: str):
    """Spec rule: pick the middle customer (ordered by first name)."""
    rows = ctx.select("customer",
                      (col("c_d_id") == d_id) & (col("c_last") == c_last))
    if not rows:
        ctx.abort(f"no customer with last name {c_last!r}")
    rows.sort(key=lambda r: r["c_first"])
    return rows[len(rows) // 2]


# ----------------------------------------------------------------------
# new-order
# ----------------------------------------------------------------------

@WAREHOUSE.procedure
def stock_update_batch(ctx, items: list, home_w_id: int,
                       delay_range: tuple | None = None):
    """Update stock rows for a batch of order lines at this warehouse.

    Returns per-item ``(i_id, quantity_after, dist_info)``; run on the
    supplying warehouse reactor (possibly remote to the order's home).
    """
    results = []
    for i_id, quantity in items:
        if delay_range is not None:
            low, high = delay_range
            yield ctx.compute(ctx.rng.uniform(low, high))
        stock = ctx.lookup("stock", i_id)
        if stock is None:
            ctx.abort(f"missing stock for item {i_id}")
        s_quantity = stock["s_quantity"]
        if s_quantity - quantity >= 10:
            s_quantity -= quantity
        else:
            s_quantity = s_quantity - quantity + 91
        remote = warehouse_id(ctx.my_name()) != home_w_id
        ctx.update("stock", i_id, {
            "s_quantity": s_quantity,
            "s_ytd": stock["s_ytd"] + quantity,
            "s_order_cnt": stock["s_order_cnt"] + 1,
            "s_remote_cnt": stock["s_remote_cnt"] + (1 if remote else 0),
        })
        results.append((i_id, s_quantity, stock["s_dist_info"]))
    return results


@WAREHOUSE.procedure
def new_order(ctx, w_id: int, d_id: int, c_id: int, order_items: list,
              sync_remote: bool = False,
              delay_range: tuple | None = None):
    """The TPC-C new-order transaction.

    ``order_items`` is a list of ``(supply_w_name, i_id, quantity)``;
    a ``supply_w_name`` equal to this reactor's name is a local item.
    An invalid item id (the spec's 1% "unused item") aborts.
    """
    warehouse = ctx.lookup("warehouse", w_id)
    district = ctx.lookup("district", d_id)
    o_id = district["d_next_o_id"]
    ctx.update("district", d_id, {"d_next_o_id": o_id + 1})
    customer = ctx.lookup("customer", (d_id, c_id))
    if customer is None:
        ctx.abort(f"no customer {c_id} in district {d_id}")

    # Validate items first (the 1% unused-item abort happens before any
    # remote work is dispatched, per the OLTP-Bench implementation).
    # Per-item lookups on purpose, not multi_lookup: an invalid item
    # must abort after examining only the items before it — batching
    # would read (and charge for) the full list and change seeded
    # histories on the abort path.
    prices = []
    for __, i_id, __q in order_items:
        item = ctx.lookup("item", i_id)
        if item is None:
            ctx.abort(f"unused item {i_id}")
        prices.append(item["i_price"])

    # Group stock updates by supplying warehouse; dispatch remote
    # batches first so they overlap with local processing.
    my_name = ctx.my_name()
    batches: dict[str, list] = {}
    for supply_w, i_id, quantity in order_items:
        batches.setdefault(supply_w, []).append((i_id, quantity))
    remote_futures = []
    for supply_w, batch in batches.items():
        if supply_w == my_name:
            continue
        fut = yield ctx.call(supply_w, "stock_update_batch", batch,
                             w_id, delay_range)
        if sync_remote:
            yield ctx.get(fut)
            remote_futures.append((supply_w, fut))
        else:
            remote_futures.append((supply_w, fut))

    all_local = 1 if len(batches) == 1 and my_name in batches else 0
    ctx.insert("orders", {
        "o_d_id": d_id, "o_id": o_id, "o_c_id": c_id,
        "o_carrier_id": None, "o_ol_cnt": len(order_items),
        "o_all_local": all_local, "o_entry_d": ctx.now,
    })
    ctx.insert("new_order", {"no_d_id": d_id, "no_o_id": o_id})

    # Local stock updates proceed while remote batches are in flight.
    stock_info: dict[str, list] = {}
    if my_name in batches:
        local = yield ctx.call(my_name, "stock_update_batch",
                               batches[my_name], w_id, delay_range)
        stock_info[my_name] = (yield ctx.get(local))
    for supply_w, fut in remote_futures:
        stock_info[supply_w] = (yield ctx.get(fut))

    per_wh_queue = {name: list(rows) for name, rows in stock_info.items()}
    total = 0.0
    tax = (1.0 + warehouse["w_tax"] + district["d_tax"]) * \
        (1.0 - customer["c_discount"])
    for number, (supply_w, i_id, quantity) in enumerate(order_items):
        __, qty_after, dist_info = per_wh_queue[supply_w].pop(0)
        amount = quantity * prices[number] * tax
        total += amount
        ctx.insert("order_line", {
            "ol_d_id": d_id, "ol_o_id": o_id, "ol_number": number,
            "ol_i_id": i_id, "ol_supply_w_id": warehouse_id(supply_w),
            "ol_delivery_d": None, "ol_quantity": quantity,
            "ol_amount": amount, "ol_dist_info": dist_info,
        })
    return {"o_id": o_id, "total": total}


# ----------------------------------------------------------------------
# payment
# ----------------------------------------------------------------------

@WAREHOUSE.procedure
def pay_customer(ctx, c_d_id: int, c_id: int | None, c_last: str | None,
                 amount: float):
    """Apply a payment to a customer at this (customer's) warehouse."""
    if c_id is None:
        customer = _customer_by_last_name(ctx, c_d_id, c_last)
        c_id = customer["c_id"]
    else:
        customer = ctx.lookup("customer", (c_d_id, c_id))
        if customer is None:
            ctx.abort(f"no customer {c_id}")
    values = {
        "c_balance": customer["c_balance"] - amount,
        "c_ytd_payment": customer["c_ytd_payment"] + amount,
        "c_payment_cnt": customer["c_payment_cnt"] + 1,
    }
    if customer["c_credit"] == "BC":
        # Bad-credit customers accumulate payment history in c_data.
        blob = f"{c_id},{c_d_id},{amount:.2f};" + customer["c_data"]
        values["c_data"] = blob[:120]
    ctx.update("customer", (c_d_id, c_id), values)
    return c_id


@WAREHOUSE.procedure
def payment(ctx, w_id: int, d_id: int, amount: float,
            c_w_name: str, c_d_id: int, c_id: int | None,
            c_last: str | None):
    """The TPC-C payment transaction.

    The customer may belong to a remote warehouse (15% in the standard
    mix): the customer update then runs as a sub-transaction on the
    customer's warehouse reactor, overlapped with the home-warehouse
    bookkeeping.
    """
    customer_fut = None
    if c_w_name != ctx.my_name():
        customer_fut = yield ctx.call(c_w_name, "pay_customer",
                                      c_d_id, c_id, c_last, amount)
    warehouse = ctx.lookup("warehouse", w_id)
    h_seq = warehouse["w_h_count"] + 1
    ctx.update("warehouse", w_id, {
        "w_ytd": warehouse["w_ytd"] + amount,
        "w_h_count": h_seq,
    })
    district = ctx.lookup("district", d_id)
    ctx.update("district", d_id, {"d_ytd": district["d_ytd"] + amount})
    if customer_fut is None:
        paid_c_id = yield from _inline_pay(ctx, c_d_id, c_id, c_last,
                                           amount)
    else:
        paid_c_id = yield ctx.get(customer_fut)
    ctx.insert("history", {
        "h_seq": h_seq, "h_c_id": paid_c_id, "h_c_d_id": c_d_id,
        "h_c_w_id": warehouse_id(c_w_name), "h_d_id": d_id, "h_w_id": w_id,
        "h_amount": amount,
        "h_data": f"{warehouse['w_name']}    {d_id}",
    })
    return paid_c_id


def _inline_pay(ctx, c_d_id: int, c_id: int | None, c_last: str | None,
                amount: float):
    """Local-customer payment executes as a synchronous self-call."""
    fut = yield ctx.call(ctx.my_name(), "pay_customer", c_d_id, c_id,
                         c_last, amount)
    result = yield ctx.get(fut)
    return result


# ----------------------------------------------------------------------
# order-status, delivery, stock-level
# ----------------------------------------------------------------------

@WAREHOUSE.procedure(read_only=True)
def order_status(ctx, d_id: int, c_id: int | None, c_last: str | None):
    """Read-only: a customer's most recent order and its lines."""
    if c_id is None:
        customer = _customer_by_last_name(ctx, d_id, c_last)
        c_id = customer["c_id"]
    else:
        customer = ctx.lookup("customer", (d_id, c_id))
        if customer is None:
            ctx.abort(f"no customer {c_id}")
    orders = ctx.select("orders", index="order_by_cust",
                        low=(d_id, c_id), high=(d_id, c_id),
                        reverse=True, limit=1)
    if not orders:
        return {"c_id": c_id, "balance": customer["c_balance"],
                "order": None, "lines": []}
    order = orders[0]
    lines = ctx.select("order_line", index="ol_by_order",
                       low=(d_id, order["o_id"]),
                       high=(d_id, order["o_id"]))
    return {"c_id": c_id, "balance": customer["c_balance"],
            "order": order["o_id"], "lines": len(lines)}


@WAREHOUSE.procedure
def delivery(ctx, w_id: int, carrier_id: int):
    """Deliver the oldest undelivered order of every district."""
    delivered = []
    districts = ctx.select("district")
    for district in districts:
        d_id = district["d_id"]
        pending = ctx.select("new_order", index="no_order",
                             low=(d_id,), high=(d_id,), limit=1)
        if not pending:
            continue
        o_id = pending[0]["no_o_id"]
        ctx.delete("new_order", (d_id, o_id))
        order = ctx.lookup("orders", (d_id, o_id))
        ctx.update("orders", (d_id, o_id), {"o_carrier_id": carrier_id})
        lines = ctx.select("order_line", index="ol_by_order",
                           low=(d_id, o_id), high=(d_id, o_id))
        total = 0.0
        for line in lines:
            total += line["ol_amount"]
            ctx.update("order_line",
                       (d_id, o_id, line["ol_number"]),
                       {"ol_delivery_d": ctx.now})
        customer = ctx.lookup("customer", (d_id, order["o_c_id"]))
        ctx.update("customer", (d_id, order["o_c_id"]), {
            "c_balance": customer["c_balance"] + total,
            "c_delivery_cnt": customer["c_delivery_cnt"] + 1,
        })
        delivered.append((d_id, o_id))
    return delivered


@WAREHOUSE.procedure(read_only=True)
def stock_level(ctx, d_id: int, threshold: int, recent_orders: int = 20):
    """Read-only: count distinct items in recent orders with stock
    below threshold."""
    district = ctx.lookup("district", d_id)
    next_o_id = district["d_next_o_id"]
    low_o_id = max(0, next_o_id - recent_orders)
    lines = ctx.select("order_line", index="ol_by_order",
                       low=(d_id, low_o_id), high=(d_id, next_o_id))
    item_ids = sorted({line["ol_i_id"] for line in lines})
    # Vectorized batch over the stock relation: identical footprint,
    # charge and recorded history to per-item lookups (no early exit
    # in this loop, unlike new_order's item validation).
    stocks = ctx.multi_lookup("stock", item_ids)
    count = 0
    for stock in stocks:
        if stock is not None and stock["s_quantity"] < threshold:
            count += 1
    return count


@WAREHOUSE.procedure
def empty_txn(ctx):
    """No-op transaction for the containerization-overhead experiment
    (Appendix F.3): submitted with concurrency control disabled."""
    return None
