"""TPC-C schema, one warehouse per reactor.

Each warehouse reactor encapsulates the nine TPC-C relations for its
warehouse (the paper's modeling: "we model each warehouse as a
reactor").  The ``item`` catalog is replicated into every warehouse
reactor, as in classic shared-nothing TPC-C partitionings.

Cardinalities are governed by :class:`TpccScale`.  The default is
scaled down from the full specification (100k items, 3k customers per
district) to keep pure-Python simulations tractable; transaction
*logic* is unaffected — contention lives in the warehouse and district
hot rows, whose counts are per spec.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.relational import (
    IndexSpec,
    float_col,
    int_col,
    make_schema,
    str_col,
)


@dataclass(frozen=True)
class TpccScale:
    """Cardinality knobs (per warehouse unless stated)."""

    districts: int = 10
    customers_per_district: int = 60
    items: int = 200
    #: initial delivered+undelivered orders per district
    orders_per_district: int = 30
    #: fraction of initial orders still undelivered (spec: 900/3000)
    undelivered_fraction: float = 0.3
    #: distinct customer last names (spec derives ~1000 from C_LAST)
    last_names: int = 20

    def __post_init__(self) -> None:
        if self.districts < 1 or self.customers_per_district < 1:
            raise ValueError("invalid TPC-C scale")
        if self.items < 1 or self.orders_per_district < 1:
            raise ValueError("invalid TPC-C scale")


def warehouse_schema():
    """All nine relations of one warehouse reactor."""
    return [
        make_schema("warehouse", [
            int_col("w_id"), str_col("w_name"), float_col("w_tax"),
            float_col("w_ytd"), int_col("w_h_count"),
        ], ["w_id"]),
        make_schema("district", [
            int_col("d_id"), str_col("d_name"), float_col("d_tax"),
            float_col("d_ytd"), int_col("d_next_o_id"),
        ], ["d_id"]),
        make_schema("customer", [
            int_col("c_d_id"), int_col("c_id"), str_col("c_first"),
            str_col("c_last"), str_col("c_credit"),
            float_col("c_discount"), float_col("c_balance"),
            float_col("c_ytd_payment"), int_col("c_payment_cnt"),
            int_col("c_delivery_cnt"), str_col("c_data"),
        ], ["c_d_id", "c_id"], [
            IndexSpec("cust_by_last", ("c_d_id", "c_last")),
        ]),
        make_schema("history", [
            int_col("h_seq"), int_col("h_c_id"), int_col("h_c_d_id"),
            int_col("h_c_w_id"), int_col("h_d_id"), int_col("h_w_id"),
            float_col("h_amount"), str_col("h_data"),
        ], ["h_seq"]),
        make_schema("new_order", [
            int_col("no_d_id"), int_col("no_o_id"),
        ], ["no_d_id", "no_o_id"], [
            IndexSpec("no_order", ("no_d_id", "no_o_id"), ordered=True),
        ]),
        make_schema("orders", [
            int_col("o_d_id"), int_col("o_id"), int_col("o_c_id"),
            int_col("o_carrier_id", nullable=True),
            int_col("o_ol_cnt"), int_col("o_all_local"),
            float_col("o_entry_d"),
        ], ["o_d_id", "o_id"], [
            IndexSpec("order_by_cust", ("o_d_id", "o_c_id", "o_id"),
                      ordered=True),
        ]),
        make_schema("order_line", [
            int_col("ol_d_id"), int_col("ol_o_id"), int_col("ol_number"),
            int_col("ol_i_id"), int_col("ol_supply_w_id"),
            float_col("ol_delivery_d", nullable=True),
            int_col("ol_quantity"), float_col("ol_amount"),
            str_col("ol_dist_info"),
        ], ["ol_d_id", "ol_o_id", "ol_number"], [
            IndexSpec("ol_by_order", ("ol_d_id", "ol_o_id"),
                      ordered=True),
        ]),
        make_schema("item", [
            int_col("i_id"), str_col("i_name"), float_col("i_price"),
            str_col("i_data"),
        ], ["i_id"]),
        make_schema("stock", [
            int_col("s_i_id"), int_col("s_quantity"),
            float_col("s_ytd"), int_col("s_order_cnt"),
            int_col("s_remote_cnt"), str_col("s_data"),
            str_col("s_dist_info"),
        ], ["s_i_id"]),
    ]
