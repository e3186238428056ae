"""Analytic TPC-H statistics as functions of the scale factor.

TPC-H value domains are fully specified, so exact table/column
statistics at any SF are computable without generating data. These feed
the optimizer and the benchmark cost model when planning the paper's
SF1000 (1 TB) and SF3000 (3 TB) experiments on simulated 8-96 node
clusters.

NDVs, min/max, and average widths follow the TPC-H 2.x specification;
date columns are day numbers (see :mod:`repro.common.dates`).
"""

from __future__ import annotations

from ..common.dates import date_to_days
from ..optimizer.stats import ColumnStats, StatsProvider, TableStats
from .tpch_schema import BASE_ROWS, rows_at

_D = date_to_days


def table_stats(table: str, sf: float) -> TableStats:
    n = float(rows_at(table, sf))
    build = _BUILDERS[table]
    return TableStats(n, build(sf, n))


def provider(sf: float) -> StatsProvider:
    return StatsProvider({t: table_stats(t, sf) for t in BASE_ROWS})


def _region(sf: float, n: float):
    return {
        "r_regionkey": ColumnStats(5, 0, 4, 8),
        "r_name": ColumnStats(5, "AFRICA", "MIDDLE EAST", 7),
        "r_comment": ColumnStats(5, avg_width=60),
    }


def _nation(sf: float, n: float):
    return {
        "n_nationkey": ColumnStats(25, 0, 24, 8),
        "n_name": ColumnStats(25, "ALGERIA", "VIETNAM", 9),
        "n_regionkey": ColumnStats(5, 0, 4, 8),
        "n_comment": ColumnStats(25, avg_width=70),
    }


def _supplier(sf: float, n: float):
    return {
        "s_suppkey": ColumnStats(n, 1, int(n), 8),
        "s_name": ColumnStats(n, avg_width=18),
        "s_address": ColumnStats(n, avg_width=25),
        "s_nationkey": ColumnStats(25, 0, 24, 8),
        "s_phone": ColumnStats(n, avg_width=15),
        "s_acctbal": ColumnStats(n, -999.99, 9999.99, 8),
        "s_comment": ColumnStats(n, avg_width=62),
    }


def _customer(sf: float, n: float):
    return {
        "c_custkey": ColumnStats(n, 1, int(n), 8),
        "c_name": ColumnStats(n, avg_width=18),
        "c_address": ColumnStats(n, avg_width=25),
        "c_nationkey": ColumnStats(25, 0, 24, 8),
        "c_phone": ColumnStats(n, "10-100-100-1000", "34-999-999-9999", 15),
        "c_acctbal": ColumnStats(n, -999.99, 9999.99, 8),
        "c_mktsegment": ColumnStats(5, "AUTOMOBILE", "MACHINERY", 10),
        "c_comment": ColumnStats(n, avg_width=73),
    }


def _part(sf: float, n: float):
    return {
        "p_partkey": ColumnStats(n, 1, int(n), 8),
        "p_name": ColumnStats(n, "almond antique", "yellow white", 33),
        "p_mfgr": ColumnStats(5, "Manufacturer#1", "Manufacturer#5", 14),
        "p_brand": ColumnStats(25, "Brand#11", "Brand#55", 8),
        "p_type": ColumnStats(150, "ECONOMY ANODIZED BRASS", "STANDARD POLISHED TIN", 21),
        "p_size": ColumnStats(50, 1, 50, 8),
        "p_container": ColumnStats(40, "JUMBO BAG", "WRAP PKG", 8),
        "p_retailprice": ColumnStats(n / 10, 900.0, 2099.0, 8),
        "p_comment": ColumnStats(n, avg_width=14),
    }


def _partsupp(sf: float, n: float):
    n_part = float(rows_at("part", sf))
    n_supp = float(rows_at("supplier", sf))
    return {
        "ps_partkey": ColumnStats(n_part, 1, int(n_part), 8),
        "ps_suppkey": ColumnStats(n_supp, 1, int(n_supp), 8),
        "ps_availqty": ColumnStats(9999, 1, 9999, 8),
        "ps_supplycost": ColumnStats(99901, 1.0, 1000.0, 8),
        "ps_comment": ColumnStats(n, avg_width=124),
    }


def _orders(sf: float, n: float):
    n_cust = float(rows_at("customer", sf))
    return {
        "o_orderkey": ColumnStats(n, 1, int(4 * n), 8),
        "o_custkey": ColumnStats(n_cust * 2 / 3, 1, int(n_cust), 8),
        "o_orderstatus": ColumnStats(3, "F", "P", 1),
        "o_totalprice": ColumnStats(n, 857.71, 555285.16, 8),
        "o_orderdate": ColumnStats(2406, _D("1992-01-01"), _D("1998-08-02"), 4),
        "o_orderpriority": ColumnStats(5, "1-URGENT", "5-LOW", 11),
        "o_clerk": ColumnStats(max(1000.0, sf * 1000), avg_width=15),
        "o_shippriority": ColumnStats(1, 0, 0, 8),
        "o_comment": ColumnStats(n, avg_width=49),
    }


def _lineitem(sf: float, n: float):
    n_part = float(rows_at("part", sf))
    n_supp = float(rows_at("supplier", sf))
    n_ord = float(rows_at("orders", sf))
    return {
        "l_orderkey": ColumnStats(n_ord, 1, int(4 * n_ord), 8),
        "l_partkey": ColumnStats(n_part, 1, int(n_part), 8),
        "l_suppkey": ColumnStats(n_supp, 1, int(n_supp), 8),
        "l_linenumber": ColumnStats(7, 1, 7, 8),
        "l_quantity": ColumnStats(50, 1.0, 50.0, 8),
        "l_extendedprice": ColumnStats(n / 10, 901.0, 104949.5, 8),
        "l_discount": ColumnStats(11, 0.0, 0.10, 8),
        "l_tax": ColumnStats(9, 0.0, 0.08, 8),
        "l_returnflag": ColumnStats(3, "A", "R", 1),
        "l_linestatus": ColumnStats(2, "F", "O", 1),
        "l_shipdate": ColumnStats(2526, _D("1992-01-02"), _D("1998-12-01"), 4),
        "l_commitdate": ColumnStats(2466, _D("1992-01-31"), _D("1998-10-31"), 4),
        "l_receiptdate": ColumnStats(2555, _D("1992-01-03"), _D("1998-12-31"), 4),
        "l_shipinstruct": ColumnStats(4, "COLLECT COD", "TAKE BACK RETURN", 12),
        "l_shipmode": ColumnStats(7, "AIR", "TRUCK", 4),
        "l_comment": ColumnStats(n, avg_width=27),
    }


_BUILDERS = {
    "region": _region,
    "nation": _nation,
    "supplier": _supplier,
    "customer": _customer,
    "part": _part,
    "partsupp": _partsupp,
    "orders": _orders,
    "lineitem": _lineitem,
}
