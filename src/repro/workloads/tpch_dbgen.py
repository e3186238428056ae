"""Deterministic TPC-H data generator (pure NumPy dbgen).

Generates all eight tables at an arbitrary scale factor with the
specification's value domains and referential structure: the part/
supplier pairing of partsupp, order-date windows, ship/commit/receipt
date offsets, priced line items, the official name/brand/type/container
vocabularies, and comment text seeded with the patterns that TPC-H
predicates probe for (``special ... requests``, ``Customer ...
Complaints``, etc.). Distributions are uniform where the spec says
uniform; correlated columns (extendedprice = qty * retail price scale)
follow the spec formulas.

Determinism: every table derives its RNG from (seed, table name), so a
given (sf, seed) pair always produces identical bytes — important for
reproducible tests and benchmarks.
"""

from __future__ import annotations

import numpy as np

from ..common.batch import RowBatch
from ..common.dates import date_to_days
from . import tpch_schema as S

NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]
REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

P_NAME_WORDS = [
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
    "chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
    "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
    "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
    "hot", "indian", "ivory", "khaki", "lace", "lavender", "lawn", "lemon",
    "light", "lime", "linen", "magenta", "maroon", "medium", "metallic",
    "midnight", "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange",
    "orchid", "pale", "papaya", "peach", "peru", "pink", "plum", "powder",
    "puff", "purple", "red", "rose", "rosy", "royal", "saddle", "salmon",
    "sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow", "spring",
    "steel", "tan", "thistle", "tomato", "turquoise", "violet", "wheat",
    "white", "yellow",
]
TYPE_SYL1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
TYPE_SYL2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
TYPE_SYL3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]
CONTAINER_SYL1 = ["SM", "LG", "MED", "JUMBO", "WRAP"]
CONTAINER_SYL2 = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SHIP_INSTRUCT = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"]
SHIP_MODE = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
COMMENT_WORDS = [
    "furiously", "slyly", "carefully", "blithely", "quickly", "deposits",
    "packages", "accounts", "pending", "requests", "ideas", "theodolites",
    "instructions", "dependencies", "foxes", "pinto", "beans", "platelets",
    "asymptotes", "courts", "dolphins", "multipliers", "sauternes", "warhorses",
    "frets", "dinos", "attainments", "excuses", "realms", "sentiments",
]

_MIN_ORDER_DATE = date_to_days("1992-01-01")
_MAX_ORDER_DATE = date_to_days("1998-08-02")
CURRENT_DATE = date_to_days("1995-06-17")


def _rng(seed: int, table: str) -> np.random.Generator:
    # zlib.crc32, not hash(): Python string hashing is salted per process
    # and would break cross-process determinism
    import zlib

    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(table.encode())]))


def _strings(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _comments(rng: np.random.Generator, n: int, inject: list[tuple[str, float]] | None = None) -> np.ndarray:
    words = rng.choice(COMMENT_WORDS, size=(n, 4))
    base = [" ".join(row) for row in words.tolist()]
    if inject:
        for phrase, frac in inject:
            hits = rng.random(n) < frac
            for i in np.flatnonzero(hits):
                base[i] = base[i] + " " + phrase
    return _strings(base)


def gen_region(sf: float, seed: int = 19940401) -> RowBatch:
    rng = _rng(seed, "region")
    n = 5
    return RowBatch(
        S.REGION,
        {
            "r_regionkey": np.arange(n, dtype=np.int64),
            "r_name": _strings(REGIONS),
            "r_comment": _comments(rng, n),
        },
    )


def gen_nation(sf: float, seed: int = 19940401) -> RowBatch:
    rng = _rng(seed, "nation")
    n = 25
    return RowBatch(
        S.NATION,
        {
            "n_nationkey": np.arange(n, dtype=np.int64),
            "n_name": _strings([nm for nm, _ in NATIONS]),
            "n_regionkey": np.asarray([r for _, r in NATIONS], dtype=np.int64),
            "n_comment": _comments(rng, n),
        },
    )


def gen_supplier(sf: float, seed: int = 19940401) -> RowBatch:
    rng = _rng(seed, "supplier")
    n = S.rows_at("supplier", sf)
    keys = np.arange(1, n + 1, dtype=np.int64)
    nat = rng.integers(0, 25, n)
    # ~5 per 10k suppliers carry the "Customer Complaints" marker (Q16)
    comments = _comments(rng, n, [("Customer Complaints", 0.0005 if n > 2000 else 0.02)])
    return RowBatch(
        S.SUPPLIER,
        {
            "s_suppkey": keys,
            "s_name": _strings([f"Supplier#{k:09d}" for k in keys]),
            "s_address": _strings([f"addr{k}" for k in keys]),
            "s_nationkey": nat.astype(np.int64),
            "s_phone": _strings([f"{10 + int(v)}-{k % 900 + 100}-{k % 9000 + 1000}" for k, v in zip(keys, nat)]),
            "s_acctbal": np.round(rng.uniform(-999.99, 9999.99, n), 2),
            "s_comment": comments,
        },
    )


def gen_customer(sf: float, seed: int = 19940401) -> RowBatch:
    rng = _rng(seed, "customer")
    n = S.rows_at("customer", sf)
    keys = np.arange(1, n + 1, dtype=np.int64)
    nat = rng.integers(0, 25, n)
    return RowBatch(
        S.CUSTOMER,
        {
            "c_custkey": keys,
            "c_name": _strings([f"Customer#{k:09d}" for k in keys]),
            "c_address": _strings([f"addr{k}" for k in keys]),
            "c_nationkey": nat.astype(np.int64),
            "c_phone": _strings(
                [f"{10 + int(v)}-{k % 900 + 100}-{k % 900 + 100}-{k % 9000 + 1000}" for k, v in zip(keys, nat)]
            ),
            "c_acctbal": np.round(rng.uniform(-999.99, 9999.99, n), 2),
            "c_mktsegment": _strings([SEGMENTS[i] for i in rng.integers(0, 5, n)]),
            "c_comment": _comments(rng, n, [("special requests", 0.01)]),
        },
    )


def gen_part(sf: float, seed: int = 19940401) -> RowBatch:
    rng = _rng(seed, "part")
    n = S.rows_at("part", sf)
    keys = np.arange(1, n + 1, dtype=np.int64)
    name_idx = rng.integers(0, len(P_NAME_WORDS), (n, 5))
    names = _strings(
        [" ".join(P_NAME_WORDS[j] for j in row) for row in name_idx]
    )
    mfgr = rng.integers(1, 6, n)
    brand = mfgr * 10 + rng.integers(1, 6, n)
    types = _strings(
        [
            f"{TYPE_SYL1[a]} {TYPE_SYL2[b]} {TYPE_SYL3[c]}"
            for a, b, c in zip(
                rng.integers(0, 6, n), rng.integers(0, 5, n), rng.integers(0, 5, n)
            )
        ]
    )
    containers = _strings(
        [
            f"{CONTAINER_SYL1[a]} {CONTAINER_SYL2[b]}"
            for a, b in zip(rng.integers(0, 5, n), rng.integers(0, 8, n))
        ]
    )
    retail = np.round(
        90000 + (keys / 10.0) % 20001 + 100 * (keys % 1000), 2
    ) / 100.0  # spec formula
    return RowBatch(
        S.PART,
        {
            "p_partkey": keys,
            "p_name": names,
            "p_mfgr": _strings([f"Manufacturer#{m}" for m in mfgr]),
            "p_brand": _strings([f"Brand#{b}" for b in brand]),
            "p_type": types,
            "p_size": rng.integers(1, 51, n).astype(np.int64),
            "p_container": containers,
            "p_retailprice": retail,
            "p_comment": _comments(rng, n),
        },
    )


def gen_partsupp(sf: float, seed: int = 19940401) -> RowBatch:
    rng = _rng(seed, "partsupp")
    n_part = S.rows_at("part", sf)
    n_supp = S.rows_at("supplier", sf)
    parts = np.repeat(np.arange(1, n_part + 1, dtype=np.int64), 4)
    j = np.tile(np.arange(4, dtype=np.int64), n_part)
    # spec pairing: 4 distinct suppliers per part, spread across the range
    supp = ((parts - 1 + j * max(1, n_supp // 4)) % n_supp) + 1
    n = len(parts)
    return RowBatch(
        S.PARTSUPP,
        {
            "ps_partkey": parts,
            "ps_suppkey": supp.astype(np.int64),
            "ps_availqty": rng.integers(1, 10000, n).astype(np.int64),
            "ps_supplycost": np.round(rng.uniform(1.0, 1000.0, n), 2),
            "ps_comment": _comments(rng, n),
        },
    )


def gen_orders(sf: float, seed: int = 19940401) -> RowBatch:
    rng = _rng(seed, "orders")
    n = S.rows_at("orders", sf)
    n_cust = S.rows_at("customer", sf)
    keys = np.arange(1, n + 1, dtype=np.int64)
    # spec: only 2/3 of customers have orders (c_custkey % 3 != 0 served)
    cust = rng.integers(1, n_cust + 1, n).astype(np.int64)
    if n_cust >= 3:
        bump = cust % 3 == 0
        cust[bump] = np.maximum(1, cust[bump] - 1)
    dates = rng.integers(_MIN_ORDER_DATE, _MAX_ORDER_DATE + 1, n).astype(np.int32)
    return RowBatch(
        S.ORDERS,
        {
            "o_orderkey": keys,
            "o_custkey": cust,
            "o_orderstatus": _strings([("F", "O", "P")[i] for i in rng.integers(0, 3, n)]),
            "o_totalprice": np.round(rng.uniform(850.0, 560000.0, n), 2),
            "o_orderdate": dates,
            "o_orderpriority": _strings([PRIORITIES[i] for i in rng.integers(0, 5, n)]),
            "o_clerk": _strings([f"Clerk#{int(k) % 1000:09d}" for k in keys]),
            "o_shippriority": np.zeros(n, dtype=np.int64),
            "o_comment": _comments(rng, n, [("special packages requests", 0.01)]),
        },
    )


def gen_lineitem(sf: float, seed: int = 19940401, orders: RowBatch | None = None, part: RowBatch | None = None) -> RowBatch:
    rng = _rng(seed, "lineitem")
    if orders is None:
        orders = gen_orders(sf, seed)
    n_part = S.rows_at("part", sf)
    n_supp = S.rows_at("supplier", sf)
    per_order = rng.integers(1, 8, orders.length)
    okeys = np.repeat(orders.col("o_orderkey"), per_order)
    odates = np.repeat(orders.col("o_orderdate"), per_order)
    n = len(okeys)
    linenum = np.concatenate([np.arange(1, c + 1) for c in per_order]).astype(np.int64)
    partkey = rng.integers(1, n_part + 1, n).astype(np.int64)
    j = rng.integers(0, 4, n)
    suppkey = ((partkey - 1 + j * max(1, n_supp // 4)) % n_supp) + 1
    qty = rng.integers(1, 51, n).astype(np.float64)
    # extendedprice = qty * (partkey-derived retail price), spec formula
    retail = (90000 + (partkey / 10.0) % 20001 + 100 * (partkey % 1000)) / 100.0
    eprice = np.round(qty * retail, 2)
    discount = np.round(rng.integers(0, 11, n) / 100.0, 2)
    tax = np.round(rng.integers(0, 9, n) / 100.0, 2)
    shipdate = (odates + rng.integers(1, 122, n)).astype(np.int32)
    commitdate = (odates + rng.integers(30, 91, n)).astype(np.int32)
    receiptdate = (shipdate + rng.integers(1, 31, n)).astype(np.int32)
    returned = shipdate <= CURRENT_DATE
    rf_roll = rng.integers(0, 2, n)
    returnflag = np.where(returned & (rf_roll == 0), "R", np.where(returned, "A", "N"))
    linestatus = np.where(shipdate > CURRENT_DATE, "O", "F")
    return RowBatch(
        S.LINEITEM,
        {
            "l_orderkey": okeys.astype(np.int64),
            "l_partkey": partkey,
            "l_suppkey": suppkey.astype(np.int64),
            "l_linenumber": linenum,
            "l_quantity": qty,
            "l_extendedprice": eprice,
            "l_discount": discount,
            "l_tax": tax,
            "l_returnflag": _strings(list(returnflag)),
            "l_linestatus": _strings(list(linestatus)),
            "l_shipdate": shipdate,
            "l_commitdate": commitdate,
            "l_receiptdate": receiptdate,
            "l_shipinstruct": _strings([SHIP_INSTRUCT[i] for i in rng.integers(0, 4, n)]),
            "l_shipmode": _strings([SHIP_MODE[i] for i in rng.integers(0, 7, n)]),
            "l_comment": _comments(rng, n),
        },
    )


def generate(sf: float = 0.01, seed: int = 19940401) -> dict[str, RowBatch]:
    """All eight tables, referentially consistent."""
    orders = gen_orders(sf, seed)
    return {
        "region": gen_region(sf, seed),
        "nation": gen_nation(sf, seed),
        "supplier": gen_supplier(sf, seed),
        "customer": gen_customer(sf, seed),
        "part": gen_part(sf, seed),
        "partsupp": gen_partsupp(sf, seed),
        "orders": orders,
        "lineitem": gen_lineitem(sf, seed, orders),
    }
