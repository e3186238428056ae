"""Layer probes: each times one layer's public function from outside,
on the data the workload already generated and loaded, and reports a
rate built from the lower quartile of a few repetitions."""

from __future__ import annotations

import time

import numpy as np

from repro.common.batch import RowBatch
from repro.core.kernels import JoinHashTable, factorize, group_aggregate, sort_indices, top_k
from repro.network.simnet import SimNetwork
from repro.network.topology import BinomialGraphTopology
from repro.sql import compile_expr, compile_predicate, parse_expr, to_scan_predicate
from repro.storage import col_page

from stats import p25

PROBE_ROWS = 64 * 1024
REPEATS = 3
MB = 1e6
Q1_ARITHMETIC = "l_extendedprice * (1 - l_discount) * (1 + l_tax)"
Q6_PREDICATE = (
    "l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01' "
    "and l_discount between 0.05 and 0.07 and l_quantity < 24"
)
Q6_COLUMNS = ["l_extendedprice", "l_discount", "l_shipdate", "l_quantity"]


def timed(fn, before=None, repeats: int = REPEATS) -> float:
    """Lower-quartile seconds of ``fn()`` over ``repeats`` calls."""
    out = []
    for _ in range(repeats):
        if before is not None:
            before()
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return p25(out)


def host_calib_ms() -> float:
    """A fixed NumPy + pure-Python load: tells a slow host from a slow engine."""
    a = np.arange(400_000, dtype=np.float64)

    def work():
        np.sort((a * 1.0001) % 977.0).sum()
        s = 0
        for i in range(60_000):
            s += i * i % 7
        return s

    return timed(work) * 1e3


def sql_probes(lineitem: RowBatch) -> dict:
    batch = lineitem.slice(0, min(PROBE_ROWS, lineitem.length))
    fn = compile_expr(parse_expr(Q1_ARITHMETIC), batch.schema).fn
    return {"sql.expr_rows_per_s": batch.length / timed(lambda: np.asarray(fn(batch)))}


def storage_probes(db) -> dict:
    """Full scans of every lineitem fragment, warm and with Q6's
    predicate pushed down; and of one worker's fragments after dropping
    the decoded-page caches (a cold decode is some 200x slower, and a
    rate needs no more than a quarter of the data)."""
    tables = [w.storage["lineitem"] for w in db.workers.values()]
    rows = sum(t.row_count for t in tables)
    first = tables[0]
    expr = parse_expr(Q6_PREDICATE)
    schema = tables[0].schema
    pred_fn = compile_predicate(expr, schema.project([schema.resolve(c) for c in Q6_COLUMNS]))
    scan_pred = to_scan_predicate(expr, schema)

    def full():
        return sum(b.length for t in tables for b in t.scan())

    def pushed():
        return sum(b.length for t in tables
                   for b in t.scan(Q6_COLUMNS, pred_fn, scan_pred, neardata=True))

    full()
    warm = timed(full)
    cold = timed(lambda: sum(b.length for b in first.scan()),
                 before=col_page.clear_decoded_caches, repeats=2)
    return {
        "storage.scan_rows_per_s": rows / warm,
        "storage.scan_cold_rows_per_s": first.row_count / cold,
        "storage.pred_scan_rows_per_s": rows / timed(pushed),
    }


def core_probes(orders: RowBatch, lineitem: RowBatch) -> dict:
    li = lineitem.slice(0, min(PROBE_ROWS, lineitem.length))
    build, probe = orders.col("o_orderkey"), li.col("l_orderkey")

    def join():
        return JoinHashTable([build]).match_indices([probe])

    def groupby():  # Q1's shape: two string keys, sums, an average and a count
        codes, n = factorize([li.col("l_returnflag"), li.col("l_linestatus")])
        for func, col in (("SUM", "l_quantity"), ("SUM", "l_extendedprice"),
                          ("AVG", "l_discount"), ("COUNT", None)):
            group_aggregate(codes, n, func, None if col is None else li.col(col))

    keys = [("l_extendedprice", False), ("l_orderkey", True)]
    return {
        "core.join_rows_per_s": li.length / timed(join),
        "core.groupby_rows_per_s": li.length / timed(groupby),
        "core.sort_rows_per_s": li.length / timed(lambda: sort_indices(li, keys)),
        "core.topk_rows_per_s": li.length / timed(lambda: top_k(li, keys, 100)),
    }


def common_probes(lineitem: RowBatch) -> dict:
    li = lineitem.slice(0, min(PROBE_ROWS, lineitem.length))
    wire = li.to_bytes()
    return {
        "common.batch_encode_mb_per_s": len(wire) / MB / timed(li.to_bytes),
        "common.batch_decode_mb_per_s": len(wire) / MB / timed(lambda: RowBatch.from_bytes(wire)),
        "common.partition_rows_per_s": li.length / timed(lambda: li.partition(["l_orderkey"], 4)),
        "common.hash_rows_per_s": li.length / timed(lambda: li.hash_codes(["l_orderkey"])),
    }


def network_probes(db) -> dict:
    """64 KiB payloads between all worker pairs, routed over the same
    topology the cluster's executor shuffles on."""
    workers = list(db.worker_ids)
    topology = BinomialGraphTopology(workers, db.config.n_max)
    net = SimNetwork(workers)
    payload = bytes(64 * 1024)
    pairs = [(s, d) for s in workers for d in workers if s != d]
    rounds = 40

    def exchange():
        for _ in range(rounds):
            for s, d in pairs:
                net.route_send(topology, s, d, payload, "probe")
            for w in workers:
                net.recv_all(w, "probe")

    seconds = timed(exchange)
    msgs = rounds * len(pairs)
    return {
        "network.route_msgs_per_s": msgs / seconds,
        "network.route_mb_per_s": msgs * len(payload) / MB / seconds,
    }


def layer_probes(cluster) -> dict:
    """Every probe, on one loaded cluster."""
    lineitem, orders = cluster.data["lineitem"], cluster.data["orders"]
    out = {}
    out.update(sql_probes(lineitem))
    out.update(storage_probes(cluster.db))
    out.update(core_probes(orders, lineitem))
    out.update(common_probes(lineitem))
    out.update(network_probes(cluster.db))
    return out
