"""One execution path: every subtree runs as a chain.

A chain is a source — table-scan morsels, external-table fragments, or
the evaluated batches of a blocking operator — followed by filter /
project / probe steps. These tests pin that shape on all 22 TPC-H plans
(every scan/filter/project is folded into exactly one chain, and
``ExecStats.pipelines`` counts the chains opened), its results against
the reference executor (eager aggregation directly over a scan and a
one-worker cluster included), one retried transient drop per exchange
kind, the list-sourced and external-table sources, and quiescence after
every query — one that exhausts its restart budget mid-chain included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, Database
from repro.common import DataType, RowBatch
from repro.common.errors import NetworkError, WorkerFailureError
from repro.common.schema import Schema
from repro.core.executor import DistributedExecutor
from repro.core.pipeline import chain_step
from repro.fault import FaultInjector, FaultSchedule
from repro.storage.external import InMemoryCsvTable
from repro.telemetry import fused_ops, operator_spans
from repro.workloads.tpch_queries import ALL_QUERIES, query

from tests.conftest import TPCH_SF, analyzed, load_tpch, quiescent, rows_match_unordered

CHAOS_SEEDS = [11, 23, 37]


#: eager aggregation placed directly on a scan: the planner pushes a
#: partial/complete aggregate under the join, so the aggregate's chain
#: is a bare scan and every morsel batch goes straight into the fold
EAGER_AGG_OVER_SCAN = {
    "lineitem_orders": "select count(*) from lineitem, orders where l_orderkey = o_orderkey",
    "lineitem_supplier": "select count(*) from lineitem, supplier where l_suppkey = s_suppkey",
    "customer_nation": "select count(*) from customer, nation where c_nationkey = n_nationkey",
}
STATEMENTS = {f"q{q}": query(q, TPCH_SF) for q in ALL_QUERIES} | EAGER_AGG_OVER_SCAN


@pytest.mark.slow
class TestAllQueriesSerialAndThreaded:
    @pytest.mark.parametrize("name", STATEMENTS)
    def test_matches_reference_byte_identical(self, tpch_db, name):
        sql = STATEMENTS[name]
        want = tpch_db.execute_reference(sql).rows()
        with quiescent(tpch_db):
            a = tpch_db.sql(sql)
        assert rows_match_unordered(a.rows(), want), name
        if name in EAGER_AGG_OVER_SCAN:
            assert any(
                op.op == "agg" and op.children[0].op == "scan" for op in a.physical.walk()
            ), a.physical.pretty()

    @pytest.mark.parametrize("qno", [1, 3, 18])
    def test_single_worker_matches_reference(self, tpch_data, qno):
        """One worker: the reduce schedule is empty and the worker's own
        combined state is the single stream the coordinator receives."""
        db = load_tpch(tpch_data, n_workers=1)
        sql = query(qno, TPCH_SF)
        with quiescent(db):
            res = db.sql(sql)
        assert rows_match_unordered(res.rows(), db.execute_reference(sql).rows()), qno


class DropFirstSend(FaultInjector):
    """Fault-free except for one transient ``NetworkError`` on the first
    send of one exchange kind (the tag stem after the ``q<id>|`` prefix)."""

    def __init__(self, stem: str):
        super().__init__()
        self.stem = stem
        self.dropped: list[str] = []

    def on_send(self, src, dst, size, tag):
        if not self.dropped and tag.split("|")[-1].startswith(self.stem):
            self.dropped.append(tag)
            raise NetworkError(f"test: dropped first {self.stem} send {src} -> {dst}")
        return super().on_send(src, dst, size, tag)


class TestEverySendRetries:
    """Shuffle, broadcast, gather and the Bloom-filter ship all leave
    through the one send primitive, so each survives a transient drop
    the same way. TPC-H Q8 uses all four."""

    @pytest.fixture(scope="class")
    def db(self, tpch_data):
        return load_tpch(tpch_data)

    @pytest.mark.parametrize("stem", ["shuf", "bcast", "gather", "bloom"])
    def test_transient_drop_is_retried(self, db, stem):
        sql = query(8, TPCH_SF)
        db.chaos(FaultSchedule.none())
        want = db.sql(sql)
        assert want.stats.retries == 0
        injector = DropFirstSend(stem)
        db.net.attach(injector)
        with quiescent(db):
            res = db.sql(sql)
        assert injector.dropped, f"Q8 sent nothing tagged {stem}"
        assert res.stats.retries >= 1 and res.stats.restarts == 0
        assert res.batch.to_bytes() == want.batch.to_bytes()


@pytest.mark.slow
class TestEveryOperatorInOneChain:
    @pytest.mark.parametrize("qno", ALL_QUERIES)
    def test_steps_fused_and_pipelines_counted(self, tpch_db, monkeypatch, qno):
        opened = []
        open_chain = DistributedExecutor._open_chain

        def spy(self, op):
            run = open_chain(self, op)
            opened.append(run.chain)
            return run

        monkeypatch.setattr(DistributedExecutor, "_open_chain", spy)
        sql = query(qno, TPCH_SF)
        with quiescent(tpch_db):
            res = analyzed(tpch_db, sql)
        assert res.stats.pipelines == len(opened)
        folded = [
            op.id for c in opened for op in c.transforms + ([c.source] if c.scans else [])
        ]
        steps = [
            op for op in res.physical.walk() if op.op == "scan" or chain_step(op)
        ]
        # every scan / filter / project / streamable join ran inside
        # exactly one chain, and EXPLAIN ANALYZE says so
        assert sorted(folded) == sorted(op.id for op in steps)
        assert res.stats.fused_ops == len(folded)
        spans = operator_spans(res.trace)
        fused = fused_ops(spans)
        for op in steps:
            assert op.id in fused, (qno, op.op)
            if op.id in spans:  # a chain root evaluated as an operator
                assert res.op_rows[op.id] == spans[op.id].rows


def list_db(**overrides) -> Database:
    cfg = dict(n_workers=4, n_max=4, page_size=16 * 1024,
               send_retries=6, max_query_restarts=16)
    cfg.update(overrides)
    db = Database(ClusterConfig(**cfg))
    db.sql("create table t (k integer, v integer, x double) partition by hash (k)")
    rng = np.random.default_rng(13)
    n = 6000
    db.load(
        "t",
        RowBatch.from_pairs(
            ("k", DataType.INT64, rng.integers(0, 50, n)),
            ("v", DataType.INT64, rng.integers(0, 9, n)),
            ("x", DataType.FLOAT64, np.round(rng.random(n), 4)),
        ),
    )
    return db


#: HAVING and a projection over an aggregate: the filter/project steps
#: run over a blocking source's batches, not over scan morsels
LIST_SOURCED = [
    "select v, count(*) c from t group by v having count(*) > 600 order by v",
    "select k, sum(x) * 2 s2, count(*) + 1 c1 from t group by k having sum(x) > 55 order by k",
]


class TestListSourcedChains:
    @pytest.fixture(scope="class")
    def canonical(self):
        db = list_db()
        db.chaos(FaultSchedule.none())
        out = []
        for sql in LIST_SOURCED:
            with quiescent(db):
                res = db.sql(sql)
            assert res.rows(), sql
            assert rows_match_unordered(res.rows(), db.execute_reference(sql).rows())
            out.append(res.batch.to_bytes())
        return out

    def test_having_is_a_list_sourced_chain(self):
        db = list_db()
        res = analyzed(db, LIST_SOURCED[0])
        having = [op for op in res.physical.walk() if op.op == "filter"]
        assert having and all(op.children[0].op != "scan" for op in having)
        assert all(op.id in fused_ops(operator_spans(res.trace)) for op in having)

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_byte_identical_under_chaos(self, canonical, seed):
        db = list_db()
        db.chaos(FaultSchedule.chaos(seed, db.worker_ids))
        for want, sql in zip(canonical, LIST_SOURCED):
            with quiescent(db):
                assert db.sql(sql).batch.to_bytes() == want, (seed, sql)


class TestExternalSourceChain:
    def test_filter_aggregate_over_external_table(self):
        db = list_db()
        schema = Schema.of(("k", DataType.INT64), ("g", DataType.STRING), ("w", DataType.INT64))
        blocks = [
            "".join(f"{i}|g{i % 3}|{i * 7 % 11}\n" for i in range(lo, lo + 40))
            for lo in range(0, 240, 40)
        ]
        db.register_external("ext", InMemoryCsvTable(blocks, schema))
        sql = "select g, count(*), sum(w) from ext where k >= 25 group by g order by g"
        with quiescent(db):
            res = db.sql(sql)
        assert res.rows() == db.execute_reference(sql).rows()
        assert len(res.rows()) == 3
        assert res.stats.pipelines >= 1 and res.stats.morsels > 0
        assert res.stats.rows_scanned == 240 - 25


class TestQuiescenceAfterFailure:
    def test_restart_budget_exhausted_mid_chain(self):
        """Worker 3 is down for good. Site 0 streams the broadcast side's
        morsel; the first coalesced batch reaches live inboxes, then the
        send to the dead node fails — with batches produced that nobody
        will consume and messages nobody will receive — on every attempt
        until the budget is gone."""
        db = list_db(disks_per_node=4, batch_size=64, max_query_restarts=2)
        db.chaos(FaultSchedule.none()).crash_now(3)
        with quiescent(db):
            with pytest.raises(WorkerFailureError, match="restart budget exhausted"):
                db.sql("select a.x ax, b.x bx from t a, t b where a.v = b.k and a.x < 0.5")
