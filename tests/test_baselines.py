"""Baseline-engine unit tests on a small synthetic database (fast path;
the TPC-H integration versions live in test_tpch.py)."""

from collections import Counter

import numpy as np
import pytest

from repro import ClusterConfig, Database
from repro.baselines import MapReduceStyleExecutor, MPPStyleExecutor, SparkStyleExecutor
from repro.common import DataType, RowBatch
from repro.network.simnet import SimNetwork
from repro.sql import parse

from tests.conftest import rows_match_unordered


@pytest.fixture(scope="module")
def db():
    d = Database(ClusterConfig(n_workers=3, n_coordinators=2, n_max=4, page_size=16 * 1024))
    d.sql("create table f (k integer, v integer) partition by hash (k)")
    d.sql("create table d (dk integer, g varchar) partition by hash (dk)")
    rng = np.random.default_rng(8)
    d.load(
        "f",
        RowBatch.from_pairs(
            ("k", DataType.INT64, rng.integers(0, 40, 2000)),
            ("v", DataType.INT64, rng.integers(0, 100, 2000)),
        ),
    )
    g = np.empty(40, dtype=object)
    g[:] = [f"g{i % 5}" for i in range(40)]
    d.load(
        "d",
        RowBatch.from_pairs(("dk", DataType.INT64, np.arange(40)), ("g", DataType.STRING, g)),
    )
    return d


SQL = "select g, sum(v) from f, d where k = dk group by g order by g"
#: no shuffle: a partial count per worker, combined at the coordinator
GATHER_ONLY = "select count(*) from f"
STAND_INS = [MapReduceStyleExecutor, SparkStyleExecutor, MPPStyleExecutor]


def make(db, cls):
    return cls({w: wk.runtime() for w, wk in db.workers.items()}, db.coord_ids[0], db.net, db.config)


def run_with(db, cls, sql=SQL):
    _, phys = db.plan_select(parse(sql))
    ex = make(db, cls)
    batch, stats = ex.execute(phys)
    return ex, stats, batch.rows()


class TestResultEquivalence:
    @pytest.mark.parametrize("cls", STAND_INS)
    def test_same_answers(self, db, cls):
        _, _, got = run_with(db, cls)
        want = db.execute_reference(SQL).rows()
        assert rows_match_unordered(got, want)


class TestSignatureBehaviours:
    def test_hive_sorts_and_materializes(self, db):
        ex, stats, _ = run_with(db, MapReduceStyleExecutor)
        assert stats.spilled_bytes > 0  # shuffle receive buffers on disk
        assert ex.sort_rows > 0  # sorted shuffle
        # every stage's output is materialized, a gather with no shuffle too
        _, stats, _ = run_with(db, MapReduceStyleExecutor, GATHER_ONLY)
        assert stats.spilled_bytes > 0

    def test_spark_materializes_without_sort(self, db):
        ex, stats, _ = run_with(db, SparkStyleExecutor)
        assert stats.spilled_bytes > 0  # the spill file is Spark's shuffle file
        assert ex.sort_rows == 0
        _, stats, _ = run_with(db, SparkStyleExecutor, GATHER_ONLY)
        assert stats.spilled_bytes == 0  # no per-stage materialization

    def test_mpp_no_disk_shuffle(self, db):
        _, stats, _ = run_with(db, MPPStyleExecutor)
        assert stats.spilled_bytes == 0  # pipelined in memory

    def test_mpp_direct_connections_exceed_nmax(self, db):
        db.net.reset_stats()
        run_with(db, MPPStyleExecutor)
        direct = db.net.max_connections()
        db.net.reset_stats()
        db.sql(SQL)  # HRDBMS path
        bounded = db.net.max_connections()
        assert direct >= db.config.n_workers - 1
        assert bounded <= 2 * db.config.n_max

    def test_mpp_never_uses_bloom(self, db):
        assert make(db, MPPStyleExecutor)._build_bloom_prefilter() is None


class TestPerQueryClone:
    """A stand-in cloned onto the second coordinator stays inside its
    query's exchange-tag prefix, like the engine's own clones."""

    @pytest.mark.parametrize("cls", STAND_INS)
    def test_traffic_under_query_prefix(self, db, cls, monkeypatch):
        hops = []
        route_send = SimNetwork.route_send

        def spy(self, topology, src, dst, payload, tag=""):
            if src != dst:
                hops.append(len(topology.route(src, dst)))
            return route_send(self, topology, src, dst, payload, tag)

        monkeypatch.setattr(SimNetwork, "route_send", spy)
        _, phys = db.plan_select(parse(SQL))
        before = Counter({p: t.bytes for p, t in db.net.traffic_by_prefix().items()})
        ex = make(db, cls).for_query(7001, db.coord_ids[1])
        batch, stats = ex.execute(phys)
        after = Counter({p: t.bytes for p, t in db.net.traffic_by_prefix().items()})
        assert after - before == Counter({"q7001|": stats.network_bytes})
        assert stats.network_bytes > 0
        assert rows_match_unordered(batch.rows(), db.execute_reference(SQL).rows())
        if cls is MPPStyleExecutor:
            nodes = [db.coord_ids[1], *ex.worker_ids]
            assert all(ex.tree.route(a, b) == [b] for a in nodes for b in nodes if a != b)
            assert hops and set(hops) == {1}
