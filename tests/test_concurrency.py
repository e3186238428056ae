"""Concurrent query serving: sessions, admission control, plan cache.

The tentpole guarantee: K client threads issuing SQL simultaneously
through :meth:`Database.session` get results identical to a serial
replay, while the admission controller keeps aggregate memory inside
the per-worker governor budgets and the plan cache skips repeated
parse/bind/optimize work.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import ClusterConfig, Database
from repro.cluster.resource import AdmissionController, AdmissionTimeout
from repro.cluster.plancache import PlanCache, normalize_sql
from repro.common import DataType, RowBatch
from repro.network.simnet import tag_prefix
from repro.workloads import tpch_schema
from repro.workloads.tpch_queries import query

from tests.conftest import TPCH_SF

N_THREADS = 8
TPCH_QUERIES = [1, 3, 6, 12]


@pytest.fixture(scope="module")
def conc_db(tpch_data):
    """A cluster tuned for concurrency tests (2 coordinators, 4
    admission slots)."""
    cfg = ClusterConfig(
        n_workers=4,
        n_coordinators=2,
        n_max=4,
        page_size=32 * 1024,
        batch_size=4096,
        max_concurrent_queries=4,
    )
    db = Database(cfg)
    for name, schema in tpch_schema.SCHEMAS.items():
        db.create_table(name, schema, tpch_schema.PARTITIONING[name])
        db.load(name, tpch_data[name])
    yield db
    db.close()


class TestConcurrentTPCH:
    def test_eight_threads_byte_identical_to_serial(self, conc_db):
        """The acceptance scenario: 8 client threads replaying TPC-H
        Q1/Q3/Q6/Q12 through sessions, byte-identical vs serial."""
        sqls = {q: query(q, TPCH_SF) for q in TPCH_QUERIES}
        serial = {q: conc_db.sql(sql).batch.to_bytes() for q, sql in sqls.items()}

        def client(tid: int) -> list[tuple[int, bytes]]:
            sess = conc_db.session()
            out = []
            # each thread replays the whole mix, rotated so the cluster
            # genuinely runs different queries at the same time
            for i in range(len(TPCH_QUERIES)):
                q = TPCH_QUERIES[(tid + i) % len(TPCH_QUERIES)]
                out.append((q, sess.sql(sqls[q]).batch.to_bytes()))
            return out

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            results = list(pool.map(client, range(N_THREADS)))
        for tid, per_thread in enumerate(results):
            for q, raw in per_thread:
                assert raw == serial[q], f"thread {tid} query Q{q} diverged"

    def test_queries_actually_overlapped(self, conc_db):
        """The previous test must have exercised real concurrency."""
        st = conc_db.admission.stats()
        assert st["peak_active"] >= 2, st

    def test_memory_stays_within_governor_budgets(self, conc_db):
        """Admission keeps aggregate peak inside the cluster budget
        (memory_per_node x n_workers), and each worker governor's peak
        inside its own node budget."""
        cfg = conc_db.config
        st = conc_db.admission.stats()
        assert st["peak_granted_bytes"] <= cfg.memory_per_node * cfg.n_workers
        peaks = conc_db.sql("select mem_peak from sys.workers").rows()
        assert max(p for (p,) in peaks) <= cfg.memory_per_node * cfg.n_workers
        for w in conc_db.workers.values():
            assert w.governor.peak <= cfg.memory_per_node

    def test_sessions_round_robin_coordinators(self, conc_db):
        coords = {conc_db.session().coordinator for _ in range(8)}
        assert coords == set(range(conc_db.config.n_coordinators))

    def test_submit_returns_futures(self, conc_db):
        sql = query(6, TPCH_SF)
        want = conc_db.sql(sql).rows()
        futures = [conc_db.submit(sql) for _ in range(6)]
        for f in futures:
            assert f.result(timeout=120).rows() == want


class TestConcurrentChaos:
    def test_faulty_network_concurrent_results_match_serial(self, tpch_data):
        """Retry/backoff and message dedup must hold per query even when
        several queries share the (faulty) network."""
        from repro.fault import FaultSchedule

        cfg = ClusterConfig(
            n_workers=4, n_max=4, page_size=32 * 1024, batch_size=4096,
            max_concurrent_queries=3,
        )
        db = Database(cfg)
        for name, schema in tpch_schema.SCHEMAS.items():
            db.create_table(name, schema, tpch_schema.PARTITIONING[name])
            db.load(name, tpch_data[name])
        sqls = {q: query(q, TPCH_SF) for q in TPCH_QUERIES}
        serial = {q: db.sql(sql).rows() for q, sql in sqls.items()}
        db.chaos(FaultSchedule(seed=7, drop_prob=0.002, dup_prob=0.002, delay_prob=0.01))

        def client(tid: int):
            sess = db.session()
            q = TPCH_QUERIES[tid % len(TPCH_QUERIES)]
            return q, sess.sql(sqls[q]).rows()

        with ThreadPoolExecutor(max_workers=6) as pool:
            for q, rows in pool.map(client, range(6)):
                assert rows == serial[q], f"Q{q} diverged under chaos"
        db.close()


class TestPlanCache:
    def _mini_db(self, **cfg):
        db = Database(ClusterConfig(n_workers=2, n_max=4, page_size=16 * 1024, **cfg))
        db.sql("create table t (a integer, b integer) partition by hash (a)")
        db.load(
            "t",
            RowBatch.from_pairs(
                ("a", DataType.INT64, np.arange(100) % 10),
                ("b", DataType.INT64, np.arange(100)),
            ),
        )
        return db

    def test_repeat_query_hits(self):
        db = self._mini_db()
        base = db.plan_cache.stats()["hits"]
        r1 = db.sql("select a, sum(b) from t group by a order by a")
        r2 = db.sql("select a, sum(b) from t group by a order by a")
        assert r1.rows() == r2.rows()
        assert db.plan_cache.stats()["hits"] == base + 1

    def test_whitespace_normalization_shares_entry(self):
        db = self._mini_db()
        db.sql("select sum(b) from t")
        assert db.plan_cache.stats()["hits"] == 0
        db.sql("select   sum(b)\n  from    t")
        assert db.plan_cache.stats()["hits"] == 1

    def test_string_literal_case_not_normalized(self):
        assert normalize_sql("select 'A'") != normalize_sql("select 'a'")

    def test_ddl_invalidates(self):
        db = self._mini_db()
        db.sql("select sum(b) from t")
        db.sql("create table u (x integer) partition by hash (x)")
        db.sql("select sum(b) from t")  # catalog version moved: re-plan
        st = db.plan_cache.stats()
        assert st["hits"] == 0 and st["misses"] >= 2

    def test_analyze_invalidates(self):
        db = self._mini_db()
        db.sql("select sum(b) from t")
        db.load(
            "t",
            RowBatch.from_pairs(
                ("a", DataType.INT64, np.arange(50) % 10),
                ("b", DataType.INT64, np.arange(50)),
            ),
        )  # load() re-analyzes: stats version moved
        r = db.sql("select sum(b) from t")
        assert db.plan_cache.stats()["hits"] == 0
        assert r.rows()[0][0] == sum(range(100)) + sum(range(50))

    def test_cached_plan_results_correct_after_dml(self):
        """A cached plan must still read current data (it caches the
        plan, not the result)."""
        db = self._mini_db()
        before = db.sql("select count(*) from t").rows()[0][0]
        db.sql("insert into t values (1, 1000)")
        after = db.sql("select count(*) from t").rows()[0][0]
        assert after == before + 1

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refresh a
        cache.put(("c",), 3)  # evicts b
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1 and cache.get(("c",)) == 3
        assert cache.stats()["evictions"] == 1

    def test_disabled_cache(self):
        db = self._mini_db(plan_cache_size=0)
        db.sql("select sum(b) from t")
        db.sql("select sum(b) from t")
        assert db.plan_cache.stats()["hits"] == 0


class TestAdmissionController:
    def test_fifo_and_concurrency_bound(self):
        ctrl = AdmissionController(total_budget=1000, max_concurrent=2, timeout=30.0)
        active = []
        peak = []
        mu = threading.Lock()
        order = []

        def run(i):
            with ctrl.admit(100):
                with mu:
                    order.append(i)
                    active.append(i)
                    peak.append(len(active))
                time.sleep(0.02)
                with mu:
                    active.remove(i)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
            time.sleep(0.005)  # stagger arrivals so FIFO order is observable
        for t in threads:
            t.join()
        assert max(peak) <= 2
        assert ctrl.stats()["peak_active"] == 2
        assert ctrl.stats()["admitted"] == 6
        assert sorted(order) == list(range(6))

    def test_memory_grant_gates_admission(self):
        """Two 600-byte grants exceed the 1000-byte budget: the second
        query must wait even though the concurrency slot is free."""
        ctrl = AdmissionController(total_budget=1000, max_concurrent=4, timeout=30.0)
        a = ctrl.admit(600)
        flag = []

        def second():
            with ctrl.admit(600):
                flag.append(True)

        t = threading.Thread(target=second)
        t.start()
        time.sleep(0.05)
        assert not flag  # still queued: grant does not fit
        assert ctrl.granted == 600
        a.release()
        t.join(timeout=5)
        assert flag
        assert ctrl.stats()["waited"] == 1

    def test_oversized_grant_is_clamped_and_runs_alone(self):
        ctrl = AdmissionController(total_budget=1000, max_concurrent=4)
        with ctrl.admit(10_000_000):
            assert ctrl.granted == 1000

    def test_timeout_raises(self):
        ctrl = AdmissionController(total_budget=1000, max_concurrent=1, timeout=0.05)
        with ctrl.admit():
            with pytest.raises(AdmissionTimeout):
                ctrl.admit()
        # the timed-out ticket must not wedge the queue
        with ctrl.admit():
            pass


class TestNetworkIsolation:
    def test_tag_prefix(self):
        assert tag_prefix("q3|shuf7") == "q3|"
        assert tag_prefix("shuf7") == ""
        assert tag_prefix("q12|bcast1") == "q12|"

    def test_prefix_scoped_clear(self):
        from repro.network.simnet import SimNetwork

        net = SimNetwork([0, 1])
        net.send(0, 1, b"x", tag="q1|shuf1")
        net.send(0, 1, b"y", tag="q2|shuf1")
        net.clear_inboxes("q1|")
        got = net.recv_all(1)
        assert [(src, t) for src, t, _ in got] == [(0, "q2|shuf1")]

    def test_per_prefix_traffic_stats(self):
        from repro.network.simnet import SimNetwork

        net = SimNetwork([0, 1])
        net.send(0, 1, b"abc", tag="q1|shuf1")
        net.send(0, 1, b"defgh", tag="q2|shuf1")
        assert net.traffic_of("q1|").bytes == 3
        assert net.traffic_of("q2|").bytes == 5
        assert net.total_bytes == 8

    def test_concurrent_execstats_isolated(self, conc_db):
        """Each concurrent query's network counters reflect only its own
        exchanges (not the sum of everything in flight)."""
        sql3, sql6 = query(3, TPCH_SF), query(6, TPCH_SF)
        b3 = conc_db.sql(sql3).stats.network_bytes
        b6 = conc_db.sql(sql6).stats.network_bytes

        def run(sql):
            return conc_db.session().sql(sql).stats.network_bytes

        with ThreadPoolExecutor(max_workers=4) as pool:
            f3 = [pool.submit(run, sql3) for _ in range(2)]
            f6 = [pool.submit(run, sql6) for _ in range(2)]
            for f in f3:
                assert f.result() == b3
            for f in f6:
                assert f.result() == b6
