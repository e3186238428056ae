"""Fused join pipelines and the binomial reduce tree.

A join query's whole probe side — scan → filter → probe (→ probe) →
partial-aggregate / top-k fold — must run as one fused morsel pass, and
final aggregate/top-k/merge gathers must climb the workers' binomial
reduce tree instead of landing as n raw streams on the coordinator.
Both are engine-shape changes only: these tests pin result equivalence
against the reference executor, byte-identity across fault seeds,
stability under 8-thread concurrent sessions, and invisibility across a
mid-query scale-out (the test_elastic chaos harness).
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import ClusterConfig, Database
from repro.core.exchange import Exchange
from repro.fault import FaultSchedule
from repro.workloads import tpch_schema
from repro.workloads.tpch_queries import query as tpch_query

from tests.conftest import rows_match_unordered
from tests.test_elastic import arm_scale_event

#: the acceptance mix: agg-only (1, 6), one-join (12), join+top-k (3),
#: and join-on-join (10)
QUERIES = [1, 3, 6, 10, 12]
FAULT_SEEDS = [11, 23, 37, 41, 59]


def build_db(data, **overrides) -> Database:
    cfg = dict(
        n_workers=4, n_max=4, page_size=32 * 1024, batch_size=4096,
        send_retries=6, max_query_restarts=16,
    )
    cfg.update(overrides)
    db = Database(ClusterConfig(**cfg))
    for name, schema in tpch_schema.SCHEMAS.items():
        db.create_table(name, schema, tpch_schema.PARTITIONING[name])
        db.load(name, data[name])
    return db


def run_all(db: Database) -> dict[int, list]:
    return {q: db.sql(tpch_query(q, sf=0.002)).rows() for q in QUERIES}


class TestJoinFusionEquivalence:
    @pytest.fixture(scope="class")
    def pipelined(self, tpch_data):
        return build_db(tpch_data)

    @pytest.mark.parametrize("qno", QUERIES)
    def test_pipelined_matches_reference(self, pipelined, qno):
        sql = tpch_query(qno, sf=0.002)
        got = pipelined.sql(sql).rows()
        want = pipelined.execute_reference(sql).rows()
        assert rows_match_unordered(got, want), f"Q{qno}"

    def test_join_queries_report_pipelines(self, pipelined):
        """Q3/Q10/Q12 must fuse their probe sides (the ISSUE's broken
        counters: join queries logged pipelines=0)."""
        stats = {
            q: pipelined.sql(tpch_query(q, sf=0.002)).stats for q in (3, 10, 12)
        }
        for q, st in stats.items():
            assert st.pipelines >= 1, f"Q{q} did not fuse"
            assert st.morsels > 0, f"Q{q} ran no morsels"
        # Q10's join-on-join stacks fused chains (outer probe side plus
        # the build-side join's own fused probe)
        assert stats[10].pipelines >= 2
        # a fused probe folds the join op itself into the chain: more
        # fused ops than the scan+filter+project minimum of one chain
        assert stats[3].fused_ops >= 4

    def test_busy_split_in_explain_analyze(self, tpch_data):
        db = build_db(tpch_data)
        out = db.explain_analyze(tpch_query(3, sf=0.002))
        assert "fused" in out
        assert "coord_busy=" in out
        assert "site_busy=" in out

    def test_coord_busy_small_vs_site_busy(self, pipelined):
        """The reduce tree's point: workers, not the coordinator, do the
        merge work."""
        st = pipelined.sql(tpch_query(1, sf=0.002)).stats
        assert sum(st.site_busy_s.values()) > st.coord_busy_s

    def test_final_merges_reach_coordinator_as_one_frame(self, pipelined, monkeypatch):
        """Final merges stay off the coordinator: on the Q1/Q3/Q6/Q12
        mix every reduce-tree gather delivers at most one pre-merged
        frame to the coordinator, never one frame per worker."""
        frames = []
        recv = Exchange._recv

        def spy(self, node, tag, *args, **kwargs):
            out = recv(self, node, tag, *args, **kwargs)
            if (node == self.coord_id
                    and sys._getframe(1).f_code.co_name == "_reduce_tree_gather"):
                frames.append(len(out))
            return out

        monkeypatch.setattr(Exchange, "_recv", spy)
        for q in (1, 3, 6, 12):
            pipelined.sql(tpch_query(q, sf=0.002))
        assert len(frames) >= 4 and max(frames) <= 1, frames


class TestFaultSeedByteIdentity:
    """Chaos schedules must be invisible: byte-identical rows."""

    @pytest.fixture(scope="class")
    def canonical(self, tpch_data):
        db = build_db(tpch_data)
        db.chaos(FaultSchedule.none())
        return run_all(db)

    @pytest.mark.parametrize("seed", FAULT_SEEDS)
    def test_byte_identical_under_chaos(self, tpch_data, canonical, seed):
        db = build_db(tpch_data)
        db.chaos(FaultSchedule.chaos(seed, [0, 1, 2, 3]))
        got = run_all(db)
        for q in QUERIES:
            assert got[q] == canonical[q], f"Q{q} diverged under seed {seed}"


class TestConcurrentSessions:
    def test_eight_thread_sessions_match_serial(self, tpch_data):
        db = build_db(tpch_data, max_concurrent_queries=4)
        sqls = {q: tpch_query(q, sf=0.002) for q in QUERIES}
        serial = {q: db.sql(sql).batch.to_bytes() for q, sql in sqls.items()}

        def client(tid: int) -> int:
            sess = db.session()
            bad = 0
            for i in range(len(QUERIES)):
                q = QUERIES[(tid + i) % len(QUERIES)]
                if sess.sql(sqls[q]).batch.to_bytes() != serial[q]:
                    bad += 1
            return bad

        with ThreadPoolExecutor(max_workers=8) as pool:
            mismatches = sum(f.result() for f in [pool.submit(client, t) for t in range(8)])
        assert mismatches == 0


class TestMidQueryScaleOut:
    """A scale-out fired mid-join-query (test_elastic harness) must be
    invisible: the in-flight query is pinned to its epoch."""

    def _run(self, data, schedule=None, arm_query=10):
        db = build_db(data)
        db.chaos(schedule or FaultSchedule.none())
        state = arm_scale_event(db, db.add_worker, after=3)
        rows = {}
        rows[arm_query] = db.sql(tpch_query(arm_query, sf=0.002)).rows()
        for q in QUERIES:
            if q != arm_query:
                rows[q] = db.sql(tpch_query(q, sf=0.002)).rows()
        return rows, db, state

    @pytest.fixture(scope="class")
    def no_event_rows(self, tpch_data):
        db = build_db(tpch_data)
        db.chaos(FaultSchedule.none())
        return run_all(db)

    @pytest.fixture(scope="class")
    def event_rows(self, tpch_data, no_event_rows):
        rows, db, state = self._run(tpch_data)
        assert state["fired"] and db.catalog.placement_epoch >= 1
        # Q10 planned before the event: pinned to its epoch, its fused
        # joins and reduce tree must not see the new worker
        assert rows[10] == no_event_rows[10]
        return rows

    @pytest.mark.parametrize("seed", FAULT_SEEDS[:3])
    def test_scale_out_byte_identical_under_chaos(self, tpch_data, event_rows, seed):
        schedule = FaultSchedule.chaos(seed, [0, 1, 2, 3])
        rows, db, state = self._run(tpch_data, schedule)
        assert state["fired"]
        for q in QUERIES:
            assert rows[q] == event_rows[q], f"Q{q} diverged under seed {seed}"
