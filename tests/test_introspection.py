"""Introspection as data: sys.* system tables and the flight recorder.

The acceptance bar: every ``sys.*`` table answers SELECTs through the
ordinary parse→optimize→execute path (filters, ORDER BY, aggregates,
joins, alias qualification all work), the flight recorder keeps
gapless per-shard sequence numbers under chaos with concurrent
sessions, ``sys.events`` matches the recorder's JSON dump
byte-for-byte, and trace-retention eviction leaves summary rows (never
dangling operator references) in ``sys.queries``.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import ClusterConfig, Database
from repro.common import DataType, RowBatch
from repro.common.errors import CatalogError, PlanError
from repro.cluster.introspection import SYS_SCHEMAS
from repro.cluster.resource import AdmissionTimeout
from repro.fault import FaultSchedule
from repro.telemetry import FlightRecorder

CHAOS_SEEDS = [11, 23, 37]

QUERIES = [
    "select v, count(*), sum(k) from t group by v order by v",
    "select count(*) from t where k < 17",
    "select d.grp, sum(t.k) from t, dim d where t.v = d.id group by d.grp order by d.grp",
]


def build_db(**cfg_overrides) -> Database:
    cfg = dict(
        n_workers=4, n_max=4, page_size=16 * 1024,
        send_retries=6, max_query_restarts=16,
    )
    cfg.update(cfg_overrides)
    db = Database(ClusterConfig(**cfg))
    db.sql("create table t (k integer, v integer) partition by hash (k)")
    db.sql("create table dim (id integer, grp integer) partition by replicated")
    rng = np.random.default_rng(7)
    db.load(
        "t",
        RowBatch.from_pairs(
            ("k", DataType.INT64, rng.integers(0, 40, 3000)),
            ("v", DataType.INT64, rng.integers(0, 8, 3000)),
        ),
    )
    db.load(
        "dim",
        RowBatch.from_pairs(
            ("id", DataType.INT64, np.arange(8)),
            ("grp", DataType.INT64, np.arange(8) % 3),
        ),
    )
    return db


# ---------------------------------------------------------------------------
# every sys.* table through the normal SQL path
# ---------------------------------------------------------------------------


class TestSysTables:
    def test_select_star_over_every_table(self):
        db = build_db()
        db.sql(QUERIES[0])
        for name, schema in SYS_SCHEMAS.items():
            res = db.sql(f"SELECT * FROM {name}")
            assert res.columns == [c.name for c in schema], name
            # the cluster is live, so every table has something to say
            if name != "sys.metrics_history":
                assert res.rows(), f"{name} returned no rows"

    def test_queries_lifecycle_row(self):
        db = build_db()
        res = db.sql(QUERIES[1])
        row = db.sql(
            f"SELECT status, rows, error FROM sys.queries WHERE qid = {res.qid}"
        ).rows()
        assert row == [("done", 1, "")]
        dur = db.sql(
            f"SELECT duration_s FROM sys.queries WHERE qid = {res.qid}"
        ).rows()[0][0]
        assert dur > 0.0

    def test_query_operators_filter_and_order(self):
        db = build_db()
        res = db.sql(QUERIES[2])
        rows = db.sql(
            "SELECT op, qerror FROM sys.query_operators "
            f"WHERE qid = {res.qid} ORDER BY qerror DESC"
        ).rows()
        assert rows
        qerrs = [r[1] for r in rows]
        assert qerrs == sorted(qerrs, reverse=True)
        assert all(q >= 1.0 for q in qerrs)

    def test_aggregate_over_sys_table(self):
        db = build_db()
        for q in QUERIES:
            db.sql(q)
        rows = db.sql(
            "SELECT status, count(*) FROM sys.queries GROUP BY status ORDER BY status"
        ).rows()
        by_status = dict(rows)
        # the 3 workload SELECTs are done; the introspection query
        # itself is still running while its own scan materializes
        assert by_status["done"] >= 3
        assert by_status["running"] == 1

    def test_join_sys_tables_with_aliases(self):
        db = build_db()
        res = db.sql(QUERIES[0])
        rows = db.sql(
            "SELECT q.qid, o.op FROM sys.queries q, sys.query_operators o "
            f"WHERE q.qid = o.qid AND q.qid = {res.qid}"
        ).rows()
        assert rows and all(r[0] == res.qid for r in rows)

    def test_sys_metrics_reflects_counters(self):
        db = build_db()
        db.sql(QUERIES[0])
        db.sql(QUERIES[1])
        val = db.sql(
            "SELECT value FROM sys.metrics WHERE name = 'repro_query_total'"
        ).rows()[0][0]
        assert val >= 2.0
        workers = db.sql(
            "SELECT value FROM sys.metrics WHERE name = 'repro_cluster_workers'"
        ).rows()[0][0]
        assert workers == 4.0

    def test_sys_queries_reconciles_with_query_total(self):
        """Every SELECT lifecycle, EXPLAIN ANALYZE included, lands once
        in ``sys.queries`` and once in ``repro_query_total``."""
        db = build_db()

        def counts():
            # the counting query sees itself as a running row and is
            # counted by the metric once it finishes: both sides +1
            logged = db.sql("SELECT count(*) FROM sys.queries").rows()[0][0]
            total = db.sql(
                "SELECT value FROM sys.metrics WHERE name = 'repro_query_total'"
            ).rows()[0][0]
            return logged, total

        logged0, total0 = counts()
        for q in QUERIES:
            db.sql(q)
            db.explain_analyze(q)
        logged1, total1 = counts()
        assert logged1 - logged0 == total1 - total0 == 2 * len(QUERIES) + 2
        # all of them finished: everything logged so far plus the metric read
        done = db.sql("SELECT count(*) FROM sys.queries WHERE status = 'done'").rows()
        assert done == [(logged1 + 1,)]

    def test_sys_workers_and_fragments(self):
        db = build_db()
        db.sql(QUERIES[0])
        w = db.sql(
            "SELECT worker_id, state, in_placement FROM sys.workers ORDER BY worker_id"
        ).rows()
        assert [r[0] for r in w] == sorted(db.worker_ids)
        assert all(r[1] == "healthy" and r[2] == 1 for r in w)
        frags = db.sql(
            "SELECT table_name, sum(rows) FROM sys.fragments "
            "GROUP BY table_name ORDER BY table_name"
        ).rows()
        by_table = dict(frags)
        assert by_table["t"] == 3000
        assert by_table["dim"] == 8 * 4  # replicated on every worker
        read = db.sql(
            "SELECT sum(pages_read) FROM sys.fragments WHERE table_name = 't'"
        ).rows()[0][0]
        assert read > 0

    def test_sys_plan_cache_lists_cached_plans(self):
        db = build_db()
        db.sql(QUERIES[0])
        db.sql(QUERIES[0])  # cache hit: still one entry
        rows = db.sql("SELECT sql, coordinator FROM sys.plan_cache").rows()
        assert any("group by v" in r[0] for r in rows)

    def test_admission_wait_recorded(self):
        db = build_db()
        res = db.sql(QUERIES[0])
        wait = db.sql(
            f"SELECT admission_wait_s FROM sys.queries WHERE qid = {res.qid}"
        ).rows()[0][0]
        assert wait >= 0.0
        kinds = db.sql(
            f"SELECT kind FROM sys.events WHERE qid = {res.qid}"
        ).rows()
        assert ("admission_grant",) in kinds


# ---------------------------------------------------------------------------
# read-only guards
# ---------------------------------------------------------------------------


class TestReadOnlyGuards:
    def test_create_in_sys_schema_rejected(self):
        db = build_db()
        with pytest.raises(CatalogError, match="reserved"):
            db.sql("create table sys.mine (a integer)")

    def test_drop_system_table_rejected(self):
        db = build_db()
        with pytest.raises(CatalogError, match="cannot be dropped"):
            db.sql("drop table sys.queries")

    def test_dml_on_system_tables_rejected(self):
        db = build_db()
        with pytest.raises(PlanError, match="read-only"):
            db.sql("insert into sys.queries values (1)")
        with pytest.raises(PlanError, match="read-only"):
            db.sql("delete from sys.events")
        with pytest.raises(PlanError, match="read-only"):
            db.sql("update sys.workers set state = 'down'")

    def test_user_tables_untouched_by_guards(self):
        db = build_db()
        db.sql("insert into t values (99, 99)")
        db.sql("update t set v = 98 where k = 99")
        db.sql("delete from t where k = 99")
        assert db.sql("select count(*) from t where k = 99").rows() == [(0,)]


# ---------------------------------------------------------------------------
# metrics history (the time-series sampler)
# ---------------------------------------------------------------------------


class TestMetricsHistory:
    def test_changed_counter_has_multiple_samples(self):
        # wall-clock cadence of ~0 => one sample per introspection tick
        db = build_db(metrics_sample_s=1e-9)
        for q in QUERIES:
            db.sql(q)
        rows = db.sql(
            "SELECT sample_id, value FROM sys.metrics_history "
            "WHERE name = 'repro_query_total' ORDER BY sample_id"
        ).rows()
        assert len(rows) >= 2
        values = [r[1] for r in rows]
        assert len(set(values)) >= 2  # the counter moved between ticks
        assert values == sorted(values)  # counters only go up

    def test_window_bounds_series(self):
        db = build_db(metrics_sample_s=1e-9, metrics_history_window=3)
        for _ in range(6):
            db.sql(QUERIES[1])
        rows = db.sql(
            "SELECT count(*) FROM sys.metrics_history "
            "WHERE name = 'repro_query_total'"
        ).rows()
        assert 0 < rows[0][0] <= 3


# ---------------------------------------------------------------------------
# trace retention vs sys.queries (satellite: no dangling profiles)
# ---------------------------------------------------------------------------


class TestTraceRetention:
    def test_eviction_keeps_summary_rows(self):
        db = build_db(tracing=True, trace_retention=2)
        qids = [db.sql(q).qid for q in QUERIES]
        # starting the introspection query evicts one more trace; the two
        # oldest workload queries are already outside the window
        rows = dict(
            db.sql("SELECT qid, trace_retained FROM sys.queries").rows()
        )
        assert set(qids) <= set(rows)  # summary rows survive eviction
        assert rows[qids[0]] == 0 and rows[qids[1]] == 0
        # evicted queries contribute no operator rows (nothing dangles)
        for qid in qids[:2]:
            ops = db.sql(
                f"SELECT count(*) FROM sys.query_operators WHERE qid = {qid}"
            ).rows()
            assert ops == [(0,)]
            rec = db.query_log.get(qid)
            assert rec.physical is None and rec.trace is None
        # full summary stats survive on the evicted rows
        done = db.sql(
            f"SELECT status, rows FROM sys.queries WHERE qid = {qids[1]}"
        ).rows()
        assert done == [("done", 1)]

    def test_query_history_bounds_sys_queries(self):
        db = build_db(query_history=4)
        for _ in range(8):
            db.sql(QUERIES[1])
        n = db.sql("SELECT count(*) FROM sys.queries").rows()[0][0]
        assert n <= 4


# ---------------------------------------------------------------------------
# the flight recorder
# ---------------------------------------------------------------------------


def dump_from_rows(recorder, rows) -> str:
    """Rebuild the recorder's JSON artifact from sys.events rows."""
    events = [
        {
            "shard": int(shard), "seq": int(seq), "tick": int(tick),
            "ts": float(ts), "kind": str(kind), "qid": int(qid),
            "node": int(node), "detail": str(detail),
        }
        for shard, seq, tick, ts, kind, qid, node, detail in rows
    ]
    return json.dumps(
        {"nshards": recorder.nshards, "capacity": recorder.capacity, "events": events},
        indent=2,
        sort_keys=True,
    )


class TestFlightRecorder:
    def test_unit_ring_bounds_and_sequence(self):
        rec = FlightRecorder(nshards=1, capacity=4)
        for i in range(7):
            rec.record("tick", qid=i)
        evs = rec.events()
        assert len(evs) == 4
        assert [e.seq for e in evs] == [3, 4, 5, 6]  # contiguous tail
        st = rec.stats()
        assert st["recorded"] == 7 and st["retained"] == 4 and st["dropped"] == 3

    def test_detail_is_sorted_json(self):
        rec = FlightRecorder(nshards=2)
        rec.record("x", b=2, a=1)
        (e,) = rec.events()
        assert e.detail == '{"a": 1, "b": 2}'
        assert json.loads(rec.dump_json())["events"][0]["kind"] == "x"

    def test_clear_keeps_sequence_monotonic(self):
        rec = FlightRecorder(nshards=1)
        rec.record("a")
        rec.clear()
        rec.record("b")
        (e,) = rec.events()
        assert e.seq == 1

    def test_epoch_publish_recorded_on_scale_out(self):
        db = build_db()
        db.sql(QUERIES[0])
        report = db.add_worker()
        rows = db.sql(
            "SELECT kind, detail FROM sys.events WHERE kind = 'epoch_publish'"
        ).rows()
        assert rows
        detail = json.loads(rows[-1][1])
        assert detail["epoch"] == report.epoch
        assert len(detail["workers"]) == 5

    def test_admission_timeout_recorded(self):
        db = build_db(max_concurrent_queries=1, admission_timeout=0.05)
        with db.admission.admit():
            with pytest.raises(AdmissionTimeout):
                db.sql(QUERIES[1])
        kinds = [r[0] for r in db.sql("SELECT kind FROM sys.events").rows()]
        assert "admission_timeout" in kinds
        errs = db.sql(
            "SELECT count(*) FROM sys.queries WHERE status = 'error'"
        ).rows()
        assert errs == [(1,)]

    def test_breaker_transitions_recorded(self):
        db = build_db(blacklist_threshold=2)
        inj = db.chaos(FaultSchedule.none())
        inj.crash_now(2, duration=10_000)
        for _ in range(3):
            db.sql("select count(*) from dim")
        kinds = [r[0] for r in db.sql("SELECT kind FROM sys.events").rows()]
        assert "breaker_blacklisted" in kinds


class TestRecorderUnderChaos:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_gapless_and_byte_identical(self, seed):
        db = build_db()
        db.chaos(FaultSchedule.chaos(seed, db.worker_ids))
        errors = []

        def session(i):
            try:
                for q in QUERIES:
                    db.sql(q)
            except Exception as e:  # pragma: no cover - fails the test below
                errors.append(e)

        threads = [threading.Thread(target=session, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # per-shard sequence numbers are gapless among retained events
        by_shard = {}
        for e in db.recorder.events():
            by_shard.setdefault(e.shard, []).append(e.seq)
        assert by_shard
        for shard, seqs in by_shard.items():
            lo = seqs[0]
            assert seqs == list(range(lo, lo + len(seqs))), f"shard {shard} has gaps"
        # chaos ticks flowed into the recorder clock
        assert any(e.tick > 0 for e in db.recorder.events())
        # sys.events matches the recorder dump byte-for-byte (the table
        # query's own admission grant lands before the scan materializes)
        rows = db.sql("SELECT * FROM sys.events").rows()
        assert dump_from_rows(db.recorder, rows) == db.recorder.dump_json()


# ---------------------------------------------------------------------------
# the CLI artifact
# ---------------------------------------------------------------------------


class TestEventsCLI:
    def test_events_subcommand_writes_dump(self, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "events.json"
        main(["--workers", "2", "events", "select 1", "--out", str(out)])
        dump = json.loads(out.read_text())
        assert dump["events"], "recorder dump is empty"
        assert {"shard", "seq", "kind", "detail"} <= set(dump["events"][0])
        assert any(e["kind"] == "admission_grant" for e in dump["events"])
