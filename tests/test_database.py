"""Database façade: DDL, loading, statistics, explain, configuration."""

import os

import pytest

from repro import ClusterConfig, Database, DataType, RowBatch, Schema
from repro.common.errors import BufferPoolError, CatalogError, PlanError
from repro.optimizer.dataflow import convert_naive

from tests.conftest import quiescent


def fresh(n_workers=2, **kw):
    return Database(ClusterConfig(n_workers=n_workers, n_max=4, page_size=16 * 1024, **kw))


class TestDDL:
    def test_create_and_query_empty(self):
        db = fresh()
        db.sql("create table e (a integer)")
        assert db.sql("select count(*) from e").rows() == [(0,)]

    def test_duplicate_table_rejected(self):
        db = fresh()
        db.sql("create table d (a integer)")
        with pytest.raises(CatalogError):
            db.sql("create table d (a integer)")

    def test_drop_table(self):
        db = fresh()
        db.sql("create table d (a integer)")
        db.sql("drop table d")
        with pytest.raises(CatalogError):
            db.sql("select * from d")

    @pytest.mark.parametrize("rebalanced", [False, True])
    def test_drop_table_drops_its_data(self, rebalanced):
        db = fresh()
        db.sql("create table t (a integer, s varchar) partition by hash (a)")
        db.sql("insert into t values (1, 'x'), (2, 'y')")
        if rebalanced:  # the rows move to new-epoch files, beside the old ones
            db.add_worker()
        db.sql("drop table t")
        assert all(w.fs.listdir("tables/t") == [] for w in db.workers.values())
        db.sql("create table t (a integer, s varchar) partition by hash (a)")
        assert db.sql("select count(*) from t").rows() == [(0,)]

    def test_drop_table_closes_its_files(self, tmp_path):
        """On a real filesystem a dropped table leaves no open descriptor
        and no file registered with a buffer manager."""
        db = Database(ClusterConfig(n_workers=2, data_dir=str(tmp_path)))
        db.sql("create table keep (a integer) partition by hash (a)")

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        before = open_fds()
        db.sql("create table t (a integer, s varchar) partition by hash (a)")
        db.sql("create index ta on t (a)")
        db.sql("insert into t values (1, 'x'), (2, 'y'), (3, 'z')")
        paths = {
            w: [f.path for f in wk.storage["t"].fragments]
            + [tree.path for f in wk.storage["t"].fragments for tree in f.indexes.values()]
            for w, wk in db.workers.items()
        }
        assert all(len(p) == 2 * db.config.disks_per_node for p in paths.values())
        assert open_fds() > before
        db.sql("drop table t")
        assert open_fds() == before
        for w, wk in db.workers.items():
            for path in paths[w]:
                with pytest.raises(BufferPoolError):
                    wk.bufmgr.file(path)
        assert db.sql("select count(*) from keep").rows() == [(0,)]

    def test_unknown_table(self):
        db = fresh()
        with pytest.raises(CatalogError):
            db.sql("select * from nope")

    def test_row_format_table(self):
        db = fresh()
        db.sql("create table r (a integer, s varchar) row partition by hash (a)")
        db.sql("insert into r values (1, 'x'), (2, 'y')")
        assert sorted(db.sql("select s from r").rows()) == [("x",), ("y",)]

    def test_clustered_table_via_sql(self):
        db = fresh()
        db.sql("create table c (a integer, d date) partition by hash (a) cluster by (d)")
        assert db.catalog.entry("c").clustering == ("d",)

    def test_replicated_via_sql(self):
        db = fresh(3)
        db.sql("create table n (k integer) partition by replicated")
        db.sql("insert into n values (1), (2)")
        for w in db.workers.values():
            assert w.storage["n"].row_count == 2
        assert db.sql("select count(*) from n").rows() == [(2,)]


class TestLoadAnalyze:
    def test_load_updates_stats(self):
        db = fresh()
        schema = Schema.of(("a", DataType.INT64))
        db.create_table("t", schema, ("hash", ("a",)))
        db.load("t", RowBatch.from_pairs(("a", DataType.INT64, list(range(100)))))
        ts = db.stats.table("t")
        assert ts.row_count == 100
        assert ts.columns["a"].ndv == 100
        assert ts.columns["a"].min == 0 and ts.columns["a"].max == 99

    def test_stats_replicated_to_all_coordinators(self):
        db = Database(ClusterConfig(n_workers=2, n_coordinators=2, n_max=4, page_size=16 * 1024))
        schema = Schema.of(("a", DataType.INT64))
        db.create_table("t", schema, ("hash", ("a",)))
        db.load("t", RowBatch.from_pairs(("a", DataType.INT64, [1, 2, 3])))
        for coord in db.coordinators:
            assert coord.stats.table("t").row_count == 3

    @pytest.mark.parametrize("scheme", [("replicated", ()), ("hash", ("a",))])
    def test_analyze_without_sample_counts_each_row_once(self, scheme):
        db = fresh(4)
        db.create_table("t", Schema.of(("a", DataType.INT64)), scheme)
        db.load("t", RowBatch.from_pairs(("a", DataType.INT64, [1, 2, 3])))
        assert db.stats.table("t").row_count == 3
        db.analyze("t")  # reads the stored rows back: one replica, not four
        assert db.stats.table("t").row_count == 3
        assert db.stats.table("t").columns["a"].ndv == 3

    def test_set_table_stats(self):
        from repro.optimizer.stats import TableStats

        db = fresh()
        db.sql("create table t (a integer)")
        db.set_table_stats("t", TableStats(10**9))
        assert db.stats.table("t").row_count == 10**9

    def test_planning_from_any_coordinator(self):
        db = Database(ClusterConfig(n_workers=2, n_coordinators=3, n_max=4, page_size=16 * 1024))
        db.sql("create table t (a integer) partition by hash (a)")
        db.sql("insert into t values (1), (2)")
        for c in range(3):
            assert db.sql("select count(*) from t", coordinator=c).rows() == [(2,)]


class TestInsertValuesRefusals:
    """Tables store no NULLs and rows have the table's width: INSERT
    VALUES refuses anything else with a PlanError, before storage sees it."""

    @pytest.mark.parametrize(
        "values",
        ["(4, null)", "(null, 'y')", "(5)", "(5, 'a', 6)", "(6, 'b'), (7, null)"],
        ids=["null_string", "null_int", "short_row", "long_row", "null_in_second_row"],
    )
    def test_refused_and_table_unchanged(self, values):
        db = fresh()
        db.sql("create table t (a integer, s varchar) partition by hash (a)")
        db.sql("insert into t values (1, 'x')")
        with quiescent(db):
            with pytest.raises(PlanError):
                db.sql(f"insert into t values {values}")
            assert db.sql("select a, s from t").rows() == [(1, "x")]
        assert db.table_rows("t") == 1


class TestExplain:
    def test_explain_contains_both_plans(self):
        db = fresh()
        db.sql("create table t (a integer) partition by hash (a)")
        text = db.explain("select a, count(*) from t group by a")
        assert "-- logical --" in text and "-- dataflow --" in text
        assert "scan" in text and "Aggregate" in text

    def test_explain_naive_differs(self):
        from repro.sql import parse

        db = fresh()
        db.sql("create table t (a integer, b integer) partition by hash (a)")
        sql = "select b, count(*) from t group by b"
        opt = db.explain(sql).split("-- dataflow --\n")[1]
        logical, _ = db.plan_select(parse(sql))
        naive = convert_naive(logical, lambda t: db.catalog.entry(t).partitioning()).pretty()
        assert opt != naive
        assert "shuffle" in opt and "shuffle" not in naive  # phase 2 never shuffles

    def test_explain_rejects_dml(self):
        db = fresh()
        db.sql("create table t (a integer)")
        with pytest.raises(PlanError):
            db.explain("insert into t values (1)")


class TestLocalFSMode:
    def test_data_dir_on_disk(self, tmp_path):
        db = fresh(data_dir=str(tmp_path))
        db.sql("create table t (a integer) partition by hash (a)")
        db.sql("insert into t values (1), (2), (3)")
        assert db.sql("select sum(a) from t").rows() == [(6,)]
        # files really exist under the worker directories
        files = list(tmp_path.rglob("*.dat"))
        assert files


class TestObservability:
    def test_table_rows(self):
        db = fresh()
        db.sql("create table t (a integer) partition by hash (a)")
        db.sql("insert into t values (1), (2)")
        assert db.table_rows("t") == 2

    def test_query_result_columns(self):
        db = fresh()
        db.sql("create table t (a integer, b varchar) partition by hash (a)")
        r = db.sql("select b as name, a from t")
        assert r.columns == ["name", "a"]

    def test_physical_plan_attached(self):
        db = fresh()
        db.sql("create table t (a integer) partition by hash (a)")
        r = db.sql("select count(*) from t")
        assert r.physical is not None and r.logical is not None


class TestConfigVariants:
    def test_single_worker(self):
        db = fresh(1)
        db.sql("create table t (a integer) partition by hash (a)")
        db.sql("insert into t values (1), (2)")
        assert db.sql("select sum(a) from t").rows() == [(3,)]

    def test_many_workers_small_nmax(self):
        db = Database(ClusterConfig(n_workers=7, n_max=3, page_size=16 * 1024))
        db.sql("create table t (a integer, g integer) partition by hash (a)")
        rows = ", ".join(f"({i}, {i % 3})" for i in range(40))
        db.sql(f"insert into t values {rows}")
        got = db.sql("select g, count(*) from t group by g order by g").rows()
        assert got == [(0, 14), (1, 13), (2, 13)]
        # N_max bounds connections per topology (shuffle ring vs gather
        # tree are separate link sets), so the union stays within 2x
        assert db.net.max_connections() <= 2 * 3

    def test_compression_none(self):
        db = fresh(compression="none")
        db.sql("create table t (a integer) partition by hash (a)")
        db.sql("insert into t values (5)")
        assert db.sql("select a from t").rows() == [(5,)]
