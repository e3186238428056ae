"""Extension features: UNION ALL, CREATE INDEX scans."""

import numpy as np
import pytest

from repro import ClusterConfig, Database
from repro.common import DataType, RowBatch
from repro.common.errors import ParseError
from repro.sql import parse
from repro.sql.ast import CreateIndex


def small_db(n_workers=2):
    db = Database(ClusterConfig(n_workers=n_workers, n_max=4, page_size=16 * 1024))
    db.sql("create table a (x integer, s varchar) partition by hash (x)")
    db.sql("create table b (y integer, t varchar) partition by hash (y)")
    db.sql("insert into a values (1,'a1'), (2,'a2'), (3,'a3')")
    db.sql("insert into b values (2,'b2'), (3,'b3')")
    return db


class TestUnionAll:
    def test_parse(self):
        s = parse("select x from a union all select y from b")
        assert len(s.union_all) == 1

    def test_parse_chain(self):
        s = parse("select 1 union all select 2 union all select 3")
        assert len(s.union_all) == 2

    def test_union_distinct_rejected(self):
        with pytest.raises(ParseError):
            parse("select x from a union select y from b")

    def test_basic_union(self):
        db = small_db()
        rows = db.sql("select x from a union all select y from b order by x").rows()
        assert rows == [(1,), (2,), (2,), (3,), (3,)]

    def test_union_preserves_duplicates(self):
        db = small_db()
        rows = db.sql("select x from a union all select x from a").rows()
        assert len(rows) == 6

    def test_union_column_alignment(self):
        """Branches align positionally; output names come from the first."""
        db = small_db()
        r = db.sql("select x, s from a union all select y, t from b")
        assert r.columns == ["x", "s"]
        assert len(r.rows()) == 5

    def test_union_order_limit_apply_to_whole(self):
        db = small_db()
        rows = db.sql(
            "select x from a union all select y from b order by x desc limit 2"
        ).rows()
        assert rows == [(3,), (3,)]

    def test_union_with_aggregates_per_branch(self):
        db = small_db()
        rows = sorted(
            db.sql("select count(*) from a union all select count(*) from b").rows()
        )
        assert rows == [(2,), (3,)]

    def test_union_arity_mismatch(self):
        from repro.common.errors import PlanError

        db = small_db()
        with pytest.raises(PlanError):
            db.sql("select x, s from a union all select y from b")

    def test_union_matches_reference(self):
        db = small_db()
        sql = "select x, s from a union all select y, t from b order by x, s"
        assert db.sql(sql).rows() == db.execute_reference(sql).rows()

    def test_union_in_derived_table(self):
        db = small_db()
        rows = db.sql(
            "select count(*) from (select x from a union all select y from b) as u"
        ).rows()
        assert rows == [(5,)]


class TestCreateIndex:
    def _indexed_db(self):
        db = Database(ClusterConfig(n_workers=2, n_max=4, page_size=16 * 1024))
        db.sql("create table t (k integer, v integer) partition by hash (k)")
        rng = np.random.default_rng(7)
        db.load(
            "t",
            RowBatch.from_pairs(
                ("k", DataType.INT64, rng.integers(0, 5000, 20_000)),
                ("v", DataType.INT64, rng.integers(0, 50, 20_000)),
            ),
        )
        return db

    def test_parse(self):
        s = parse("create index ik on t (k)")
        assert isinstance(s, CreateIndex)
        assert s.table == "t" and s.column == "k"

    def test_results_unchanged(self):
        db = self._indexed_db()
        before = db.sql("select count(*) from t where k = 42").rows()
        db.sql("create index ik on t (k)")
        assert db.sql("select count(*) from t where k = 42").rows() == before

    def test_index_skips_sets(self):
        db = self._indexed_db()
        db.sql("create index ik on t (k)")
        r = db.sql("select count(*) from t where k = 42")
        assert r.stats.sets_skipped > 0
        assert r.stats.sets_total > r.stats.sets_skipped >= r.stats.sets_total // 2

    def test_range_predicate_uses_index(self):
        from repro.sql import compile_predicate, parse_expr, to_scan_predicate
        from repro.storage.table import ScanStats

        db = self._indexed_db()
        db.sql("create index ik on t (k)")
        w = db.workers[0].storage["t"]
        pred = compile_predicate(parse_expr("k >= 10 and k < 20"), w.schema)
        sp = to_scan_predicate(parse_expr("k >= 10 and k < 20"), w.schema)
        st = ScanStats()
        got = sum(b.length for b in w.scan(["k"], pred, sp, stats=st))
        no_idx = sum(
            b.length for b in w.scan(["k"], pred, sp, skipping=False)
        )
        assert got == no_idx
        assert st.sets_skipped_index > 0

    def test_point_lookup_skips_most_sets(self):
        """On the indexed, unclustered column (min-max cannot help) a
        point lookup skips more than half the page sets by index alone
        and returns what a full scan returns."""
        from repro.sql import compile_predicate, parse_expr, to_scan_predicate
        from repro.storage.table import ScanStats

        db = self._indexed_db()
        db.sql("create index ik on t (k)")
        skipped = total = 0
        for wk in db.workers.values():
            ts = wk.storage["t"]
            pred = compile_predicate(parse_expr("k = 777"), ts.schema)
            sp = to_scan_predicate(parse_expr("k = 777"), ts.schema)
            st = ScanStats()
            got = sum(b.length for b in ts.scan(["k", "v"], pred, sp, stats=st))
            assert got == sum(
                b.length for b in ts.scan(["k", "v"], pred, sp, skipping=False)
            )
            skipped += st.sets_skipped_index
            total += st.sets_total
        assert skipped > total // 2

    def test_index_maintained_on_insert(self):
        db = self._indexed_db()
        db.sql("create index ik on t (k)")
        db.sql("insert into t values (999999, 1)")
        assert db.sql("select count(*) from t where k = 999999").rows() == [(1,)]

    def test_index_safe_after_delete(self):
        db = self._indexed_db()
        db.sql("create index ik on t (k)")
        db.sql("delete from t where k = 42")
        assert db.sql("select count(*) from t where k = 42").rows() == [(0,)]

    def test_index_rebuilt_on_reorganize(self):
        db = self._indexed_db()
        db.sql("create index ik on t (k)")
        db.reorganize("t")
        r = db.sql("select count(*) from t where k = 42")
        assert r.rows()[0][0] >= 0
        assert "k" in db.workers[0].storage["t"].indexed_columns

    def test_unknown_column_rejected(self):
        from repro.common.errors import CatalogError

        db = self._indexed_db()
        with pytest.raises(CatalogError):
            db.sql("create index bad on t (nope)")
