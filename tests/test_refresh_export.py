"""TPC-H refresh functions (RF1/RF2) and figure export."""

import csv
import json
import os

import pytest

from repro import ClusterConfig, Database
from repro.workloads import tpch_dbgen, tpch_schema
from repro.workloads.tpch_refresh import rf1_insert, rf2_delete

SF = 0.002


@pytest.fixture()
def db():
    d = Database(ClusterConfig(n_workers=3, n_max=4, page_size=32 * 1024))
    data = tpch_dbgen.generate(sf=SF)
    for name, schema in tpch_schema.SCHEMAS.items():
        d.create_table(name, schema, tpch_schema.PARTITIONING[name])
        d.load(name, data[name])
    return d


class TestRefreshFunctions:
    def test_rf1_inserts_transactionally(self, db):
        before_o = db.table_rows("orders")
        before_l = db.table_rows("lineitem")
        res = rf1_insert(db, SF)
        assert res.committed
        assert db.table_rows("orders") == before_o + res.orders_affected
        assert db.table_rows("lineitem") == before_l + res.lineitems_affected
        assert res.orders_affected == max(1, round(SF * 1500))

    def test_rf1_keys_above_existing(self, db):
        old_max = db.sql("select max(o_orderkey) from orders").rows()[0][0]
        rf1_insert(db, SF)
        new_max = db.sql("select max(o_orderkey) from orders").rows()[0][0]
        assert new_max > old_max

    def test_rf1_referential_integrity(self, db):
        rf1_insert(db, SF)
        orphans = db.sql(
            "select count(*) from lineitem where l_orderkey not in "
            "(select o_orderkey from orders)"
        ).rows()[0][0]
        assert orphans == 0

    def test_rf2_deletes_oldest_batch(self, db):
        before_o = db.table_rows("orders")
        res = rf2_delete(db, SF)
        assert res.committed
        assert res.orders_affected == max(1, round(SF * 1500))
        assert db.table_rows("orders") == before_o - res.orders_affected
        # no orphaned line items for the deleted range
        orphans = db.sql(
            "select count(*) from lineitem where l_orderkey not in "
            "(select o_orderkey from orders)"
        ).rows()[0][0]
        assert orphans == 0

    def test_rf1_rf2_roundtrip_preserves_counts(self, db):
        o0, l0 = db.table_rows("orders"), db.table_rows("lineitem")
        rf1_insert(db, SF)
        # RF2 removes the OLDEST batch (not the one just inserted), so the
        # order count is restored but the population rotates — TPC-H's model
        rf2_delete(db, SF)
        assert db.table_rows("orders") == o0

    def test_queries_still_correct_after_refresh(self, db):
        rf1_insert(db, SF)
        rf2_delete(db, SF)
        got = db.sql("select count(*) from orders").rows()[0][0]
        want = db.execute_reference("select count(*) from orders").rows()[0][0]
        assert got == want


class TestRefreshedStateEqualsAFreshLoad:
    """Five RF1/RF2 cycles through the transaction system leave tombstones
    and appended sets behind; the reads must see exactly what a fresh
    database loaded with the surviving rows (no tombstones, no appended
    sets) returns — a fault that shows only from the second cycle on is
    caught here."""

    READS = (1, 3, 6, 12, 14)

    def test_five_cycles(self, db):
        from repro.cluster.database import _all_of
        from repro.common import RowBatch
        from repro.storage.partition import Replicated
        from repro.workloads.tpch_queries import query

        from tests.conftest import rows_approx_equal

        for stream in range(5):
            assert rf1_insert(db, SF, stream=stream).committed
            assert rf2_delete(db, SF, stream=stream).committed
        fresh = Database(db.config)
        for name, schema in tpch_schema.SCHEMAS.items():
            fresh.create_table(name, schema, tpch_schema.PARTITIONING[name])
            copies = [_all_of(w.storage[name]) for w in db.workers.values()]
            if isinstance(db.catalog.entry(name).scheme, Replicated):
                copies = copies[:1]
            fresh.load(name, RowBatch.concat(schema, copies))
            assert fresh.table_rows(name) == db.table_rows(name), name
        assert db.table_rows("orders") == fresh.table_rows("orders") > 0
        for q in self.READS:
            text = query(q, SF)
            got, want = sorted(db.sql(text).rows()), sorted(fresh.sql(text).rows())
            assert rows_approx_equal(got, want, tol=1e-9), q


class TestFigureExport:
    def test_export_all(self, tmp_path):
        from repro.bench.export import export_all

        written = export_all(str(tmp_path))
        assert len(written) >= 6
        for p in written:
            assert os.path.exists(p)
        with open(tmp_path / "fig7_scaleout.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["system"] for r in rows} == {"hive", "sparksql", "greenplum", "hrdbms"}
        assert all(float(r["seconds"]) > 0 for r in rows)
        with open(tmp_path / "figures.json") as fh:
            blob = json.load(fh)
        assert "fig7" in blob and "tab_newver" in blob

    def test_fig9_csv_contains_crossover(self, tmp_path):
        from repro.bench.export import export_all

        export_all(str(tmp_path))
        with open(tmp_path / "fig9_q18.csv") as fh:
            rows = {int(r["nodes"]): r for r in csv.DictReader(fh)}
        assert float(rows[96]["hrdbms_s"]) < float(rows[96]["greenplum_s"])
        assert float(rows[16]["greenplum_s"]) < float(rows[16]["hrdbms_s"])
