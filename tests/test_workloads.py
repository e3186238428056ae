"""Workload modules: analytic TPC-H statistics, skew generator, queries."""

import pytest

from repro.workloads import tpch_schema, tpch_stats
from repro.workloads.skew import SkewedWorkload
from repro.workloads.tpch_queries import ALL_QUERIES, PAPER_QUERY_SET, query


class TestTpchStats:
    def test_rows_scale_linearly(self):
        assert tpch_schema.rows_at("lineitem", 1.0) == 6_001_215
        assert tpch_schema.rows_at("lineitem", 1000.0) == 6_001_215_000
        assert tpch_schema.rows_at("orders", 0.01) == 15_000

    def test_fixed_tables_do_not_scale(self):
        assert tpch_schema.rows_at("nation", 1000.0) == 25
        assert tpch_schema.rows_at("region", 0.001) == 5

    def test_provider_covers_all_tables(self):
        p = tpch_stats.provider(1000.0)
        for t in tpch_schema.BASE_ROWS:
            assert p.has(t)
            assert p.table(t).row_count > 0

    def test_column_domains(self):
        li = tpch_stats.table_stats("lineitem", 1000.0)
        assert li.columns["l_quantity"].ndv == 50
        assert li.columns["l_discount"].min == 0.0
        assert li.columns["l_shipdate"].ndv == 2526
        cu = tpch_stats.table_stats("customer", 1000.0)
        assert cu.columns["c_mktsegment"].ndv == 5

    def test_stats_match_generated_data_shape(self):
        """Analytic NDVs should be consistent with actually generated data."""
        from repro.optimizer.stats import TableStats
        from repro.workloads import tpch_dbgen

        data = tpch_dbgen.generate(sf=0.01)
        measured = TableStats.from_batch(data["lineitem"])
        analytic = tpch_stats.table_stats("lineitem", 0.01)
        assert measured.row_count == pytest.approx(analytic.row_count, rel=0.1)
        for col in ("l_quantity", "l_returnflag", "l_shipmode"):
            assert measured.columns[col].ndv == pytest.approx(
                analytic.columns[col].ndv, rel=0.35
            ), col


class TestQueries:
    def test_all_22_present(self):
        assert set(ALL_QUERIES) == set(range(1, 23))
        assert 13 not in PAPER_QUERY_SET and len(PAPER_QUERY_SET) == 21

    @pytest.mark.parametrize("qno", ALL_QUERIES)
    def test_all_queries_parse(self, qno):
        from repro.sql import parse

        assert parse(query(qno, 1000.0)) is not None

    def test_q11_fraction_scales(self):
        assert "0.0001000000" in query(11, 1.0)
        assert "0.0000001000" in query(11, 1000.0)

    def test_q18_threshold_scales(self):
        assert "300" in query(18, 1000.0)
        assert "170" in query(18, 0.01)


class TestSkewedWorkload:
    def test_determinism(self):
        a = SkewedWorkload("c", (0, 100), seed=5).queries(50)
        b = SkewedWorkload("c", (0, 100), seed=5).queries(50)
        assert a == b

    def test_ranges_within_domain(self):
        for q in SkewedWorkload("c", (10, 20), seed=1).queries(100):
            assert 10 <= q.lo <= q.hi <= 20

    def test_hot_region_bias(self):
        wl = SkewedWorkload("c", (0, 100), hot_fraction=0.2, hot_probability=0.8,
                            repeat_probability=0.0, seed=2)
        qs = wl.queries(500)
        hot = sum(1 for q in qs if q.lo < 20)
        assert hot > 300  # ~80% should start in the hot 20%

    def test_repeats_occur(self):
        wl = SkewedWorkload("c", (0, 100), repeat_probability=0.6, seed=3)
        qs = wl.queries(200)
        assert len(set(qs)) < len(qs)

    def test_sql_where_renders(self):
        q = SkewedWorkload("ts", (0, 1), seed=1).next_query()
        assert "ts >=" in q.sql_where() and "ts <" in q.sql_where()
