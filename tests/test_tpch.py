"""TPC-H integration: generator invariants + all 22 queries distributed
vs the reference oracle, plus the executable baseline engines."""

import numpy as np
import pytest

from repro.baselines import MapReduceStyleExecutor, MPPStyleExecutor, SparkStyleExecutor
from repro.common.dates import date_to_days
from repro.core.executor import DistributedExecutor
from repro.network.simnet import SimNetwork
from repro.sql import parse
from repro.workloads import tpch_dbgen, tpch_schema
from repro.workloads.tpch_queries import ALL_QUERIES, query

from tests.conftest import TPCH_SF, rows_match_unordered


class TestDbgen:
    def test_cardinalities(self, tpch_data):
        assert tpch_data["region"].length == 5
        assert tpch_data["nation"].length == 25
        assert tpch_data["partsupp"].length == 4 * tpch_data["part"].length
        per_order = tpch_data["lineitem"].length / tpch_data["orders"].length
        assert 3.0 < per_order < 5.0  # spec: uniform 1..7

    def test_determinism(self):
        a = tpch_dbgen.generate(sf=0.001, seed=42)
        b = tpch_dbgen.generate(sf=0.001, seed=42)
        for t in a:
            assert a[t].rows() == b[t].rows(), t

    def test_seed_changes_data(self):
        a = tpch_dbgen.generate(sf=0.001, seed=1)
        b = tpch_dbgen.generate(sf=0.001, seed=2)
        assert a["lineitem"].rows() != b["lineitem"].rows()

    def test_foreign_keys(self, tpch_data):
        d = tpch_data
        assert set(d["nation"].col("n_regionkey")) <= set(d["region"].col("r_regionkey"))
        assert set(d["lineitem"].col("l_orderkey")) <= set(d["orders"].col("o_orderkey"))
        assert d["lineitem"].col("l_partkey").max() <= d["part"].length
        assert d["orders"].col("o_custkey").max() <= d["customer"].length

    def test_partsupp_pairing_matches_lineitem(self, tpch_data):
        """Every (l_partkey, l_suppkey) must exist in partsupp (spec)."""
        ps = set(zip(tpch_data["partsupp"].col("ps_partkey").tolist(),
                     tpch_data["partsupp"].col("ps_suppkey").tolist()))
        li = set(zip(tpch_data["lineitem"].col("l_partkey").tolist(),
                     tpch_data["lineitem"].col("l_suppkey").tolist()))
        assert li <= ps

    def test_date_invariants(self, tpch_data):
        li = tpch_data["lineitem"]
        odate = tpch_data["orders"].col("o_orderdate")
        assert odate.min() >= date_to_days("1992-01-01")
        assert odate.max() <= date_to_days("1998-08-02")
        assert (li.col("l_receiptdate") > li.col("l_shipdate")).all()

    def test_value_domains(self, tpch_data):
        li = tpch_data["lineitem"]
        assert li.col("l_quantity").min() >= 1 and li.col("l_quantity").max() <= 50
        assert li.col("l_discount").min() >= 0.0 and li.col("l_discount").max() <= 0.10
        assert set(li.col("l_returnflag")) <= {"A", "N", "R"}
        assert set(li.col("l_linestatus")) <= {"F", "O"}
        pr = set(tpch_data["orders"].col("o_orderpriority"))
        assert "1-URGENT" in pr

    def test_query_predicate_vocabulary_present(self, tpch_data):
        """The strings TPC-H predicates probe must occur in the data."""
        assert any("BRASS" in t for t in tpch_data["part"].col("p_type"))
        assert any("green" in n for n in tpch_data["part"].col("p_name"))
        assert "BUILDING" in set(tpch_data["customer"].col("c_mktsegment"))
        assert any(
            c.startswith("MED") for c in tpch_data["part"].col("p_container")
        )
        assert "CANADA" in set(tpch_data["nation"].col("n_name"))


class TestLoad:
    def test_row_counts_preserved(self, tpch_db, tpch_data):
        for name in tpch_schema.SCHEMAS:
            assert tpch_db.table_rows(name) == tpch_data[name].length, name

    def test_replicated_tables_everywhere(self, tpch_db):
        for w in tpch_db.workers.values():
            assert w.storage["nation"].row_count == 25

    def test_hash_partition_disjoint(self, tpch_db, tpch_data):
        per_worker = [w.storage["orders"].row_count for w in tpch_db.workers.values()]
        assert sum(per_worker) == tpch_data["orders"].length
        assert all(c > 0 for c in per_worker)


@pytest.mark.slow
class TestAllQueries:
    @pytest.mark.parametrize("qno", ALL_QUERIES)
    def test_distributed_matches_reference(self, tpch_db, qno):
        sql = query(qno, TPCH_SF)
        got = tpch_db.sql(sql).rows()
        want = tpch_db.execute_reference(sql).rows()
        assert rows_match_unordered(got, want), (qno, got[:2], want[:2])

    def test_q13_outer_join_extension(self, tpch_db, tpch_data):
        """The paper skips Q13 (no outer joins); this reproduction runs it.
        Cross-check the count-distribution against direct computation."""
        got = dict(tpch_db.sql(query(13, TPCH_SF)).rows())
        import re
        from collections import Counter

        orders = tpch_data["orders"]
        pat = re.compile("^.*special.*requests.*$")
        keep = [
            ck
            for ck, cm in zip(orders.col("o_custkey"), orders.col("o_comment"))
            if not pat.match(cm)
        ]
        per_cust = Counter(keep)
        counts = Counter(per_cust.get(ck, 0) for ck in tpch_data["customer"].col("c_custkey"))
        assert got == dict(counts)

    def test_q1_against_direct_computation(self, tpch_db, tpch_data):
        li = tpch_data["lineitem"]
        cutoff = date_to_days("1998-12-01") - 90
        mask = li.col("l_shipdate") <= cutoff
        want = float(li.col("l_quantity")[mask].sum())
        rows = tpch_db.sql(query(1, TPCH_SF)).rows()
        got = sum(r[2] for r in rows)
        assert got == pytest.approx(want)

    def test_q6_against_direct_computation(self, tpch_db, tpch_data):
        li = tpch_data["lineitem"]
        d0, d1 = date_to_days("1994-01-01"), date_to_days("1995-01-01")
        m = (
            (li.col("l_shipdate") >= d0)
            & (li.col("l_shipdate") < d1)
            & (li.col("l_discount") >= 0.05)
            & (li.col("l_discount") <= 0.07)
            & (li.col("l_quantity") < 24)
        )
        want = float((li.col("l_extendedprice")[m] * li.col("l_discount")[m]).sum())
        got = tpch_db.sql(query(6, TPCH_SF)).rows()[0][0]
        assert got == pytest.approx(want)


@pytest.mark.slow
class TestBaselineEngines:
    """The executable Hive/Spark/Greenplum-style engines must return the
    same answers while exhibiting their signature behaviours."""

    def _against(self, tpch_db, executor_cls, qno=3):
        sql = query(qno, TPCH_SF)
        _, phys = tpch_db.plan_select(parse(sql))
        runtimes = {w: wk.runtime() for w, wk in tpch_db.workers.items()}
        ex = executor_cls(runtimes, tpch_db.coord_ids[0], tpch_db.net, tpch_db.config)
        batch, stats = ex.execute(phys)
        want = tpch_db.execute_reference(sql).rows()
        return ex, stats, batch.rows(), want

    def test_mapreduce_style_results_and_materialization(self, tpch_db):
        ex, stats, got, want = self._against(tpch_db, MapReduceStyleExecutor)
        assert rows_match_unordered(got, want)
        assert stats.spilled_bytes > 0  # shuffle receive buffers on disk
        assert ex.sort_rows > 0  # sorted shuffle
        # Q6 has no shuffle: what spills is the gathered stage output
        _, stats, got, want = self._against(tpch_db, MapReduceStyleExecutor, qno=6)
        assert rows_match_unordered(got, want)
        assert stats.spilled_bytes > 0

    def test_spark_style_results_and_shuffle_files(self, tpch_db):
        ex, stats, got, want = self._against(tpch_db, SparkStyleExecutor)
        assert rows_match_unordered(got, want)
        assert stats.spilled_bytes > 0  # the spill file is the shuffle file
        assert ex.sort_rows == 0  # unsorted shuffle
        _, stats, _, _ = self._against(tpch_db, SparkStyleExecutor, qno=6)
        assert stats.spilled_bytes == 0  # no per-stage materialization

    def test_mpp_style_results_and_connections(self, tpch_db):
        tpch_db.net.reset_stats()
        _, _, got, want = self._against(tpch_db, MPPStyleExecutor, qno=18)
        assert rows_match_unordered(got, want)
        # direct all-to-all: connections grow with the cluster
        assert tpch_db.net.max_connections() >= tpch_db.config.n_workers - 1

    @pytest.mark.parametrize(
        "cls", [MapReduceStyleExecutor, SparkStyleExecutor, MPPStyleExecutor]
    )
    def test_no_bloom_filter_on_the_wire(self, tpch_db, monkeypatch, cls):
        """None of the comparators has the Bloom-filtered shuffle, so none
        ships a filter; the engine ships one for the same Q8 plan."""
        tags = []
        route_send = SimNetwork.route_send

        def spy(self, topology, src, dst, payload, tag=""):
            tags.append(tag)
            return route_send(self, topology, src, dst, payload, tag)

        monkeypatch.setattr(SimNetwork, "route_send", spy)
        self._against(tpch_db, DistributedExecutor, qno=8)
        assert any("bloom" in t for t in tags)
        tags.clear()
        _, _, got, want = self._against(tpch_db, cls, qno=8)
        assert rows_match_unordered(got, want)
        assert tags and not any("bloom" in t for t in tags)

    def test_hrdbms_bounds_connections_same_query(self, tpch_db):
        tpch_db.net.reset_stats()
        tpch_db.sql(query(18, TPCH_SF))
        assert tpch_db.net.max_connections() <= tpch_db.config.n_max


@pytest.mark.slow
class TestOddClusterTopology:
    """All 22 queries on a 7-worker cluster with N_max=3: every shuffle
    routes through hubs (ring jumps), the gather tree is 3 levels deep,
    and results must still match the oracle exactly."""

    @pytest.fixture(scope="class")
    def odd_db(self, tpch_data):
        from repro import ClusterConfig, Database

        db = Database(ClusterConfig(n_workers=7, n_max=3, page_size=32 * 1024))
        for name, schema in tpch_schema.SCHEMAS.items():
            db.create_table(name, schema, tpch_schema.PARTITIONING[name])
            db.load(name, tpch_data[name])
        return db

    @pytest.mark.parametrize("qno", [1, 3, 4, 5, 7, 9, 12, 13, 16, 18, 21, 22])
    def test_query_matches_reference(self, odd_db, qno):
        sql = query(qno, TPCH_SF)
        got = odd_db.sql(sql).rows()
        want = odd_db.execute_reference(sql).rows()
        assert rows_match_unordered(got, want), qno

    def test_connection_bound_held_throughout(self, odd_db):
        odd_db.net.reset_stats()
        odd_db.sql(query(18, TPCH_SF))
        # shuffle ring and gather tree are separate link sets: <= 2 x N_max
        assert odd_db.net.max_connections() <= 2 * 3

    def test_hub_forwarding_observed(self, odd_db):
        """With 7 nodes and N_max=3 the ring has jumps {1,2,4}-ish; some
        shuffle traffic must be relayed through intermediate hubs."""
        odd_db.net.reset_stats()
        r = odd_db.sql(query(18, TPCH_SF))
        assert r.stats.forwarded_bytes > 0
