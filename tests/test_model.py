"""Performance-model tests: every qualitative claim of §VII must hold in
the regenerated figures (shape, not absolute numbers — see DESIGN.md §4)."""

import pytest

from repro.bench import figures, model
from repro.bench.model import model_query, model_total, plan_query


class TestPlanLayer:
    def test_plans_cached(self):
        a = plan_query("hrdbms", 1, 1000.0, 8)
        b = plan_query("hrdbms", 1, 1000.0, 8)
        assert a is b

    def test_locality_planning_differs(self):
        """Hive/Spark plans (no co-location) shuffle more than HRDBMS."""
        h = plan_query("hrdbms", 5, 1000.0, 16)
        s = plan_query("sparksql", 5, 1000.0, 16)
        assert s.count_ops("shuffle") >= h.count_ops("shuffle")

    def test_greenplum_plans_like_hrdbms(self):
        h = plan_query("hrdbms", 3, 1000.0, 16)
        g = plan_query("greenplum", 3, 1000.0, 16)
        assert g.count_ops("shuffle") == h.count_ops("shuffle")

    def test_estimates_positive(self):
        p = plan_query("hrdbms", 1, 1000.0, 8)
        for op in p.walk():
            assert op.attrs.get("est_rows", 0) >= 0

    def test_all_queries_plan_at_96_nodes(self):
        for q in (1, 2, 5, 9, 11, 13, 15, 17, 18, 20, 21, 22):
            for system in ("hrdbms", "hive"):
                assert plan_query(system, q, 1000.0, 96) is not None


class TestPaperClaims8Nodes:
    def test_system_ordering(self):
        """Spark several times faster than Hive is confounded at 8 nodes by
        GC (the paper notes this); HRDBMS several times faster than Spark;
        Greenplum 15-30% faster than HRDBMS on the common set."""
        h = model_total("hrdbms", 1000.0, 8).seconds
        s = model_total("sparksql", 1000.0, 8).seconds
        assert s / h > 3.0

    def test_greenplum_faster_per_node_at_small_cluster(self):
        common = tuple(q for q in range(1, 23) if q not in (13, 9, 18))
        h = model_total("hrdbms", 1000.0, 8, queries=common).seconds
        g = model_total("greenplum", 1000.0, 8, queries=common).seconds
        assert 0.65 < g / h < 1.0  # paper: GP 15-30% faster

    def test_greenplum_oom_q9_q18(self):
        assert model_total("greenplum", 1000.0, 8).failed == [9, 18]

    def test_greenplum_completes_at_16(self):
        assert model_total("greenplum", 1000.0, 16).failed == []

    def test_spark_completes_1tb(self):
        assert model_total("sparksql", 1000.0, 8).failed == []

    def test_skipping_queries_favor_hrdbms(self):
        """Q6/Q14/Q15/Q20: predicate-based skipping wins (paper Fig 8)."""
        for q in (6, 14, 15, 20):
            h = model_query("hrdbms", q, 1000.0, 8).seconds
            g = model_query("greenplum", q, 1000.0, 8).seconds
            assert g > h, q

    def test_subquery_reuse_queries_favor_greenplum(self):
        """Q2/Q11/Q22: Greenplum reuses intermediates (paper Fig 8)."""
        for q in (2, 11, 22):
            h = model_query("hrdbms", q, 1000.0, 8).seconds
            g = model_query("greenplum", q, 1000.0, 8).seconds
            assert g < h, q

    def test_q19_cnf_reordering_favors_greenplum(self):
        h = model_query("hrdbms", 19, 1000.0, 8).seconds
        g = model_query("greenplum", 19, 1000.0, 8).seconds
        assert g < h

    def test_q1_scan_bound_similar(self):
        """Q1 indicates similar scan+aggregation performance (paper)."""
        h = model_query("hrdbms", 1, 1000.0, 8).seconds
        g = model_query("greenplum", 1, 1000.0, 8).seconds
        assert 0.6 < g / h < 1.4


@pytest.mark.slow
class TestFig7Shape:
    def test_scaleout(self):
        series = {s.system: s for s in figures.fig7_scaleout()}
        hr, gp = series["hrdbms"], series["greenplum"]
        hive, spark = series["hive"], series["sparksql"]
        # HRDBMS scales like the big-data systems...
        assert hr.speedup[-1] > 0.7 * spark.speedup[-1]
        assert hr.speedup[-1] > hive.speedup[-1] * 0.9
        # ...while Greenplum stops scaling at 64-96 (paper: "significant
        # problems scaling to 96 nodes")
        assert gp.stepwise[-1] < 1.35
        assert hr.stepwise[-1] > gp.stepwise[-1]
        # crossover: GP ahead at 8, HRDBMS ahead at 96 (paper: 3% at 96)
        assert gp.seconds[0] < hr.seconds[0]
        assert hr.seconds[-1] < gp.seconds[-1]
        # Greenplum's 8-node failures are Q9+Q18
        assert gp.failed_at_8 == [9, 18]

    def test_hrdbms_monotone_scaling(self):
        series = {s.system: s for s in figures.fig7_scaleout()}
        secs = series["hrdbms"].seconds
        assert all(a > b for a, b in zip(secs, secs[1:]))


@pytest.mark.slow
class TestFig8Shape:
    def test_hrdbms_ahead_on_most_queries_at_96(self):
        """Per query at 96 nodes, HRDBMS is ahead (or Greenplum fails)
        on more than half of the queries (paper Fig 8)."""
        rows = figures.fig8_per_query(n_nodes=96)
        wins = sum(1 for r in rows if r.greenplum is None or r.ratio > 1.0)
        assert wins > len(rows) / 2


@pytest.mark.slow
class TestFig9Shape:
    def test_q18_crossover(self):
        rows = figures.fig9_q18()
        by_nodes = {r.nodes: r for r in rows}
        # Greenplum ahead up to 32 nodes, HRDBMS ahead at 64+
        assert by_nodes[16].greenplum < by_nodes[16].hrdbms
        assert by_nodes[32].greenplum < by_nodes[32].hrdbms
        assert by_nodes[64].hrdbms < by_nodes[64].greenplum
        assert by_nodes[96].hrdbms < by_nodes[96].greenplum
        # "significantly outperforms" at 96
        assert by_nodes[96].greenplum / by_nodes[96].hrdbms > 1.5
        # Greenplum degrades between 64 and 96
        assert by_nodes[96].greenplum > by_nodes[64].greenplum


@pytest.mark.slow
class Test3TBShape:
    def test_table(self):
        rows = {r.system: r for r in figures.tab_3tb()}
        # HRDBMS completes all 21 in ~3x the 1 TB time (paper: 2.85x)
        assert rows["hrdbms"].failed == []
        assert 2.3 < rows["hrdbms"].ratio_vs_1tb < 3.6
        # Spark fails exactly Q9+Q18 at 3 TB (paper)
        assert rows["sparksql"].failed == [9, 18]
        # Greenplum fails at least Q9+Q18
        assert set(rows["greenplum"].failed) >= {9, 18}
        # Hive would take days (paper estimates ~9 days)
        assert rows["hive"].seconds > 3 * 24 * 3600


@pytest.mark.slow
class TestNewVersionsShape:
    def test_table(self):
        totals = figures.tab_newver()
        # paper: Greenplum 10186 < HRDBMS 13621 < Hive/Tez 39228 < Spark 86227
        assert totals["greenplum"] < totals["hrdbms_v2"]
        assert totals["hrdbms_v2"] < totals["hive_tez"]
        assert totals["hive_tez"] < totals["spark2"]
        # HRDBMS beats Hive-on-Tez by ~2.9x
        assert 2.2 < totals["hive_tez"] / totals["hrdbms_v2"] < 3.6


class TestMechanisms:
    def test_skip_fraction_requires_temporal_predicate(self):
        p = plan_query("hrdbms", 6, 1000.0, 8)
        scans = [op for op in p.walk() if op.op == "scan"]
        li = [s for s in scans if s.attrs["table"] == "lineitem"][0]
        assert model._skip_fraction(li, 1000.0) > 0.4

    def test_skip_fraction_zero_without_predicate(self):
        p = plan_query("hrdbms", 1, 1000.0, 8)
        for op in p.walk():
            if op.op == "scan" and op.attrs.get("predicate") is None:
                assert model._skip_fraction(op, 1000.0) == 0.0

    def test_oom_disappears_with_more_memory(self):
        assert model_total("greenplum", 1000.0, 8, mem_gb=384.0).failed == []

    def test_spill_time_under_pressure(self):
        q = model_query("hrdbms", 18, 1000.0, 8, 24.0)
        assert q.spill_seconds > 0 and not q.oom

    def test_hub_topology_has_bounded_conn_setup(self):
        """Shuffle connection setup stays flat for HRDBMS, grows for GP."""
        h96 = model_query("hrdbms", 18, 1000.0, 96).net_seconds
        g96 = model_query("greenplum", 18, 1000.0, 96).net_seconds
        assert g96 > h96

    def test_avg_hops_logarithmic(self):
        assert model._avg_hops(8) == 1.0
        assert 1.0 < model._avg_hops(96) < 5.0
