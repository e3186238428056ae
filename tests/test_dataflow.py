"""Phase 2/3 planner tests: placement, partitioning properties, shuffle
insertion and elision, aggregation strategies, top-k fusion."""


from repro.common import ClusterConfig, DataType, Schema
from repro.optimizer import Binder, Catalog, StatsDeriver, StatsProvider, TableStats
from repro.optimizer.dataflow import DataflowPlanner, convert_naive
from repro.optimizer.physical import COORD, REPLICATED, WORKERS, hash_part
from repro.optimizer.rewrite import optimize_logical
from repro.optimizer.stats import ColumnStats
from repro.sql import parse, parse_expr

ORDERS = Schema.of(
    ("o_k", DataType.INT64), ("o_ck", DataType.INT64), ("o_v", DataType.FLOAT64)
)
CUST = Schema.of(("c_k", DataType.INT64), ("c_n", DataType.STRING))
ITEMS = Schema.of(("i_ok", DataType.INT64), ("i_q", DataType.FLOAT64))
TINY = Schema.of(("t_k", DataType.INT64), ("t_n", DataType.STRING))


class Cat(Catalog):
    def table_schema(self, name):
        return {"orders": ORDERS, "cust": CUST, "items": ITEMS, "tiny": TINY}[name]


PLACEMENT = {
    "orders": hash_part(["o_ck"]),
    "cust": hash_part(["c_k"]),
    "items": hash_part(["i_ok"]),
    "tiny": REPLICATED,
}


def stats():
    return StatsProvider(
        {
            "orders": TableStats(1e6, {
                "o_k": ColumnStats(1e6, 1, 10**6),
                "o_ck": ColumnStats(1e5, 1, 10**5),
                "o_v": ColumnStats(1e5, 0, 1e5),
            }),
            "cust": TableStats(1e5, {
                "c_k": ColumnStats(1e5, 1, 10**5),
                "c_n": ColumnStats(1e5, avg_width=20),
            }),
            "items": TableStats(4e6, {
                "i_ok": ColumnStats(1e6, 1, 10**6),
                "i_q": ColumnStats(50, 1, 50),
            }),
            "tiny": TableStats(25, {"t_k": ColumnStats(25, 0, 24)}),
        }
    )


def plan(sql, n_workers=8, bloom=True, **cfg):
    config = ClusterConfig(n_workers=n_workers, n_max=8, **cfg)
    logical = optimize_logical(Binder(Cat()).bind(parse(sql)), StatsDeriver(stats()))
    planner = DataflowPlanner(
        lambda t: PLACEMENT[t], StatsDeriver(stats()), config, bloom=bloom
    )
    return planner.plan(logical)


def naive(sql):
    logical = optimize_logical(Binder(Cat()).bind(parse(sql)), StatsDeriver(stats()))
    return convert_naive(logical, lambda t: PLACEMENT[t])


def ops(p, name):
    return [n for n in p.walk() if n.op == name]


class TestPhase2Naive:
    def test_everything_on_coordinator(self):
        p = naive("select c_n, sum(o_v) from orders, cust where o_ck = c_k group by c_n")
        for n in p.walk():
            if n.op not in ("scan",):
                assert n.site == COORD, n.op

    def test_scans_stay_on_workers(self):
        p = naive("select o_v from orders where o_v > 10")
        for s in ops(p, "scan"):
            assert s.site == WORKERS

    def test_gather_above_each_scan(self):
        p = naive("select o_v from orders, cust where o_ck = c_k")
        assert len(ops(p, "gather")) == len(ops(p, "scan"))

    def test_no_shuffles_in_naive(self):
        p = naive("select c_n, sum(o_v) from orders, cust where o_ck = c_k group by c_n")
        assert not ops(p, "shuffle")


class TestJoinDistribution:
    def test_colocated_join_no_exchange(self):
        """orders hash(o_ck) joined to cust hash(c_k) on o_ck = c_k: local."""
        p = plan("select o_v from orders, cust where o_ck = c_k")
        assert not ops(p, "shuffle") and not ops(p, "broadcast")

    def test_misaligned_join_shuffles_one_side(self):
        """orders hash(o_ck) joined to items hash(i_ok) on o_k = i_ok:
        only the orders side must move."""
        p = plan("select i_q from orders, items where o_k = i_ok")
        shuffles = ops(p, "shuffle")
        assert len(shuffles) == 1
        assert [str(e) for e in shuffles[0].attrs["key_exprs"]] == ["o_k"]

    def test_replicated_side_join_local(self):
        p = plan("select o_v from orders, tiny where o_ck = t_k")
        assert not ops(p, "shuffle") and not ops(p, "broadcast")

    def test_small_side_broadcast(self):
        """Two misaligned sides where one is tiny: broadcast wins."""
        p = plan("select o_v from orders, cust where o_v = c_k")
        kinds = {n.op for n in p.walk()}
        assert "broadcast" in kinds or "shuffle" in kinds  # cost decides

    def test_shuffle_topology_annotated(self):
        p = plan("select i_q from orders, items where o_k = i_ok")
        assert ops(p, "shuffle")[0].attrs["topology"] == "n_to_m"

    def test_bloom_only_when_planned(self):
        sql = "select i_q from orders, items where o_k = i_ok"
        assert all(j.attrs["bloom"] for j in ops(plan(sql), "hashjoin"))
        assert all(not j.attrs["bloom"] for j in ops(plan(sql, bloom=False), "hashjoin"))


class TestAggregation:
    def test_colocated_group_by_is_local_complete(self):
        """Grouping by a superset of the partition key: no shuffle (the
        paper's shuffle-elimination example)."""
        p = plan("select o_ck, o_k, sum(o_v) from orders group by o_ck, o_k")
        aggs = ops(p, "agg")
        assert len(aggs) == 1 and aggs[0].attrs["mode"] == "complete"
        assert not ops(p, "shuffle")

    def test_low_cardinality_group_uses_preagg(self):
        """Few groups: partial aggregate before the exchange."""
        p = plan("select i_q, count(*) from items group by i_q")
        modes = [a.attrs["mode"] for a in ops(p, "agg")]
        assert "partial" in modes and "final" in modes

    def test_high_cardinality_group_shuffles_raw(self):
        """Groups ~ rows (Q18's regime): pre-aggregation is useless, the
        planner must shuffle raw rows and aggregate once."""
        p = plan("select o_k, sum(o_v) from orders group by o_k")
        aggs = ops(p, "agg")
        assert [a.attrs["mode"] for a in aggs] == ["complete"]
        assert len(ops(p, "shuffle")) == 1

    def test_global_aggregate_combines_up_tree(self):
        p = plan("select sum(o_v), count(*) from orders")
        gathers = ops(p, "gather")
        assert any(g.attrs.get("mode") == "combine" for g in gathers)
        modes = [a.attrs["mode"] for a in ops(p, "agg")]
        assert modes.count("partial") == 1 and modes.count("final") == 1

    def test_distinct_agg_forces_exact_path(self):
        p = plan("select o_ck, count(distinct o_k) from orders group by o_ck")
        # co-located on o_ck: local complete is exact and allowed
        aggs = ops(p, "agg")
        assert aggs[0].attrs["mode"] == "complete"

    def test_distinct_agg_not_colocated_shuffles_raw(self):
        p = plan("select o_k, count(distinct o_ck) from orders group by o_k")
        modes = [a.attrs["mode"] for a in ops(p, "agg")]
        assert modes == ["complete"]
        assert len(ops(p, "shuffle")) == 1


class TestSortLimit:
    def test_sort_local_plus_merge(self):
        p = plan("select o_v from orders order by o_v")
        sorts = ops(p, "sort")
        assert sorts and sorts[0].site == WORKERS
        g = ops(p, "gather")[0]
        assert g.attrs["mode"] == "merge"

    def test_topk_fusion(self):
        p = plan("select o_v from orders order by o_v desc limit 10")
        assert ops(p, "topk")
        g = ops(p, "gather")[0]
        assert g.attrs["mode"] == "topk" and g.attrs["k"] == 10
        assert not ops(p, "sort")

    def test_plain_limit(self):
        p = plan("select o_v from orders limit 5")
        limits = ops(p, "limit")
        sites = {l.site for l in limits}
        assert WORKERS in sites and COORD in sites


class TestScanFusion:
    def test_filter_fused_into_scan(self):
        p = plan("select o_v from orders where o_v > 100")
        scans = ops(p, "scan")
        assert scans[0].attrs["predicate"] is not None
        assert not ops(p, "filter")

    def test_estimates_annotated(self):
        p = plan("select o_v from orders where o_v > 100")
        s = ops(p, "scan")[0]
        assert s.attrs["est_input_rows"] > s.attrs["est_rows"] > 0


class TestExchangeReduction:
    def test_phase3_beats_phase2(self):
        """Phase 3 must move strictly less data than the naive dataflow
        for a co-located join+group query (the paper's Figure 6 claim)."""
        sql = "select c_n, sum(o_v) from orders, cust where o_ck = c_k group by c_n"
        p3 = plan(sql)
        p2 = naive(sql)
        # naive gathers every scan to the coordinator; phase 3 keeps the
        # join and pre-aggregation on the workers
        assert len(ops(p3, "gather")) < len(ops(p2, "gather"))
        worker_joins = [j for j in ops(p3, "hashjoin") if j.site == WORKERS]
        assert worker_joins


class TestJoinEquivalentPartitioning:
    """An inner equi-join's output is hash-partitioned on the other side's
    key too; a left join, mixed types and a projected-away key add
    nothing."""

    def _equiv(self, kind, cond):
        from repro.optimizer.dataflow import _with_join_equivalents
        from repro.optimizer.logical import Join, Scan, split_equi_condition

        left, right = Scan("orders", None, ORDERS), Scan("items", None, ITEMS)
        node = Join(left, right, kind, parse_expr(cond))
        pairs, _ = split_equi_condition(node.condition, left.schema, right.schema)
        return _with_join_equivalents(hash_part(["o_k"]), node, pairs)

    def test_inner_join_adds_the_other_key(self):
        part = self._equiv("inner", "o_k = i_ok")
        assert part.keys == ("o_k",) and part.equivalents == (("i_ok",),)
        assert part.co_located_on(["i_ok", "i_q"])

    def test_left_join_adds_none(self):
        part = self._equiv("left", "o_k = i_ok")
        assert part.equivalents == ()
        assert not part.co_located_on(["i_ok"])

    def test_mixed_types_add_none(self):
        assert self._equiv("inner", "o_k = i_q").equivalents == ()

    def test_projection_keeps_a_surviving_equivalent(self):
        from repro.optimizer.dataflow import _project_partitioning
        from repro.sql.ast import ColumnRef

        part = self._equiv("inner", "o_k = i_ok")
        kept = _project_partitioning(part, [("i_ok", ColumnRef("i_ok")), ("v", ColumnRef("o_v"))])
        assert kept.kind == "hash" and kept.keys == ("i_ok",) and kept.equivalents == ()
        gone = _project_partitioning(part, [("v", ColumnRef("o_v"))])
        assert gone.kind == "arbitrary"

    def test_group_by_the_joined_key_needs_no_shuffle(self):
        p = plan("select i_ok, sum(o_v) from orders, items where o_k = i_ok group by i_ok")
        (agg,) = ops(p, "agg")
        assert agg.attrs["mode"] == "complete"
        # one shuffle, under the join: none between the join and the aggregate
        (shuffle,) = ops(p, "shuffle")
        (join,) = ops(p, "hashjoin")
        assert shuffle in join.children


class TestOneKeyAggregateShuffle:
    def test_the_numeric_key_with_most_distinct_values_routes(self):
        p = plan("select o_v, o_k, count(*) from orders group by o_v, o_k")
        (shuffle,) = ops(p, "shuffle")
        assert [str(k) for k in shuffle.attrs["key_exprs"]] == ["o_k"]
        assert ops(p, "agg")[0].partitioning.keys == ("o_k",)

    def test_string_keys_never_route_alone(self):
        p = plan("select c_n, count(*) from cust group by c_n")
        (shuffle,) = ops(p, "shuffle")
        assert [str(k) for k in shuffle.attrs["key_exprs"]] == ["c_n"]

    def test_too_few_distinct_values_hash_every_key(self):
        few = StatsProvider({"orders": TableStats(1e6, {
            "o_k": ColumnStats(60, 1, 60),
            "o_ck": ColumnStats(1e5, 1, 10**5),
            "o_v": ColumnStats(50, 0, 50),
        })})
        logical = optimize_logical(
            Binder(Cat()).bind(parse("select o_v, o_k, count(*) from orders group by o_v, o_k")),
            StatsDeriver(few),
        )
        planner = DataflowPlanner(
            lambda t: PLACEMENT[t], StatsDeriver(few), ClusterConfig(n_workers=8, n_max=8)
        )
        (shuffle,) = ops(planner.plan(logical), "shuffle")
        # 60 distinct values are under 8 a worker on 8 workers
        assert [str(k) for k in shuffle.attrs["key_exprs"]] == ["o_v", "o_k"]


class TestTpchExchanges:
    def test_q18_aggregates_where_the_join_left_its_rows(self, tpch_db):
        from repro.sql import parse as parse_sql
        from repro.workloads import tpch_queries

        _, p = tpch_db.plan_select(parse_sql(tpch_queries.query(18, 0.002)))
        agg = next(n for n in p.walk() if n.op == "agg")
        node = agg.children[0]
        while node.op == "project":
            node = node.children[0]
        assert node.op == "hashjoin"
        assert agg.attrs["mode"] == "complete"

    def test_q10_aggregate_shuffles_one_key(self, tpch_db):
        from repro.sql import parse as parse_sql
        from repro.workloads import tpch_queries

        _, p = tpch_db.plan_select(parse_sql(tpch_queries.query(10, 0.002)))
        agg = next(n for n in p.walk() if n.op == "agg")
        assert len(agg.attrs["group_keys"]) == 7
        (shuffle,) = [n for n in agg.walk() if n.op == "shuffle" and n in agg.children]
        assert [str(k) for k in shuffle.attrs["key_exprs"]] == ["c_custkey"]
