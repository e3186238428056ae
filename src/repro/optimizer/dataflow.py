"""Phases 2 and 3: dataflow conversion and dataflow optimization.

Phase 2 (:func:`convert_naive`) is the paper's literal naive conversion:
table scans split into per-fragment scans placed on the workers that own
the fragments; *every other operator* lands on the coordinator, with
gathers merging worker scan outputs (§V, Example 3 / Figure 6(b)).

Phase 3 (:class:`DataflowPlanner`) produces the optimized dataflow: it
pushes operators from the coordinator to the workers, chooses
distributed operator implementations (local vs broadcast vs shuffle
joins; pre-aggregation vs shuffle group-by; local sort + tree merge;
per-worker top-k), inserts shuffles only where the partitioning property
demands them and elides those implied by existing partitioning (the
"partitioned on ``a`` implies partitioned on ``(a, b)``" rule), and
assigns every exchange its communication topology (n-to-m binomial graph
for shuffles, tree for gathers/broadcasts). Decisions with several
options (notably aggregation) are made greedily with the refined cost
model that includes communication cost — exactly the paper's scheme.

Rows move only where partitioning requires it. An inner equi-join's
output partitioning also records the key tuples the join makes equal to
its hash keys (``hash(l_orderkey)`` stands for ``hash(o_orderkey)`` after
``l_orderkey = o_orderkey``, same types only), projections keep whichever
tuple survives, and an operator is co-located when any of them is a
subset of its grouping. A grouped aggregate that still has to shuffle
hashes one group key — the numeric key with the most estimated distinct
values, given at least 8 a worker — since rows equal on all group keys
are equal on that one.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from ..common.config import ClusterConfig
from ..common.dtypes import DataType
from ..common.errors import PlanError
from ..common.schema import Column, Schema
from ..sql.ast import BinaryOp, ColumnRef, Expr, column_refs
from .derive import StatsDeriver
from .logical import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    Limit,
    LogicalPlan,
    Project,
    Scan,
    Sort,
    UnionAll,
    split_equi_condition,
)
from .physical import (
    ARBITRARY,
    COORD,
    REPLICATED,
    SINGLETON,
    WORKERS,
    Partitioning,
    PhysOp,
    hash_part,
    make,
)

PlacementFn = Callable[[str], Partitioning]

#: broadcast a build side when its replicated size stays under this
BROADCAST_LIMIT_BYTES = 64 * 1024 * 1024


# ---------------------------------------------------------------------------
# Phase 2: naive dataflow conversion
# ---------------------------------------------------------------------------


def convert_naive(plan: LogicalPlan, placement: PlacementFn) -> PhysOp:
    """Scans on workers (data locality enforced), everything else on the
    coordinator behind concat-gathers — the paper's Figure 6(b) shape."""

    def conv(node: LogicalPlan) -> PhysOp:
        if isinstance(node, Scan):
            part = placement(node.table)
            if part.kind == "singleton":
                # virtual (sys.*) relation: materialized on demand at
                # the coordinator, never fragmented across workers
                return _sysscan(node)
            scan = make(
                "scan",
                [],
                node.schema,
                WORKERS,
                part,
                table=node.table,
                alias=node.alias,
                columns=[c.name for c in node.schema],
                predicate=None,
            )
            return _gather_concat(scan)
        children = [conv(c) for c in node.children()]
        return _coord_op(node, children)

    return conv(plan)


def _coord_op(node: LogicalPlan, children: list[PhysOp]) -> PhysOp:
    if isinstance(node, Filter):
        return make("filter", children, node.schema, COORD, SINGLETON, predicate=node.predicate)
    if isinstance(node, Project):
        return make("project", children, node.schema, COORD, SINGLETON, exprs=node.exprs)
    if isinstance(node, Join):
        pairs, residual = split_equi_condition(node.condition, node.left.schema, node.right.schema)
        return make(
            "hashjoin",
            children,
            node.schema,
            COORD,
            SINGLETON,
            kind=node.kind,
            pairs=pairs,
            residual=residual,
            match_col=node.match_column if node.kind == "left" else None,
            bloom=False,
        )
    if isinstance(node, Aggregate):
        return make(
            "agg", children, node.schema, COORD, SINGLETON,
            mode="complete", group_keys=node.group_keys, aggs=node.aggs,
        )
    if isinstance(node, Sort):
        return make("sort", children, node.schema, COORD, SINGLETON, keys=node.keys)
    if isinstance(node, Limit):
        return make("limit", children, node.schema, COORD, SINGLETON, n=node.n)
    if isinstance(node, Distinct):
        return make("distinct", children, node.schema, COORD, SINGLETON)
    if isinstance(node, UnionAll):
        return make("union", children, node.schema, COORD, SINGLETON)
    raise PlanError(f"cannot convert {type(node).__name__}")


def _sysscan(node: Scan) -> PhysOp:
    """A virtual-relation scan: the executor materializes the rows from
    an in-process provider at the coordinator (SINGLETON placement), so
    every downstream operator — filters, joins, aggregates — treats it
    like any other COORD-resident input."""
    return make(
        "sysscan",
        [],
        node.schema,
        COORD,
        SINGLETON,
        table=node.table,
        alias=node.alias,
        columns=[c.name for c in node.schema],
        predicate=None,
    )


def _gather_concat(child: PhysOp, mode: str = "concat") -> PhysOp:
    return make(
        "gather",
        [child],
        child.schema,
        COORD,
        SINGLETON,
        mode=mode,
        replicated_child=child.partitioning.kind == "replicated",
        est_rows=child.attrs.get("est_rows", 0.0),
        est_bytes=child.attrs.get("est_bytes", 0.0),
    )


# ---------------------------------------------------------------------------
# Phase 3: dataflow optimization
# ---------------------------------------------------------------------------


class DataflowPlanner:
    def __init__(
        self,
        placement: PlacementFn,
        deriver: StatsDeriver,
        config: ClusterConfig,
        bloom: bool = True,
    ):
        self.placement = placement
        self.deriver = deriver
        self.config = config
        #: plan Bloom-filtered shuffles under equi-joins (paper §V); only
        #: the performance model's baseline profiles plan without them
        self.bloom = bloom

    # -- entry -------------------------------------------------------------------
    def plan(self, logical: LogicalPlan) -> PhysOp:
        p = self._plan(logical)
        if p.site != COORD:
            p = _gather_concat(p)
        return prune_exchange_columns(fuse_scans(p))

    # -- dispatch -----------------------------------------------------------------
    def _plan(self, node: LogicalPlan) -> PhysOp:
        """Plan ``node`` and annotate the result (and any exchanges created
        for it) with cardinality estimates for the cost layer."""
        p = self._plan_inner(node)
        prof = self.deriver.profile(node)
        # always float: EXPLAIN ANALYZE and the Q-error feedback loop key
        # off est_rows, and int row counts (e.g. a Scan's raw row_count)
        # must not render or compare differently from derived estimates
        p.attrs.setdefault("est_rows", float(prof.rows))
        p.attrs.setdefault("est_bytes", float(prof.bytes))
        return p

    def _plan_inner(self, node: LogicalPlan) -> PhysOp:
        if isinstance(node, Scan):
            return self._plan_scan(node)
        if isinstance(node, Filter):
            child = self._plan(node.child)
            return make("filter", [child], node.schema, child.site, child.partitioning, predicate=node.predicate)
        if isinstance(node, Project):
            child = self._plan(node.child)
            part = _project_partitioning(child.partitioning, node.exprs)
            return make("project", [child], node.schema, child.site, part, exprs=node.exprs)
        if isinstance(node, Join):
            return self._plan_join(node)
        if isinstance(node, Aggregate):
            return self._plan_aggregate(node)
        if isinstance(node, Sort):
            return self._plan_sort(node)
        if isinstance(node, Limit):
            return self._plan_limit(node)
        if isinstance(node, Distinct):
            return self._plan_distinct(node)
        if isinstance(node, UnionAll):
            children = [self._plan(c) for c in node.children()]
            if all(c.site == WORKERS for c in children):
                # replicated inputs would duplicate rows per worker; pin
                # the union's bag semantics by treating them as singleton
                if any(c.partitioning.kind == "replicated" for c in children):
                    aligned = [_gather_concat(c) for c in children]
                    return make("union", aligned, node.schema, COORD, SINGLETON)
                return make("union", children, node.schema, WORKERS, ARBITRARY)
            # mixed sites: bring everything to the coordinator (a broadcast
            # would replicate rows and break bag semantics)
            aligned = [c if c.site == COORD else _gather_concat(c) for c in children]
            return make("union", aligned, node.schema, COORD, SINGLETON)
        raise PlanError(f"cannot plan {type(node).__name__}")

    # -- scans -------------------------------------------------------------------
    def _plan_scan(self, node: Scan) -> PhysOp:
        if node.table == "__dual":
            return make("dual", [], node.schema, COORD, SINGLETON)
        part = self.placement(node.table)
        if part.kind == "singleton":
            return _sysscan(node)
        return make(
            "scan",
            [],
            node.schema,
            WORKERS,
            part,
            table=node.table,
            alias=node.alias,
            columns=[c.name for c in node.schema],
            predicate=None,
        )

    # -- joins -------------------------------------------------------------------
    def _plan_join(self, node: Join) -> PhysOp:
        left = self._plan(node.left)
        right = self._plan(node.right)
        kind = node.kind
        pairs, residual = split_equi_condition(node.condition, node.left.schema, node.right.schema)
        lprof = self.deriver.profile(node.left)
        rprof = self.deriver.profile(node.right)
        n = self.config.n_workers

        if kind == "single":
            # right is a 1-row relation; make it available everywhere
            if left.site == COORD:
                right = self._to_coord(right)
            else:
                right = self._broadcast(right)
            return self._mk_join(node, left, right, pairs, residual, left.partitioning, left.site)

        # both on coordinator: a local join
        if left.site == COORD and right.site == COORD:
            return self._mk_join(node, left, right, pairs, residual, SINGLETON, COORD)
        if left.site == COORD:
            left = self._broadcast(left)
        if right.site == COORD:
            right = self._broadcast(right)

        # option: fully local
        if self._join_is_local(node, left, right, pairs):
            part = self._joined_partitioning(node, left, right, pairs)
            return self._mk_join(node, left, right, pairs, residual, part, WORKERS)

        options: list[tuple[float, str]] = []
        lbytes = lprof.bytes
        rbytes = rprof.bytes
        can_broadcast_right = True
        can_broadcast_left = kind in ("inner", "cross")
        # a one-sided shuffle must use exactly the pair subset the
        # stationary side is hash-partitioned on, or rows land on the
        # wrong workers
        right_subset = _matching_pair_subset(right.partitioning, pairs, "right")
        left_subset = _matching_pair_subset(left.partitioning, pairs, "left")
        if pairs:
            if right_subset is not None:
                options.append((lbytes, "shuffle_left"))
            if left_subset is not None and kind in ("inner", "cross"):
                options.append((rbytes, "shuffle_right"))
            options.append((lbytes + rbytes, "shuffle_both"))
        if can_broadcast_right and rbytes * n <= max(BROADCAST_LIMIT_BYTES, 2 * lbytes):
            options.append((rbytes * n, "broadcast_right"))
        if can_broadcast_left and lbytes * n <= max(BROADCAST_LIMIT_BYTES, 2 * rbytes):
            options.append((lbytes * n, "broadcast_left"))
        if not options:
            options.append((rbytes * n, "broadcast_right"))
        options.sort()
        _, choice = options[0]

        if choice == "shuffle_left":
            left = self._shuffle(
                left, [pairs[i][0] for i in right_subset], node.left.schema
            )
            part = self._joined_partitioning(node, left, right, pairs)
        elif choice == "shuffle_right":
            right = self._shuffle(
                right, [pairs[i][1] for i in left_subset], node.right.schema
            )
            part = self._joined_partitioning(node, left, right, pairs)
        elif choice == "shuffle_both":
            left = self._shuffle(left, [le for le, _ in pairs], node.left.schema)
            right = self._shuffle(right, [re for _, re in pairs], node.right.schema)
            part = self._joined_partitioning(node, left, right, pairs)
        elif choice == "broadcast_right":
            right = self._broadcast(right)
            if left.partitioning.kind == "replicated":
                # replica join replica stays a replica
                part = REPLICATED
            else:
                part = left.partitioning
        else:  # broadcast_left
            left = self._broadcast(left)
            if right.partitioning.kind == "replicated":
                part = REPLICATED
            else:
                part = right.partitioning
        return self._mk_join(node, left, right, pairs, residual, part, WORKERS)

    def _mk_join(self, node, left, right, pairs, residual, part, site) -> PhysOp:
        return make(
            "hashjoin",
            [left, right],
            node.schema,
            site,
            _with_join_equivalents(part, node, pairs),
            kind=node.kind,
            pairs=pairs,
            residual=residual,
            match_col=node.match_column if node.kind == "left" else None,
            bloom=self.bloom and bool(pairs),
        )

    def _join_is_local(self, node, left: PhysOp, right: PhysOp, pairs) -> bool:
        kind = node.kind
        lp, rp = left.partitioning, right.partitioning
        if rp.kind == "replicated":
            # each worker pairs its left rows with the full right relation:
            # correct for every join kind (semi/anti/left included)
            return True
        if lp.kind == "replicated":
            # only inner/cross: the output is then driven by the right
            # partition alone; a semi/anti/left join would emit the same
            # left replica rows on several workers
            return kind in ("inner", "cross")
        if not pairs:
            return False
        return self._hash_aligned(lp, rp, pairs)

    def _hash_aligned(self, lp: Partitioning, rp: Partitioning, pairs) -> bool:
        """Hash partitions co-locate matching rows when both sides are
        partitioned on the *same ordered subset* of the join pairs (the
        hash mixes keys in order, so order must correspond too)."""
        li = _matching_pair_subset(lp, pairs, "left")
        ri = _matching_pair_subset(rp, pairs, "right")
        return li is not None and ri is not None and li == ri

    def _joined_partitioning(self, node, left: PhysOp, right: PhysOp, pairs) -> Partitioning:
        if left.partitioning.kind == "replicated" and right.partitioning.kind == "replicated":
            return REPLICATED  # a local join of full replicas is a full replica
        if left.partitioning.kind == "hash":
            return left.partitioning
        if node.kind in ("inner", "cross") and right.partitioning.kind == "hash":
            return right.partitioning
        if node.kind in ("semi", "anti", "single", "left") and left.partitioning.kind == "replicated":
            return REPLICATED if right.partitioning.kind == "replicated" else ARBITRARY
        return ARBITRARY

    # -- aggregation ---------------------------------------------------------------
    def _plan_aggregate(self, node: Aggregate) -> PhysOp:
        child = self._plan(node.child)
        keys = node.group_keys
        has_distinct = any(s.distinct for s in node.aggs)
        prof = self.deriver.profile(node.child)
        out_prof = self.deriver.profile(node)

        if child.site == COORD:
            return make("agg", [child], node.schema, COORD, SINGLETON,
                        mode="complete", group_keys=keys, aggs=node.aggs)

        # co-located: a purely local aggregation is complete
        if keys and child.partitioning.co_located_on(keys) and child.partitioning.kind == "hash":
            return make("agg", [child], node.schema, WORKERS, child.partitioning,
                        mode="complete", group_keys=keys, aggs=node.aggs)
        if child.partitioning.kind == "replicated":
            # aggregate the replica on every worker: result is replicated
            return make("agg", [child], node.schema, WORKERS, REPLICATED,
                        mode="complete", group_keys=keys, aggs=node.aggs)

        if not keys:
            # global aggregate: pre-aggregate per worker, combine up the tree
            if has_distinct:
                gathered = _gather_concat(child)
                return make("agg", [gathered], node.schema, COORD, SINGLETON,
                            mode="complete", group_keys=(), aggs=node.aggs)
            partial_schema, partial_specs, final_specs = _split_aggs(node, node.child.schema)
            partial = make("agg", [child], partial_schema, WORKERS, child.partitioning,
                           mode="partial", group_keys=(), aggs=node.aggs,
                           partial_specs=partial_specs)
            gathered = make("gather", [partial], partial_schema, COORD, SINGLETON,
                            mode="combine", group_keys=(), combine_specs=partial_specs,
                            replicated_child=False)
            return make("agg", [gathered], node.schema, COORD, SINGLETON,
                        mode="final", group_keys=(), aggs=node.aggs,
                        final_specs=final_specs, partial_schema=partial_schema)

        # grouped: greedy cost-based choice (the paper's Phase-3 decision)
        n = self.config.n_workers
        rows = prof.rows
        groups = out_prof.rows
        width = prof.width()
        # (a) pre-aggregate then shuffle partials; per-worker group count is
        #     bounded by both local rows and total groups
        local_groups = min(rows / n, groups)
        preagg_shuffle_bytes = local_groups * n * width
        # (b) shuffle raw rows then aggregate once
        raw_shuffle_bytes = rows * width
        if has_distinct:
            choice = "shuffle_raw"
        else:
            choice = "preagg" if preagg_shuffle_bytes < raw_shuffle_bytes else "shuffle_raw"

        route = self._route_keys(keys, node.child.schema, prof)
        key_exprs = [ColumnRef(k) for k in route]
        if choice == "shuffle_raw":
            shuffled = self._shuffle(child, key_exprs, node.child.schema)
            return make("agg", [shuffled], node.schema, WORKERS, hash_part(route),
                        mode="complete", group_keys=keys, aggs=node.aggs)
        partial_schema, partial_specs, final_specs = _split_aggs(node, node.child.schema)
        partial_rows = float(min(rows, local_groups * n))
        partial = make("agg", [child], partial_schema, WORKERS, child.partitioning,
                       mode="partial", group_keys=keys, aggs=node.aggs,
                       partial_specs=partial_specs,
                       est_rows=partial_rows, est_bytes=partial_rows * width)
        shuffled = self._shuffle(partial, key_exprs, partial_schema)
        return make("agg", [shuffled], node.schema, WORKERS, hash_part(route),
                    mode="final", group_keys=keys, aggs=node.aggs,
                    final_specs=final_specs, partial_schema=partial_schema)

    def _route_keys(self, keys: Sequence[str], schema: Schema, prof) -> tuple[str, ...]:
        """The group keys a grouped aggregate's shuffle hashes. Rows equal
        on every group key are equal on any one of them, so hashing one
        key keeps each group on one worker: the non-STRING key with the
        most estimated distinct values, when it has enough (8 a worker)
        to spread the groups, else all of them."""
        best, best_ndv = None, 0.0
        for k in keys:
            ndv = prof.col(k).ndv
            if ndv > best_ndv and schema.dtype_of(k) != DataType.STRING:
                best, best_ndv = k, ndv
        if best is None or best_ndv < 8 * self.config.n_workers:
            return tuple(keys)
        return (best,)

    # -- sort / limit / distinct -----------------------------------------------------
    def _plan_sort(self, node: Sort) -> PhysOp:
        child = self._plan(node.child)
        if child.site == COORD:
            return make("sort", [child], node.schema, COORD, SINGLETON, keys=node.keys)
        local = make("sort", [child], node.schema, WORKERS, child.partitioning, keys=node.keys)
        return make("gather", [local], node.schema, COORD, SINGLETON,
                    mode="merge", sort_keys=node.keys,
                    replicated_child=child.partitioning.kind == "replicated")

    def _plan_limit(self, node: Limit) -> PhysOp:
        # fuse Limit(Sort(x)) into distributed top-k (paper's min-heap scheme)
        if isinstance(node.child, Sort):
            sort = node.child
            child = self._plan(sort.child)
            if child.site == COORD:
                s = make("sort", [child], node.schema, COORD, SINGLETON, keys=sort.keys)
                return make("limit", [s], node.schema, COORD, SINGLETON, n=node.n)
            local = make("topk", [child], node.schema, WORKERS, child.partitioning,
                         keys=sort.keys, k=node.n)
            return make("gather", [local], node.schema, COORD, SINGLETON,
                        mode="topk", sort_keys=sort.keys, k=node.n,
                        replicated_child=child.partitioning.kind == "replicated")
        child = self._plan(node.child)
        if child.site == COORD:
            return make("limit", [child], node.schema, COORD, SINGLETON, n=node.n)
        local = make("limit", [child], node.schema, WORKERS, child.partitioning, n=node.n)
        gathered = _gather_concat(local)
        return make("limit", [gathered], node.schema, COORD, SINGLETON, n=node.n)

    def _plan_distinct(self, node: Distinct) -> PhysOp:
        child = self._plan(node.child)
        if child.site == COORD:
            return make("distinct", [child], node.schema, COORD, SINGLETON)
        cols = [c.name for c in node.schema]
        if child.partitioning.co_located_on(cols) or child.partitioning.kind == "replicated":
            return make("distinct", [child], node.schema, WORKERS, child.partitioning)
        local = make("distinct", [child], node.schema, WORKERS, child.partitioning)
        shuffled = self._shuffle(local, [ColumnRef(c) for c in cols], node.schema)
        return make("distinct", [shuffled], node.schema, WORKERS, hash_part(cols))

    # -- exchanges -------------------------------------------------------------------
    def _shuffle(self, child: PhysOp, key_exprs: Sequence[Expr], schema: Schema) -> PhysOp:
        keys = tuple(
            str(e) for e in key_exprs
        )
        plain = all(isinstance(e, ColumnRef) for e in key_exprs)
        part = hash_part([str(e) for e in key_exprs]) if plain else Partitioning("hash", keys)
        return make(
            "shuffle",
            [child],
            child.schema,
            WORKERS,
            part,
            key_exprs=list(key_exprs),
            topology="n_to_m",
            est_rows=child.attrs.get("est_rows", 0.0),
            est_bytes=child.attrs.get("est_bytes", 0.0),
        )

    def _broadcast(self, child: PhysOp) -> PhysOp:
        return make(
            "broadcast", [child], child.schema, WORKERS, REPLICATED, topology="tree",
            est_rows=child.attrs.get("est_rows", 0.0),
            est_bytes=child.attrs.get("est_bytes", 0.0),
        )

    def _to_coord(self, child: PhysOp) -> PhysOp:
        if child.site == COORD:
            return child
        return _gather_concat(child)


# ---------------------------------------------------------------------------
# aggregate splitting (partial/final) and misc helpers
# ---------------------------------------------------------------------------


def _split_aggs(node: Aggregate, child_schema: Schema):
    """Build the partial-aggregate schema and spec lists.

    Partial output = group keys + one or two columns per aggregate:
    SUM/MIN/MAX -> one partial column; COUNT -> partial count; AVG ->
    partial sum + partial count. Final specs recombine (SUM of partial
    sums/counts, MIN of MINs, ...).
    """
    cols = [child_schema.column(k) for k in node.group_keys]
    partial_specs: list[tuple] = []  # (out_col, func, arg, valid)
    final_specs: list[tuple] = []  # (name, func, partial cols...)
    for spec in node.aggs:
        if spec.func == "AVG":
            s_col, c_col = spec.name + "__s", spec.name + "__c"
            in_dt = child_schema.dtype_of(spec.arg)
            cols.append(Column(s_col, DataType.FLOAT64 if in_dt != DataType.INT64 else DataType.INT64))
            cols.append(Column(c_col, DataType.INT64))
            partial_specs.append((s_col, "SUM", spec.arg, None))
            partial_specs.append((c_col, "COUNT", spec.arg, spec.valid_col))
            final_specs.append((spec.name, "AVG_COMBINE", (s_col, c_col)))
        elif spec.func == "COUNT":
            p_col = spec.name + "__c"
            cols.append(Column(p_col, DataType.INT64))
            partial_specs.append((p_col, "COUNT", spec.arg, spec.valid_col))
            final_specs.append((spec.name, "SUM", (p_col,)))
        else:  # SUM / MIN / MAX
            p_col = spec.name + "__p"
            cols.append(Column(p_col, child_schema.dtype_of(spec.arg)))
            partial_specs.append((p_col, spec.func, spec.arg, None))
            final_specs.append((spec.name, spec.func, (p_col,)))
    return Schema(cols), tuple(partial_specs), tuple(final_specs)


def _matching_pair_subset(part: Partitioning, pairs, side: str) -> list[int] | None:
    """Indices of join pairs whose ``side`` keys are exactly ``part``'s hash
    keys, i.e. shuffling the *other* side by the corresponding opposite
    expressions co-locates matches. None when no exact subset exists.

    The hash must also be computed over the same key order; partition keys
    are a set for hashing purposes only when the order matches, so the
    subset is returned in ``part.keys`` order.
    """
    if part.kind != "hash" or not part.keys:
        return None
    pair_base = [
        (str(le).rsplit(".", 1)[-1], str(re).rsplit(".", 1)[-1]) for le, re in pairs
    ]
    want = [k.rsplit(".", 1)[-1] for k in part.keys]
    idx: list[int] = []
    for base in want:
        hit = None
        for i, (lb, rb) in enumerate(pair_base):
            b = rb if side == "right" else lb
            if b == base and i not in idx:
                hit = i
                break
        if hit is None:
            return None
        idx.append(hit)
    return idx


def _project_partitioning(part: Partitioning, exprs) -> Partitioning:
    """``part`` over a projection's output names: every key tuple whose
    columns all survive, renamed; arbitrary when none does."""
    if part.kind != "hash":
        return part
    rename: dict[str, str] = {}
    for name, e in exprs:
        if isinstance(e, ColumnRef):
            rename.setdefault(_colbase(e.key), name)
    survivors: list[tuple[str, ...]] = []
    for keys in part.key_tuples():
        new_keys = tuple(rename.get(_colbase(k)) for k in keys)
        if None not in new_keys and new_keys not in survivors:
            survivors.append(new_keys)
    if not survivors:
        return ARBITRARY  # every key tuple lost a column
    return Partitioning("hash", survivors[0], tuple(survivors[1:]))


#: at most this many equivalent key tuples ride one partitioning
_MAX_EQUIVALENTS = 8


def _with_join_equivalents(part: Partitioning, node: Join, pairs) -> Partitioning:
    """``part`` plus the key tuples an inner equi-join makes equal to its
    hash keys. Each pair of same-typed columns holds one value in every
    output row, so substituting one for the other in a key tuple hashes
    every row to the same worker. A left join's inner columns are NULL
    where nothing matched, and values of different types hash
    differently, so neither adds one."""
    if node.kind != "inner" or part.kind != "hash":
        return part
    lschema, rschema = node.left.schema, node.right.schema
    same: dict[str, list[str]] = {}
    for le, re in pairs:
        if not (isinstance(le, ColumnRef) and isinstance(re, ColumnRef)):
            continue
        lk, rk = lschema.try_resolve(le.key), rschema.try_resolve(re.key)
        if lk is None or rk is None or lschema.dtype_of(lk) != rschema.dtype_of(rk):
            continue
        same.setdefault(_colbase(lk), []).append(rk)
        same.setdefault(_colbase(rk), []).append(lk)
    if not same:
        return part
    tuples = list(part.key_tuples())
    seen = {tuple(map(_colbase, t)) for t in tuples}
    for keys in part.key_tuples():
        options = [[k] + same.get(_colbase(k), []) for k in keys]
        for alt in itertools.product(*options):
            base = tuple(map(_colbase, alt))
            if base not in seen and len(tuples) <= _MAX_EQUIVALENTS:
                seen.add(base)
                tuples.append(alt)
    return Partitioning("hash", part.keys, tuple(tuples[1:]))


def fuse_scans(plan: PhysOp) -> PhysOp:
    """Merge a filter directly above a scan into the scan (storage-level
    predicate pushdown, which is what enables predicate-based skipping)."""
    plan.children = [fuse_scans(c) for c in plan.children]
    if plan.op == "filter" and plan.children[0].op in ("scan", "sysscan"):
        scan = plan.children[0]
        if scan.attrs.get("predicate") is None:
            scan.attrs["predicate"] = plan.attrs["predicate"]
        else:
            scan.attrs["predicate"] = BinaryOp(
                "AND", scan.attrs["predicate"], plan.attrs["predicate"]
            )
        scan.schema = plan.schema
        scan.site = plan.site
        scan.partitioning = plan.partitioning
        # keep both pre-filter (I/O volume) and post-filter estimates
        scan.attrs["est_input_rows"] = scan.attrs.get("est_rows", 0.0)
        scan.attrs["est_input_bytes"] = scan.attrs.get("est_bytes", 0.0)
        if "est_rows" in plan.attrs:
            scan.attrs["est_rows"] = plan.attrs["est_rows"]
            scan.attrs["est_bytes"] = plan.attrs["est_bytes"]
        return scan
    return plan


# ---------------------------------------------------------------------------
# dead-column elimination at exchange boundaries
# ---------------------------------------------------------------------------

#: ops whose output columns are exactly their (first) child's columns
_PASS_THROUGH = ("filter", "sort", "topk", "limit")


def _colbase(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _expr_refs(exprs) -> set[str]:
    out: set[str] = set()
    for e in exprs:
        if e is None:
            continue
        if isinstance(e, str):  # bare column name (e.g. sort key)
            out.add(_colbase(e))
            continue
        for r in column_refs(e):
            out.add(r.name)
    return out


def _order_key_exprs(items) -> list[Expr]:
    # sort keys appear both as (expr, ascending) tuples and OrderItems
    return [it[0] if isinstance(it, tuple) else it.expr for it in items]


def _agg_child_reads(attrs) -> set[str] | None:
    """Base column names an agg reads from its child; None = keep all."""
    if attrs.get("mode", "complete") == "final":
        return None  # reads partial accumulator columns (already tiny)
    out = {_colbase(k) for k in attrs.get("group_keys", ())}
    specs = list(attrs.get("aggs", ())) + list(attrs.get("partial_specs", ()) or ())
    for s in specs:
        if getattr(s, "arg", None):
            out.add(_colbase(s.arg))
        if getattr(s, "valid_col", None):
            out.add(_colbase(s.valid_col))
    return out


def _prune_wire(op: PhysOp, child_needed: set[str] | None) -> None:
    """Insert a projection below an exchange so dead columns never hit
    the wire codec; no-op when the child already shrank to the set."""
    child = op.children[0]
    if child_needed is not None:
        kept = [c for c in child.schema if _colbase(c.name) in child_needed]
        if 0 < len(kept) < len(child.schema.columns):
            pruned = Schema(kept)
            op.children = [
                make(
                    "project",
                    [child],
                    pruned,
                    child.site,
                    child.partitioning,
                    exprs=[(c.name, ColumnRef(c.name)) for c in kept],
                )
            ]
    op.schema = op.children[0].schema


def _prune(op: PhysOp, needed: set[str] | None) -> None:
    kind = op.op
    if kind in _PASS_THROUGH:
        if kind == "filter":
            extra = _expr_refs([op.attrs["predicate"]])
        elif kind in ("sort", "topk"):
            extra = _expr_refs(_order_key_exprs(op.attrs["keys"]))
        else:
            extra = set()
        child_needed = None if needed is None else {_colbase(n) for n in needed} | {_colbase(n) for n in extra}
        _prune(op.children[0], child_needed)
        op.schema = op.children[0].schema
    elif kind == "project":
        _prune(op.children[0], _expr_refs([e for _, e in op.attrs["exprs"]]))
    elif kind == "agg":
        _prune(op.children[0], _agg_child_reads(op.attrs))
    elif kind in ("shuffle", "broadcast"):
        extra = _expr_refs(op.attrs.get("key_exprs", ()))
        child_needed = None if needed is None else {_colbase(n) for n in needed} | {_colbase(n) for n in extra}
        _prune(op.children[0], child_needed)
        _prune_wire(op, child_needed)
    elif kind == "gather":
        if op.attrs.get("mode") in ("concat", "merge", "topk"):
            extra = _expr_refs(_order_key_exprs(op.attrs.get("sort_keys", ()) or ()))
            child_needed = None if needed is None else {_colbase(n) for n in needed} | {_colbase(n) for n in extra}
            _prune(op.children[0], child_needed)
            _prune_wire(op, child_needed)
        else:  # combine: reads every accumulator column
            _prune(op.children[0], None)
    elif kind == "hashjoin" and op.attrs.get("kind") in ("inner", "cross", "semi", "anti"):
        pairs = op.attrs.get("pairs", ())
        extra = (
            _expr_refs([le for le, _ in pairs])
            | _expr_refs([re for _, re in pairs])
            | _expr_refs(op.attrs.get("residual", ()) or ())
        )
        extra = {_colbase(n) for n in extra}
        child_needed = None if needed is None else {_colbase(n) for n in needed} | extra
        _prune(op.children[0], child_needed)
        if op.attrs["kind"] in ("semi", "anti"):
            # right side only feeds key/residual lookups; its rows never
            # reach the output
            _prune(op.children[1], None if needed is None else extra)
            op.schema = op.children[0].schema
        else:
            _prune(op.children[1], child_needed)
            if child_needed is not None:
                kept = [c for c in op.schema if _colbase(c.name) in needed]
                if not kept:
                    # e.g. COUNT(*) above: keep one (key) column so row
                    # counts survive; keys are in child_needed by design
                    kept = [
                        c for c in op.schema.columns
                        if _colbase(c.name) in child_needed
                    ][:1]
                if kept and len(kept) < len(op.schema.columns):
                    op.schema = Schema(kept)
    else:
        # scan/dual/union/distinct/left/single joins/unknown: liveness
        # is unknown or every column matters — keep everything below
        for c in op.children:
            _prune(c, None)


def prune_exchange_columns(plan: PhysOp) -> PhysOp:
    """Drop columns nothing above an exchange reads (paper §V: exchange
    cost scales with shipped bytes).

    Filter inputs consumed by fused scan predicates and join keys that
    no downstream operator projects would otherwise ride every shuffle,
    broadcast and gather — paying wire encode/decode (string columns
    especially) for values that are already dead. Liveness restrictions
    originate at projections and aggregations; pass-through and join
    schemas shrink to match so plan schemas stay consistent with the
    batches operators actually build.
    """
    _prune(plan, None)
    return plan
