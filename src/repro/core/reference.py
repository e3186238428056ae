"""Single-node logical-plan executor.

Interprets a logical plan directly over fully materialized batches.
Serves three roles:

1. the *reference oracle* the distributed engine is tested against,
2. the executor behind :meth:`Database.explain`-level unit tests,
3. the coordinator-local fallback for trivial queries.

Semantics notes (engine-wide): the engine stores no NULLs. Outer joins
mark unmatched rows via a boolean match column (fill values are type
defaults); empty scalar subqueries yield zero joined rows, which matches
SQL's NULL-comparison-is-false filtering behaviour. Aggregates over
empty input follow SQL: COUNT=0, AVG/MIN/MAX=NULL (encoded as NaN for
numeric columns — which promotes integer/date outputs to float64 NULL
holes — and a None dictionary entry for strings; ``RowBatch.rows``
delivers them as None).
SUM over empty input deliberately stays 0: the distributed COUNT is
finalized as a SUM over partial counts, which must not turn a true zero
into NULL.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..common.batch import DictColumn, RowBatch
from ..common.dtypes import DataType
from ..common.errors import ExecutionError
from ..common.schema import Schema
from ..sql.ast import BinaryOp, Expr, column_refs
from ..sql.compiler import compile_expr, compile_predicate
from .kernels import (
    factorize,
    factorize_pair,
    group_aggregate,
    group_count_distinct,
    group_sum_distinct,
    join_match_indices,
    sort_indices,
)
from ..optimizer.logical import (
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
)

TableSource = Callable[[str], RowBatch]


def execute_logical(plan: LogicalPlan, source: TableSource) -> RowBatch:
    return _Exec(source).run(plan)


class _Exec:
    def __init__(self, source: TableSource):
        self.source = source

    def run(self, plan: LogicalPlan) -> RowBatch:
        if isinstance(plan, Scan):
            return self._scan(plan)
        if isinstance(plan, Filter):
            child = self.run(plan.child)
            pred = compile_predicate(plan.predicate, child.schema)
            return child.filter(pred(child))
        if isinstance(plan, Project):
            child = self.run(plan.child)
            return project_batch(child, plan.exprs, plan.schema)
        if isinstance(plan, Join):
            return self._join(plan)
        if isinstance(plan, Aggregate):
            child = self.run(plan.child)
            return aggregate_batch(child, plan.group_keys, plan.aggs, plan.schema)
        if isinstance(plan, Sort):
            child = self.run(plan.child)
            if child.length == 0:
                return child
            return child.take(sort_indices(child, plan.keys))
        if isinstance(plan, Limit):
            child = self.run(plan.child)
            return child.slice(0, plan.n)
        if isinstance(plan, Distinct):
            child = self.run(plan.child)
            return distinct_batch(child)
        if isinstance(plan, UnionAll):
            parts = [self.run(c) for c in plan.children()]
            aligned = [p.project([p.schema.names()[i] for i in range(len(plan.schema))]) for p in parts]
            renamed = [
                a.rename(dict(zip(a.schema.names(), plan.schema.names()))) for a in aligned
            ]
            return RowBatch.concat(plan.schema, renamed)
        raise ExecutionError(f"no executor for {type(plan).__name__}")

    # -- scans -------------------------------------------------------------------
    def _scan(self, plan: Scan) -> RowBatch:
        if plan.table == "__dual":
            return RowBatch(plan.schema, {"__one": np.array([1], dtype=np.int64)})
        data = self.source(plan.table)
        mapping = {}
        for c in plan.schema:
            src = data.schema.resolve(c.unqualified)
            mapping[c.name] = data.col(src)
        return RowBatch(plan.schema, mapping)

    # -- joins ------------------------------------------------------------------
    def _join(self, plan: Join) -> RowBatch:
        left = self.run(plan.left)
        right = self.run(plan.right)
        return join_batches(left, right, plan)


# ---------------------------------------------------------------------------
# shared batch-level operator implementations
# ---------------------------------------------------------------------------


def project_batch(child: RowBatch, exprs, out_schema: Schema) -> RowBatch:
    cols = {}
    for (name, e), col in zip(exprs, out_schema.columns):
        cols[name] = compile_expr(e, child.schema).fn(child)
    return RowBatch(out_schema, cols)


def split_equi_condition(
    cond: Expr | None, lschema: Schema, rschema: Schema
) -> tuple[list[tuple[Expr, Expr]], list[Expr]]:
    """Equi pairs as (left-side expr, right-side expr) + residual conjuncts."""
    if cond is None:
        return [], []
    pairs: list[tuple[Expr, Expr]] = []
    residual: list[Expr] = []
    stack = [cond]
    while stack:
        e = stack.pop()
        if isinstance(e, BinaryOp) and e.op == "AND":
            stack += [e.left, e.right]
            continue
        if isinstance(e, BinaryOp) and e.op == "=":
            l_side = _side_of(e.left, lschema, rschema)
            r_side = _side_of(e.right, lschema, rschema)
            if l_side == "left" and r_side == "right":
                pairs.append((e.left, e.right))
                continue
            if l_side == "right" and r_side == "left":
                pairs.append((e.right, e.left))
                continue
        residual.append(e)
    return pairs, residual


def _side_of(expr: Expr, lschema: Schema, rschema: Schema) -> str:
    refs = column_refs(expr)
    if not refs:
        return "const"
    in_l = all(
        lschema.try_resolve(r.key) or lschema.try_resolve(r.name) for r in refs
    )
    in_r = all(
        rschema.try_resolve(r.key) or rschema.try_resolve(r.name) for r in refs
    )
    if in_l and not in_r:
        return "left"
    if in_r and not in_l:
        return "right"
    if in_l and in_r:
        # ambiguous: prefer exact qualified resolution
        exact_l = all(lschema.try_resolve(r.key) for r in refs)
        exact_r = all(rschema.try_resolve(r.key) for r in refs)
        if exact_l and not exact_r:
            return "left"
        if exact_r and not exact_l:
            return "right"
        return "left"
    return "both"


def join_batches(left: RowBatch, right: RowBatch, plan: Join) -> RowBatch:
    pairs, residual = split_equi_condition(
        plan.condition, plan.left.schema, plan.right.schema
    )
    return hash_join(
        left,
        right,
        plan.kind,
        pairs,
        residual,
        plan.schema,
        plan.match_column if plan.kind == "left" else None,
        plan.left.schema,
        plan.right.schema,
    )


def hash_join(
    left: RowBatch,
    right: RowBatch,
    kind: str,
    pairs: list[tuple[Expr, Expr]],
    residual: list[Expr],
    out_schema: Schema,
    match_col: str | None,
    lschema: Schema | None = None,
    rschema: Schema | None = None,
) -> RowBatch:
    """Kernel-level join shared by the reference and distributed engines."""
    lschema = lschema if lschema is not None else left.schema
    rschema = rschema if rschema is not None else right.schema

    if kind == "single":
        if right.length > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        if right.length == 0:
            return RowBatch.empty(out_schema)
        cols = dict(left.columns)
        cols.update(right.take(np.zeros(left.length, dtype=np.int64)).columns)
        return RowBatch(out_schema, cols)

    if pairs:
        lkeys = [compile_expr(le, left.schema).fn(left) for le, _ in pairs]
        rkeys = [compile_expr(re, right.schema).fn(right) for _, re in pairs]
        lcode, rcode = factorize_pair(lkeys, rkeys)
        li, ri = join_match_indices(lcode, rcode)
    else:
        # cross pairs (guarded: a missed pushdown must fail fast, not OOM)
        if left.length * right.length > 50_000_000:
            raise ExecutionError(
                f"cross product of {left.length} x {right.length} rows refused; "
                "run predicate pushdown first"
            )
        li = np.repeat(np.arange(left.length), right.length)
        ri = np.tile(np.arange(right.length), left.length)

    if residual and len(li):
        combined = _combine(left.take(li), right.take(ri))
        mask = np.ones(len(li), dtype=bool)
        for r in residual:
            mask &= compile_predicate(r, combined.schema)(combined)
        li, ri = li[mask], ri[mask]

    if kind in ("inner", "cross"):
        cols = {}
        lt = left.take(li)
        rt = right.take(ri)
        for c in lschema:
            cols[c.name] = lt.col(c.name)
        for c in rschema:
            cols[c.name] = rt.col(c.name)
        return RowBatch(out_schema, cols)

    if kind == "semi":
        keep = np.zeros(left.length, dtype=bool)
        keep[li] = True
        return left.filter(keep)

    if kind == "anti":
        keep = np.ones(left.length, dtype=bool)
        keep[li] = False
        return left.filter(keep)

    if kind == "left":
        matched = np.zeros(left.length, dtype=bool)
        matched[li] = True
        unmatched_idx = np.flatnonzero(~matched)
        all_li = np.concatenate([li, unmatched_idx])
        lt = left.take(all_li)
        cols = {c.name: lt.col(c.name) for c in lschema}
        n_match = len(li)
        n_un = len(unmatched_idx)
        pad = RowBatch(rschema, {
            c.name: np.full(n_un, _fill_value(c.dtype), dtype=c.dtype.numpy_dtype)
            for c in rschema
        })
        cols.update(RowBatch.concat(rschema, [right.take(ri), pad]).columns)
        mcol = match_col or out_schema.columns[-1].name
        cols[mcol] = np.concatenate(
            [np.ones(n_match, dtype=bool), np.zeros(n_un, dtype=bool)]
        )
        return RowBatch(out_schema, cols)

    raise ExecutionError(f"unsupported join kind {kind}")


def _combine(lt: RowBatch, rt: RowBatch) -> RowBatch:
    schema = lt.schema.concat(rt.schema)
    cols = dict(lt.columns)
    cols.update(rt.columns)
    return RowBatch(schema, cols)


def _fill_value(dt: DataType):
    if dt == DataType.STRING:
        return ""
    if dt == DataType.BOOL:
        return False
    return 0


def aggregate_batch(child: RowBatch, group_keys, aggs, out_schema: Schema) -> RowBatch:

    if group_keys:
        key_cols = [child.col(k) for k in group_keys]
        codes, n_groups = factorize(key_cols)
        # representative row per group (first occurrence)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        boundaries = np.concatenate(
            [[0], np.flatnonzero(np.diff(sorted_codes)) + 1]
        ) if len(sorted_codes) else np.empty(0, np.int64)
        rep = order[boundaries.astype(np.int64)] if len(sorted_codes) else np.empty(0, np.int64)
        rep_codes = sorted_codes[boundaries.astype(np.int64)] if len(sorted_codes) else np.empty(0, np.int64)
        cols = {}
        for k in group_keys:
            cols[k] = child.col(k)[rep]
        for spec in aggs:
            values = child.col(spec.arg) if spec.arg is not None else None
            valid = child.col(spec.valid_col).astype(bool) if spec.valid_col else None
            if spec.distinct and spec.func == "COUNT":
                per_group = group_count_distinct(codes, n_groups, values)
            elif spec.distinct and spec.func == "SUM":
                per_group = group_sum_distinct(codes, n_groups, values)
            else:
                per_group = group_aggregate(codes, n_groups, spec.func, values, valid)
            arr = per_group[rep_codes]
            cols[spec.name] = _cast_agg(arr, out_schema.dtype_of(spec.name))
        return RowBatch(out_schema, cols)

    # global aggregate: exactly one row
    cols = {}
    for spec in aggs:
        values = child.col(spec.arg) if spec.arg is not None else None
        valid = child.col(spec.valid_col).astype(bool) if spec.valid_col else None
        cols[spec.name] = _cast_agg(
            np.array([_global_agg(spec, values, valid, child.length)]),
            out_schema.dtype_of(spec.name),
        )
    return RowBatch(out_schema, cols)


def _global_agg(spec, values, valid, n_rows: int):
    if isinstance(values, DictColumn):
        # equality and order live in the value ranks: aggregate those and
        # answer MIN/MAX with the string. A NULL entry (e.g. a MIN partial
        # from an empty site) ranks -1 and never qualifies
        ranks = values.ranks()
        if spec.func != "COUNT":
            if valid is not None:
                ranks = ranks[valid]
            best = _global_agg(spec, ranks[ranks >= 0], None, n_rows)
            if spec.func in ("MIN", "MAX") and best is not None:
                return values.dictionary.canon().values[best]
            return best
        values = ranks
    if spec.func == "COUNT":
        if valid is not None:
            return int(valid.sum())
        if spec.distinct and values is not None:
            return len(np.unique(values))
        return len(values) if values is not None else n_rows
    if valid is not None and values is not None:
        values = values[valid]
    if values is not None and np.issubdtype(values.dtype, np.floating):
        # NaN marks NULL engine-wide; NULLs never qualify
        values = values[~np.isnan(values)]
    if values is None or len(values) == 0:
        # SQL: aggregates over no qualifying rows are NULL — except SUM,
        # which stays 0 so COUNT's final SUM-over-partials stays exact
        return 0 if spec.func == "SUM" else None
    if spec.distinct:
        values = np.unique(values)
    if spec.func == "SUM":
        return values.sum()
    if spec.func == "AVG":
        return float(values.mean())
    if spec.func == "MIN":
        return values.min()
    if spec.func == "MAX":
        return values.max()
    raise ExecutionError(f"unknown aggregate {spec.func}")


def _cast_agg(arr: np.ndarray, dt: DataType) -> np.ndarray:
    if dt == DataType.STRING:
        if isinstance(arr, DictColumn):
            return arr
        return DictColumn.wrap([x if x is None else str(x) for x in arr.tolist()])
    arr = np.asarray(arr)
    if arr.dtype.kind == "O":
        # scalar path: None marks NULL; numeric targets encode it as NaN
        vals = [np.nan if x is None else x for x in arr.tolist()]
        has_null = any(x is None for x in arr.tolist())
        if has_null and dt != DataType.FLOAT64:
            return np.asarray(vals, dtype=np.float64)
        return np.asarray(vals, dtype=dt.numpy_dtype)
    if (
        arr.dtype == np.float64
        and dt != DataType.FLOAT64
        and np.isnan(arr).any()
    ):
        # NaN marks NULL (group with no qualifying rows): keep the
        # float64 NULL-hole array instead of casting NULL away
        return arr
    return np.asarray(arr, dtype=dt.numpy_dtype)


def distinct_batch(batch: RowBatch) -> RowBatch:
    if batch.length == 0:
        return batch
    codes, _ = factorize([batch.col(c.name) for c in batch.schema])
    _, first = np.unique(codes, return_index=True)
    return batch.take(np.sort(first))
