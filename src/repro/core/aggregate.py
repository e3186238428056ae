"""Distributed aggregation in three steps over one partial schema.

``partial_aggregate`` turns raw rows into partial states, ``combine_partials``
/ ``fold_partial`` re-combine partial states into the same schema (a
per-site accumulator, every level of the reduce tree), and
``final_aggregate`` turns combined partials into the query's output. The
spec tuples are the planner's (:func:`repro.optimizer.dataflow._split_aggs`).
All three, and DISTINCT aggregates, run the one-step ``aggregate_batch``.
"""

from __future__ import annotations

import numpy as np

from ..common.batch import DictColumn, RowBatch
from ..common.dtypes import DataType
from ..common.errors import ExecutionError
from ..common.schema import Column, Schema
from ..optimizer.logical import AggSpec
from .kernels import (
    factorize,
    first_occurrence,
    group_aggregate,
    group_count_distinct,
    group_sum_distinct,
)


def partial_aggregate(batch: RowBatch, keys, partial_specs, out_schema: Schema) -> RowBatch:
    specs = tuple(
        AggSpec(col, func, arg, False, valid) for col, func, arg, valid in partial_specs
    )
    return aggregate_batch(batch, keys, specs, out_schema)


def combine_partials(batch: RowBatch, keys, partial_specs, out_schema: Schema) -> RowBatch:
    """Re-combine partial rows into the same partial schema (tree levels)."""
    specs = []
    for col, func, arg, valid in partial_specs:
        comb = "SUM" if func in ("SUM", "COUNT") else func
        specs.append(AggSpec(col, comb, col, False, None))
    return aggregate_batch(batch, keys, tuple(specs), out_schema)


def fold_partial(
    acc: RowBatch | None, part: RowBatch, keys, partial_specs, schema: Schema
) -> RowBatch:
    """Fold one more partial batch into a running partial accumulator."""
    if acc is None:
        return part
    both = RowBatch.concat(schema, [acc, part])
    return combine_partials(both, keys, partial_specs, schema)


def final_aggregate(batch: RowBatch, keys, final_specs, out_schema: Schema) -> RowBatch:
    specs = []
    post_avg: list[tuple[str, str, str]] = []
    for name, func, cols in final_specs:
        if func == "AVG_COMBINE":
            s_col, c_col = cols
            specs.append(AggSpec(name + "__fs", "SUM", s_col, False, None))
            specs.append(AggSpec(name + "__fc", "SUM", c_col, False, None))
            post_avg.append((name, name + "__fs", name + "__fc"))
        else:
            specs.append(AggSpec(name, func, cols[0], False, None))
    mid_cols = [batch.schema.column(k) for k in keys]
    for s in specs:
        if s.func == "COUNT":
            dt = DataType.INT64
        else:
            dt = batch.schema.dtype_of(s.arg) if s.arg else DataType.INT64
        if s.name in out_schema:
            dt = out_schema.dtype_of(s.name)
        mid_cols.append(Column(s.name, dt))
    mid_schema = Schema(mid_cols)
    mid = aggregate_batch(batch, tuple(keys), tuple(specs), mid_schema)
    cols = {}
    for c in out_schema:
        if c.name in mid.schema:
            cols[c.name] = mid.col(c.name)
    for name, s_col, c_col in post_avg:
        c = mid.col(c_col)
        with np.errstate(invalid="ignore"):
            # zero qualifying rows: AVG is NULL (NaN), not 0
            cols[name] = np.where(
                c > 0, mid.col(s_col) / np.maximum(c, 1), np.nan
            )
    return RowBatch(out_schema, cols)


def aggregate_batch(child: RowBatch, group_keys, aggs, out_schema: Schema) -> RowBatch:
    """One-step aggregate of a materialized batch: a row per group, in
    key order (exactly one row without group keys)."""
    if group_keys:
        key_cols = [child.col(k) for k in group_keys]
        codes, n_groups = factorize(key_cols)
        # representative row per group: its first occurrence. The codes
        # are dense, so rows come out in group (= key) order
        rep = first_occurrence(codes, n_groups)
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
            cols[spec.name] = _cast_agg(per_group, out_schema.dtype_of(spec.name))
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
