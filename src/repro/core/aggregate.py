"""Distributed aggregation in three steps over one partial schema.

``partial_aggregate`` turns raw rows into partial states, ``combine_partials``
/ ``fold_partial`` re-combine partial states into the same schema (a
per-site accumulator, every level of the reduce tree), and
``final_aggregate`` turns combined partials into the query's output. The
spec tuples are the planner's (:func:`repro.optimizer.dataflow._split_aggs`).
"""

from __future__ import annotations

import numpy as np

from ..common.batch import RowBatch
from ..common.dtypes import DataType
from ..common.schema import Column, Schema
from ..optimizer.logical import AggSpec
from .reference import aggregate_batch


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
