"""Single-node logical-plan evaluator behind ``Database.execute_reference``.

Interprets a logical plan directly over fully materialized batches, one
operator at a time. Tests and the benchmark's oracle compare the
distributed engine against it. It shares the engine's kernels
(:mod:`~repro.core.kernels`, :func:`~repro.core.aggregate.aggregate_batch`,
:func:`~repro.core.pipeline.project_batch`) and so is not an independent
oracle: it checks distribution, exchange and plan shape, not the kernels.
Nothing the engine runs imports this module.

Semantics notes (engine-wide): the engine stores no NULLs. Outer joins
mark unmatched rows via a boolean match column (fill values are type
defaults); empty scalar subqueries yield zero joined rows, which matches
SQL's NULL-comparison-is-false filtering behaviour, and a NULL join key
matches nothing. Aggregates over empty input follow SQL: COUNT=0,
AVG/MIN/MAX=NULL (encoded as NaN for numeric columns — which promotes
integer/date outputs to float64 NULL holes — and a None dictionary entry
for strings; ``RowBatch.rows`` delivers them as None).
SUM over empty input deliberately stays 0: the distributed COUNT is
finalized as a SUM over partial counts, which must not turn a true zero
into NULL.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..common.batch import RowBatch
from ..common.errors import ExecutionError
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
    split_equi_condition,
)
from ..sql.compiler import compile_predicate
from .aggregate import aggregate_batch
from .kernels import distinct_batch, hash_join, sort_indices
from .pipeline import project_batch

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
