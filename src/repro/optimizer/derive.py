"""Derived statistics: propagate row counts and column stats through plans.

Implements the paper's "estimate intermediate result sizes using standard
techniques based on attribute-level statistics": every logical operator
maps input relation profiles to an output profile. The same machinery
serves join enumeration (Phase 1), distribution decisions (Phase 3), and
the benchmark cost model at SF1000.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sql.ast import ColumnRef, Expr, FuncCall, column_refs
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
)
from .stats import ColumnStats, StatsProvider, join_selectivity, predicate_selectivity


@dataclass
class RelProfile:
    """Estimated relation profile: cardinality + per-column stats."""

    rows: float
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def col(self, name: str) -> ColumnStats:
        if name in self.columns:
            return self.columns[name]
        base = name.rsplit(".", 1)[-1]
        for key, cs in self.columns.items():
            if key.rsplit(".", 1)[-1] == base:
                return cs
        return ColumnStats(max(self.rows / 10.0, 1.0))

    def width(self) -> float:
        if not self.columns:
            return 64.0
        return sum(c.avg_width for c in self.columns.values())

    @property
    def bytes(self) -> float:
        return self.rows * self.width()


class StatsDeriver:
    def __init__(self, provider: StatsProvider):
        self.provider = provider
        # memo values keep a strong reference to the plan node: id()-keyed
        # caching is only sound while the node cannot be garbage-collected
        # (a freed node's address may be reused by a brand-new node, which
        # would silently inherit the stale profile)
        self._memo: dict[int, tuple[LogicalPlan, RelProfile]] = {}

    def profile(self, plan: LogicalPlan) -> RelProfile:
        key = id(plan)
        hit = self._memo.get(key)
        if hit is not None and hit[0] is plan:
            return hit[1]
        prof = self._derive(plan)
        self._memo[key] = (plan, prof)
        return prof

    def rows(self, plan: LogicalPlan) -> float:
        return self.profile(plan).rows

    # -- per-operator rules -------------------------------------------------------
    def _derive(self, plan: LogicalPlan) -> RelProfile:
        if isinstance(plan, Scan):
            ts = self.provider.table(plan.table)
            cols = {}
            for c in plan.schema:
                base = c.unqualified
                src = ts.columns.get(base)
                cols[c.name] = src if src is not None else ColumnStats(max(ts.row_count / 10, 1.0))
            return RelProfile(float(max(ts.row_count, 1.0)), cols)

        if isinstance(plan, Filter):
            child = self.profile(plan.child)

            def stats_of(key: str):
                return child.col(key)

            sel = predicate_selectivity(plan.predicate, stats_of, plan.child.schema)
            rows = max(child.rows * sel, 1.0)
            cols = {k: _shrink(cs, rows) for k, cs in child.columns.items()}
            return RelProfile(rows, cols)

        if isinstance(plan, Project):
            child = self.profile(plan.child)
            cols: dict[str, ColumnStats] = {}
            for name, e in plan.exprs:
                cols[name] = _expr_stats(e, child, plan.child.schema)
            return RelProfile(child.rows, cols)

        if isinstance(plan, Join):
            return self._derive_join(plan)

        if isinstance(plan, Aggregate):
            child = self.profile(plan.child)
            groups = 1.0
            max_ndv = 1.0
            for k in plan.group_keys:
                ndv = max(child.col(k).ndv, 1.0)
                groups *= ndv
                max_ndv = max(max_ndv, ndv)
            # correlated grouping keys make the NDV product wildly over-
            # count (Q18 groups by five keys that o_orderkey determines);
            # cap by the dominant key's NDV with modest slack
            if len(plan.group_keys) > 1:
                groups = min(groups, max_ndv * 1.2)
            rows = min(child.rows, groups) if plan.group_keys else 1.0
            rows = max(rows, 1.0)
            cols: dict[str, ColumnStats] = {}
            for k in plan.group_keys:
                cols[k] = _shrink(child.col(k), rows)
            for spec in plan.aggs:
                cols[spec.name] = ColumnStats(rows, avg_width=8.0)
            return RelProfile(rows, cols)

        if isinstance(plan, (Sort,)):
            return self.profile(plan.child)

        if isinstance(plan, Limit):
            child = self.profile(plan.child)
            rows = min(child.rows, float(plan.n))
            return RelProfile(rows, {k: _shrink(cs, rows) for k, cs in child.columns.items()})

        if isinstance(plan, Distinct):
            child = self.profile(plan.child)
            ndv = 1.0
            for cs in child.columns.values():
                ndv *= max(cs.ndv, 1.0)
            rows = max(min(child.rows, ndv), 1.0)
            return RelProfile(rows, {k: _shrink(cs, rows) for k, cs in child.columns.items()})

        if isinstance(plan, UnionAll):
            profs = [self.profile(c) for c in plan.children()]
            rows = sum(p.rows for p in profs)
            return RelProfile(rows, dict(profs[0].columns))

        raise TypeError(f"no stats rule for {type(plan).__name__}")

    def _derive_join(self, plan: Join) -> RelProfile:
        left = self.profile(plan.left)
        right = self.profile(plan.right)
        kind = plan.kind
        eq_pairs, residual = split_join_condition(plan.condition, plan.left.schema, plan.right.schema)

        if kind == "cross" or (not eq_pairs and kind in ("inner", "left")):
            rows = left.rows * right.rows
            sel_resid = _residual_selectivity(residual, left, right)
            rows = max(rows * sel_resid, 1.0)
        elif kind in ("inner", "left"):
            sel = 1.0
            for lk, rk in eq_pairs:
                sel *= join_selectivity(left.col(lk).ndv, right.col(rk).ndv)
            rows = max(left.rows * right.rows * sel, 1.0)
            rows *= _residual_selectivity(residual, left, right)
            if kind == "left":
                rows = max(rows, left.rows)
        elif kind in ("semi", "anti"):
            if eq_pairs:
                lk, rk = eq_pairs[0]
                frac = min(1.0, right.col(rk).ndv / max(left.col(lk).ndv, 1.0))
            else:
                frac = 0.5
            frac *= _residual_selectivity(residual, left, right)
            frac = min(max(frac, 0.0), 1.0)
            rows = max(left.rows * (frac if kind == "semi" else (1.0 - frac)), 1.0)
        elif kind == "single":
            rows = left.rows
        else:  # pragma: no cover
            raise TypeError(kind)

        cols: dict[str, ColumnStats] = {}
        for k, cs in left.columns.items():
            cols[k] = _shrink(cs, rows)
        if kind not in ("semi", "anti"):
            for k, cs in right.columns.items():
                cols[k] = _shrink(cs, rows)
        for c in plan.schema:
            if c.name not in cols:  # e.g. the left join's match column
                cols[c.name] = ColumnStats(2.0, avg_width=1.0)
        return RelProfile(max(rows, 1.0), cols)


def split_join_condition(
    cond: Expr | None, left_schema, right_schema
) -> tuple[list[tuple[str, str]], list[Expr]]:
    """Split a join condition into equi pairs (left key, right key) and
    residual conjuncts."""
    from ..sql.ast import BinaryOp

    if cond is None:
        return [], []
    eq_pairs: list[tuple[str, str]] = []
    residual: list[Expr] = []
    stack = [cond]
    conjuncts: list[Expr] = []
    while stack:
        e = stack.pop()
        if isinstance(e, BinaryOp) and e.op == "AND":
            stack += [e.left, e.right]
        else:
            conjuncts.append(e)
    for c in conjuncts:
        pair = _equi_sides(c, left_schema, right_schema)
        if pair is not None:
            eq_pairs.append(pair)
        else:
            residual.append(c)
    return eq_pairs, residual


def _equi_sides(conjunct: Expr, left_schema, right_schema) -> tuple[str, str] | None:
    from ..sql.ast import BinaryOp

    if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
        return None
    l, r = conjunct.left, conjunct.right
    if not (isinstance(l, ColumnRef) and isinstance(r, ColumnRef)):
        return None
    ll = left_schema.try_resolve(l.key) or left_schema.try_resolve(l.name)
    lr = right_schema.try_resolve(l.key) or right_schema.try_resolve(l.name)
    rl = left_schema.try_resolve(r.key) or left_schema.try_resolve(r.name)
    rr = right_schema.try_resolve(r.key) or right_schema.try_resolve(r.name)
    if ll and rr and not (lr and rl):
        return (ll, rr)
    if rl and lr and not (ll and rr):
        return (rl, lr)
    if ll and rr:
        return (ll, rr)
    if rl and lr:
        return (rl, lr)
    return None


def _residual_selectivity(residual: list[Expr], left: RelProfile, right: RelProfile) -> float:
    sel = 1.0
    for c in residual:

        def stats_of(key: str):
            if key in left.columns:
                return left.columns[key]
            if key in right.columns:
                return right.columns[key]
            return left.col(key)

        sel *= predicate_selectivity(c, stats_of, None)
    return max(sel, 1e-9)


def _shrink(cs: ColumnStats, rows: float) -> ColumnStats:
    return ColumnStats(
        min(cs.ndv, max(rows, 1.0)), cs.min, cs.max, cs.avg_width, cs.histogram
    )


def _expr_stats(e: Expr, child: RelProfile, child_schema) -> ColumnStats:
    if isinstance(e, ColumnRef):
        key = child_schema.try_resolve(e.key) if child_schema is not None else None
        return child.col(key or e.key)
    if isinstance(e, FuncCall) and e.name == "YEAR":
        refs = column_refs(e)
        if refs:
            base = child.col(refs[0].key)
            # date span in years
            try:
                years = max(1.0, (float(base.max) - float(base.min)) / 365.25)
                return ColumnStats(min(years, base.ndv), avg_width=8.0)
            except (TypeError, ValueError):
                pass
        return ColumnStats(10.0, avg_width=8.0)
    refs = column_refs(e)
    if refs:
        base = child.col(refs[0].key)
        return ColumnStats(base.ndv, avg_width=8.0)
    return ColumnStats(1.0, avg_width=8.0)
