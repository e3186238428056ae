"""Phase-1 global optimization: heuristic and cost-based rewrites.

Implements the paper's §V Phase 1 pipeline over the logical algebra:

* conjunct normalization and **equivalence classes** over equi-join keys
  (transitively implied join predicates become available to the
  enumerator),
* **predicate pushdown** (selections sink below projects/joins/sorts and
  merge into inner-join conditions, turning crossproducts into joins —
  the paper's Example 2),
* **greedy join enumeration** (GOO [Fegaras]: repeatedly join the pair
  with the smallest estimated result; the variant the paper cites),
* **column pruning** (projections sink to scans),
* cost-based **group-by pushdown** through joins (Wong-style eager
  aggregation, applied only when statistics say it shrinks the input).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..sql.ast import BinaryOp, ColumnRef, Expr, column_refs
from .binder import _map_children
from .derive import StatsDeriver, split_join_condition
from .logical import (
    Aggregate,
    AggSpec,
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


def optimize_logical(
    plan: LogicalPlan,
    deriver: StatsDeriver,
    groupby_pushdown: bool = True,
) -> LogicalPlan:
    plan = push_filters(plan)
    plan = reorder_joins(plan, deriver)
    plan = push_filters(plan)
    if groupby_pushdown:
        plan = apply_groupby_pushdown(plan, deriver)
    plan = prune_columns(plan)
    return plan


# ---------------------------------------------------------------------------
# predicate pushdown
# ---------------------------------------------------------------------------


def factor_or(expr: Expr) -> Expr:
    """Pull conjuncts common to every OR branch out of the disjunction.

    TPC-H Q19's predicate repeats ``p_partkey = l_partkey`` in all three
    branches; factoring it out exposes the equi-join (the optimization the
    paper notes Greenplum applies via CNF conjunct reordering).
    """
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return BinaryOp("AND", factor_or(expr.left), factor_or(expr.right))
    if not (isinstance(expr, BinaryOp) and expr.op == "OR"):
        return expr
    branches = _split_or(expr)
    branch_sets = [{str(c): c for c in _split_and(b)} for b in branches]
    common_keys = set(branch_sets[0])
    for bs in branch_sets[1:]:
        common_keys &= set(bs)
    if not common_keys:
        return expr
    common = [branch_sets[0][k] for k in sorted(common_keys)]
    reduced = []
    for bs in branch_sets:
        rest = [c for k, c in bs.items() if k not in common_keys]
        if not rest:
            return _and_all(common)  # one branch became TRUE: OR is implied
        reduced.append(_and_all(rest))
    out = reduced[0]
    for b in reduced[1:]:
        out = BinaryOp("OR", out, b)
    return _and_all(common + [out])


def _split_or(expr: Expr) -> list[Expr]:
    if isinstance(expr, BinaryOp) and expr.op == "OR":
        return _split_or(expr.left) + _split_or(expr.right)
    return [expr]


def push_filters(plan: LogicalPlan) -> LogicalPlan:
    children = [push_filters(c) for c in plan.children()]
    if children != plan.children():
        plan = plan.with_children(children)
    if isinstance(plan, Join) and plan.kind in ("left", "semi", "anti"):
        return _push_inner_conjuncts(plan)
    if not isinstance(plan, Filter):
        return plan
    conjuncts = _split_and(factor_or(plan.predicate))
    child = plan.child
    kept: list[Expr] = []
    for c in conjuncts:
        new_child = _try_push(child, c)
        if new_child is not None:
            child = push_filters(new_child)
        else:
            kept.append(c)
    if not kept:
        return child
    return Filter(child, _and_all(kept))


def _push_inner_conjuncts(join: Join) -> Join:
    """Move a left, semi or anti join's ON conjuncts that read only the
    inner (right) side into a filter on that side: an inner row failing
    one matches no outer row, so dropping it first changes no result.
    At least one conjunct stays in the condition, and the join keeps its
    match-column name."""
    if join.condition is None:
        return join
    inner: list[Expr] = []
    kept: list[Expr] = []
    for c in _split_and(join.condition):
        refs = [r.key for r in column_refs(c)]
        only_right = bool(refs) and all(
            _resolves(join.right.schema, r) and not _resolves(join.left.schema, r) for r in refs
        )
        (inner if only_right else kept).append(c)
    if not inner or not kept:
        return join
    out = join.with_children([join.left, push_filters(Filter(join.right, _and_all(inner)))])
    out.condition = _and_all(kept)
    return out


def _try_push(child: LogicalPlan, conjunct: Expr) -> LogicalPlan | None:
    refs = [r.key for r in column_refs(conjunct)]

    if isinstance(child, Filter):
        return Filter(child.child, BinaryOp("AND", child.predicate, conjunct))

    if isinstance(child, Project):
        mapping = dict(child.exprs)
        rewritten = _substitute(conjunct, mapping, child.child.schema)
        if rewritten is None:
            return None
        return Project(Filter(child.child, rewritten), child.exprs)

    if isinstance(child, Join):
        left_ok = all(_resolves(child.left.schema, r) for r in refs)
        right_ok = all(_resolves(child.right.schema, r) for r in refs)
        if child.kind in ("inner", "cross", "left", "semi", "anti", "single"):
            if left_ok:
                return child.with_children([Filter(child.left, conjunct), child.right])
        if child.kind in ("inner", "cross"):
            if right_ok and not left_ok:
                return child.with_children([child.left, Filter(child.right, conjunct)])
            if not left_ok and not right_ok:
                # spans both sides: merge into the join condition (this is
                # what converts crossproducts into joins)
                cond = (
                    conjunct
                    if child.condition is None
                    else BinaryOp("AND", child.condition, conjunct)
                )
                return Join(child.left, child.right, "inner", cond)
        return None

    if isinstance(child, Aggregate):
        if all(r in child.group_keys or _base(r) in {_base(k) for k in child.group_keys} for r in refs):
            return Aggregate(Filter(child.child, conjunct), child.group_keys, child.aggs)
        return None

    if isinstance(child, Sort):
        return Sort(Filter(child.child, conjunct), child.keys)

    if isinstance(child, Distinct):
        return Distinct(Filter(child.child, conjunct))

    return None


def _substitute(expr: Expr, mapping: dict[str, Expr], below_schema) -> Expr | None:
    """Rewrite refs through a projection; None if any ref is unmapped."""
    failed = []

    def fn(e: Expr) -> Expr:
        if isinstance(e, ColumnRef):
            if e.key in mapping:
                return mapping[e.key]
            if below_schema.try_resolve(e.key):
                return e
            # maybe the projection renamed a qualified col to a bare one
            for name, me in mapping.items():
                if _base(name) == _base(e.key):
                    return me
            failed.append(e)
            return e
        return _map_children(e, fn)

    out = fn(expr)
    return None if failed else out


# ---------------------------------------------------------------------------
# join reordering (greedy operator ordering over join regions)
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def reorder_joins(plan: LogicalPlan, deriver: StatsDeriver) -> LogicalPlan:
    children = [reorder_joins(c, deriver) for c in plan.children()]
    if children != plan.children():
        plan = plan.with_children(children)
    if isinstance(plan, Join) and plan.kind in ("inner", "cross"):
        leaves, conjuncts = _flatten_region(plan)
        if len(leaves) > 2:
            return _greedy_join(leaves, conjuncts, deriver)
        # small regions still benefit from condition normalization
        return plan
    return plan


def _flatten_region(plan: LogicalPlan) -> tuple[list[LogicalPlan], list[Expr]]:
    leaves: list[LogicalPlan] = []
    conjuncts: list[Expr] = []

    def collect(node: LogicalPlan):
        if isinstance(node, Join) and node.kind in ("inner", "cross"):
            if node.condition is not None:
                conjuncts.extend(_split_and(node.condition))
            collect(node.left)
            collect(node.right)
        elif isinstance(node, Filter):
            # filters over leaves stay glued to their leaf
            leaves.append(node)
        else:
            leaves.append(node)

    collect(plan)
    return leaves, conjuncts


def _greedy_join(
    leaves: list[LogicalPlan], conjuncts: list[Expr], deriver: StatsDeriver
) -> LogicalPlan:
    # equivalence classes over equi-join columns
    uf = _UnionFind()
    equi: list[tuple[str, str, Expr]] = []
    residual: list[Expr] = []
    for c in conjuncts:
        pair = _equi_cols(c)
        if pair is not None:
            uf.union(pair[0], pair[1])
            equi.append((pair[0], pair[1], c))
        else:
            residual.append(c)

    parts: list[LogicalPlan] = list(leaves)
    pending_residual = list(residual)

    while len(parts) > 1:
        best = None
        best_rows = None
        for i, j in itertools.combinations(range(len(parts)), 2):
            cond = join_condition(uf, parts[i], parts[j])
            trial = Join(parts[i], parts[j], "inner" if cond is not None else "cross", cond)
            rows = deriver.rows(trial)
            penalty = 1.0 if cond is not None else 1e6  # avoid crossproducts
            score = rows * penalty
            if best_rows is None or score < best_rows:
                best_rows = score
                best = (i, j, trial)
        i, j, joined = best
        # attach any residual conjuncts now covered
        applicable = [
            r
            for r in pending_residual
            if all(_resolves(joined.schema, ref.key) for ref in column_refs(r))
        ]
        for r in applicable:
            pending_residual.remove(r)
        if applicable:
            joined = Filter(joined, _and_all(applicable))
        parts = [p for k, p in enumerate(parts) if k not in (i, j)] + [joined]

    out = parts[0]
    if pending_residual:
        out = Filter(out, _and_all(pending_residual))
    return out


def join_condition(uf: _UnionFind, a: LogicalPlan, b: LogicalPlan) -> Expr | None:
    """All equivalence-class-implied equalities between ``a`` and ``b``:
    per class, its first column in ``a`` equals its first column in
    ``b``, in the order of ``a``'s columns. Each side's columns are
    indexed by class once, instead of comparing every pair."""
    first_b: dict[str, str] = {}
    for c in b.schema:
        first_b.setdefault(uf.find(c.name), c.name)
    conds: list[Expr] = []
    for c in a.schema:
        cb = first_b.pop(uf.find(c.name), None)
        if cb is not None:
            conds.append(BinaryOp("=", ColumnRef(c.name), ColumnRef(cb)))
    return _and_all(conds) if conds else None


def _equi_cols(conjunct: Expr) -> tuple[str, str] | None:
    if (
        isinstance(conjunct, BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, ColumnRef)
        and isinstance(conjunct.right, ColumnRef)
    ):
        return (conjunct.left.key, conjunct.right.key)
    return None


# ---------------------------------------------------------------------------
# column pruning
# ---------------------------------------------------------------------------


def prune_columns(plan: LogicalPlan) -> LogicalPlan:
    return _prune(plan, set(c.name for c in plan.schema))


def _prune(plan: LogicalPlan, needed: set[str]) -> LogicalPlan:
    if isinstance(plan, Scan):
        keep = [c for c in plan.schema if c.name in needed]
        if not keep:
            keep = [plan.schema.columns[0]]
        if len(keep) == len(plan.schema):
            return plan
        from ..common.schema import Schema

        return Scan(plan.table, plan.alias, Schema(keep))

    if isinstance(plan, Filter):
        child_needed = set(needed) | {r.key_resolved for r in _resolved_refs(plan.predicate, plan.child.schema)}
        return Filter(_prune(plan.child, child_needed), plan.predicate)

    if isinstance(plan, Project):
        kept_exprs = [(n, e) for n, e in plan.exprs if n in needed]
        if not kept_exprs:
            kept_exprs = [plan.exprs[0]]
        child_needed = set()
        for _, e in kept_exprs:
            child_needed |= {r.key_resolved for r in _resolved_refs(e, plan.child.schema)}
        return Project(_prune(plan.child, child_needed), tuple(kept_exprs))

    if isinstance(plan, Join):
        left_needed = {n for n in needed if _resolves(plan.left.schema, n)}
        right_needed = {n for n in needed if _resolves(plan.right.schema, n) and not _resolves(plan.left.schema, n)}
        if plan.condition is not None:
            for r in column_refs(plan.condition):
                lk = plan.left.schema.try_resolve(r.key) or plan.left.schema.try_resolve(r.name)
                rk = plan.right.schema.try_resolve(r.key) or plan.right.schema.try_resolve(r.name)
                if lk:
                    left_needed.add(lk)
                elif rk:
                    right_needed.add(rk)
        left_needed = {plan.left.schema.resolve(n) for n in left_needed if _resolves(plan.left.schema, n)}
        right_needed = {plan.right.schema.resolve(n) for n in right_needed if _resolves(plan.right.schema, n)}
        new = plan.with_children([
            _prune(plan.left, left_needed),
            _prune(plan.right, right_needed),
        ])
        return new

    if isinstance(plan, Aggregate):
        child_needed = set(plan.group_keys)
        for spec in plan.aggs:
            if spec.arg is not None:
                child_needed.add(spec.arg)
            if spec.valid_col is not None:
                child_needed.add(spec.valid_col)
        return Aggregate(_prune(plan.child, child_needed), plan.group_keys, plan.aggs)

    if isinstance(plan, Sort):
        child_needed = set(needed) | {k for k, _ in plan.keys}
        return Sort(_prune(plan.child, child_needed), plan.keys)

    if isinstance(plan, (Limit, Distinct)):
        child = _prune(plan.children()[0], needed)
        return plan.with_children([child])

    if isinstance(plan, UnionAll):
        return plan.with_children([_prune(c, set(c2.name for c2 in c.schema)) for c in plan.children()])

    return plan


@dataclass(frozen=True)
class _RRef:
    key_resolved: str


def _resolved_refs(expr: Expr, schema) -> list[_RRef]:
    out = []
    for r in column_refs(expr):
        k = schema.try_resolve(r.key) or schema.try_resolve(r.name)
        if k is not None:
            out.append(_RRef(k))
    return out


# ---------------------------------------------------------------------------
# cost-based group-by pushdown (eager aggregation)
# ---------------------------------------------------------------------------

_PUSHABLE = {"SUM", "COUNT", "MIN", "MAX"}


def apply_groupby_pushdown(plan: LogicalPlan, deriver: StatsDeriver) -> LogicalPlan:
    children = [apply_groupby_pushdown(c, deriver) for c in plan.children()]
    if children != plan.children():
        plan = plan.with_children(children)
    if not isinstance(plan, Aggregate):
        return plan
    rewritten = _try_eager_aggregation(plan, deriver)
    return rewritten if rewritten is not None else plan


def _try_eager_aggregation(agg: Aggregate, deriver: StatsDeriver) -> LogicalPlan | None:
    child = agg.child
    # peel a projection that is a pure rename/passthrough
    proj = None
    if isinstance(child, Project) and all(isinstance(e, ColumnRef) for _, e in child.exprs):
        proj = child
        child = child.child
    if not isinstance(child, Join) or child.kind != "inner" or child.condition is None:
        return None
    join = child
    eq_pairs, residual = split_join_condition(join.condition, join.left.schema, join.right.schema)
    if not eq_pairs or residual:
        return None

    name_map = {n: e.key for n, e in proj.exprs} if proj else {}

    def to_join_col(col: str) -> str | None:
        src = name_map.get(col, col)
        for side in (join.left.schema, join.right.schema):
            k = side.try_resolve(src)
            if k:
                return k
        return None

    # all aggregate inputs must come from one join side
    agg_args = [s.arg for s in agg.aggs if s.arg is not None]
    if any(s.distinct or s.func not in _PUSHABLE or s.valid_col for s in agg.aggs):
        return None
    arg_cols = [to_join_col(a) for a in agg_args]
    if any(a is None for a in arg_cols):
        return None
    left_side = all(_resolves(join.left.schema, a) for a in arg_cols)
    right_side = all(_resolves(join.right.schema, a) for a in arg_cols)
    if left_side:
        side, other, keys = join.left, join.right, [lk for lk, _ in eq_pairs]
    elif right_side:
        side, other, keys = join.right, join.left, [rk for _, rk in eq_pairs]
    else:
        return None
    if not all(_resolves(side.schema, k) for k in keys):
        return None

    # group keys on the aggregation side (others must live on the other side)
    side_group = []
    for g in agg.group_keys:
        jc = to_join_col(g)
        if jc is not None and _resolves(side.schema, jc):
            side_group.append(side.schema.resolve(jc))
        elif jc is not None and _resolves(other.schema, jc):
            continue
        else:
            return None

    pre_keys = tuple(dict.fromkeys([side.schema.resolve(k) for k in keys] + side_group))
    # cost check: eager aggregation must meaningfully shrink the side
    side_rows = deriver.rows(side)
    pre = Aggregate(
        side,
        pre_keys,
        tuple(
            AggSpec(s.name + "__p", "COUNT" if s.func == "COUNT" else s.func, None if s.arg is None else side.schema.resolve(to_join_col(s.arg)), False)
            for s in agg.aggs
        ),
    )
    pre_rows = deriver.rows(pre)
    if side_rows < 2.0 * pre_rows:
        return None  # not worth it (paper: "only sometimes beneficial")

    # rebuild: join pre-aggregated side with the other side, then final agg
    if left_side:
        new_join = Join(pre, other, "inner", join.condition)
    else:
        new_join = Join(other, pre, "inner", join.condition)
    # final aggregate over partials: SUM of partial SUM/COUNT, MIN/MAX direct
    final_specs = []
    for s in agg.aggs:
        func = "SUM" if s.func in ("SUM", "COUNT") else s.func
        final_specs.append(AggSpec(s.name, func, s.name + "__p", False))
    # map the original group keys into the new join's schema
    new_keys = []
    for g in agg.group_keys:
        jc = to_join_col(g)
        new_keys.append(new_join.schema.resolve(jc if jc else g))
    try:
        final = Aggregate(new_join, tuple(new_keys), tuple(final_specs))
    except Exception:
        return None
    if list(final.schema.names()) != list(agg.schema.names()):
        # re-project to the original output names
        exprs = []
        for orig, new in zip(agg.schema.names(), final.schema.names()):
            exprs.append((orig, ColumnRef(new)))
        return Project(final, tuple(exprs))
    return final


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _split_and(expr: Expr) -> list[Expr]:
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _split_and(expr.left) + _split_and(expr.right)
    return [expr]


def _and_all(conjuncts: list[Expr]) -> Expr:
    out = conjuncts[0]
    for c in conjuncts[1:]:
        out = BinaryOp("AND", out, c)
    return out


def _resolves(schema, key: str) -> bool:
    return schema.try_resolve(key) is not None


def _base(key: str) -> str:
    return key.rsplit(".", 1)[-1]
