"""Logical plan algebra.

The binder lowers a parsed ``SelectStmt`` into this algebra; the
optimizer's Phase 1 (heuristic + cost-based global optimization, paper
§V) rewrites it; the dataflow phases then convert it into a distributed
physical plan.

Conventions that keep the algebra small:

* ``Aggregate`` consumes *columns*, never expressions — a ``Project``
  below it computes group keys and aggregate inputs; a ``Project`` above
  it computes final expressions (e.g. ``sum(a)/sum(b)``).
* Join kinds: ``inner``, ``cross``, ``left``, ``semi``, ``anti`` and
  ``single`` (scalar-subquery join: right side is guaranteed at most one
  row per match group; used by decorrelation).
* Every node owns its output :class:`Schema`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..common.dtypes import DataType
from ..common.errors import PlanError
from ..common.schema import Column, Schema
from ..sql.ast import BinaryOp, Expr, column_refs

_counter = itertools.count()


def fresh_name(prefix: str) -> str:
    """Unique intra-plan column name.

    Zero-padded so lexicographic order equals creation order regardless
    of the counter's absolute value — several rewrite passes sort by
    stringified expressions, and planning must be deterministic per
    statement, not dependent on how many statements ran before.
    """
    return f"__{prefix}{next(_counter):06d}"


def reset_fresh_names() -> None:
    """Restart the counter; call only at top-level statement entry
    (names must stay unique within one plan, not across plans)."""
    global _counter
    _counter = itertools.count()


class LogicalPlan:
    schema: Schema

    def children(self) -> list["LogicalPlan"]:
        return []

    def with_children(self, children: list["LogicalPlan"]) -> "LogicalPlan":
        raise NotImplementedError

    # -- pretty printing ---------------------------------------------------------
    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [pad + self.describe()]
        for c in self.children():
            lines.append(c.pretty(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return type(self).__name__


@dataclass
class Scan(LogicalPlan):
    table: str
    alias: Optional[str]
    schema: Schema

    def with_children(self, children):
        assert not children
        return self

    def describe(self) -> str:
        a = f" AS {self.alias}" if self.alias else ""
        return f"Scan({self.table}{a})"


@dataclass
class Filter(LogicalPlan):
    child: LogicalPlan
    predicate: Expr

    def __post_init__(self):
        self.schema = self.child.schema

    def children(self):
        return [self.child]

    def with_children(self, children):
        return Filter(children[0], self.predicate)

    def describe(self) -> str:
        return f"Filter({self.predicate})"


@dataclass
class Project(LogicalPlan):
    child: LogicalPlan
    exprs: tuple[tuple[str, Expr], ...]  # (output name, expression)
    schema: Schema = field(init=False)

    def __post_init__(self):
        from ..sql.compiler import infer_type

        cols = []
        for name, e in self.exprs:
            cols.append(Column(name, infer_type(e, self.child.schema)))
        self.schema = Schema(cols)

    def children(self):
        return [self.child]

    def with_children(self, children):
        return Project(children[0], self.exprs)

    def describe(self) -> str:
        inner = ", ".join(f"{n}={e}" for n, e in self.exprs)
        return f"Project({inner})"


JOIN_KINDS = ("inner", "cross", "left", "semi", "anti", "single")


@dataclass
class Join(LogicalPlan):
    left: LogicalPlan
    right: LogicalPlan
    kind: str
    condition: Optional[Expr]  # None only for cross
    schema: Schema = field(init=False)

    def __post_init__(self):
        if self.kind not in JOIN_KINDS:
            raise PlanError(f"unknown join kind {self.kind}")
        if self.kind in ("semi", "anti"):
            self.schema = self.left.schema
        elif self.kind == "left":
            # validity marker for the nullable side
            cols = list(self.left.schema.columns) + list(self.right.schema.columns)
            cols.append(Column(fresh_name("match"), DataType.BOOL))
            self.schema = Schema(cols)
        else:
            self.schema = self.left.schema.concat(self.right.schema)

    @property
    def match_column(self) -> str | None:
        if self.kind == "left":
            return self.schema.columns[-1].name
        return None

    def children(self):
        return [self.left, self.right]

    def with_children(self, children):
        j = Join(children[0], children[1], self.kind, self.condition)
        if self.kind == "left":
            # keep the original match-column name stable across rewrites
            old = self.schema.columns[-1].name
            cols = list(j.schema.columns[:-1]) + [Column(old, DataType.BOOL)]
            j.schema = Schema(cols)
        return j

    def describe(self) -> str:
        return f"Join[{self.kind}]({self.condition})"


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: ``func(arg_column)`` named ``name`` in the output."""

    name: str
    func: str  # SUM | AVG | COUNT | MIN | MAX
    arg: Optional[str]  # None for COUNT(*)
    distinct: bool = False
    valid_col: Optional[str] = None  # COUNT over an outer join's matches


@dataclass
class Aggregate(LogicalPlan):
    child: LogicalPlan
    group_keys: tuple[str, ...]  # column names in child schema
    aggs: tuple[AggSpec, ...]
    schema: Schema = field(init=False)

    def __post_init__(self):
        cols = [self.child.schema.column(k) for k in self.group_keys]
        for spec in self.aggs:
            cols.append(Column(spec.name, _agg_type(spec, self.child.schema)))
        self.schema = Schema(cols)

    def children(self):
        return [self.child]

    def with_children(self, children):
        return Aggregate(children[0], self.group_keys, self.aggs)

    def describe(self) -> str:
        aggs = ", ".join(
            f"{a.name}={a.func}({'DISTINCT ' if a.distinct else ''}{a.arg or '*'})"
            for a in self.aggs
        )
        return f"Aggregate(keys={list(self.group_keys)}, {aggs})"


def _agg_type(spec: AggSpec, child_schema: Schema) -> DataType:
    if spec.func == "COUNT":
        return DataType.INT64
    if spec.arg is None:
        raise PlanError(f"{spec.func} requires an argument")
    at = child_schema.dtype_of(spec.arg)
    if spec.func == "AVG":
        return DataType.FLOAT64
    if spec.func == "SUM":
        return at if at in (DataType.FLOAT64, DataType.DECIMAL) else DataType.INT64 if at == DataType.INT64 else at
    return at  # MIN/MAX preserve type


@dataclass
class Sort(LogicalPlan):
    child: LogicalPlan
    keys: tuple[tuple[str, bool], ...]  # (column, ascending)

    def __post_init__(self):
        self.schema = self.child.schema

    def children(self):
        return [self.child]

    def with_children(self, children):
        return Sort(children[0], self.keys)

    def describe(self) -> str:
        ks = ", ".join(f"{c}{'' if a else ' DESC'}" for c, a in self.keys)
        return f"Sort({ks})"


@dataclass
class Limit(LogicalPlan):
    child: LogicalPlan
    n: int

    def __post_init__(self):
        self.schema = self.child.schema

    def children(self):
        return [self.child]

    def with_children(self, children):
        return Limit(children[0], self.n)

    def describe(self) -> str:
        return f"Limit({self.n})"


@dataclass
class Distinct(LogicalPlan):
    child: LogicalPlan

    def __post_init__(self):
        self.schema = self.child.schema

    def children(self):
        return [self.child]

    def with_children(self, children):
        return Distinct(children[0])


@dataclass
class UnionAll(LogicalPlan):
    inputs: tuple[LogicalPlan, ...]

    def __post_init__(self):
        self.schema = self.inputs[0].schema

    def children(self):
        return list(self.inputs)

    def with_children(self, children):
        return UnionAll(tuple(children))


def walk(plan: LogicalPlan):
    """Pre-order traversal."""
    yield plan
    for c in plan.children():
        yield from walk(c)


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
