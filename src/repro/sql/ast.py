"""SQL abstract syntax tree.

Plain dataclasses; the parser builds these, the optimizer rewrites them,
and the expression compiler lowers scalar expressions to vectorized
NumPy evaluators. Aggregate calls and subqueries survive in the AST
until the optimizer splits/decorrelates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.dtypes import DataType

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base expression node."""

    def children(self) -> list["Expr"]:
        return []


@dataclass(frozen=True)
class Literal(Expr):
    value: object
    dtype: DataType

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    qualifier: Optional[str] = None

    @property
    def key(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name

    def __str__(self) -> str:
        return self.key


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic (+ - * /), comparison (= <> < <= > >=), AND, OR."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> list[Expr]:
        return [self.left, self.right]

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # 'NOT' | '-'
    operand: Expr

    def children(self) -> list[Expr]:
        return [self.operand]

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass(frozen=True)
class FuncCall(Expr):
    """Scalar or aggregate function call."""

    name: str  # upper-cased
    args: tuple[Expr, ...]
    distinct: bool = False
    star: bool = False  # COUNT(*)

    def children(self) -> list[Expr]:
        return list(self.args)

    def __str__(self) -> str:
        inner = "*" if self.star else ", ".join(map(str, self.args))
        d = "DISTINCT " if self.distinct else ""
        return f"{self.name}({d}{inner})"


AGGREGATE_FUNCS = frozenset({"SUM", "AVG", "COUNT", "MIN", "MAX"})


def is_aggregate(expr: Expr) -> bool:
    if isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCS:
        return True
    return any(is_aggregate(c) for c in expr.children())


@dataclass(frozen=True)
class CaseExpr(Expr):
    whens: tuple[tuple[Expr, Expr], ...]
    else_: Optional[Expr]

    def children(self) -> list[Expr]:
        out: list[Expr] = []
        for c, r in self.whens:
            out += [c, r]
        if self.else_ is not None:
            out.append(self.else_)
        return out

    def __str__(self) -> str:
        parts = " ".join(f"WHEN {c} THEN {r}" for c, r in self.whens)
        e = f" ELSE {self.else_}" if self.else_ is not None else ""
        return f"CASE {parts}{e} END"


@dataclass(frozen=True)
class InList(Expr):
    expr: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def children(self) -> list[Expr]:
        return [self.expr, *self.items]

    def __str__(self) -> str:
        n = "NOT " if self.negated else ""
        return f"({self.expr} {n}IN ({', '.join(map(str, self.items))}))"


@dataclass(frozen=True)
class Like(Expr):
    expr: Expr
    pattern: str
    negated: bool = False

    def children(self) -> list[Expr]:
        return [self.expr]

    def __str__(self) -> str:
        n = "NOT " if self.negated else ""
        return f"({self.expr} {n}LIKE {self.pattern!r})"


@dataclass(frozen=True)
class Between(Expr):
    expr: Expr
    lo: Expr
    hi: Expr
    negated: bool = False

    def children(self) -> list[Expr]:
        return [self.expr, self.lo, self.hi]

    def __str__(self) -> str:
        n = "NOT " if self.negated else ""
        return f"({self.expr} {n}BETWEEN {self.lo} AND {self.hi})"


@dataclass(frozen=True)
class IsNull(Expr):
    expr: Expr
    negated: bool = False

    def children(self) -> list[Expr]:
        return [self.expr]


# Subquery expressions reference a SelectStmt (defined below).


@dataclass(frozen=True)
class InSubquery(Expr):
    expr: Expr
    subquery: "SelectStmt"
    negated: bool = False

    def children(self) -> list[Expr]:
        return [self.expr]

    def __str__(self) -> str:
        n = "NOT " if self.negated else ""
        return f"({self.expr} {n}IN (<subquery>))"


@dataclass(frozen=True)
class Exists(Expr):
    subquery: "SelectStmt"
    negated: bool = False

    def __str__(self) -> str:
        n = "NOT " if self.negated else ""
        return f"({n}EXISTS (<subquery>))"


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    subquery: "SelectStmt"

    def __str__(self) -> str:
        return "(<scalar subquery>)"


def contains_subquery(expr: Expr) -> bool:
    if isinstance(expr, (InSubquery, Exists, ScalarSubquery)):
        return True
    return any(contains_subquery(c) for c in expr.children())


def column_refs(expr: Expr) -> list[ColumnRef]:
    """All column references in an expression (not descending subqueries)."""
    out: list[ColumnRef] = []
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, ColumnRef):
            out.append(e)
        stack.extend(e.children())
    return out


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None

    def output_name(self, position: int) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        return f"col{position}"


class FromItem:
    pass


@dataclass(frozen=True)
class TableRef(FromItem):
    name: str
    alias: Optional[str] = None


@dataclass(frozen=True)
class SubqueryRef(FromItem):
    select: "SelectStmt"
    alias: str


@dataclass(frozen=True)
class JoinRef(FromItem):
    left: FromItem
    right: FromItem
    kind: str  # 'inner' | 'left' | 'right' | 'full' | 'cross'
    condition: Optional[Expr]


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    ascending: bool = True


@dataclass(frozen=True)
class SelectStmt:
    items: tuple[SelectItem, ...]
    from_items: tuple[FromItem, ...]
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False
    ctes: tuple[tuple[str, "SelectStmt"], ...] = ()
    #: UNION ALL branches appended after this select; ORDER BY / LIMIT on
    #: this statement then apply to the whole union
    union_all: tuple["SelectStmt", ...] = ()


# -- DDL / DML ---------------------------------------------------------------


@dataclass(frozen=True)
class ColumnDef:
    name: str
    dtype: DataType


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: tuple[ColumnDef, ...]
    partition: Optional[tuple[str, tuple[str, ...]]] = None  # ('hash'|'replicated', cols)
    fmt: str = "column"
    clustering: tuple[str, ...] = ()


@dataclass(frozen=True)
class InsertValues:
    table: str
    rows: tuple[tuple[Expr, ...], ...]


@dataclass(frozen=True)
class DeleteStmt:
    table: str
    where: Optional[Expr]


@dataclass(frozen=True)
class UpdateStmt:
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Optional[Expr]


@dataclass(frozen=True)
class CreateIndex:
    name: str
    table: str
    column: str


@dataclass(frozen=True)
class DropTable:
    name: str


Statement = object  # SelectStmt | CreateTable | InsertValues | DeleteStmt | UpdateStmt | DropTable
