"""Recursive-descent SQL parser.

Covers the dialect needed for the full TPC-H workload plus the DDL/DML
used by the transaction layer: SELECT with joins (comma and explicit,
including outer joins), derived tables, WITH, correlated and
uncorrelated subqueries (IN / EXISTS / scalar), CASE, LIKE, BETWEEN,
IN lists, date literals and INTERVAL arithmetic, EXTRACT, SUBSTRING,
aggregates with DISTINCT, GROUP BY / HAVING / ORDER BY / LIMIT, and
CREATE TABLE / INSERT / DELETE / UPDATE / DROP.
"""

from __future__ import annotations

from ..common.dates import date_to_days
from ..common.dtypes import DataType
from ..common.errors import ParseError
from .ast import (
    Between,
    BinaryOp,
    CaseExpr,
    ColumnDef,
    ColumnRef,
    CreateTable,
    DeleteStmt,
    DropTable,
    Exists,
    Expr,
    FromItem,
    FuncCall,
    InList,
    InSubquery,
    InsertValues,
    IsNull,
    JoinRef,
    Like,
    Literal,
    OrderItem,
    ScalarSubquery,
    SelectItem,
    SelectStmt,
    SubqueryRef,
    TableRef,
    UnaryOp,
    UpdateStmt,
)
from .lexer import TokKind, Token, tokenize


def parse(sql: str):
    """Parse one SQL statement."""
    return Parser(tokenize(sql)).parse_statement()


def parse_expr(sql: str) -> Expr:
    """Parse a standalone scalar/boolean expression (tests, tools)."""
    p = Parser(tokenize(sql))
    e = p.expr()
    p.expect_eof()
    return e


class Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    # -- token helpers -----------------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != TokKind.EOF:
            self.i += 1
        return tok

    def accept_kw(self, *names: str) -> bool:
        if self.peek().is_kw(*names):
            self.next()
            return True
        return False

    def accept_op(self, op: str) -> bool:
        t = self.peek()
        if t.kind == TokKind.OP and t.text == op:
            self.next()
            return True
        return False

    def expect_kw(self, *names: str) -> Token:
        t = self.peek()
        if not t.is_kw(*names):
            raise ParseError(f"expected {'/'.join(names)}, found {t}", t.text)
        return self.next()

    def expect_op(self, op: str) -> Token:
        t = self.peek()
        if t.kind != TokKind.OP or t.text != op:
            raise ParseError(f"expected {op!r}, found {t}", t.text)
        return self.next()

    def expect_ident(self) -> str:
        t = self.peek()
        if t.kind not in (TokKind.IDENT, TokKind.KEYWORD):
            raise ParseError(f"expected identifier, found {t}", t.text)
        return self.next().text

    def expect_eof(self) -> None:
        self.accept_op(";")
        t = self.peek()
        if t.kind != TokKind.EOF:
            raise ParseError(f"unexpected trailing input at {t}", t.text)

    # -- statements ------------------------------------------------------------
    def parse_statement(self):
        t = self.peek()
        if t.is_kw("SELECT", "WITH"):
            stmt = self.select_stmt()
        elif t.is_kw("CREATE"):
            stmt = self.create_table()
        elif t.is_kw("INSERT"):
            stmt = self.insert_stmt()
        elif t.is_kw("DELETE"):
            stmt = self.delete_stmt()
        elif t.is_kw("UPDATE"):
            stmt = self.update_stmt()
        elif t.is_kw("DROP"):
            stmt = self.drop_stmt()
        else:
            raise ParseError(f"unsupported statement start: {t}", t.text)
        self.expect_eof()
        return stmt

    # -- SELECT -----------------------------------------------------------------
    def select_stmt(self) -> SelectStmt:
        ctes: list[tuple[str, SelectStmt]] = []
        if self.accept_kw("WITH"):
            while True:
                name = self.expect_ident()
                self.expect_kw("AS")
                self.expect_op("(")
                ctes.append((name.lower(), self.select_stmt()))
                self.expect_op(")")
                if not self.accept_op(","):
                    break
        first = self.select_core()
        unions: list[SelectStmt] = []
        while self.peek().is_kw("UNION"):
            self.next()
            self.expect_kw("ALL")  # bag semantics only (UNION DISTINCT unsupported)
            unions.append(self.select_core())
        order_by: list[OrderItem] = []
        if self.accept_kw("ORDER"):
            self.expect_kw("BY")
            while True:
                e = self.expr()
                asc = True
                if self.accept_kw("DESC"):
                    asc = False
                else:
                    self.accept_kw("ASC")
                order_by.append(OrderItem(e, asc))
                if not self.accept_op(","):
                    break
        limit = None
        if self.accept_kw("LIMIT"):
            t = self.next()
            if t.kind != TokKind.NUMBER:
                raise ParseError("LIMIT expects a number", t.text)
            limit = int(t.text)
        return SelectStmt(
            items=first.items,
            from_items=first.from_items,
            where=first.where,
            group_by=first.group_by,
            having=first.having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=first.distinct,
            ctes=tuple(ctes),
            union_all=tuple(unions),
        )

    def select_core(self) -> SelectStmt:
        """SELECT ... [FROM ...] [WHERE ...] [GROUP BY ...] [HAVING ...]
        without set-operation / ORDER BY / LIMIT tails."""
        self.expect_kw("SELECT")
        distinct = self.accept_kw("DISTINCT")
        self.accept_kw("ALL")
        items = [self.select_item()]
        while self.accept_op(","):
            items.append(self.select_item())
        from_items: list[FromItem] = []
        if self.accept_kw("FROM"):
            from_items.append(self.from_item())
            while self.accept_op(","):
                from_items.append(self.from_item())
        where = self.expr() if self.accept_kw("WHERE") else None
        group_by: list[Expr] = []
        if self.accept_kw("GROUP"):
            self.expect_kw("BY")
            group_by.append(self.expr())
            while self.accept_op(","):
                group_by.append(self.expr())
        having = self.expr() if self.accept_kw("HAVING") else None
        return SelectStmt(
            items=tuple(items),
            from_items=tuple(from_items),
            where=where,
            group_by=tuple(group_by),
            having=having,
            distinct=distinct,
        )

    def select_item(self) -> SelectItem:
        if self.peek().kind == TokKind.OP and self.peek().text == "*":
            self.next()
            return SelectItem(ColumnRef("*"), None)
        e = self.expr()
        alias = None
        if self.accept_kw("AS"):
            alias = self.expect_ident().lower()
        elif self.peek().kind == TokKind.IDENT:
            alias = self.next().text.lower()
        return SelectItem(e, alias)

    def from_item(self) -> FromItem:
        item = self.from_primary()
        while True:
            t = self.peek()
            if t.is_kw("JOIN", "INNER", "LEFT", "RIGHT", "FULL", "CROSS"):
                kind = "inner"
                if self.accept_kw("INNER"):
                    kind = "inner"
                elif self.accept_kw("LEFT"):
                    kind = "left"
                    self.accept_kw("OUTER")
                elif self.accept_kw("RIGHT"):
                    kind = "right"
                    self.accept_kw("OUTER")
                elif self.accept_kw("FULL"):
                    kind = "full"
                    self.accept_kw("OUTER")
                elif self.accept_kw("CROSS"):
                    kind = "cross"
                self.expect_kw("JOIN")
                right = self.from_primary()
                cond = None
                if kind != "cross":
                    self.expect_kw("ON")
                    cond = self.expr()
                item = JoinRef(item, right, kind, cond)
            else:
                return item

    def from_primary(self) -> FromItem:
        if self.accept_op("("):
            sub = self.select_stmt()
            self.expect_op(")")
            self.accept_kw("AS")
            alias = self.expect_ident().lower()
            return SubqueryRef(sub, alias)
        name = self.table_name()
        alias = None
        if self.accept_kw("AS"):
            alias = self.expect_ident().lower()
        elif self.peek().kind == TokKind.IDENT:
            alias = self.next().text.lower()
        return TableRef(name, alias)

    def table_name(self) -> str:
        """A possibly dotted relation name ("sys.queries"): the catalog
        stores the full dotted string as the table name, no schema
        object needed."""
        name = self.expect_ident().lower()
        if self.accept_op("."):
            name = f"{name}.{self.expect_ident().lower()}"
        return name

    # -- expressions --------------------------------------------------------------
    def expr(self) -> Expr:
        return self.or_expr()

    def or_expr(self) -> Expr:
        left = self.and_expr()
        while self.accept_kw("OR"):
            left = BinaryOp("OR", left, self.and_expr())
        return left

    def and_expr(self) -> Expr:
        left = self.not_expr()
        while self.accept_kw("AND"):
            left = BinaryOp("AND", left, self.not_expr())
        return left

    def not_expr(self) -> Expr:
        if self.accept_kw("NOT"):
            return UnaryOp("NOT", self.not_expr())
        return self.predicate()

    def predicate(self) -> Expr:
        if self.peek().is_kw("EXISTS"):
            self.next()
            self.expect_op("(")
            sub = self.select_stmt()
            self.expect_op(")")
            return Exists(sub)
        left = self.additive()
        t = self.peek()
        negated = False
        if t.is_kw("NOT"):
            nxt = self.peek(1)
            if nxt.is_kw("IN", "BETWEEN", "LIKE"):
                self.next()
                negated = True
                t = self.peek()
        if t.kind == TokKind.OP and t.text in ("=", "<>", "!=", "<", "<=", ">", ">="):
            self.next()
            op = "<>" if t.text == "!=" else t.text
            right = self.additive()
            return BinaryOp(op, left, right)
        if t.is_kw("IN"):
            self.next()
            self.expect_op("(")
            if self.peek().is_kw("SELECT", "WITH"):
                sub = self.select_stmt()
                self.expect_op(")")
                return InSubquery(left, sub, negated)
            items = [self.expr()]
            while self.accept_op(","):
                items.append(self.expr())
            self.expect_op(")")
            return InList(left, tuple(items), negated)
        if t.is_kw("BETWEEN"):
            self.next()
            lo = self.additive()
            self.expect_kw("AND")
            hi = self.additive()
            return Between(left, lo, hi, negated)
        if t.is_kw("LIKE"):
            self.next()
            pat = self.next()
            if pat.kind != TokKind.STRING:
                raise ParseError("LIKE expects a string literal", pat.text)
            return Like(left, pat.text, negated)
        if t.is_kw("IS"):
            self.next()
            neg = self.accept_kw("NOT")
            self.expect_kw("NULL")
            return IsNull(left, neg)
        return left

    def additive(self) -> Expr:
        left = self.multiplicative()
        while True:
            t = self.peek()
            if t.kind == TokKind.OP and t.text in ("+", "-"):
                self.next()
                # date +/- INTERVAL 'n' UNIT
                if self.peek().is_kw("INTERVAL"):
                    amount, unit = self.interval_literal()
                    if t.text == "-":
                        amount = -amount
                    if isinstance(left, Literal) and left.dtype == DataType.DATE:
                        # constant-fold so the bound stays a plain literal
                        # (keeps it usable as a data-skipping atom)
                        from ..common.dates import add_months, add_years

                        base = int(left.value)
                        if unit == "day":
                            folded = base + amount
                        elif unit == "month":
                            folded = add_months(base, amount)
                        else:
                            folded = add_years(base, amount)
                        left = Literal(folded, DataType.DATE)
                    else:
                        left = FuncCall(
                            "DATE_ADD",
                            (left, Literal(amount, DataType.INT64), Literal(unit, DataType.STRING)),
                        )
                else:
                    left = BinaryOp(t.text, left, self.multiplicative())
            elif t.kind == TokKind.OP and t.text == "||":
                self.next()
                left = FuncCall("CONCAT", (left, self.multiplicative()))
            else:
                return left

    def multiplicative(self) -> Expr:
        left = self.unary()
        while True:
            t = self.peek()
            if t.kind == TokKind.OP and t.text in ("*", "/", "%"):
                self.next()
                left = BinaryOp(t.text, left, self.unary())
            else:
                return left

    def unary(self) -> Expr:
        if self.accept_op("-"):
            return UnaryOp("-", self.unary())
        self.accept_op("+")
        return self.primary()

    def interval_literal(self) -> tuple[int, str]:
        self.expect_kw("INTERVAL")
        amt = self.next()
        if amt.kind not in (TokKind.STRING, TokKind.NUMBER):
            raise ParseError("INTERVAL expects a quantity", amt.text)
        unit_tok = self.expect_kw("YEAR", "MONTH", "DAY")
        return int(amt.text), unit_tok.upper.lower()

    def primary(self) -> Expr:
        t = self.peek()
        if t.kind == TokKind.NUMBER:
            self.next()
            if "." in t.text:
                return Literal(float(t.text), DataType.DECIMAL)
            return Literal(int(t.text), DataType.INT64)
        if t.kind == TokKind.STRING:
            self.next()
            return Literal(t.text, DataType.STRING)
        if t.is_kw("TRUE"):
            self.next()
            return Literal(True, DataType.BOOL)
        if t.is_kw("FALSE"):
            self.next()
            return Literal(False, DataType.BOOL)
        if t.is_kw("NULL"):
            self.next()
            return Literal(None, DataType.STRING)
        if t.is_kw("DATE"):
            self.next()
            lit = self.next()
            if lit.kind != TokKind.STRING:
                raise ParseError("DATE expects a string literal", lit.text)
            return Literal(date_to_days(lit.text), DataType.DATE)
        if t.is_kw("INTERVAL"):
            raise ParseError("INTERVAL only supported in date arithmetic")
        if t.is_kw("CASE"):
            return self.case_expr()
        if t.is_kw("EXTRACT"):
            self.next()
            self.expect_op("(")
            unit = self.expect_kw("YEAR", "MONTH", "DAY")
            self.expect_kw("FROM")
            arg = self.expr()
            self.expect_op(")")
            return FuncCall(unit.upper, (arg,))
        if t.is_kw("SUBSTRING"):
            self.next()
            self.expect_op("(")
            arg = self.expr()
            if self.accept_kw("FROM"):
                start = self.expr()
                length = None
                if self.accept_kw("FOR"):
                    length = self.expr()
            else:
                self.expect_op(",")
                start = self.expr()
                length = None
                if self.accept_op(","):
                    length = self.expr()
            self.expect_op(")")
            args = (arg, start) + ((length,) if length is not None else ())
            return FuncCall("SUBSTRING", args)
        if self.accept_op("("):
            if self.peek().is_kw("SELECT", "WITH"):
                sub = self.select_stmt()
                self.expect_op(")")
                return ScalarSubquery(sub)
            e = self.expr()
            self.expect_op(")")
            return e
        # identifier: column ref or function call
        if t.kind in (TokKind.IDENT, TokKind.KEYWORD):
            name = self.next().text
            if self.accept_op("("):
                return self.finish_func(name.upper())
            if self.accept_op("."):
                col = self.expect_ident()
                return ColumnRef(col.lower(), name.lower())
            return ColumnRef(name.lower())
        raise ParseError(f"unexpected token {t}", t.text)

    def finish_func(self, name: str) -> Expr:
        if name == "COUNT" and self.peek().kind == TokKind.OP and self.peek().text == "*":
            self.next()
            self.expect_op(")")
            return FuncCall("COUNT", (), star=True)
        distinct = self.accept_kw("DISTINCT")
        args: list[Expr] = []
        if not (self.peek().kind == TokKind.OP and self.peek().text == ")"):
            args.append(self.expr())
            while self.accept_op(","):
                args.append(self.expr())
        self.expect_op(")")
        return FuncCall(name, tuple(args), distinct=distinct)

    def case_expr(self) -> Expr:
        self.expect_kw("CASE")
        whens: list[tuple[Expr, Expr]] = []
        # only searched CASE (TPC-H uses searched form)
        while self.accept_kw("WHEN"):
            cond = self.expr()
            self.expect_kw("THEN")
            result = self.expr()
            whens.append((cond, result))
        else_ = self.expr() if self.accept_kw("ELSE") else None
        self.expect_kw("END")
        if not whens:
            raise ParseError("CASE requires at least one WHEN")
        return CaseExpr(tuple(whens), else_)

    # -- DDL / DML --------------------------------------------------------------
    def create_table(self):
        self.expect_kw("CREATE")
        if not self.peek().is_kw("TABLE"):
            # CREATE INDEX name ON table (column)
            from .ast import CreateIndex

            kw = self.expect_ident()
            if kw.upper() != "INDEX":
                raise ParseError(f"expected TABLE or INDEX, found {kw}")
            idx_name = self.expect_ident().lower()
            on = self.expect_ident()
            if on.upper() != "ON":
                raise ParseError("expected ON")
            table = self.expect_ident().lower()
            self.expect_op("(")
            column = self.expect_ident().lower()
            self.expect_op(")")
            return CreateIndex(idx_name, table, column)
        self.expect_kw("TABLE")
        name = self.table_name()
        self.expect_op("(")
        cols: list[ColumnDef] = []
        while True:
            cname = self.expect_ident().lower()
            type_name = self.expect_ident()
            if self.accept_op("("):  # DECIMAL(12,2), CHAR(25), ...
                while not self.accept_op(")"):
                    self.next()
            cols.append(ColumnDef(cname, DataType.from_sql(type_name)))
            if not self.accept_op(","):
                break
        self.expect_op(")")
        partition = None
        fmt = "column"
        clustering: tuple[str, ...] = ()
        while True:
            if self.accept_kw("PARTITION"):
                self.expect_kw("BY")
                if self.accept_kw("HASH"):
                    self.expect_op("(")
                    pcols = [self.expect_ident().lower()]
                    while self.accept_op(","):
                        pcols.append(self.expect_ident().lower())
                    self.expect_op(")")
                    partition = ("hash", tuple(pcols))
                elif self.accept_kw("REPLICATED"):
                    partition = ("replicated", ())
                else:
                    raise ParseError("unsupported partition clause")
            elif self.accept_kw("CLUSTER"):
                self.expect_kw("BY")
                self.expect_op("(")
                ccols = [self.expect_ident().lower()]
                while self.accept_op(","):
                    ccols.append(self.expect_ident().lower())
                self.expect_op(")")
                clustering = tuple(ccols)
            elif self.accept_kw("ROW"):
                fmt = "row"
            elif self.accept_kw("COLUMN"):
                fmt = "column"
            else:
                break
        return CreateTable(name, tuple(cols), partition, fmt, clustering)

    def insert_stmt(self) -> InsertValues:
        self.expect_kw("INSERT")
        self.expect_kw("INTO")
        table = self.table_name()
        self.expect_kw("VALUES")
        rows: list[tuple[Expr, ...]] = []
        while True:
            self.expect_op("(")
            row = [self.expr()]
            while self.accept_op(","):
                row.append(self.expr())
            self.expect_op(")")
            rows.append(tuple(row))
            if not self.accept_op(","):
                break
        return InsertValues(table, tuple(rows))

    def delete_stmt(self) -> DeleteStmt:
        self.expect_kw("DELETE")
        self.expect_kw("FROM")
        table = self.table_name()
        where = self.expr() if self.accept_kw("WHERE") else None
        return DeleteStmt(table, where)

    def update_stmt(self) -> UpdateStmt:
        self.expect_kw("UPDATE")
        table = self.table_name()
        self.expect_kw("SET")
        assigns: list[tuple[str, Expr]] = []
        while True:
            col = self.expect_ident().lower()
            self.expect_op("=")
            assigns.append((col, self.expr()))
            if not self.accept_op(","):
                break
        where = self.expr() if self.accept_kw("WHERE") else None
        return UpdateStmt(table, tuple(assigns), where)

    def drop_stmt(self) -> DropTable:
        self.expect_kw("DROP")
        self.expect_kw("TABLE")
        return DropTable(self.table_name())
