"""Expression compiler: AST -> vectorized NumPy evaluators.

``compile_expr`` lowers a scalar/boolean expression into a closure
``fn(batch) -> column`` evaluated column-at-a-time, so the per-row
interpreter overhead of classic Volcano engines is amortized across the
batch (the reproduction's stand-in for HRDBMS's compiled Java operators).
A STRING expression yields a :class:`~repro.common.batch.DictColumn`:
comparisons, ``IN``, ``LIKE`` and ``substring`` run once per dictionary
entry and gather through the codes.

``to_scan_predicate`` additionally extracts a sound canonical
:class:`~repro.storage.predicate_cache.ScanPredicate` from a predicate
for the data-skipping layer: simple conjuncts become atoms, prefix LIKEs
become range atoms, everything else becomes an opaque fingerprint whose
conjunction with the atoms is exactly the original predicate (required
for soundness of the cache).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..common.batch import DictColumn, RowBatch, StringDictionary
from ..common.dates import add_months, add_years, days_to_month, days_to_year
from ..common.dtypes import DataType, common_type
from ..common.errors import BindError, PlanError
from ..common.schema import Schema
from ..storage.predicate_cache import Atom, Op, ScanPredicate
from .ast import (
    Between,
    BinaryOp,
    CaseExpr,
    ColumnRef,
    Exists,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Like,
    Literal,
    ScalarSubquery,
    UnaryOp,
    is_aggregate,
)


@dataclass(frozen=True)
class Compiled:
    fn: Callable[[RowBatch], np.ndarray]
    dtype: DataType


#: (schema id, expr) -> Compiled. Expr nodes are frozen dataclasses
#: (structural hash); schemas are compared by identity because plans —
#: and their op schemas — are reused verbatim by the plan cache, so
#: repeat executions hit without the cost of structural schema hashing.
#: Compiled closures are pure functions of (expr, schema): safe to share
#: across queries and threads.
_COMPILE_CACHE: dict[tuple[int, Expr], tuple[Schema, Compiled]] = {}
_COMPILE_CACHE_MAX = 4096


def compile_expr(expr: Expr, schema: Schema) -> Compiled:
    if is_aggregate(expr):
        raise PlanError(f"aggregate {expr} must be split out before compilation")
    key = (id(schema), expr)
    try:
        hit = _COMPILE_CACHE.get(key)
    except TypeError:  # unhashable literal somewhere in the tree
        return _compile(expr, schema)
    # the schema ref in the value keeps the id from being recycled
    if hit is not None and hit[0] is schema:
        return hit[1]
    compiled = _compile(expr, schema)
    if len(_COMPILE_CACHE) >= _COMPILE_CACHE_MAX:
        _COMPILE_CACHE.clear()
    _COMPILE_CACHE[key] = (schema, compiled)
    return compiled


def compile_predicate(expr: Expr, schema: Schema) -> Callable[[RowBatch], np.ndarray]:
    c = compile_expr(expr, schema)
    if c.dtype != DataType.BOOL:
        raise PlanError(f"predicate {expr} is not boolean")

    def fn(batch: RowBatch) -> np.ndarray:
        return np.asarray(c.fn(batch), dtype=bool)

    return fn


def infer_type(expr: Expr, schema: Schema) -> DataType:
    return _compile(expr, schema).dtype


def _broadcast(value, dtype: DataType):
    def fn(batch: RowBatch) -> np.ndarray:
        return np.full(batch.length, value, dtype=dtype.numpy_dtype)

    return fn


#: the operators, not the ufuncs: a string operand is a DictColumn, which
#: answers them per dictionary entry
_CMP = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_ARITH = {"+": np.add, "-": np.subtract, "*": np.multiply, "%": np.mod}


def _compile(expr: Expr, schema: Schema) -> Compiled:
    if isinstance(expr, Literal):
        if expr.value is None:
            raise PlanError("NULL literals are only supported in IS NULL rewrites")
        dt = expr.dtype
        val = expr.value
        if dt == DataType.STRING:

            entry = StringDictionary([val])

            def str_fn(batch: RowBatch) -> DictColumn:
                return DictColumn(np.zeros(batch.length, dtype=np.uint32), entry)

            return Compiled(str_fn, dt)
        return Compiled(_broadcast(val, dt), dt)

    if isinstance(expr, ColumnRef):
        key = schema.try_resolve(expr.key)
        if key is None and expr.qualifier:
            key = schema.try_resolve(expr.name)
        if key is None:
            raise BindError(f"unknown column {expr.key!r} in {schema.names()}")
        dt = schema.dtype_of(key)
        return Compiled(lambda batch, k=key: batch.col(k), dt)

    if isinstance(expr, BinaryOp):
        if expr.op in ("AND", "OR"):
            left = _compile(expr.left, schema)
            right = _compile(expr.right, schema)
            op = np.logical_and if expr.op == "AND" else np.logical_or
            return Compiled(lambda b, l=left.fn, r=right.fn, o=op: o(l(b), r(b)), DataType.BOOL)
        left = _compile(expr.left, schema)
        right = _compile(expr.right, schema)
        if expr.op in _CMP:
            ufunc = _CMP[expr.op]
            return Compiled(lambda b, l=left.fn, r=right.fn, u=ufunc: u(l(b), r(b)), DataType.BOOL)
        if expr.op == "/":
            return Compiled(
                lambda b, l=left.fn, r=right.fn: np.true_divide(l(b), r(b)),
                DataType.FLOAT64,
            )
        if expr.op in _ARITH:
            dt = common_type(left.dtype, right.dtype)
            ufunc = _ARITH[expr.op]

            def arith_fn(b, l=left.fn, r=right.fn, u=ufunc, d=dt.numpy_dtype):
                return u(l(b), r(b)).astype(d, copy=False)

            return Compiled(arith_fn, dt)
        raise PlanError(f"unsupported operator {expr.op}")

    if isinstance(expr, UnaryOp):
        inner = _compile(expr.operand, schema)
        if expr.op == "NOT":
            return Compiled(lambda b, f=inner.fn: np.logical_not(f(b)), DataType.BOOL)
        if expr.op == "-":
            return Compiled(lambda b, f=inner.fn: np.negative(f(b)), inner.dtype)
        raise PlanError(f"unsupported unary {expr.op}")

    if isinstance(expr, FuncCall):
        return _compile_func(expr, schema)

    if isinstance(expr, CaseExpr):
        conds = [_compile(c, schema) for c, _ in expr.whens]
        results = [_compile(r, schema) for _, r in expr.whens]
        dt = results[0].dtype
        default = _compile(expr.else_, schema) if expr.else_ is not None else None
        if default is None:
            if not dt.is_numeric:
                raise PlanError("CASE without ELSE requires numeric results")
            default_fn = _broadcast(0, dt)
        else:
            default_fn = default.fn
            dt = common_type(dt, default.dtype) if dt.is_numeric and default.dtype.is_numeric else dt

        def case_fn(batch: RowBatch):
            strings = dt == DataType.STRING
            if strings:
                # choose among the codes of one shared dictionary
                branches = DictColumn.unify(
                    [default_fn(batch)] + [res.fn(batch) for res in results]
                )
                out = branches[0].codes.copy()
            else:
                out = np.asarray(default_fn(batch)).astype(dt.numpy_dtype, copy=True)
            decided = np.zeros(batch.length, dtype=bool)
            for i, cond in enumerate(conds):
                mask = np.asarray(cond.fn(batch), dtype=bool) & ~decided
                if mask.any():
                    pick = branches[i + 1].codes if strings else np.asarray(results[i].fn(batch))
                    out[mask] = pick[mask]
                decided |= mask
            return DictColumn(out, branches[0].dictionary) if strings else out

        return Compiled(case_fn, dt)

    if isinstance(expr, InList):
        inner = _compile(expr.expr, schema)
        values = []
        for item in expr.items:
            if not isinstance(item, Literal):
                raise PlanError("IN list items must be literals")
            values.append(item.value)

        def in_strings(entries: np.ndarray, vs=frozenset(values)) -> np.ndarray:
            return np.fromiter((x in vs for x in entries), count=len(entries), dtype=bool)

        def in_fn(batch: RowBatch, f=inner.fn, vals=tuple(values), neg=expr.negated):
            arr = f(batch)
            if isinstance(arr, DictColumn):
                mask = arr.map_entries(in_strings)
            else:
                mask = np.isin(arr, np.asarray(vals))
            return ~mask if neg else mask

        return Compiled(in_fn, DataType.BOOL)

    if isinstance(expr, Like):
        inner = _compile(expr.expr, schema)
        rx = re.compile(_like_to_regex(expr.pattern))

        def matches(entries: np.ndarray, r=rx) -> np.ndarray:
            return np.fromiter(
                (r.match(s) is not None for s in entries), count=len(entries), dtype=bool
            )

        def like_fn(batch: RowBatch, f=inner.fn, neg=expr.negated, key=("LIKE", rx.pattern)):
            # memoised per dictionary: a cached page dictionary matches
            # each pattern once for every query that applies it
            mask = f(batch).map_entries(matches, key)
            return ~mask if neg else mask

        return Compiled(like_fn, DataType.BOOL)

    if isinstance(expr, Between):
        inner = _compile(expr.expr, schema)
        lo = _compile(expr.lo, schema)
        hi = _compile(expr.hi, schema)

        def between_fn(batch, f=inner.fn, l=lo.fn, h=hi.fn, neg=expr.negated):
            v = f(batch)
            mask = (v >= l(batch)) & (v <= h(batch))
            return ~mask if neg else mask

        return Compiled(between_fn, DataType.BOOL)

    if isinstance(expr, IsNull):
        # Engine data is non-null; outer joins expose a validity column.
        inner = expr.expr
        if isinstance(inner, ColumnRef):
            valid_key = schema.try_resolve("__match")
            if valid_key is not None:

                def isnull_fn(batch, k=valid_key, neg=expr.negated):
                    valid = batch.col(k).astype(bool)
                    return valid if neg else ~valid

                return Compiled(isnull_fn, DataType.BOOL)
        # IS NULL -> always false, IS NOT NULL -> always true

        def const_fn(batch, value=(expr.negated)):
            return np.full(batch.length, value, dtype=bool)

        return Compiled(const_fn, DataType.BOOL)

    if isinstance(expr, (InSubquery, Exists, ScalarSubquery)):
        raise PlanError(
            f"subquery expression {expr} must be decorrelated by the optimizer "
            "before compilation"
        )

    raise PlanError(f"cannot compile expression {expr!r}")


def _compile_func(expr: FuncCall, schema: Schema) -> Compiled:
    name = expr.name
    args = [_compile(a, schema) for a in expr.args]
    if name == "DATE_ADD":
        base = args[0]
        amount = expr.args[1].value  # literal by construction
        unit = expr.args[2].value

        def date_add_fn(batch, f=base.fn, amt=amount, u=unit):
            arr = f(batch)
            if u == "day":
                return (arr + amt).astype(np.int32)
            # calendar-exact per distinct value (cheap: few distinct dates
            # appear in practice because the base is usually a literal)
            uniq, inv = np.unique(arr, return_inverse=True)
            fn = add_months if u == "month" else add_years
            shifted = np.asarray(
                [fn(int(d), amt) for d in uniq], dtype=np.int32
            )
            return shifted[inv]

        return Compiled(date_add_fn, DataType.DATE)
    if name in ("YEAR", "MONTH"):
        fn = days_to_year if name == "YEAR" else days_to_month
        return Compiled(lambda b, f=args[0].fn, g=fn: np.asarray(g(f(b)), dtype=np.int64), DataType.INT64)
    if name == "DAY":
        def day_fn(b, f=args[0].fn):
            d64 = np.asarray(f(b), dtype="datetime64[D]")
            return (d64 - d64.astype("datetime64[M]")).astype(np.int64) + 1

        return Compiled(day_fn, DataType.INT64)
    if name == "SUBSTRING":
        start_c = args[1]
        length_c = args[2] if len(args) > 2 else None

        def substr_fn(batch, f=args[0].fn, sf=start_c.fn, lf=(length_c.fn if length_c else None)):
            arr = f(batch)
            starts = sf(batch)
            lens = lf(batch) if lf else None
            if len(starts) and (starts == starts[0]).all() and (
                lens is None or (lens == lens[0]).all()
            ):
                # one (start, length) for every row: slice each entry once
                a = int(starts[0]) - 1
                b = None if lens is None else a + int(lens[0])
                return arr.map_values(lambda entries: [s[a:b] for s in entries])
            out = []
            for i, s in enumerate(arr):
                a = int(starts[i]) - 1
                out.append(s[a : a + int(lens[i])] if lens is not None else s[a:])
            return DictColumn.wrap(out)

        return Compiled(substr_fn, DataType.STRING)
    if name == "CONCAT":
        def concat_fn(batch, l=args[0].fn, r=args[1].fn):
            la, ra = l(batch), r(batch)
            return DictColumn.wrap([str(la[i]) + str(ra[i]) for i in range(len(la))])

        return Compiled(concat_fn, DataType.STRING)
    if name == "ABS":
        return Compiled(lambda b, f=args[0].fn: np.abs(f(b)), args[0].dtype)
    if name == "COALESCE":
        # no NULLs at runtime: first argument wins
        return Compiled(args[0].fn, args[0].dtype)
    raise PlanError(f"unknown function {name}")


def _like_to_regex(pattern: str) -> str:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "^" + "".join(out) + "$"


# ---------------------------------------------------------------------------
# ScanPredicate extraction for data skipping
# ---------------------------------------------------------------------------

_OP_MAP = {"=": Op.EQ, "<>": Op.NE, "<": Op.LT, "<=": Op.LE, ">": Op.GT, ">=": Op.GE}
_OP_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}


def to_scan_predicate(expr: Expr, schema: Schema) -> ScanPredicate:
    """Canonical skipping key for a pushed-down predicate.

    The atoms plus opaque fingerprints together are semantically *equal*
    to ``expr`` (never weaker), which the predicate cache requires.
    """
    atoms: list[Atom] = []
    opaque: list[str] = []
    for conjunct in _split_and(expr):
        a = _atom_of(conjunct, schema)
        if a is not None:
            atoms.append(a)
            continue
        if isinstance(conjunct, Between) and not conjunct.negated:
            lo = _atom_of(BinaryOp(">=", conjunct.expr, conjunct.lo), schema)
            hi = _atom_of(BinaryOp("<=", conjunct.expr, conjunct.hi), schema)
            if lo and hi:
                atoms += [lo, hi]
                continue
        if isinstance(conjunct, Like) and not conjunct.negated:
            rng = _prefix_range(conjunct, schema)
            if rng is not None:
                lo_a, hi_a, exact = rng
                atoms += [lo_a, hi_a]
                if not exact:
                    opaque.append(_fingerprint(conjunct, schema))
                continue
        opaque.append(_fingerprint(conjunct, schema))
    return ScanPredicate(atoms, opaque)


def _split_and(expr: Expr) -> list[Expr]:
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _split_and(expr.left) + _split_and(expr.right)
    return [expr]


def _atom_of(expr: Expr, schema: Schema) -> Atom | None:
    if not isinstance(expr, BinaryOp) or expr.op not in _OP_MAP:
        return None
    left, right, op = expr.left, expr.right, expr.op
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        left, right, op = right, left, _OP_FLIP[op]
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        key = schema.try_resolve(left.key) or schema.try_resolve(left.name)
        if key is None:
            return None
        return Atom(key, _OP_MAP[op], right.value)
    return None


def _prefix_range(like: Like, schema: Schema) -> tuple[Atom, Atom, bool] | None:
    """LIKE 'abc%...' -> [abc, abd) range atoms; exact when pure prefix."""
    pat = like.pattern
    prefix = ""
    for ch in pat:
        if ch in ("%", "_"):
            break
        prefix += ch
    if not prefix or not isinstance(like.expr, ColumnRef):
        return None
    key = schema.try_resolve(like.expr.key) or schema.try_resolve(like.expr.name)
    if key is None:
        return None
    upper = prefix[:-1] + chr(ord(prefix[-1]) + 1)
    exact = pat == prefix + "%" or pat == prefix
    return (Atom(key, Op.GE, prefix), Atom(key, Op.LT, upper), exact)


def _fingerprint(expr: Expr, schema: Schema) -> str:
    return str(expr)
