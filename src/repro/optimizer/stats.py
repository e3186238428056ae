"""Statistics and cardinality estimation.

The cost-based optimizer (paper §V) estimates intermediate result sizes
with standard attribute-level statistics: row counts, per-column
distinct counts (NDV), min/max, and average widths. Two sources exist:

* ``TableStats.from_batch`` — measured by ANALYZE over loaded data;
* :mod:`repro.workloads.tpch_stats` — exact analytic TPC-H statistics as
  functions of the scale factor (drives SF1000 planning for the
  benchmark harness without generating a terabyte).

Selectivity rules are the classic System-R defaults: ``1/NDV`` for
equality, interpolated ranges over [min, max], 1/3 fallback for ranges,
multiplicative conjunction, inclusion principle for joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from ..common.batch import DictColumn, RowBatch
from ..common.dtypes import width_of
from ..sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    Exists,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Like,
    Literal,
    UnaryOp,
)

DEFAULT_EQ_SEL = 0.005
DEFAULT_RANGE_SEL = 1.0 / 3.0
DEFAULT_LIKE_SEL = 0.05


@dataclass
class Histogram:
    """Equi-depth histogram: ``bounds[i] <= bucket i < bounds[i+1]``, each
    bucket holding an equal row share. Range selectivity interpolates
    within the straddled bucket — the standard refinement over plain
    min/max interpolation for skewed columns."""

    bounds: tuple  # len = n_buckets + 1, ascending

    @classmethod
    def from_values(cls, values: np.ndarray, n_buckets: int = 16) -> "Histogram | None":
        if len(values) == 0 or values.dtype.kind not in "biuf":
            return None  # only numbers have quantiles
        qs = np.linspace(0.0, 1.0, n_buckets + 1)
        bounds = tuple(float(v) for v in np.quantile(values.astype(np.float64), qs))
        return cls(bounds)

    def le_fraction(self, value: float) -> float:
        """P(column <= value)."""
        b = self.bounds
        n = len(b) - 1
        if value < b[0]:
            return 0.0
        if value >= b[-1]:
            return 1.0
        # find the straddled bucket and interpolate inside it
        import bisect

        i = bisect.bisect_right(b, value) - 1
        i = min(max(i, 0), n - 1)
        lo, hi = b[i], b[i + 1]
        inner = 0.0 if hi <= lo else (value - lo) / (hi - lo)
        return (i + inner) / n


@dataclass
class ColumnStats:
    ndv: float
    min: object = None
    max: object = None
    avg_width: float = 8.0
    histogram: Histogram | None = None

    def eq_selectivity(self) -> float:
        return 1.0 / max(self.ndv, 1.0)

    def range_selectivity(self, op: str, value) -> float:
        if self.histogram is not None:
            try:
                frac = self.histogram.le_fraction(float(value))
            except (TypeError, ValueError):
                frac = None
            if frac is not None:
                if op in ("<", "<="):
                    return max(frac, 1e-6)
                if op in (">", ">="):
                    return max(1.0 - frac, 1e-6)
        lo, hi = self.min, self.max
        if lo is None or hi is None or not _comparable(lo, value):
            return DEFAULT_RANGE_SEL
        try:
            span = float(hi) - float(lo)
        except (TypeError, ValueError):
            return _string_range_selectivity(op, value, lo, hi)
        if span <= 0:
            return 1.0 if _value_matches(op, lo, value) else 0.1
        frac = (float(value) - float(lo)) / span
        frac = min(max(frac, 0.0), 1.0)
        if op in ("<", "<="):
            return max(frac, 1e-6)
        if op in (">", ">="):
            return max(1.0 - frac, 1e-6)
        return DEFAULT_RANGE_SEL


@dataclass
class TableStats:
    row_count: float
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    @classmethod
    def from_batch(cls, batch: RowBatch) -> "TableStats":
        cols: dict[str, ColumnStats] = {}
        for c in batch.schema:
            arr = batch.col(c.name)
            if not len(arr):
                cols[c.name] = ColumnStats(1.0)
                continue
            if isinstance(arr, DictColumn):
                # hash the entries the rows reference — no sort of strings
                entries = arr.dictionary.values[np.unique(arr.codes)]
                distinct = set(entries.tolist())
                width = float(
                    arr.map_entries(lambda v: np.fromiter(map(len, v), np.int64, len(v))).mean()
                )
                cols[c.name] = ColumnStats(len(distinct), min(distinct), max(distinct), width)
            else:
                uniq = len(np.unique(arr))
                cols[c.name] = ColumnStats(
                    uniq,
                    arr.min().item(),
                    arr.max().item(),
                    width_of(c.dtype),
                    histogram=Histogram.from_values(arr),
                )
        return cls(float(batch.length), cols)

    def column(self, name: str) -> ColumnStats:
        # accept either a bare name or a qualified key
        if name in self.columns:
            return self.columns[name]
        base = name.rsplit(".", 1)[-1]
        if base in self.columns:
            return self.columns[base]
        return ColumnStats(max(self.row_count / 10.0, 1.0))


class StatsProvider:
    """Maps table names to :class:`TableStats`.

    ``version`` bumps on every :meth:`put`, so cached plans keyed on it
    invalidate when fresh statistics would change the optimizer's
    choices.
    """

    def __init__(self, tables: Mapping[str, TableStats] | None = None):
        self._tables = dict(tables or {})
        #: live stats sources (virtual sys.* tables): name -> () -> TableStats.
        #: Consulted fresh at plan time, never versioned — their row
        #: counts drift constantly and must not thrash the plan cache.
        self._dynamic: dict[str, object] = {}
        self.version = 0

    def put(self, name: str, stats: TableStats) -> None:
        self._tables[name] = stats
        self.version += 1

    def register_dynamic(self, name: str, fn) -> None:
        self._dynamic[name] = fn

    def table(self, name: str) -> TableStats:
        if name in self._tables:
            return self._tables[name]
        fn = self._dynamic.get(name)
        if fn is not None:
            try:
                return fn()
            except Exception:
                return TableStats(1000.0)
        return TableStats(1000.0)

    def has(self, name: str) -> bool:
        return name in self._tables or name in self._dynamic


# ---------------------------------------------------------------------------
# selectivity estimation
# ---------------------------------------------------------------------------


def predicate_selectivity(expr: Expr, stats_of, schema) -> float:
    """Estimate P(row satisfies expr).

    ``stats_of(column_key) -> ColumnStats | None`` resolves column stats
    for the relation the predicate applies to.
    """
    if isinstance(expr, BinaryOp):
        if expr.op == "AND":
            return predicate_selectivity(expr.left, stats_of, schema) * predicate_selectivity(
                expr.right, stats_of, schema
            )
        if expr.op == "OR":
            a = predicate_selectivity(expr.left, stats_of, schema)
            b = predicate_selectivity(expr.right, stats_of, schema)
            return min(a + b - a * b, 1.0)
        col, lit = _col_literal(expr)
        if col is not None:
            cs = stats_of(col)
            if cs is None:
                return DEFAULT_EQ_SEL if expr.op == "=" else DEFAULT_RANGE_SEL
            if expr.op == "=":
                return cs.eq_selectivity()
            if expr.op == "<>":
                return 1.0 - cs.eq_selectivity()
            return cs.range_selectivity(expr.op, lit)
        # column-to-column comparison (join-ish predicate inside a filter)
        if expr.op == "=":
            return DEFAULT_EQ_SEL
        return DEFAULT_RANGE_SEL
    if isinstance(expr, UnaryOp) and expr.op == "NOT":
        return 1.0 - predicate_selectivity(expr.operand, stats_of, schema)
    if isinstance(expr, Between):
        if isinstance(expr.expr, ColumnRef) and isinstance(expr.lo, Literal) and isinstance(expr.hi, Literal):
            cs = stats_of(expr.expr.key)
            if cs is not None:
                lo_sel = cs.range_selectivity(">=", expr.lo.value)
                hi_sel = cs.range_selectivity("<=", expr.hi.value)
                sel = max(lo_sel + hi_sel - 1.0, 1e-6)
                return 1.0 - sel if expr.negated else sel
        return DEFAULT_RANGE_SEL
    if isinstance(expr, InList):
        if isinstance(expr.expr, ColumnRef):
            cs = stats_of(expr.expr.key)
            if cs is not None:
                sel = min(len(expr.items) * cs.eq_selectivity(), 1.0)
                return 1.0 - sel if expr.negated else sel
        return min(len(expr.items) * DEFAULT_EQ_SEL, 1.0)
    if isinstance(expr, Like):
        pat = expr.pattern
        prefix_len = len(pat.split("%")[0].split("_")[0])
        sel = DEFAULT_LIKE_SEL if prefix_len == 0 else max(0.001, 0.2 ** min(prefix_len, 4))
        return 1.0 - sel if expr.negated else sel
    if isinstance(expr, IsNull):
        return 1.0 if expr.negated else 0.0
    if isinstance(expr, (InSubquery, Exists)):
        return 0.5
    if isinstance(expr, Literal) and isinstance(expr.value, bool):
        return 1.0 if expr.value else 0.0
    return DEFAULT_RANGE_SEL


def join_selectivity(left_ndv: float, right_ndv: float) -> float:
    return 1.0 / max(left_ndv, right_ndv, 1.0)


def _col_literal(expr: BinaryOp) -> tuple[Optional[str], object]:
    l, r = expr.left, expr.right
    if isinstance(l, ColumnRef) and isinstance(r, Literal):
        return l.key, r.value
    if isinstance(r, ColumnRef) and isinstance(l, Literal):
        return r.key, l.value
    # unwrap date arithmetic that the parser folded into literals already
    if isinstance(l, ColumnRef) and isinstance(r, FuncCall) and r.name == "DATE_ADD":
        base = r.args[0]
        if isinstance(base, Literal):
            return l.key, base.value
    return None, None


def _value_matches(op: str, point, value) -> bool:
    """Does a single-point domain satisfy ``point op value``?"""
    try:
        return {
            "<": point < value,
            "<=": point <= value,
            ">": point > value,
            ">=": point >= value,
            "=": point == value,
            "<>": point != value,
        }.get(op, True)
    except TypeError:
        return True


def _comparable(a, b) -> bool:
    try:
        a < b  # noqa: B015
        return True
    except TypeError:
        return False


def _string_range_selectivity(op: str, value, lo, hi) -> float:
    """Crude lexicographic interpolation on the first two characters."""

    def code(s) -> float:
        s = str(s)
        v = 0.0
        for i, ch in enumerate(s[:4]):
            v += ord(ch) / (256.0 ** (i + 1))
        return v

    span = code(hi) - code(lo)
    if span <= 0:
        return DEFAULT_RANGE_SEL
    frac = min(max((code(value) - code(lo)) / span, 0.0), 1.0)
    if op in ("<", "<="):
        return max(frac, 1e-6)
    if op in (">", ">="):
        return max(1.0 - frac, 1e-6)
    return DEFAULT_RANGE_SEL
