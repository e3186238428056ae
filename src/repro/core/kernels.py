"""Vectorized relational kernels.

All heavy row-at-a-time work is replaced by NumPy primitives (the
hpc-parallel guides' core rule): keys are *factorized* into dense exact
integer codes — a string column (:class:`~repro.common.batch.DictColumn`)
already is one, ranked through its dictionary's value order; an integer
column whose span the density rule
(:func:`~repro.common.batch.code_space_is_dense`) accepts codes by its
offset from the minimum; only floats and sparse integers go through
``np.unique`` — and aggregations become ``bincount`` and scatter-reduces
(``ufunc.at``) over the codes, with no sort (DISTINCT aggregates
``lexsort`` their (group, value) pairs). Every join, streaming probe or
blocking, matches its rows through one build-once
:class:`JoinHashTable`, direct-addressed by the same density rule, and
:func:`join_rows` turns the matched pairs into the join's output for
every join kind. The single-node reference evaluator runs these same
kernels, so it is not an independent oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..common.batch import (
    DictColumn,
    RowBatch,
    StringDictionary,
    as_column,
    code_space_is_dense,
    densify_codes,
    stable_order,
)
from ..common.dtypes import DataType
from ..common.errors import ExecutionError
from ..common.schema import Schema
from ..sql.ast import Expr
from ..sql.compiler import compile_expr, compile_predicate


# ---------------------------------------------------------------------------
# key factorization
# ---------------------------------------------------------------------------


#: re-densify a running composite code before its space leaves int64
_CODE_SPACE_MAX = 1 << 62


def _value_codes(col) -> tuple[np.ndarray, int]:
    """Order-preserving exact codes for one key column: non-negative
    int64, below the returned bound; equal values get equal codes. The
    bound is a dictionary's entry count (``uint32`` codes), at most
    ``len(col)`` (``np.unique``) or a span the density rule accepts, at
    most ``max(4 * len(col) + 1024, 2**20)``: below 2**33 for any column
    under 2**30 rows."""
    if isinstance(col, DictColumn):
        canon = col.dictionary.canon()
        return canon.rank[col.codes] + canon.has_null, len(canon.values) + canon.has_null
    if col.dtype.kind in "ib" and len(col):
        # integers packed as closely as codes would be (keys, dates) code
        # themselves: the offset from the minimum, no sort
        lo, hi = int(col.min()), int(col.max())
        if code_space_is_dense(hi - lo + 1, len(col)):
            return col.astype(np.int64) - lo, hi - lo + 1
    uniq, inv = np.unique(col, return_inverse=True)
    return inv, max(len(uniq), 1)


def _combine_codes(
    per_column: Sequence[tuple[np.ndarray, int]], n: int
) -> tuple[np.ndarray, int, list[np.ndarray | None]]:
    """Mixed-radix composite of per-column codes: (codes, code space, and
    per column the ascending distinct running codes the composite was
    densified through before that column, or None).

    A running code about to leave int64 is densified to at most ``n``
    values first; every column's bound is below 2**33 (``_value_codes``),
    so the next product then fits for any ``n`` under 2**29 rows."""
    code = np.zeros(n, dtype=np.int64)
    space = 1
    prefixes: list[np.ndarray | None] = []
    for inv, k in per_column:
        distinct = None
        if space * k > _CODE_SPACE_MAX:
            code, distinct = densify_codes(code, space)
            space = max(len(distinct), 1)
        prefixes.append(distinct)
        code = code * k + inv
        space *= k
    return code, space, prefixes


def factorize(cols: Sequence[np.ndarray]) -> tuple[np.ndarray, int]:
    """Exact composite codes for one relation; returns (codes, n_groups).

    Codes are dense and ordered like the key tuples (column by column,
    value order), so group output order is the sort order of the keys."""
    if not cols:
        return np.zeros(0, dtype=np.int64), 0
    code, space, _ = _combine_codes([_value_codes(as_column(c)) for c in cols], len(cols[0]))
    dense, distinct = densify_codes(code, space)
    return dense, len(distinct)


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def _lookup_sorted(sorted_vals: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of each value in ``sorted_vals`` (ascending, distinct), -1
    where absent."""
    if not len(sorted_vals):
        return np.full(len(values), -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(sorted_vals, values), len(sorted_vals) - 1)
    return np.where(sorted_vals[pos] == values, pos, -1)


def _lookup_strings(sorted_vals: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``_lookup_sorted`` over strings; a NULL (None) is absent."""
    null = np.equal(values, None)
    if null.any():
        found = _lookup_sorted(sorted_vals, np.where(null, "", values))
        found[null] = -1
        return found
    return _lookup_sorted(sorted_vals, values)


class _Key:
    """One build key column's code space ``[0, space)`` and how a probe
    column maps into it (-1 for a value the build side does not hold):

    * a string column codes by value rank in its dictionary's canonical
      form — a probe sharing the dictionary reuses the ranks, another
      dictionary is looked up once per entry;
    * an integer column whose span the density rule accepts codes by its
      offset from the minimum — a probe pays one range check;
    * anything else (floats, sparse integers) codes by position among the
      sorted distinct values — a probe pays a ``searchsorted``.
    """

    __slots__ = ("space", "lo", "values", "dictionary")

    def __init__(self, space: int, lo=None, values=None, dictionary=None):
        self.space, self.lo, self.values, self.dictionary = space, lo, values, dictionary

    @staticmethod
    def build(col) -> tuple["_Key", np.ndarray]:
        """The key and the build column's codes (-1 for a NULL string)."""
        if isinstance(col, DictColumn):
            values = col.dictionary.canon().values
            return _Key(len(values), values=values, dictionary=col.dictionary), col.ranks()
        if col.dtype.kind in "iub" and len(col):
            lo, hi = int(col.min()), int(col.max())
            if code_space_is_dense(hi - lo + 1, len(col)):
                return _Key(hi - lo + 1, lo=lo), col.astype(np.int64) - lo
        values, inv = np.unique(col, return_inverse=True)
        return _Key(len(values), values=values), inv

    def probe(self, col) -> np.ndarray:
        if isinstance(col, DictColumn):
            if col.dictionary is self.dictionary:
                return col.ranks()
            return col.map_entries(lambda v, u=self.values: _lookup_strings(u, v))
        if self.lo is None:
            return _lookup_sorted(self.values, col)
        if col.dtype.kind not in "iub":
            return _lookup_sorted(np.arange(self.lo, self.lo + self.space), col)
        code = col.astype(np.int64) - self.lo
        return np.where((code >= 0) & (code < self.space), code, -1)


class JoinHashTable:
    """Build-once / probe-many join table: the engine's one join kernel.

    Each build key column gets a code space (:class:`_Key`) and the
    columns combine into one mixed-radix composite code, densified through
    the build's distinct running codes before it would leave int64. When
    the density rule (:func:`~repro.common.batch.code_space_is_dense`)
    accepts the composite space, the table is direct-addressed by it;
    otherwise the build's distinct composite codes are kept sorted and a
    probe code is first found among them by ``searchsorted`` (the sorted
    table: floats, sparse keys, unshared dictionaries that spread wide).

    The direct table is a slot per code: the build row, when the build
    keys are unique; otherwise CSR over the codes — per code a count and a
    start into the build rows ordered by code (``bincount`` + ``cumsum``
    and a radix-stable order). ``exists_only`` keeps just the counts:
    enough for :meth:`contains`, the whole of a semi or anti join without
    a residual.

    NULL keys never match: a NaN or a NULL dictionary entry is absent
    from the probe lookups, and a build row with a NULL string key is
    left out of the table.

    Pairs come out probe-major, build rows in original order within a
    key, so a per-batch probe concatenated over probe batches reproduces
    a probe of the whole side bit-for-bit.
    """

    __slots__ = ("keys", "prefixes", "distinct", "space", "slots", "counts", "starts", "order")

    def __init__(self, build_cols: Sequence[np.ndarray], exists_only: bool = False):
        cols = [as_column(c) for c in build_cols]
        n = len(cols[0]) if cols else 0
        self.keys: list[_Key] = []
        per_column = []
        null = None
        for c in cols:
            key, inv = _Key.build(c)
            if isinstance(c, DictColumn) and c.dictionary.has_null:
                absent = inv < 0
                null = absent if null is None else null | absent
                inv = np.where(absent, 0, inv)
            self.keys.append(key)
            per_column.append((inv, key.space))
        code, space, self.prefixes = _combine_codes(per_column, n)
        rows = None
        if null is not None and null.any():
            rows = np.flatnonzero(~null)
            code = code[rows]
        #: the sorted table: distinct composite codes a probe is looked up in
        self.distinct = None
        if not code_space_is_dense(space, len(code)):
            self.distinct, code = np.unique(code, return_inverse=True)
            space = len(self.distinct)
        self.space = space
        # every per-code array has one more slot: the code of a probe miss
        self.counts = counts = np.bincount(code, minlength=space + 1)
        self.slots = self.starts = self.order = None
        if exists_only:
            return
        ids = np.arange(len(code)) if rows is None else rows
        if not len(code) or counts.max() <= 1:
            self.slots = np.full(space + 1, -1, dtype=np.int64)
            self.slots[code] = ids
            self.counts = None
            return
        self.starts = np.cumsum(counts) - counts
        self.order = ids[stable_order(code, space)]

    def _probe_codes(self, probe_cols: Sequence[np.ndarray]) -> np.ndarray:
        """Each probe row's code in the table's space; ``space`` on a miss."""
        cols = [as_column(c) for c in probe_cols]
        if len(cols) != len(self.keys):
            raise ExecutionError("join key arity mismatch")
        code = None
        for key, prefix, c in zip(self.keys, self.prefixes, cols):
            inv = key.probe(c)
            if code is None:
                code = inv
                continue
            if prefix is not None:
                code = _lookup_sorted(prefix, code)  # a miss (-1) stays absent
            code = np.where((code < 0) | (inv < 0), -1, code * key.space + inv)
        if code is None:
            return np.zeros(0, dtype=np.int64)
        if self.distinct is not None:
            code = _lookup_sorted(self.distinct, code)
        return np.where(code < 0, self.space, code)

    def contains(self, probe_cols: Sequence[np.ndarray]) -> np.ndarray:
        """Per probe row: does any build row match it?"""
        code = self._probe_codes(probe_cols)
        if self.slots is not None:
            return self.slots[code] >= 0
        return self.counts[code] > 0

    def match_indices(self, probe_cols: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """All matching (probe_idx, build_idx) pairs for one probe batch."""
        code = self._probe_codes(probe_cols)
        if self.slots is not None:
            build_idx = self.slots[code]
            probe_idx = np.flatnonzero(build_idx >= 0)
            return probe_idx, build_idx[probe_idx]
        if self.order is None:
            raise ExecutionError("an existence-only join table has no pairs")
        counts = self.counts[code]
        probe_idx = np.repeat(np.arange(len(code)), counts)
        if len(probe_idx) == 0:
            return probe_idx, probe_idx.copy()
        # the i-th pair of probe row p reads build slot starts[code[p]] + i
        skew = np.repeat(self.starts[code] - (np.cumsum(counts) - counts), counts)
        return probe_idx, self.order[np.arange(len(probe_idx)) + skew]


def hash_join(
    left: RowBatch,
    right: RowBatch,
    kind: str,
    pairs: list[tuple[Expr, Expr]],
    residual: list[Expr],
    out_schema: Schema,
    match_col: str | None,
    lschema: Schema | None = None,
    rschema: Schema | None = None,
) -> RowBatch:
    """Join two materialized batches: a :class:`JoinHashTable` over the
    right side's keys, probed with the left side's (blocking joins and
    the reference evaluator)."""
    lschema = lschema if lschema is not None else left.schema
    rschema = rschema if rschema is not None else right.schema

    if kind == "single":
        if right.length > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        if right.length == 0:
            return RowBatch.empty(out_schema)
        cols = dict(left.columns)
        cols.update(right.take(np.zeros(left.length, dtype=np.int64)).columns)
        return RowBatch(out_schema, cols)

    if pairs:
        build = [compile_expr(re, right.schema).fn(right) for _, re in pairs]
        probe = [compile_expr(le, left.schema).fn(left) for le, _ in pairs]
        if existence_only(kind, residual):
            return semi_join(left, JoinHashTable(build, exists_only=True).contains(probe), kind)
        li, ri = JoinHashTable(build).match_indices(probe)
    else:
        # cross pairs (guarded: a missed pushdown must fail fast, not OOM)
        if left.length * right.length > 50_000_000:
            raise ExecutionError(
                f"cross product of {left.length} x {right.length} rows refused; "
                "run predicate pushdown first"
            )
        li = np.repeat(np.arange(left.length), right.length)
        ri = np.tile(np.arange(right.length), left.length)
    return join_rows(left, right, li, ri, kind, residual, out_schema, lschema, rschema, match_col)


def join_rows(
    left: RowBatch,
    right: RowBatch,
    li: np.ndarray,
    ri: np.ndarray,
    kind: str,
    residual: list[Expr],
    out_schema: Schema,
    lschema: Schema,
    rschema: Schema,
    match_col: str | None = None,
) -> RowBatch:
    """A join's output from its candidate (left row, right row) pairs:
    the residual conjuncts filter the pairs, then ``kind`` (inner, cross,
    semi, anti, left) assembles the rows."""
    if residual and len(li):
        combined = _combine(left.take(li), right.take(ri))
        mask = np.ones(len(li), dtype=bool)
        for r in residual:
            mask &= compile_predicate(r, combined.schema)(combined)
        li, ri = li[mask], ri[mask]

    if kind in ("inner", "cross"):
        lt, rt = left.take(li), right.take(ri)
        cols = {c.name: lt.col(c.name) for c in lschema}
        for c in rschema:
            cols[c.name] = rt.col(c.name)
        return RowBatch(out_schema, cols)

    if kind in ("semi", "anti"):
        matched = np.zeros(left.length, dtype=bool)
        matched[li] = True
        return semi_join(left, matched, kind)

    if kind == "left":
        matched = np.zeros(left.length, dtype=bool)
        matched[li] = True
        unmatched_idx = np.flatnonzero(~matched)
        lt = left.take(np.concatenate([li, unmatched_idx]))
        cols = {c.name: lt.col(c.name) for c in lschema}
        n_match = len(li)
        n_un = len(unmatched_idx)
        pad = RowBatch(rschema, {
            c.name: np.full(n_un, _fill_value(c.dtype), dtype=c.dtype.numpy_dtype)
            for c in rschema
        })
        cols.update(RowBatch.concat(rschema, [right.take(ri), pad]).columns)
        mcol = match_col or out_schema.columns[-1].name
        cols[mcol] = np.concatenate(
            [np.ones(n_match, dtype=bool), np.zeros(n_un, dtype=bool)]
        )
        return RowBatch(out_schema, cols)

    raise ExecutionError(f"unsupported join kind {kind}")


def existence_only(kind: str, residual: list[Expr]) -> bool:
    """Does a join need only whether a probe row matches? A semi or anti
    join without a residual: its build is an existence-only table."""
    return kind in ("semi", "anti") and not residual


def semi_join(left: RowBatch, matched: np.ndarray, kind: str) -> RowBatch:
    """A semi join's rows (``matched``) or an anti join's (the rest)."""
    return left.filter(matched if kind == "semi" else ~matched)


def _combine(lt: RowBatch, rt: RowBatch) -> RowBatch:
    schema = lt.schema.concat(rt.schema)
    cols = dict(lt.columns)
    cols.update(rt.columns)
    return RowBatch(schema, cols)


def _fill_value(dt: DataType):
    if dt == DataType.STRING:
        return ""
    if dt == DataType.BOOL:
        return False
    return 0


def first_occurrence(codes: np.ndarray, n_groups: int) -> np.ndarray:
    """Per group code in ``[0, n_groups)``, the first row holding it — by
    scatter, no sort (``n`` for a code no row holds)."""
    first = np.full(n_groups, len(codes), dtype=np.int64)
    np.minimum.at(first, codes, np.arange(len(codes)))
    return first


def distinct_batch(batch: RowBatch) -> RowBatch:
    """The batch's distinct rows, each at its first occurrence."""
    if batch.length == 0:
        return batch
    codes, n = factorize([batch.col(c.name) for c in batch.schema])
    keep = np.zeros(batch.length, dtype=bool)
    keep[first_occurrence(codes, n)] = True
    return batch.filter(keep)


# Bloom filters live in common.bloom; re-exported here for the shuffle
# prefilter in core/exchange.py, their one user.
from ..common.bloom import bloom_filter_codes, bloom_filter_test  # noqa: E402,F401


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _int_like(dtype: np.dtype) -> bool:
    """int/bool dtypes whose sums must use the exact int64 path."""
    return np.issubdtype(dtype, np.integer) or dtype == np.bool_


def group_aggregate(
    codes: np.ndarray,
    n_groups: int,
    func: str,
    values: np.ndarray | None,
    valid: np.ndarray | None = None,
) -> np.ndarray:
    """Aggregate ``values`` per group code. ``func`` in SUM/COUNT/MIN/MAX/AVG.

    ``valid`` masks rows that count (aggregates over an outer join's
    matched rows). Outputs an array indexed by group code.

    NULL semantics: a group with no qualifying rows yields SQL NULL for
    AVG/MIN/MAX, encoded as NaN (numeric columns are promoted to float64
    when NULL holes appear; string columns use None). COUNT yields 0 and
    SUM yields 0 — the distributed COUNT is finalized as a SUM over
    partial counts (see ``dataflow._split_aggs``), which must stay 0
    over empty input, so SUM-of-nothing deliberately stays 0 engine-wide.
    NaN inputs to MIN/MAX are treated as NULLs and skipped (``fmin`` /
    ``fmax``), so combining partials where an empty site contributed a
    NULL cannot corrupt a real extremum.
    """
    if func == "COUNT":
        if valid is not None:
            return np.bincount(codes, weights=valid.astype(np.float64), minlength=n_groups).astype(np.int64)
        return np.bincount(codes, minlength=n_groups).astype(np.int64)
    if values is None:
        raise ExecutionError(f"{func} needs values")
    values = as_column(values)
    if valid is not None:
        keep = valid.astype(bool)
        codes = codes[keep]
        values = values[keep]
    if func == "SUM":
        if _int_like(values.dtype):
            # exact integer path: float64 bincount weights silently
            # round sums beyond 2**53
            out = np.zeros(n_groups, dtype=np.int64)
            np.add.at(out, codes, values.astype(np.int64, copy=False))
            return out
        return np.bincount(codes, weights=values.astype(np.float64), minlength=n_groups)
    if func == "AVG":
        s = np.bincount(codes, weights=values.astype(np.float64), minlength=n_groups)
        c = np.bincount(codes, minlength=n_groups)
        with np.errstate(invalid="ignore"):
            return np.where(c > 0, s / np.maximum(c, 1), np.nan)
    if func in ("MIN", "MAX"):
        return _group_min_max(codes, n_groups, func, values)
    raise ExecutionError(f"unknown aggregate {func}")


def _group_min_max(codes: np.ndarray, n_groups: int, func: str, values: np.ndarray) -> np.ndarray:
    if isinstance(values, DictColumn):
        # extremum of the value ranks per group, over the sorted entries
        canon = values.dictionary.canon()
        ranks = values.ranks()
        keep = ranks >= 0
        best = _group_min_max(codes[keep], n_groups, func, ranks[keep])
        if best.dtype.kind != "f":
            return DictColumn(best.astype(np.uint32), StringDictionary(canon.values))
        # groups with no (non-NULL) rows are NULL: entry 0 of the output
        out = np.where(np.isnan(best), 0, best + 1).astype(np.uint32)
        return DictColumn(out, StringDictionary(np.concatenate([[None], canon.values])))
    if len(codes) == 0:
        return np.full(n_groups, np.nan, dtype=np.float64)
    # a scatter-reduce into one slot per group, no sort
    if np.issubdtype(values.dtype, np.floating):
        ufunc = np.fmin if func == "MIN" else np.fmax  # NaN = NULL: skip
        out = np.full(n_groups, np.nan, dtype=values.dtype)
    else:
        ufunc = np.minimum if func == "MIN" else np.maximum
        # any value is a neutral start for the extremum on its own side
        out = np.full(n_groups, values.max() if func == "MIN" else values.min())
    ufunc.at(out, codes, values)
    empty = np.bincount(codes, minlength=n_groups) == 0
    if not empty.any():
        return out
    # groups with no rows are NULL: promote to float64 with NaN holes
    out = out.astype(np.float64)
    out[empty] = np.nan
    return out


def _distinct_group_pairs(
    codes: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One representative row index per distinct (group, value) pair.

    Returns (group codes, original row indices) of the representatives.
    Implemented with ``lexsort`` over (group, value-code) rather than the
    pair encoding ``codes * k + vcodes``, which overflows int64 once
    ``n_groups * n_distinct_values`` exceeds 2**63 (high-cardinality
    GROUP BY plus a near-unique DISTINCT argument).
    """
    vcodes, _ = factorize([values])
    if len(codes) == 0:
        return codes.astype(np.int64), np.zeros(0, dtype=np.int64)
    order = np.lexsort((vcodes, codes))
    gc = codes[order]
    vc = vcodes[order]
    new = np.ones(len(gc), dtype=bool)
    new[1:] = (gc[1:] != gc[:-1]) | (vc[1:] != vc[:-1])
    return gc[new].astype(np.int64), order[new]


def group_count_distinct(codes: np.ndarray, n_groups: int, values: np.ndarray) -> np.ndarray:
    """COUNT(DISTINCT values) per group."""
    gcodes, _ = _distinct_group_pairs(codes, values)
    return np.bincount(gcodes, minlength=n_groups).astype(np.int64)


def group_sum_distinct(codes: np.ndarray, n_groups: int, values: np.ndarray) -> np.ndarray:
    """SUM(DISTINCT values) per group."""
    gcodes, rep_idx = _distinct_group_pairs(codes, values)
    vals = values[rep_idx]
    if _int_like(vals.dtype):
        out = np.zeros(n_groups, dtype=np.int64)
        np.add.at(out, gcodes, vals.astype(np.int64, copy=False))
        return out
    return np.bincount(gcodes, weights=vals.astype(np.float64), minlength=n_groups)


# ---------------------------------------------------------------------------
# sorting
# ---------------------------------------------------------------------------


def sort_indices(batch: RowBatch, keys: Sequence[tuple[str, bool]]) -> np.ndarray:
    """Stable multi-key sort supporting DESC on every type.

    Strings sort by their dictionary value ranks, so DESC is just negation.
    Integer keys stay integer end to end: the old float64 cast rounded
    values beyond 2**53 and mis-ordered large int64 keys, so DESC on
    integers uses bitwise inversion (``~x`` is order-reversing over the
    full int64 range, with no overflow at INT64_MIN the way ``-x`` has).
    This keeps the hot path inside ``np.lexsort``.
    """
    arrays = _sort_arrays(batch, keys)
    if not arrays:
        return np.arange(batch.length)
    return np.lexsort(arrays)


def _sort_arrays(batch: RowBatch, keys: Sequence[tuple[str, bool]]) -> list[np.ndarray]:
    """The keys as ascending-order arrays, in ``np.lexsort``'s order (the
    leading key last)."""
    arrays: list[np.ndarray] = []
    for col, asc in reversed(list(keys)):
        arr = batch.col(col)
        if isinstance(arr, DictColumn):
            # value ranks preserve order; NULL aggregates (None) rank -1
            # and sort before every string, deterministically in both engines
            arr = arr.ranks()
            arrays.append(arr if asc else -arr)
        elif np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64, copy=False)
            arrays.append(arr if asc else -arr)
        else:
            arr = arr.astype(np.int64, copy=False)
            arrays.append(arr if asc else np.bitwise_not(arr))
    return arrays


def merge_sorted(batches: list[RowBatch], schema, keys: Sequence[tuple[str, bool]]) -> RowBatch:
    """k-way merge of individually sorted batches (the tree merge's
    ``merge`` level)."""
    merged = RowBatch.concat(schema, batches)
    if merged.length == 0:
        return merged
    return merged.take(sort_indices(merged, keys))


def top_k(batch: RowBatch, keys: Sequence[tuple[str, bool]], k: int) -> RowBatch:
    """Top-k rows under the sort order (paper: per-worker min-heap).

    ``np.partition`` on the leading key finds the k-th value; the rows at
    or before it (every row tied with the k-th included) are the only
    candidates, and the stable sort runs over those alone — the same rows
    in the same order as a full sort's first ``k``. The executor folds it
    over a stream with an accumulator of at most ``k`` rows, the
    vectorized stand-in for a bounded heap.
    """
    arrays = _sort_arrays(batch, keys)
    if not arrays:
        return batch.slice(0, k)
    if batch.length > k:
        lead = arrays[-1]
        kth = np.partition(lead, k - 1)[k - 1]
        if kth == kth:  # a NaN k-th value (NULLs sort last) keeps every row
            cand = np.flatnonzero(lead <= kth)
            return batch.take(cand[np.lexsort([a[cand] for a in arrays])[:k]])
    return batch.take(np.lexsort(arrays)[:k])
