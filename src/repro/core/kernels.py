"""Vectorized relational kernels.

All heavy row-at-a-time work is replaced by NumPy primitives (the
hpc-parallel guides' core rule): keys are *factorized* into dense exact
integer codes — a string column (:class:`~repro.common.batch.DictColumn`)
already is one, ranked through its dictionary's value order; numeric
columns go through ``np.unique`` — joins become sorted-code range lookups
expanded with ``repeat``/``cumsum``, and aggregations become
``bincount``/``reduceat`` over code-sorted arrays. The same kernels back
the single-node reference executor and the distributed operators, so
"distributed == reference" tests compare two compositions of one
implementation-correct core.
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
)
from ..common.errors import ExecutionError


# ---------------------------------------------------------------------------
# key factorization
# ---------------------------------------------------------------------------


#: re-densify a running composite code before its space leaves int64
_CODE_SPACE_MAX = 1 << 62


def _value_codes(col) -> tuple[np.ndarray, int]:
    """Order-preserving exact codes for one key column: non-negative
    int64, below the returned bound; equal values get equal codes. The
    bound is a dictionary's entry count (``uint32`` codes) or within
    ``4 * len(col) + 1025``: below 2**33 for any column under 2**30 rows."""
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


def _combine_codes(per_column: Sequence[tuple[np.ndarray, int]], n: int) -> tuple[np.ndarray, int]:
    """Mixed-radix composite of per-column codes: (codes, code space).

    A running code about to leave int64 is densified to at most ``n``
    values first; every column's bound is below 2**33 (``_value_codes``),
    so the next product then fits for any ``n`` under 2**29 rows."""
    code = np.zeros(n, dtype=np.int64)
    space = 1
    for inv, k in per_column:
        if space * k > _CODE_SPACE_MAX:
            code, distinct = densify_codes(code, space)
            space = max(len(distinct), 1)
        code = code * k + inv
        space *= k
    return code, space


def factorize_pair(
    left_cols: Sequence[np.ndarray], right_cols: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Exact composite codes for join keys, shared dictionary across sides.

    Equal key tuples (across sides) get equal codes; unequal get unequal.
    """
    if len(left_cols) != len(right_cols):
        raise ExecutionError("join key arity mismatch")
    nl = len(left_cols[0]) if left_cols else 0
    nr = len(right_cols[0]) if right_cols else 0
    per_column = []
    for lc, rc in zip(left_cols, right_cols):
        lc, rc = as_column(lc), as_column(rc)
        if isinstance(lc, DictColumn):
            both = DictColumn.concat([lc, rc])
        else:
            both = np.concatenate([lc, rc])
        per_column.append(_value_codes(both))
    code, _ = _combine_codes(per_column, nl + nr)
    return code[:nl], code[nl:]


def factorize(cols: Sequence[np.ndarray]) -> tuple[np.ndarray, int]:
    """Exact composite codes for one relation; returns (codes, n_groups).

    Codes are dense and ordered like the key tuples (column by column,
    value order), so group output order is the sort order of the keys."""
    if not cols:
        return np.zeros(0, dtype=np.int64), 0
    code, space = _combine_codes([_value_codes(as_column(c)) for c in cols], len(cols[0]))
    dense, distinct = densify_codes(code, space)
    return dense, len(distinct)


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def join_match_indices(
    lcode: np.ndarray, rcode: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All matching (left_idx, right_idx) pairs for equal codes."""
    order = np.argsort(rcode, kind="stable")
    sorted_r = rcode[order]
    starts = np.searchsorted(sorted_r, lcode, side="left")
    ends = np.searchsorted(sorted_r, lcode, side="right")
    counts = ends - starts
    left_idx = np.repeat(np.arange(len(lcode)), counts)
    if len(left_idx) == 0:
        return left_idx, left_idx.copy()
    # positions within sorted_r for each match, fully vectorized:
    # for row i the matches are sorted positions starts[i] .. ends[i]-1
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    flat = np.arange(counts.sum()) - np.repeat(offsets, counts) + np.repeat(starts, counts)
    right_idx = order[flat]
    return left_idx, right_idx


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


class JoinHashTable:
    """Build-once / probe-many join table for streaming pipelines.

    ``factorize_pair`` re-dictionarizes both sides on every call, so a
    pipelined probe (one call per probe batch) would rebuild the build
    side's dictionary per batch. This table factorizes the build side
    once — per-column sorted distinct values (a string column's come from
    its dictionary's canonical form) plus a composite code with one
    sentinel slot per column for probe values absent from the build side
    — and each probe batch only pays lookups: ``searchsorted`` per row for
    numbers, per dictionary *entry* for strings (none at all when the
    probe column shares the build column's dictionary).

    Output ordering is identical to ``factorize_pair`` +
    ``join_match_indices``: probe-major, build rows in original order
    within a key (stable sort), so a per-batch probe concatenated over
    probe batches reproduces the materialized join bit-for-bit.
    """

    __slots__ = ("keys", "order", "sorted_codes", "n_build")

    def __init__(self, build_cols: Sequence[np.ndarray]):
        cols = [as_column(c) for c in build_cols]
        self.n_build = len(cols[0]) if cols else 0
        #: per key column: (sorted distinct values, the build column's
        #: dictionary or None for a numeric column)
        self.keys: list[tuple[np.ndarray, StringDictionary | None]] = []
        code = np.zeros(self.n_build, dtype=np.int64)
        for c in cols:
            if isinstance(c, DictColumn):
                uniq, inv = c.dictionary.canon().values, c.ranks()
                # a NULL build key takes the sentinel slot: it never matches
                inv = np.where(inv < 0, len(uniq), inv)
                self.keys.append((uniq, c.dictionary))
            else:
                uniq, inv = np.unique(c, return_inverse=True)
                self.keys.append((uniq, None))
            # +1 reserves a sentinel code per column for probe misses
            code = code * (len(uniq) + 1) + inv
        self.order = np.argsort(code, kind="stable")
        self.sorted_codes = code[self.order]

    def _probe_codes(self, probe_cols: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        cols = [as_column(c) for c in probe_cols]
        if len(cols) != len(self.keys):
            raise ExecutionError("join key arity mismatch")
        n = len(cols[0]) if cols else 0
        code = np.zeros(n, dtype=np.int64)
        miss = np.zeros(n, dtype=bool)
        for (uniq, dictionary), c in zip(self.keys, cols):
            if not isinstance(c, DictColumn):
                inv = _lookup_sorted(uniq, c)
            elif c.dictionary is dictionary:
                inv = c.ranks()
            else:
                inv = c.map_entries(lambda v, u=uniq: _lookup_strings(u, v))
            absent = inv < 0
            miss |= absent
            code = code * (len(uniq) + 1) + np.where(absent, len(uniq), inv)
        return code, miss

    def match_indices(self, probe_cols: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """All matching (probe_idx, build_idx) pairs for one probe batch."""
        code, miss = self._probe_codes(probe_cols)
        if len(code):
            # build codes are non-negative, so -1 can never match
            code = np.where(miss, np.int64(-1), code)
        starts = np.searchsorted(self.sorted_codes, code, side="left")
        ends = np.searchsorted(self.sorted_codes, code, side="right")
        counts = ends - starts
        probe_idx = np.repeat(np.arange(len(code)), counts)
        if len(probe_idx) == 0:
            return probe_idx, probe_idx.copy()
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        flat = np.arange(counts.sum()) - np.repeat(offsets, counts) + np.repeat(starts, counts)
        return probe_idx, self.order[flat]


def match_mask(lcode: np.ndarray, rcode: np.ndarray) -> np.ndarray:
    """Boolean per left row: does any right row share its code? (semi join)"""
    uniq_r = np.unique(rcode)
    pos = np.searchsorted(uniq_r, lcode)
    pos = np.clip(pos, 0, len(uniq_r) - 1) if len(uniq_r) else np.zeros(len(lcode), int)
    if not len(uniq_r):
        return np.zeros(len(lcode), dtype=bool)
    return uniq_r[pos] == lcode


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
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    sorted_vals = values[order]
    boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
    starts = np.concatenate([[0], boundaries])
    present = sorted_codes[starts]
    if np.issubdtype(values.dtype, np.floating):
        ufunc = np.fmin if func == "MIN" else np.fmax  # NaN = NULL: skip
    else:
        ufunc = np.minimum if func == "MIN" else np.maximum
    segd = ufunc.reduceat(sorted_vals, starts)
    if len(present) == n_groups:
        out = np.empty(n_groups, dtype=values.dtype)
        out[present] = segd
        return out
    # groups with no rows are NULL: promote to float64 with NaN holes
    out = np.full(n_groups, np.nan, dtype=np.float64)
    out[present] = segd.astype(np.float64)
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
    if not arrays:
        return np.arange(batch.length)
    return np.lexsort(arrays)


def merge_sorted(batches: list[RowBatch], schema, keys: Sequence[tuple[str, bool]]) -> RowBatch:
    """k-way merge of individually sorted batches (used by tree merge)."""
    merged = RowBatch.concat(schema, batches)
    if merged.length == 0:
        return merged
    return merged.take(sort_indices(merged, keys))


def top_k(batch: RowBatch, keys: Sequence[tuple[str, bool]], k: int) -> RowBatch:
    """Top-k rows under the sort order (paper: per-worker min-heap).

    Implemented as argpartition + sort of the surviving k — the
    vectorized equivalent of maintaining a bounded heap.
    """
    if batch.length <= k:
        return batch.take(sort_indices(batch, keys))
    idx = sort_indices(batch, keys)[:k]
    return batch.take(idx)
