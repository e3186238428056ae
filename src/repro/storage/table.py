"""Per-worker table storage.

A :class:`TableStorage` manages one table's data on one worker node:
one fragment file per local disk (paper §III second-level partitioning),
row or columnar format, per-page-set min-max statistics, the predicate
cache, tombstone-based deletes (inserts are append-only, updates are
delete + re-insert — never in place), and reorganization to restore
clustering.

Scans, ``all_rows``, ``reorganize`` and index builds read *fragment
columns*: per (fragment, column), every page set's decoded values
concatenated into one array (a string column into one
:class:`DictColumn` over one appended dictionary), beside the sets' row
offsets. A fragment column is built on first use through the buffer
pool and the page decoder, and cached in the worker's decoded cache
(``BufferManager.decoded``) under the fragment's *generation*: a
process-wide number the fragment draws whenever its layout is rebuilt
(creation, which covers a meta reload, and ``reorganize``). Appends only add sets, so a cached column that
covers fewer sets than the fragment holds is extended by decoding only
the new ones. Tombstones are one fragment-wide row mask, kept current
with the live-row count by appends and deletes.

A scan first decides per page set, as before, which sets the index, the
predicate cache and the min/max statistics prove empty (each counted).
Then it makes one vectorized pass over the kept rows of the whole
fragment: predicate atoms over the atom columns (fixed-width values,
string dictionary entries) drop further sets, whose emptiness is
recorded in the predicate cache; the survivors' other columns are
gathered once, and any opaque conjuncts run the compiled predicate on
that thinned batch. A scan yields at most one batch per fragment.

DML costs what it changes. :meth:`TableStorage.find` decides sets the
same way (tombstones too), evaluates the predicate over the predicate's
columns only, extended no further than the last set it keeps, and
gathers the matches' other columns from the sets that hold one, decoded
set by set unless a cached fragment column already covers them; it
returns the matches' positions with their rows. Deletes tombstone those
positions, inserts append at a :class:`Span` named beforehand, and a
transaction's undo tombstones its spans and revives its positions.
A fragment writes its layout (``.meta``: the sets and the per-column
min/max arrays) only when it gains sets, and its packed tombstone mask
(``.del``) only when its tombstones change; the predicate cache has its
own file (``.pcache``), written by ``persist_caches``.
"""

from __future__ import annotations

import itertools
import operator
import pickle
import threading
from dataclasses import dataclass, fields
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from ..common.batch import DictColumn, RowBatch
from ..common.dtypes import DataType
from ..common.errors import StorageError
from ..common.schema import Schema
from ..util.fs import FileSystem
from .buffer import BufferManager
from . import col_page
from .col_page import decode_page, encode_column, estimate_rows_per_set, is_dict_page
from .page import PagedFile
from .predicate_cache import Atom, Op, PageMinMax, PredicateCache, ScanPredicate
from .row_page import RowPage, encode_row

PredicateFn = Callable[[RowBatch], np.ndarray]

ROW = "row"
COLUMN = "column"


@dataclass
class ScanStats:
    """Per-scan observability; benchmarks read these to show skipping.

    The counters are kept in units of page sets and column pages, as if
    each set were read page by page, although a scan reads decoded
    fragment columns: ``pages_read`` counts the column pages a set-at-a-
    time reader would have fetched; ``pages_skipped`` the pages a decode
    scan would have read but this scan avoided (index, predicate cache,
    min/max, or an empty atom mask: ``sets_skipped_encoded``);
    ``pages_pushed_down`` the atom-column pages whose atoms were answered
    in encoded form — fixed-width values, or the entries of a dictionary
    page — rather than per decoded row string; ``sets_pushed`` the sets
    that survived their atoms.
    """

    sets_total: int = 0
    sets_skipped_cache: int = 0
    sets_skipped_minmax: int = 0
    sets_skipped_index: int = 0
    sets_skipped_encoded: int = 0
    sets_read: int = 0
    sets_pushed: int = 0
    pages_read: int = 0
    pages_skipped: int = 0
    pages_pushed_down: int = 0
    rows_out: int = 0

    @property
    def sets_skipped(self) -> int:
        """Page sets never read, whichever mechanism proved them empty."""
        return (
            self.sets_skipped_cache + self.sets_skipped_minmax
            + self.sets_skipped_index + self.sets_skipped_encoded
        )

    def merge(self, other: "ScanStats") -> None:
        self.sets_total += other.sets_total
        self.sets_skipped_cache += other.sets_skipped_cache
        self.sets_skipped_minmax += other.sets_skipped_minmax
        self.sets_skipped_index += other.sets_skipped_index
        self.sets_skipped_encoded += other.sets_skipped_encoded
        self.sets_read += other.sets_read
        self.sets_pushed += other.sets_pushed
        self.pages_read += other.pages_read
        self.pages_skipped += other.pages_skipped
        self.pages_pushed_down += other.pages_pushed_down
        self.rows_out += other.rows_out


#: every ScanStats counter as one flat tuple (a scan's before/after snapshot)
_scan_counters = operator.attrgetter(*(f.name for f in fields(ScanStats)))


#: atom comparison semantics must match the compiled predicate exactly:
#: both sides reduce to the same elementwise operator over the same
#: values (a string column answers it per dictionary entry, through the
#: identical Python comparisons), so an encoded-page mask equals the
#: decode-path mask
_ATOM_OPS = {
    Op.LT: operator.lt,
    Op.LE: operator.le,
    Op.GT: operator.gt,
    Op.GE: operator.ge,
    Op.EQ: operator.eq,
    Op.NE: operator.ne,
}


#: fragment layouts are numbered from one process-wide counter, so a
#: decoded column's cache key ``(generation, column)`` names exactly one
#: layout of one fragment
_generations = itertools.count()


class _FragColumn(NamedTuple):
    """One column of a fragment, decoded: the values of its first
    ``n_sets`` page sets, concatenated."""

    values: np.ndarray | DictColumn
    n_sets: int
    #: per set, is its page answered in encoded form by a predicate atom?
    #: (a string column's dictionary pages); None: every page is
    encoded: np.ndarray | None


#: no row positions: what a DML predicate found in a fragment without a match
_NOTHING = np.zeros(0, dtype=np.int64)
_NOTHING.setflags(write=False)


def _rows(values, idx: np.ndarray | None):
    """A fragment column's rows ``idx`` (all of them for None)."""
    return col_page.handout(values) if idx is None else values[idx]


def _any_per_set(mask: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per set (given its first row; no set is empty): any row set?"""
    return np.logical_or.reduceat(mask, starts)


class _SetMeta(NamedTuple):
    first_page: int
    n_rows: int


class Span(NamedTuple):
    """Where one append lands: ``n_rows`` rows from the first row of set
    ``first_set`` of fragment ``fragment``. Appends only add sets, so a
    span names exactly the rows its append created."""

    fragment: int
    first_set: int
    n_rows: int


class Found(NamedTuple):
    """The live rows a DML predicate matched: per fragment with any, its
    number and their row positions, and the rows in that order."""

    rows: RowBatch
    at: list[tuple[int, np.ndarray]]


class _Fragment:
    """One fragment file (one disk) of one table."""

    def __init__(
        self,
        fs: FileSystem,
        bufmgr: BufferManager,
        path: str,
        schema: Schema,
        fmt: str,
        page_size: int,
        codec: str,
    ):
        self.fs = fs
        self.bufmgr = bufmgr
        self.path = path
        self.meta_path = path + ".meta"
        self.deleted_path = path + ".del"
        self.cache_path = path + ".pcache"
        self.schema = schema
        self.format = fmt
        self.page_size = page_size
        self.file = PagedFile(fs, path, page_size, codec)
        bufmgr.register_file(self.file)
        self.pred_cache = PredicateCache()
        #: lifetime scan counters for the metrics registry
        self.cum_stats = ScanStats()
        self._cum_lock = threading.Lock()
        #: set-granular secondary indexes: column -> B+-tree(value -> set id)
        self.indexes: dict[str, "BPlusTree"] = {}
        self._new_layout()
        if fs.exists(self.meta_path):
            self._load_meta()
            self._reopen_indexes()
        if fs.exists(self.deleted_path):
            self._load_tombstones()
        if fs.exists(self.cache_path):
            self.pred_cache = PredicateCache.from_bytes(self._read(self.cache_path))

    def _new_layout(self) -> None:
        """Start an empty layout: the decoded columns of the old one are
        dropped, and later ones are cached under a fresh generation."""
        if hasattr(self, "generation"):
            self.forget_decoded()
        self.generation = next(_generations)
        self.sets: list[_SetMeta] = []
        self.next_page = 0
        self.minmax = PageMinMax()
        #: row offsets of the sets (``len(sets) + 1`` values)
        self._bounds = np.zeros(1, dtype=np.int64)
        #: per row: tombstoned? (None while no row is)
        self._deleted: np.ndarray | None = None
        self._live = 0

    def forget_decoded(self) -> None:
        """Drop this layout's decoded columns from the worker's cache."""
        for c in self.schema:
            self.bufmgr.decoded.discard((self.generation, c.name))
            for set_id in range(len(self.sets)):
                self.bufmgr.decoded.discard((self.generation, c.name, set_id))

    # -- metadata persistence ---------------------------------------------------
    def _read(self, path: str) -> bytes:
        fh = self.fs.open(path, create=False)
        try:
            return fh.pread(0, fh.size())
        finally:
            fh.close()

    def _write(self, path: str, blob: bytes) -> None:
        fh = self.fs.open(path)
        try:
            fh.truncate(0)
            fh.pwrite(0, blob)
        finally:
            fh.close()

    def _save_meta(self) -> None:
        """Persist the layout (written when sets are added): a few
        arrays, whatever the number of sets."""
        self._write(self.meta_path, pickle.dumps(
            {
                "sets": np.array(self.sets, dtype=np.int64).reshape(-1, 2),
                "next_page": self.next_page,
                "minmax": self.minmax.columns(),
            },
            protocol=4,
        ))

    def _load_meta(self) -> None:
        meta = pickle.loads(self._read(self.meta_path))
        self.next_page = meta["next_page"]
        self.sets = [_SetMeta(p, n) for p, n in meta["sets"].tolist()]
        self._bounds = np.concatenate([[0], np.cumsum(meta["sets"][:, 1])]).astype(np.int64)
        self.minmax = PageMinMax(meta["minmax"])
        self._live = int(self._bounds[-1])

    def _save_tombstones(self) -> None:
        """Persist the tombstone mask, packed (written by deletes, which
        change nothing else)."""
        deleted = self._deleted
        self._write(self.deleted_path, b"" if deleted is None else np.packbits(deleted).tobytes())

    def _load_tombstones(self) -> None:
        bits = np.unpackbits(np.frombuffer(self._read(self.deleted_path), dtype=np.uint8))
        total = int(self._bounds[-1])
        n = min(total, len(bits))  # rows appended after the last write are live
        if bits[:n].any():
            self._deleted = np.zeros(total, dtype=bool)
            self._deleted[:n] = bits[:n]
            self._live = total - int(self._deleted.sum())

    def persist_cache(self) -> None:
        """Write the predicate cache to its file (the paper's periodic
        persist; reloaded when the fragment is opened again)."""
        self._write(self.cache_path, self.pred_cache.to_bytes())

    # -- writing -----------------------------------------------------------------
    def append_batch(self, batch: RowBatch) -> None:
        first_new = len(self.sets)
        minmax: list[dict[str, tuple]] = []  # one entry per published set
        try:
            if self.format == COLUMN:
                self._append_columnar(batch, minmax)
            else:
                self._append_rows(batch, minmax)
        finally:
            # min/max may trail the published sets: a set it does not
            # cover yet is simply never skipped
            self.minmax.extend(minmax)
        self._save_meta()
        for col in list(self.indexes):
            self._index_sets(col, first_new)

    def _add_set(self, first_page: int, chunk: RowBatch, minmax: list) -> None:
        """Publish one written set. Its row offsets and tombstone rows go
        in first, so a concurrent reader that sees the set sees them too."""
        n = chunk.length
        minmax.append(_column_minmax(chunk))
        self._bounds = np.append(self._bounds, self._bounds[-1] + n)
        if self._deleted is not None:
            self._deleted = np.concatenate([self._deleted, np.zeros(n, dtype=bool)])
        self._live += n
        # page sets are immutable once written (appends always open a new
        # set), so every set is safe to predicate-cache — the paper's
        # "full page" validity condition holds by construction
        self.sets.append(_SetMeta(first_page, n))

    def _append_columnar(self, batch: RowBatch, minmax: list) -> None:
        types = [c.dtype for c in self.schema]
        rows_per_set = estimate_rows_per_set(types, self.file.max_payload)
        # column positions in the order an attempt encodes them: the one
        # that overflowed last goes first, so a set that cannot fit is
        # usually abandoned after a single encode
        order = list(range(len(self.schema)))
        off = 0
        while off < batch.length:
            # halve until every encoded column fits the page slot
            take = min(rows_per_set, batch.length - off)
            while True:
                chunk = batch.slice(off, off + take)
                payloads = self._encode_set(chunk, order)
                if payloads is not None:
                    break
                if take == 1:
                    raise StorageError("single row exceeds page capacity")
                take //= 2
            first_page = self.next_page
            for i, payload in enumerate(payloads):
                self.bufmgr.put(self.path, first_page + i, payload)
            self.next_page += len(payloads)
            self._add_set(first_page, chunk, minmax)
            off += take

    def _encode_set(self, chunk: RowBatch, order: list[int]) -> list[bytes] | None:
        """Every column page of ``chunk`` in schema order, or None at the
        first one over the page slot (moved to the front of ``order``)."""
        payloads: list[bytes] = [b""] * len(order)
        for pos, i in enumerate(order):
            c = self.schema.columns[i]
            payload = encode_column(chunk.col(c.name), c.dtype)
            if len(payload) > self.file.max_payload:
                order.insert(0, order.pop(pos))
                return None
            payloads[i] = payload
        return payloads

    def _append_rows(self, batch: RowBatch, minmax: list) -> None:
        page = RowPage(self.file.max_payload)
        start_row = 0
        rows_in_page = 0
        values = [batch.col(c.name) for c in self.schema]
        for r in range(batch.length):
            row = encode_row(self.schema, [v[r] for v in values])
            if page.try_append(row) is None:
                self._flush_row_page(page, batch.slice(start_row, start_row + rows_in_page), minmax)
                page = RowPage(self.file.max_payload)
                if page.try_append(row) is None:
                    raise StorageError("single row exceeds page capacity")
                start_row = r
                rows_in_page = 0
            rows_in_page += 1
        if rows_in_page:
            self._flush_row_page(page, batch.slice(start_row, start_row + rows_in_page), minmax)

    def _flush_row_page(self, page: RowPage, chunk: RowBatch, minmax: list) -> None:
        self.bufmgr.put(self.path, self.next_page, page.to_payload())
        # row pages are likewise immutable once flushed
        self.next_page += 1
        self._add_set(self.next_page - 1, chunk, minmax)

    def set_tombstones(self, positions: np.ndarray, deleted: bool) -> None:
        """Tombstone (or, undoing a delete, revive) the rows at
        ``positions``. The mask is replaced, never written in place, so a
        concurrent scan reads one whole mask."""
        mask = self._deleted
        mask = np.zeros(int(self._bounds[-1]), dtype=bool) if mask is None else mask.copy()
        changed = int((mask[positions] != deleted).sum())
        if not changed:
            return
        mask[positions] = deleted
        self._live += -changed if deleted else changed
        self._deleted = mask if mask.any() else None
        self._save_tombstones()

    def span_rows(self, first_set: int, n_rows: int) -> np.ndarray:
        """The positions of ``n_rows`` rows from set ``first_set`` on (of
        those that exist: an append may have failed part-way)."""
        start = int(self._bounds[min(first_set, len(self.sets))])
        return np.arange(start, min(start + n_rows, int(self._bounds[-1])), dtype=np.int64)

    # -- secondary indexes (set-granular, paper §III) ------------------------------
    def _index_path(self, column: str) -> str:
        return f"{self.path}.idx.{column}"

    def _reopen_indexes(self) -> None:
        from .btree import BPlusTree

        for c in self.schema:
            if self.fs.exists(self._index_path(c.name) + ".meta"):
                self.indexes[c.name] = BPlusTree(
                    self.fs, self.bufmgr, self._index_path(c.name), page_size=self.page_size
                )

    def create_index(self, column: str) -> None:
        """Build a disk-resident index mapping values to the page sets that
        contain them. Scans use it to read only candidate sets; deletes are
        logical (the index stays a superset, which is always safe)."""
        from .btree import BPlusTree

        col = self.schema.resolve(column)
        self.fs.delete(self._index_path(col))
        self.fs.delete(self._index_path(col) + ".meta")
        self.bufmgr.invalidate(self._index_path(col))
        tree = BPlusTree(self.fs, self.bufmgr, self._index_path(col), page_size=self.page_size)
        self.indexes[col] = tree
        self._index_sets(col, 0)

    def _index_sets(self, col: str, first: int) -> None:
        """Index the values of sets ``first`` onwards; tombstoned values
        stay indexed: the index is a superset anyway."""
        n_sets = len(self.sets)
        if first >= n_sets:
            return
        bounds = self._set_bounds(n_sets)
        column = self._columns([col], n_sets)[col].values
        for set_id in range(first, n_sets):
            values = column[bounds[set_id] : bounds[set_id + 1]]
            distinct = set(values.tolist()) if isinstance(values, DictColumn) else np.unique(values)
            for v in distinct:
                self.indexes[col].insert(v if isinstance(v, str) else v.item() if hasattr(v, "item") else v, set_id)

    def _index_candidates(self, scan_pred: ScanPredicate) -> set[int] | None:
        """Set ids that may contain matches, per the indexes; None = no
        usable index constraint."""
        from .predicate_cache import _intervals

        if not self.indexes or scan_pred is None or not scan_pred.atoms:
            return None
        ivs = _intervals(scan_pred.atoms)
        if ivs is None:
            return set()  # unsatisfiable predicate: nothing can match
        candidates: set[int] | None = None
        for col, iv in ivs.items():
            tree = self.indexes.get(col)
            if tree is None or (iv.lo is None and iv.hi is None):
                continue
            ids = {
                sid
                for _, sid in tree.range_scan(
                    iv.lo, iv.hi,
                    lo_inclusive=not iv.lo_strict,
                    hi_inclusive=not iv.hi_strict,
                )
            }
            candidates = ids if candidates is None else (candidates & ids)
        return candidates

    # -- fragment columns -------------------------------------------------------------
    def _set_bounds(self, n_sets: int) -> np.ndarray:
        """Row offsets of the first ``n_sets`` sets (``n_sets + 1`` values)."""
        return self._bounds[: n_sets + 1]

    def _columns(self, names: Sequence[str], n_sets: int) -> dict[str, _FragColumn]:
        """The decoded columns ``names``, covering at least the first
        ``n_sets`` sets: cached, or built (extended, after appends)."""
        out: dict[str, _FragColumn] = {}
        stale: list[tuple[str, _FragColumn | None]] = []
        for name in names:
            fc = self.bufmgr.decoded.lookup((self.generation, name))
            if fc is None or fc.n_sets < n_sets:
                stale.append((name, fc))
            elif fc.n_sets == n_sets:
                out[name] = fc
            else:  # extended past this reader's sets by a later append
                rows = int(self._set_bounds(n_sets)[-1])
                out[name] = _FragColumn(
                    fc.values[:rows], n_sets, None if fc.encoded is None else fc.encoded[:n_sets]
                )
        if stale:
            out.update(self._build_columns(stale, n_sets))
        return out

    def _build_columns(
        self, stale: list[tuple[str, _FragColumn | None]], n_sets: int
    ) -> dict[str, _FragColumn]:
        """Decode the sets each column is missing (all of them, or those
        appended since it was cached), through the buffer pool, and cache
        the extended columns."""
        sets = self.sets[:n_sets]
        first = min(0 if fc is None else fc.n_sets for _, fc in stale)
        if self.format == ROW:
            # a row page holds every column: decode each page once for all
            # the columns that need it
            batches = [
                RowPage.from_payload(
                    self.bufmgr.get(self.path, s.first_page), self.file.max_payload
                ).to_batch(self.schema)
                for s in sets[first:]
            ]
        out = {}
        for name, fc in stale:
            start = 0 if fc is None else fc.n_sets
            new_sets = sets[start:]
            dtype = self.schema.dtype_of(name)
            encoded = None
            if self.format == ROW:
                parts = [b.col(name) for b in batches[start - first :]]
            else:
                col_no = self.schema.index_of(name)
                pages = [s.first_page + col_no for s in new_sets]
                self.bufmgr.declare_scan(self.path, pages[:256])
                payloads = self.bufmgr.get_many(self.path, pages)
                parts = [
                    decode_page(p, dtype, s.n_rows, self.bufmgr.decoded)
                    for p, s in zip(payloads, new_sets)
                ]
                if dtype == DataType.STRING:
                    encoded = np.array([is_dict_page(p) for p in payloads], dtype=bool)
            if fc is not None:
                parts.insert(0, fc.values)
                if encoded is not None:
                    encoded = np.concatenate([fc.encoded, encoded])
            if dtype == DataType.STRING:
                values = DictColumn.concat(parts)
            else:
                values = np.concatenate(parts)
            fc = _FragColumn(col_page.freeze(values), n_sets, encoded)
            nbytes = col_page.decoded_nbytes(values) + (0 if encoded is None else encoded.nbytes)
            self.bufmgr.decoded.insert((self.generation, name), fc, nbytes)
            out[name] = fc
        return out

    def _tombstones(self, n_sets: int) -> tuple[np.ndarray | None, np.ndarray | None]:
        """(per row of the first ``n_sets`` sets: tombstoned?, per set: has
        it tombstones?), or (None, None) when no row is."""
        deleted = self._deleted
        if deleted is None:
            return None, None
        bounds = self._set_bounds(n_sets)
        rows = deleted[: bounds[-1]]
        return rows, _any_per_set(rows, bounds[:-1])

    def _set_columns(self, names: Sequence[str], set_id: int) -> dict:
        """The columns ``names`` of one set, decoded on their own (and
        cached under the set) — for the few sets a DML touches."""
        cache = self.bufmgr.decoded
        out, missing = {}, []
        for name in names:
            hit = cache.lookup((self.generation, name, set_id))
            if hit is None:
                missing.append(name)
            else:
                out[name] = hit
        if not missing:
            return out
        s = self.sets[set_id]
        if self.format == ROW:
            page = RowPage.from_payload(self.bufmgr.get(self.path, s.first_page), self.file.max_payload)
            batch = page.to_batch(self.schema)
            decoded = {name: batch.col(name) for name in missing}
        else:
            pages = [s.first_page + self.schema.index_of(name) for name in missing]
            decoded = {
                name: decode_page(payload, self.schema.dtype_of(name), s.n_rows, cache)
                for name, payload in zip(missing, self.bufmgr.get_many(self.path, pages))
            }
        for name, values in decoded.items():
            values = col_page.freeze(values)
            cache.insert((self.generation, name, set_id), values, col_page.decoded_nbytes(values))
            out[name] = values
        return out

    def _read_all(self, n_sets: int) -> RowBatch:
        """Every column of the first ``n_sets`` sets, tombstoned rows too."""
        if not n_sets:
            return RowBatch.empty(self.schema)
        cols = self._columns(self.schema.names(), n_sets)
        total = int(self._set_bounds(n_sets)[-1])
        return RowBatch._trusted(
            self.schema, {n: _rows(cols[n].values, None) for n in self.schema.names()}, total
        )

    # -- scanning -----------------------------------------------------------------
    def scan(
        self,
        columns: Sequence[str],
        predicate: PredicateFn | None = None,
        scan_pred: ScanPredicate | None = None,
        skipping: bool = True,
        stats: ScanStats | None = None,
        neardata: bool = False,
    ) -> Iterator[RowBatch]:
        stats = stats if stats is not None else ScanStats()
        before = _scan_counters(stats)
        try:
            yield from self._scan_impl(columns, predicate, scan_pred, skipping, stats, neardata)
        finally:
            delta = ScanStats(*(b - a for a, b in zip(before, _scan_counters(stats))))
            with self._cum_lock:
                self.cum_stats.merge(delta)

    def _kept_sets(self, n_sets: int, scan_pred: ScanPredicate, stats: ScanStats) -> np.ndarray:
        """Per set: not proven empty by the index, the predicate cache or
        the min/max statistics (asked in that order, each counted)."""
        keep = np.ones(n_sets, dtype=bool)
        candidates = self._index_candidates(scan_pred)
        if candidates is not None:
            keep[:] = False
            keep[[c for c in candidates if c < n_sets]] = True
            stats.sets_skipped_index += n_sets - int(np.count_nonzero(keep))
        cached = self.pred_cache.skippable(keep, scan_pred)
        if cached:
            keep[cached] = False
            stats.sets_skipped_cache += len(cached)
        minmax = self.minmax.skippable(n_sets, scan_pred)
        minmax &= keep
        stats.sets_skipped_minmax += int(np.count_nonzero(minmax))
        keep[minmax] = False
        return keep

    def _scan_impl(
        self,
        columns: Sequence[str],
        predicate: PredicateFn | None,
        scan_pred: ScanPredicate | None,
        skipping: bool,
        stats: ScanStats,
        neardata: bool,
    ) -> Iterator[RowBatch]:
        out_schema = self.schema.project([self.schema.resolve(c) for c in columns])
        names = out_schema.names()
        n_sets = len(self.sets)  # a concurrent append only adds sets after these
        stats.sets_total += n_sets
        pages_per_set = len(names) if self.format == COLUMN else 1
        pruning = skipping and scan_pred is not None
        keep = None
        if pruning:
            keep = self._kept_sets(n_sets, scan_pred, stats)
            stats.pages_skipped += pages_per_set * int(n_sets - keep.sum())
        kept = np.arange(n_sets) if keep is None else np.flatnonzero(keep)
        if not len(kept):
            return

        # predicate atoms grouped by column for the encoded path; the
        # compiler guarantees atoms+opaque ≡ the full predicate, so when
        # opaque is empty the atom masks alone ARE the predicate
        atoms_by_col: dict[str, list[Atom]] = {}
        if neardata and self.format == COLUMN and pruning:
            for a in sorted(scan_pred.atoms, key=str):
                atoms_by_col.setdefault(a.column, []).append(a)
        cols = self._columns(list(dict.fromkeys([*names, *atoms_by_col])), n_sets)
        bounds = self._set_bounds(n_sets)
        sizes = np.diff(bounds)[kept]
        # the rows of the kept sets (None: every row), and each kept set's
        # first row among them
        idx = None if len(kept) == n_sets else np.flatnonzero(np.repeat(keep, np.diff(bounds)))
        starts = np.cumsum(sizes) - sizes
        tomb, tombstoned = self._tombstones(n_sets)
        if tomb is not None:
            tomb = tomb if idx is None else tomb[idx]
            tombstoned = tombstoned[kept]

        if atoms_by_col:
            mask = self._atom_pass(
                cols, atoms_by_col, names, idx, kept, starts, tomb, tombstoned, scan_pred, stats
            )
            recheck = bool(scan_pred.opaque) and predicate is not None
        else:
            stats.sets_read += len(kept)
            stats.pages_read += len(kept) * pages_per_set
            mask = None if tomb is None else ~tomb
            recheck = predicate is not None
        sel = np.flatnonzero(mask) if mask is not None else None
        rows = sel if idx is None else idx if sel is None else idx[sel]
        batch = RowBatch._trusted(
            out_schema,
            {n: _rows(cols[n].values, rows) for n in names},
            int(bounds[-1]) if rows is None else len(rows),
        )
        if recheck:
            # the compiled predicate over the (already thinned) candidates —
            # bit-identical to decode-then-filter because expr ⇒ atoms
            m = predicate(batch)
            if pruning:
                # a set none of whose rows matches is empty for the predicate:
                # cached, unless tombstones could be hiding future matches
                hit = m
                if sel is not None:
                    hit = np.zeros(int(sizes.sum()), dtype=bool)
                    hit[sel] = m
                empty = ~_any_per_set(hit, starts)
                if atoms_by_col:
                    # sets the atoms dropped were counted there
                    empty &= _any_per_set(mask, starts)
                if tombstoned is not None:
                    empty &= ~tombstoned
                for set_id in kept[empty].tolist():
                    self.pred_cache.record_empty(set_id, scan_pred)
            batch = batch.filter(m)
        if batch.length:
            stats.rows_out += batch.length
            yield batch

    def _atom_pass(
        self, cols, atoms_by_col, names, idx, kept, starts, tomb, tombstoned, scan_pred, stats
    ) -> np.ndarray:
        """The atoms' row mask over the kept rows, live rows only. Sets it
        leaves empty are skipped (and cached as empty); the counters are
        those of reading each set's atom pages in order, stopping at the
        first that leaves the set empty."""
        n_kept = len(kept)
        alive = np.ones(n_kept, dtype=bool)  # sets no atom page has emptied yet
        fetched = np.zeros(n_kept, dtype=np.int64)  # of those pages, scan columns
        mask = None
        for name, atoms in atoms_by_col.items():
            fc = cols[name]
            values = _rows(fc.values, idx)
            for a in atoms:
                m = _ATOM_OPS[a.op](values, a.value)
                mask = m if mask is None else mask & m
            stats.pages_read += int(alive.sum())
            encoded = alive if fc.encoded is None else alive & fc.encoded[kept]
            stats.pages_pushed_down += int(encoded.sum())
            if name in names:
                fetched += alive
            alive &= _any_per_set(mask, starts)
        # the full predicate implies its atoms, so an empty atom mask over
        # a whole set proves the set empty for the predicate too
        dropped = ~alive
        stats.sets_skipped_encoded += int(dropped.sum())
        stats.pages_skipped += int((len(names) - fetched[dropped]).sum())
        cacheable = dropped if tombstoned is None else dropped & ~tombstoned
        for set_id in kept[cacheable].tolist():
            self.pred_cache.record_empty(set_id, scan_pred)
        n_alive = int(alive.sum())
        stats.sets_pushed += n_alive
        stats.sets_read += n_alive
        if tomb is not None:
            mask = mask & ~tomb
        # a survivor's other scan columns are read unless tombstones left
        # it no candidate row
        others = len(set(names) - atoms_by_col.keys())
        stats.pages_read += others * int((alive & _any_per_set(mask, starts)).sum())
        return mask

    # -- DML ---------------------------------------------------------------------
    def find(
        self, predicate: PredicateFn, columns: Sequence[str], scan_pred: ScanPredicate | None
    ) -> tuple[np.ndarray, RowBatch | None]:
        """The live rows matching ``predicate``, which reads only
        ``columns``: their positions, ascending, and the rows (None when
        there are none).

        Sets are decided by tombstones and, given ``scan_pred``, by the
        index, the predicate cache and min/max; the predicate's columns
        are read no further than the last set kept, and the other columns
        only from the sets holding a match."""
        n_sets = len(self.sets)
        if not n_sets:
            return _NOTHING, None
        bounds = self._set_bounds(n_sets)
        sizes = np.diff(bounds)
        keep = np.ones(n_sets, dtype=bool)
        if scan_pred is not None:
            keep = self._kept_sets(n_sets, scan_pred, ScanStats())
        tomb = self._deleted
        if tomb is not None:
            tomb = tomb[: bounds[-1]]
            keep &= np.add.reduceat(tomb.view(np.uint8), bounds[:-1], dtype=np.int64) < sizes
        kept = np.flatnonzero(keep)
        if not len(kept):
            return _NOTHING, None
        n_read = int(kept[-1]) + 1
        rows = np.flatnonzero(np.repeat(keep[:n_read], sizes[:n_read]))
        if tomb is not None:
            rows = rows[~tomb[rows]]
        wanted = set(columns)
        names = [n for n in self.schema.names() if n in wanted]
        cols = self._columns(names, n_read)
        candidates = RowBatch._trusted(
            self.schema.project(names), {n: cols[n].values[rows] for n in names}, len(rows)
        )
        hit = predicate(candidates)
        positions = rows[hit]
        if not len(positions):
            return _NOTHING, None
        out = {n: candidates.col(n)[hit] for n in names}
        others = [n for n in self.schema.names() if n not in out]
        last = int(np.searchsorted(bounds, positions[-1], side="right"))  # sets to cover
        for n in others:
            fc = self.bufmgr.decoded.lookup((self.generation, n))
            if fc is not None and fc.n_sets >= last:
                out[n] = fc.values[positions]
        missing = [n for n in others if n not in out]
        if missing:
            set_of = np.searchsorted(bounds, positions, side="right") - 1
            ids, starts = np.unique(set_of, return_index=True)
            parts: dict[str, list] = {n: [] for n in missing}
            for set_id, lo, hi in zip(ids.tolist(), starts, [*starts[1:], len(positions)]):
                values = self._set_columns(missing, set_id)
                local = positions[lo:hi] - bounds[set_id]
                for n in missing:
                    parts[n].append(values[n][local])
            for n in missing:
                join = DictColumn.concat if isinstance(parts[n][0], DictColumn) else np.concatenate
                out[n] = join(parts[n])
        return positions, RowBatch._trusted(self.schema, out, len(positions))

    # -- maintenance ----------------------------------------------------------------
    def all_rows(self) -> RowBatch:
        n_sets = len(self.sets)
        tomb, _ = self._tombstones(n_sets)
        batch = self._read_all(n_sets)
        return batch if tomb is None else batch.filter(~tomb)

    def reorganize(self, clustering: Sequence[str] | None) -> None:
        """Rewrite the fragment sorted on the clustering key; clears caches."""
        data = self.all_rows()
        if clustering:
            keys = [_order_key(data.col(data.schema.resolve(c))) for c in reversed(list(clustering))]
            order = np.lexsort(keys)
            data = data.take(order)
        self.bufmgr.invalidate(self.path)
        self.file.truncate_pages(0)
        self._new_layout()
        # the cleared cache and tombstones reach disk before any new set
        # does, so nothing persisted names a set whose content changed
        self.pred_cache.clear()
        self.persist_cache()
        if self.fs.exists(self.deleted_path):
            self._save_tombstones()
        indexed_cols = list(self.indexes)
        self.indexes = {}
        if data.length:
            self.append_batch(data)
        else:
            self._save_meta()
        for col in indexed_cols:  # rebuild over the new layout
            self.create_index(col)

    @property
    def row_count(self) -> int:
        return self._live


class TableStorage:
    """All fragments of one table on one worker."""

    def __init__(
        self,
        fs: FileSystem,
        bufmgr: BufferManager,
        name: str,
        schema: Schema,
        fmt: str = COLUMN,
        n_disks: int = 1,
        page_size: int = 128 * 1024,
        codec: str = "lz4sim",
        clustering: Sequence[str] | None = None,
    ):
        if fmt not in (ROW, COLUMN):
            raise StorageError(f"unknown table format {fmt!r}")
        self.name = name
        self.schema = schema
        self.format = fmt
        self.clustering = tuple(clustering or ())
        self.fragments = [
            _Fragment(
                fs,
                bufmgr,
                f"tables/{name}/disk{d}.dat",
                schema,
                fmt,
                page_size,
                codec,
            )
            for d in range(n_disks)
        ]

    def load(self, batch: RowBatch, disk_assignment: np.ndarray | None = None) -> None:
        """Bulk-load rows, sorting for clustering and spreading over disks."""
        if self.clustering:
            keys = [
                _order_key(batch.col(batch.schema.resolve(c)))
                for c in reversed(self.clustering)
            ]
            batch = batch.take(np.lexsort(keys))
        if disk_assignment is None or len(self.fragments) == 1:
            targets = np.arange(batch.length) % len(self.fragments)
        else:
            targets = disk_assignment
        for d, frag in enumerate(self.fragments):
            part = batch.filter(targets == d)
            if part.length:
                frag.append_batch(part)

    def next_span(self, n_rows: int, fragment: int | None = None) -> Span:
        """Where an append of ``n_rows`` rows will land: after the last
        set of ``fragment``, by default the one with the fewest live rows."""
        if fragment is None:
            fragment = min(range(len(self.fragments)), key=lambda i: self.fragments[i].row_count)
        return Span(fragment, len(self.fragments[fragment].sets), n_rows)

    def insert(self, batch: RowBatch, at: Span | None = None) -> Span:
        """DML insert: append-only, does NOT respect clustering (paper).
        ``at`` is the span a caller named (and logged) beforehand."""
        at = at or self.next_span(batch.length)
        frag = self.fragments[at.fragment]
        if (at.first_set, at.n_rows) != (len(frag.sets), batch.length):
            raise StorageError(f"insert at {at} after {len(frag.sets)} sets of {self.name!r}")
        frag.append_batch(batch)
        return at

    def find(
        self,
        predicate: PredicateFn,
        columns: Sequence[str] | None = None,
        scan_pred: ScanPredicate | None = None,
    ) -> Found:
        """The live rows matching ``predicate`` (which reads ``columns``,
        by default all) in every fragment; ``scan_pred``, the predicate's
        skipping key, lets min/max and the predicate cache drop sets."""
        names = self.schema.names() if columns is None else list(columns)
        at, parts = [], []
        for i, frag in enumerate(self.fragments):
            positions, rows = frag.find(predicate, names, scan_pred)
            if len(positions):
                at.append((i, positions))
                parts.append(rows)
        return Found(RowBatch.concat(self.schema, parts), at)

    def tombstone(self, at: Sequence[tuple[int, np.ndarray]]) -> None:
        """Delete the rows at these (fragment, positions)."""
        for i, positions in at:
            self.fragments[i].set_tombstones(positions, True)

    def revive(self, at: Sequence[tuple[int, np.ndarray]]) -> None:
        """Undo a delete of the rows at these (fragment, positions)."""
        for i, positions in at:
            self.fragments[i].set_tombstones(positions, False)

    def span_rows(self, span: Span) -> tuple[int, np.ndarray]:
        """(fragment, positions) of the rows an append at ``span`` created."""
        return span.fragment, self.fragments[span.fragment].span_rows(span.first_set, span.n_rows)

    def scan(
        self,
        columns: Sequence[str] | None = None,
        predicate: PredicateFn | None = None,
        scan_pred: ScanPredicate | None = None,
        skipping: bool = True,
        stats: ScanStats | None = None,
        neardata: bool = False,
    ) -> Iterator[RowBatch]:
        cols = list(columns) if columns is not None else self.schema.names()
        for frag in self.fragments:
            yield from frag.scan(cols, predicate, scan_pred, skipping, stats, neardata)

    def reorganize(self) -> None:
        for f in self.fragments:
            f.reorganize(self.clustering)

    def create_index(self, column: str) -> None:
        for f in self.fragments:
            f.create_index(column)

    def persist_caches(self) -> None:
        """Flush predicate caches to disk (the paper's periodic persist)."""
        for f in self.fragments:
            f.persist_cache()

    @property
    def indexed_columns(self) -> set[str]:
        out: set[str] = set()
        for f in self.fragments:
            out |= set(f.indexes)
        return out

    @property
    def row_count(self) -> int:
        return sum(f.row_count for f in self.fragments)

    def cumulative_stats(self) -> ScanStats:
        """Lifetime scan counters across fragments (metrics registry)."""
        out = ScanStats()
        for f in self.fragments:
            with f._cum_lock:
                out.merge(f.cum_stats)
        return out


def _order_key(col) -> np.ndarray:
    """What ``np.lexsort`` orders a column by: a string column's value ranks."""
    return col.ranks() if isinstance(col, DictColumn) else col


def _column_minmax(batch: RowBatch) -> dict[str, tuple]:
    out: dict[str, tuple] = {}
    for col in batch.schema:
        arr = batch.col(col.name)
        if not len(arr):
            continue
        if isinstance(arr, DictColumn):
            vals = arr.tolist()
            # plain str: a numpy string scalar pickles an order slower
            out[col.name] = (str(min(vals)), str(max(vals)))
        else:
            out[col.name] = (arr.min().item(), arr.max().item())
    return out
