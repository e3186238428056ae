"""Per-worker table storage.

A :class:`TableStorage` manages one table's data on one worker node:
one fragment file per local disk (paper §III second-level partitioning),
row or columnar format, per-page-set min-max statistics, the predicate
cache, tombstone-based deletes (inserts are append-only, updates are
delete + re-insert — never in place), and reorganization to restore
clustering.

Scans stream :class:`RowBatch` objects, apply the pushed-down predicate
vectorized, consult the skipping structures, pre-declare upcoming pages
to the buffer manager, and feed the predicate cache with pages that
matched nothing.
"""

from __future__ import annotations

import operator
import pickle
import threading
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Sequence

import numpy as np

from ..common.batch import DictColumn, RowBatch
from ..common.dtypes import DataType
from ..common.errors import StorageError
from ..common.schema import Schema
from ..util.fs import FileSystem
from .buffer import BufferManager
from .col_page import (
    column_values_view,
    decode_column,
    encode_column,
    estimate_rows_per_set,
    is_dict_page,
)
from .page import PagedFile
from .predicate_cache import Atom, Op, PageMinMax, PredicateCache, ScanPredicate
from .row_page import RowPage, encode_row

PredicateFn = Callable[[RowBatch], np.ndarray]

ROW = "row"
COLUMN = "column"


@dataclass
class ScanStats:
    """Per-scan observability; benchmarks read these to show skipping.

    ``pages_skipped`` counts pages a solo decode scan would have read
    but this scan avoided (zone maps, predicate cache, indexes, or
    encoded-page elimination); ``pages_pushed_down`` counts pages whose
    predicate atoms were evaluated in encoded form (raw fixed-width view
    or dictionary code space) without materializing a RowBatch.
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


def _atom_mask(
    payload: bytes, dtype: DataType, n_rows: int, atoms: list[Atom]
) -> tuple[np.ndarray, bool]:
    """Row mask for a conjunction of atoms over one encoded column page.

    Returns ``(mask, encoded)`` where ``encoded`` is True when the page
    was evaluated near-data (fixed-width view or dictionary code space)
    rather than via a full decode.
    """
    if dtype == DataType.STRING:
        # atoms run against the page's dictionary and map through its
        # codes. A value absent from a dictionary page's (tiny) dictionary
        # simply yields an all-false mask for EQ — the whole set drops. A
        # plain Huffman page has one entry per row, so nothing was saved:
        # counted as read, not pushed
        values = decode_column(payload, dtype, n_rows)
        encoded = is_dict_page(payload)
    else:
        values = column_values_view(payload, dtype, n_rows)
        encoded = True
    mask: np.ndarray | None = None
    for a in atoms:
        m = _ATOM_OPS[a.op](values, a.value)
        mask = m if mask is None else mask & m
    return mask, encoded


def _gather_column(payload: bytes, dtype: DataType, n_rows: int, sel: np.ndarray):
    """Materialize only the selected rows of one encoded column page."""
    if dtype == DataType.STRING:
        return decode_column(payload, dtype, n_rows)[sel]
    return column_values_view(payload, dtype, n_rows)[sel]


@dataclass
class _SetMeta:
    first_page: int
    n_rows: int
    minmax: dict[str, tuple]
    deleted: np.ndarray | None = None  # bool mask or None when no deletes

    @property
    def n_live(self) -> int:
        return self.n_rows - (int(self.deleted.sum()) if self.deleted is not None else 0)


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
        self.schema = schema
        self.format = fmt
        self.page_size = page_size
        self.file = PagedFile(fs, path, page_size, codec)
        bufmgr.register_file(self.file)
        self.sets: list[_SetMeta] = []
        self.next_page = 0
        self.pred_cache = PredicateCache()
        self.minmax = PageMinMax()
        #: lifetime scan counters for the metrics registry
        self.cum_stats = ScanStats()
        self._cum_lock = threading.Lock()
        #: set-granular secondary indexes: column -> B+-tree(value -> set id)
        self.indexes: dict[str, "BPlusTree"] = {}
        if fs.exists(self.meta_path):
            self._load_meta()
            self._reopen_indexes()

    # -- metadata persistence ---------------------------------------------------
    def _save_meta(self) -> None:
        blob = pickle.dumps(
            {
                "sets": [
                    (
                        s.first_page,
                        s.n_rows,
                        s.minmax,
                        None if s.deleted is None else np.packbits(s.deleted).tobytes(),
                    )
                    for s in self.sets
                ],
                "next_page": self.next_page,
                # predicate caches are persisted and reloaded on restart
                # (paper §III: "periodically persisted to disk")
                "pred_cache": self.pred_cache.to_bytes(),
            },
            protocol=4,
        )
        fh = self.fs.open(self.meta_path)
        fh.truncate(0)
        fh.pwrite(0, blob)
        fh.close()

    def _load_meta(self) -> None:
        fh = self.fs.open(self.meta_path, create=False)
        blob = fh.pread(0, fh.size())
        fh.close()
        meta = pickle.loads(blob)
        self.next_page = meta["next_page"]
        if meta.get("pred_cache"):
            self.pred_cache = PredicateCache.from_bytes(meta["pred_cache"])
        self.sets = []
        for first_page, n_rows, minmax, deleted in meta["sets"]:
            mask = None
            if deleted is not None:
                mask = np.unpackbits(np.frombuffer(deleted, dtype=np.uint8))[:n_rows].astype(bool)
            self.sets.append(_SetMeta(first_page, n_rows, minmax, mask))
        for i, s in enumerate(self.sets):
            if s.minmax:
                self.minmax.record(i, s.minmax)

    # -- writing -----------------------------------------------------------------
    def append_batch(self, batch: RowBatch) -> None:
        first_new = len(self.sets)
        if self.format == COLUMN:
            self._append_columnar(batch)
        else:
            self._append_rows(batch)
        self._save_meta()
        for set_id in range(first_new, len(self.sets)):
            for col in list(self.indexes):
                self._index_set(col, set_id, self.sets[set_id])

    def _append_columnar(self, batch: RowBatch) -> None:
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
            # page sets are immutable once written (appends always open a
            # new set), so every set is safe to predicate-cache — the
            # paper's "full page" validity condition holds by construction
            meta = _SetMeta(first_page, take, _column_minmax(chunk))
            self.sets.append(meta)
            self.minmax.record(len(self.sets) - 1, meta.minmax)
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

    def _append_rows(self, batch: RowBatch) -> None:
        page = RowPage(self.file.max_payload)
        start_row = 0
        rows_in_page = 0
        values = [batch.col(c.name) for c in self.schema]
        for r in range(batch.length):
            row = encode_row(self.schema, [v[r] for v in values])
            if page.try_append(row) is None:
                self._flush_row_page(page, batch.slice(start_row, start_row + rows_in_page))
                page = RowPage(self.file.max_payload)
                if page.try_append(row) is None:
                    raise StorageError("single row exceeds page capacity")
                start_row = r
                rows_in_page = 0
            rows_in_page += 1
        if rows_in_page:
            self._flush_row_page(page, batch.slice(start_row, start_row + rows_in_page))

    def _flush_row_page(self, page: RowPage, chunk: RowBatch) -> None:
        self.bufmgr.put(self.path, self.next_page, page.to_payload())
        # row pages are likewise immutable once flushed
        meta = _SetMeta(self.next_page, page.n_slots, _column_minmax(chunk))
        self.next_page += 1
        self.sets.append(meta)
        self.minmax.record(len(self.sets) - 1, meta.minmax)

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
        for set_id, s in enumerate(self.sets):
            self._index_set(col, set_id, s)

    def _index_set(self, col: str, set_id: int, s: "_SetMeta") -> None:
        # tombstoned values stay indexed: the index is a superset anyway
        values = self._read_set(s, self.schema.project([col]), live_only=False).col(col)
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
        col_idx = {c.name: i for i, c in enumerate(self.schema.columns)}
        pages_per_set = len(names) if self.format == COLUMN else 1

        # pre-declare the pages this scan will touch (paper's clock
        # hint); the buffer manager only honours the first 256, so stop
        # building the list there instead of enumerating every set
        upcoming: list[int] = []
        for s in self.sets:
            if self.format == COLUMN:
                upcoming.extend(s.first_page + col_idx[n] for n in names)
            else:
                upcoming.append(s.first_page)
            if len(upcoming) >= 256:
                break
        self.bufmgr.declare_scan(self.path, upcoming[:256])

        index_candidates = (
            self._index_candidates(scan_pred) if skipping and scan_pred else None
        )

        # predicate atoms grouped by column for the encoded-page path; the
        # compiler guarantees atoms+opaque ≡ the full predicate, so when
        # opaque is empty the atom masks alone ARE the predicate
        atoms_by_col: dict[str, list[Atom]] | None = None
        atoms_exact = False
        if (
            neardata
            and self.format == COLUMN
            and skipping
            and scan_pred is not None
            and scan_pred.atoms
        ):
            atoms_by_col = {}
            for a in sorted(scan_pred.atoms, key=str):
                atoms_by_col.setdefault(a.column, []).append(a)
            atoms_exact = not scan_pred.opaque

        def near_data_set(set_id: int, s: _SetMeta) -> RowBatch | None:
            """Evaluate atoms over encoded pages; materialize only
            qualifying rows. Returns None when the set is eliminated."""
            n = s.n_rows
            fetched: dict[str, bytes] = {}
            mask: np.ndarray | None = None
            pushed = 0
            for colname, alist in atoms_by_col.items():
                payload = self.bufmgr.get(
                    self.path, s.first_page + col_idx[colname], pin=False
                )
                fetched[colname] = payload
                stats.pages_read += 1
                cmask, encoded = _atom_mask(
                    payload, self.schema.dtype_of(colname), n, alist
                )
                pushed += int(encoded)
                mask = cmask if mask is None else mask & cmask
                if not mask.any():
                    break
            stats.pages_pushed_down += pushed
            if not mask.any():
                # the full predicate implies its atoms, so an empty atom
                # mask over the whole set proves the set empty for the
                # predicate too — same cache fact the decode path records
                if s.deleted is None:
                    self.pred_cache.record_empty(set_id, scan_pred)
                stats.sets_skipped_encoded += 1
                stats.pages_skipped += len(names) - len(fetched.keys() & set(names))
                return None
            stats.sets_pushed += 1
            stats.sets_read += 1
            if s.deleted is not None and s.deleted.any():
                mask = mask & ~s.deleted[:n]
            sel = np.flatnonzero(mask)
            if not len(sel):
                return None  # every candidate row is tombstoned
            cols: dict[str, np.ndarray] = {}
            for name in names:
                payload = fetched.get(name)
                if payload is None:
                    payload = self.bufmgr.get(
                        self.path, s.first_page + col_idx[name], pin=False
                    )
                    stats.pages_read += 1
                cols[name] = _gather_column(
                    payload, self.schema.dtype_of(name), n, sel
                )
            batch = RowBatch._trusted(out_schema, cols, len(sel))
            if not atoms_exact and predicate is not None:
                # opaque conjuncts remain: finish on the (already thinned)
                # candidates with the compiled predicate — bit-identical
                # to decode-then-filter because expr ⇒ atoms
                m2 = predicate(batch)
                if not m2.any() and s.deleted is None:
                    self.pred_cache.record_empty(set_id, scan_pred)
                batch = batch.filter(m2)
            return batch

        def do_set(set_id: int, s: _SetMeta) -> RowBatch | None:
            stats.sets_total += 1
            if skipping and scan_pred is not None:
                if index_candidates is not None and set_id not in index_candidates:
                    stats.sets_skipped_index += 1
                    stats.pages_skipped += pages_per_set
                    return None
                if self.pred_cache.can_skip(set_id, scan_pred):
                    stats.sets_skipped_cache += 1
                    stats.pages_skipped += pages_per_set
                    return None
                if self.minmax.can_skip(set_id, scan_pred):
                    stats.sets_skipped_minmax += 1
                    stats.pages_skipped += pages_per_set
                    return None
            if atoms_by_col is not None:
                return near_data_set(set_id, s)
            batch = self._read_set(s, out_schema, stats=stats)
            stats.sets_read += 1
            if predicate is not None:
                mask = predicate(batch)
                if skipping and scan_pred is not None and not mask.any():
                    if s.deleted is None:  # deletes could hide future matches
                        self.pred_cache.record_empty(set_id, scan_pred)
                batch = batch.filter(mask)
            return batch

        for set_id, s in enumerate(self.sets):
            batch = do_set(set_id, s)
            if batch is not None and batch.length:
                stats.rows_out += batch.length
                yield batch

    def _read_set(
        self,
        s: _SetMeta,
        schema: Schema,
        *,
        live_only: bool = True,
        stats: ScanStats | None = None,
    ) -> RowBatch:
        """Decode one page set's ``schema`` columns (a projection of the
        table's schema). ``live_only=False`` keeps tombstoned rows, so row
        positions line up with ``s.deleted`` (DML); ``stats`` is charged
        the pages read."""
        if self.format == COLUMN:
            payloads = self.bufmgr.get_many(
                self.path, [s.first_page + self.schema.index_of(c.name) for c in schema]
            )
            # decode_column validates every column against s.n_rows
            cols = {
                c.name: decode_column(payload, c.dtype, s.n_rows)
                for c, payload in zip(schema, payloads)
            }
            batch = RowBatch._trusted(schema, cols, s.n_rows)
            pages = len(cols)
        else:
            payload = self.bufmgr.get(self.path, s.first_page, pin=False)
            page = RowPage.from_payload(payload, self.file.max_payload)
            batch = page.to_batch(self.schema).project(schema.names())
            pages = 1
        if stats is not None:
            stats.pages_read += pages
        if live_only and s.deleted is not None and s.deleted.any():
            batch = batch.filter(~s.deleted[: batch.length])
        return batch

    # -- DML ---------------------------------------------------------------------
    def delete_where(self, predicate: PredicateFn) -> RowBatch:
        """Tombstone the live rows matching the predicate; returns them
        (in set order) so an update can re-insert their new versions."""
        victims = []
        for s in self.sets:
            batch = self._read_set(s, self.schema, live_only=False)
            hit = predicate(batch)
            if s.deleted is not None:
                hit = hit & ~s.deleted
            if not hit.any():
                continue
            s.deleted = hit.copy() if s.deleted is None else s.deleted | hit
            victims.append(batch.filter(hit))
            # cached "no rows match" facts may now be stale in the other
            # direction only; deletes can only *remove* rows, so cached
            # empty-page facts stay valid. Min-max stays conservative.
        self._save_meta()
        return RowBatch.concat(self.schema, victims)

    # -- maintenance ----------------------------------------------------------------
    def all_rows(self) -> RowBatch:
        return RowBatch.concat(self.schema, (self._read_set(s, self.schema) for s in self.sets))

    def reorganize(self, clustering: Sequence[str] | None) -> None:
        """Rewrite the fragment sorted on the clustering key; clears caches."""
        data = self.all_rows()
        if clustering:
            keys = [_order_key(data.col(data.schema.resolve(c))) for c in reversed(list(clustering))]
            order = np.lexsort(keys)
            data = data.take(order)
        self.bufmgr.invalidate(self.path)
        self.file.truncate_pages(0)
        self.sets = []
        self.next_page = 0
        self.pred_cache.clear()
        self.minmax.clear()
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
        return sum(s.n_live for s in self.sets)


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

    def insert(self, batch: RowBatch) -> None:
        """DML insert: append-only, does NOT respect clustering (paper)."""
        frag = min(self.fragments, key=lambda f: f.row_count)
        frag.append_batch(batch)

    def delete_where(self, predicate: PredicateFn) -> int:
        return sum(f.delete_where(predicate).length for f in self.fragments)

    def update_where(self, predicate: PredicateFn, updater) -> int:
        """Update = tombstone old rows + append new versions (paper §III)."""
        n = 0
        for frag in self.fragments:
            old = frag.delete_where(predicate)
            if old.length:
                frag.append_batch(updater(old))
                n += old.length
        return n

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
            f._save_meta()

    @property
    def indexed_columns(self) -> set[str]:
        out: set[str] = set()
        for f in self.fragments:
            out |= set(f.indexes)
        return out

    @property
    def row_count(self) -> int:
        return sum(f.row_count for f in self.fragments)

    def predicate_cache_bytes(self) -> int:
        return sum(f.pred_cache.nbytes for f in self.fragments)

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
            out[col.name] = (min(vals), max(vals))
        else:
            out[col.name] = (arr.min().item(), arr.max().item())
    return out
