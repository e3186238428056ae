"""Per-worker table storage.

A :class:`TableStorage` manages one table's data on one worker node:
one fragment file per local disk (paper §III second-level partitioning),
row or columnar format, per-page-set min-max statistics, the predicate
cache, tombstone-based deletes (inserts are append-only, updates are
delete + re-insert — never in place), and reorganization to restore
clustering.

A fragment's sets, their row offsets, min/max and generation form one
immutable :class:`_Layout`, which a writer replaces and a reader takes
once. Scans, ``all_rows``, ``reorganize`` and index builds read
*fragment columns*: per (fragment, column), every page set's decoded
values concatenated into one array (a string column into one
:class:`DictColumn` over one appended dictionary). A fragment column is
built on first use through the buffer pool and the page decoder, and
cached in the worker's decoded cache (``BufferManager.decoded``) under
its layout's *generation*: a process-wide number drawn whenever the sets
are renumbered (creation, which covers a meta reload, ``reorganize`` and
a merge). Appends add sets at the end in the same generation, so a
cached column that covers fewer sets is extended over the new ones only
— from the values a DML append kept, without decoding. Tombstones are
one fragment-wide row mask, kept current with the live-row count by
appends and deletes.

Once a transaction that appended has committed, still under its X
lock, the fragment merges its trailing under-full sets by the
size-tiered rule of :func:`_merge_start`, from decoded values, into a
free set slot; every row keeps its position.

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
An append cuts its rows into sets by their encoded bytes
(:class:`_SetFitter`), so a set is encoded about once and fills its
widest page. A fragment writes its layout (``.meta``: the sets, the
per-column min/max arrays and the rows a full set holds) only when its
sets change, and its packed tombstone mask
(``.del``) only when its tombstones change; the predicate cache has its
own file (``.pcache``), written by ``persist_caches``.
"""

from __future__ import annotations

import array
import heapq
import itertools
import operator
import pickle
import threading
import weakref
from collections import deque
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
from .col_page import decode_page, encode_column, is_dict_page
from .compression import HuffmanCoder, string_page_coder
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


#: a first part's dictionary of at most this many entries absorbs the
#: parts after it that it covers (``_join``)
_SMALL_DICTIONARY = 256


def _join(parts: list):
    """Consecutive row ranges of one column as one column. Later string
    parts whose strings a small first dictionary holds (the plain pages
    of a few appended rows of a low-cardinality column) are coded into
    it, so the column keeps that one dictionary."""
    if len(parts) == 1:
        return parts[0]
    if not isinstance(parts[0], DictColumn):
        return np.concatenate(parts)
    base = parts[0].dictionary
    if len(base) <= _SMALL_DICTIONARY:
        parts = [p if p.dictionary is base else p.coded_into(base) or p for p in parts]
    return DictColumn.concat(parts)


def _any_per_set(mask: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per set (given its first row; no set is empty): any row set?"""
    return np.logical_or.reduceat(mask, starts)


class _SetMeta(NamedTuple):
    first_page: int
    n_rows: int


class _Holders:
    """What every layout of one generation shares: appends keep the
    generation, so its layouts name the same set slots. A merge frees
    the slots it replaced once no reader holds any of them (a
    ``weakref.finalize`` on this)."""


class _Layout:
    """One published arrangement of a fragment's page sets: the sets,
    their row offsets, their min/max and the generation their decoded
    columns are cached under, which always agree. A writer publishes a
    new layout and never changes one; a reader takes
    ``_Fragment.layout`` once and keeps it. The pages of sets a merge
    replaced are reused only once no reader holds a layout naming them.

    ``tail`` holds, per set of the trailing run of under-full sets that
    DML appends and merges wrote, its values as its pages decode
    (column name -> values): kept by the write, so neither the reader
    that extends a column over the set nor the merge that rewrites it
    decodes a page. At most one full set's worth of rows.
    """

    __slots__ = ("generation", "holders", "sets", "bounds", "minmax", "tail")

    def __init__(
        self,
        generation: int,
        holders: _Holders,
        sets: tuple,
        bounds: np.ndarray,
        minmax: PageMinMax,
        tail: dict | None = None,
    ):
        self.generation = generation
        self.holders = holders
        self.sets: tuple[_SetMeta, ...] = sets
        #: row offsets of the sets (``len(sets) + 1`` values)
        self.bounds = bounds
        self.minmax = minmax
        self.tail: dict[int, dict] = tail or {}

    @classmethod
    def empty(cls) -> "_Layout":
        return cls(next(_generations), _Holders(), (), np.zeros(1, dtype=np.int64), PageMinMax())

    @property
    def n_rows(self) -> int:
        return int(self.bounds[-1])

    def appended(self, sets: list[_SetMeta], minmax: list, kept: list[dict | None], half: int) -> "_Layout":
        """This layout with ``sets`` after its own, in the same
        generation: the decoded columns of its sets stay valid. ``kept``:
        per new set, its decoded values or None; sets of ``half`` rows
        or more are full."""
        sizes = np.array([s.n_rows for s in sets], dtype=np.int64)
        bounds = np.concatenate([self.bounds, self.bounds[-1] + np.cumsum(sizes)])
        tail = dict(self.tail)
        for set_id, (s, values) in enumerate(zip(sets, kept), len(self.sets)):
            if s.n_rows >= half:
                tail.clear()  # a full set ends the trailing run
            elif values is not None:
                tail[set_id] = values
        return _Layout(
            self.generation, self.holders, self.sets + tuple(sets), bounds, self.minmax.extended(minmax), tail
        )

    def merged(self, lo: int, first_page: int, values: dict | None) -> "_Layout":
        """This layout with its sets ``lo`` onwards replaced by one set,
        written at ``first_page``, of their rows in their order: every
        row keeps its position. A new generation; ``values``: the merged
        set's decoded values, if it is still under-full."""
        tail = {i: v for i, v in self.tail.items() if i < lo}
        if values is not None:
            tail[lo] = values
        else:
            tail.clear()
        return _Layout(
            next(_generations),
            _Holders(),
            self.sets[:lo] + (_SetMeta(first_page, self.n_rows - int(self.bounds[lo])),),
            np.append(self.bounds[: lo + 1], self.bounds[-1]),
            self.minmax.merged(lo, len(self.sets)),
            tail,
        )


#: a fitted set aims each string page at this share of the page slot (a
#: fixed-width page, whose bytes are exact, may fill all of it)
FILL = 0.95
#: rows whose string pages size the first set of an append when nothing
#: was learned before
SAMPLE_ROWS = 256
#: a plain string page's bytes besides its rows': row count, last
#: offset and Huffman table
_PAGE_FIXED = 4 + 4 + 256


def _entry_weights(values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(len, values), dtype=np.int32, count=len(values)) + 4


def _string_weights(col: DictColumn) -> np.ndarray:
    """Per row, its bytes in an uncoded plain page: a 4-byte offset and
    its characters (per dictionary entry once, memoised on it)."""
    return col.dictionary.mask(_entry_weights, _entry_weights)[col.codes]


class _Overflow(NamedTuple):
    """The first page of a set encode that did not fit its slot."""

    column: str
    nbytes: int


class _SetFitter:
    """How many rows a page set takes, sized from the bytes pages took.

    A string row *weighs* its bytes in an uncoded plain page. Per string
    column the fitter keeps a *rate*: the bytes a page of that column
    took per unit of weight, beyond a plain page's fixed part, learned
    from the last page of the column it measured: a sample, a set
    written, or a page that overflowed. A set takes the most rows that
    keep every string page's predicted bytes within ``FILL`` of the slot
    and every fixed-width page within the slot, so it is encoded about
    once and its widest page is about full. One fitter serves all
    fragments of a table; it only sizes sets, and whether a page fits is
    always checked on its bytes."""

    def __init__(self, schema: Schema, max_payload: int):
        self.strings = [c.name for c in schema if c.dtype == DataType.STRING]
        widths = [c.dtype.fixed_width for c in schema if c.dtype != DataType.STRING]
        #: the rows the fixed-width pages hold
        self.fixed_rows = max_payload // max(widths) if widths else None
        #: what a string page's rows may take
        self.budget = FILL * max_payload - _PAGE_FIXED
        #: string column -> page bytes per unit of row weight
        self.rates: dict[str, float] = {}

    def weights(self, batch: RowBatch) -> dict[str, np.ndarray]:
        """Per string column, its rows' cumulative weights (from 0)."""
        out = {}
        for name in self.strings:
            cum = np.zeros(batch.length + 1, dtype=np.int64)
            np.cumsum(_string_weights(batch.col(name)), out=cum[1:])
            out[name] = cum
        return out

    def knows(self) -> bool:
        return len(self.rates) == len(self.strings)

    def learn(self, name: str, nbytes: int, cum: np.ndarray, lo: int, hi: int) -> None:
        """Learn from a page of ``name`` of ``nbytes`` bytes over rows
        ``lo:hi`` of the weights ``cum``."""
        self.rates[name] = max(nbytes - _PAGE_FIXED, 1) / int(cum[hi] - cum[lo])

    def sample(self, batch: RowBatch, cum: dict[str, np.ndarray]) -> None:
        """Learn every string column's rate from a page of the batch's
        first ``SAMPLE_ROWS`` rows (with weights ``cum``)."""
        sample = batch.slice(0, SAMPLE_ROWS)
        for name in self.strings:
            payload = encode_column(sample.col(name), DataType.STRING)
            self.learn(name, len(payload), cum[name], 0, SAMPLE_ROWS)

    def rows(self, cum: dict[str, np.ndarray], off: int, n: int) -> int:
        """The rows from ``off`` (of ``n``) the next set takes, by the
        rates known."""
        take = n - off if self.fixed_rows is None else min(n - off, self.fixed_rows)
        for name, rate in self.rates.items():
            c = cum[name]
            take = min(take, int(np.searchsorted(c, c[off] + self.budget / rate, side="right")) - 1 - off)
        return max(1, take)

    def cap(self, cum: dict[str, np.ndarray], n: int) -> int:
        """The rows a full set holds, of rows of the average weight of
        these ``n``."""
        caps = [self.budget * n / (rate * int(cum[name][-1])) for name, rate in self.rates.items()]
        if self.fixed_rows is not None:
            caps.append(self.fixed_rows)
        return max(1, int(min(caps, default=n)))


#: trailing under-full sets a fragment holds before the tiered rule
#: merges any
MERGE_AFTER = 8


def _merge_start(sizes: Sequence[int], cap: int) -> int | None:
    """The first of the trailing sets to merge into one, or None.

    The rule looks at the trailing run of *under-full* sets, those of
    fewer than ``cap // 2`` rows (``cap``: the rows a full set holds).
    Once the run holds half a set's rows (and fits in one), all of it
    merges into one full set, which leaves the run. Before that, nothing
    merges while the run has at most ``MERGE_AFTER`` sets; then the
    size-tiered rule: going back from the last set, an older set joins
    while it holds no more rows than the sets after it together. A
    tiered merge at least doubles the set each of its rows lies in, so a
    row is re-encoded at most log2(cap) + 1 times; a set it leaves holds
    more rows than all after it, so the run never exceeds
    ``MERGE_AFTER`` + log2(cap) + 1 sets; and every full set a merge
    makes holds at least half a set of rows."""
    half = cap // 2
    run = total = 0
    for n in reversed(sizes):
        if n >= half:
            break
        run += 1
        total += n
    if run >= 2 and half <= total <= cap:
        return len(sizes) - run
    if run <= MERGE_AFTER:
        return None
    lo = len(sizes) - 1
    acc = sizes[lo]
    while lo > len(sizes) - run:
        prev = sizes[lo - 1]
        if prev > acc or prev + acc > cap:
            break
        lo -= 1
        acc += prev
    return lo if lo < len(sizes) - 1 else None


class Span(NamedTuple):
    """Where one append lands: ``n_rows`` rows from row ``first_row`` of
    fragment ``fragment``. Appends only add rows after the last and
    merges keep every row's position, so a span names exactly the rows
    its append created, before and after any merge."""

    fragment: int
    first_row: int
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
        fitter: _SetFitter | None = None,
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
        #: guards publishing a layout against the predicate cache, and the
        #: free page slots
        self._lock = threading.Lock()
        #: (epoch, first pages) of set slots no reader holds any more,
        #: queued lock-free by their layouts' finalizers (:meth:`_reclaim`)
        self._released: deque[tuple[int, list[int]]] = deque()
        #: set-granular secondary indexes: column -> B+-tree(value -> set id)
        self.indexes: dict[str, "BPlusTree"] = {}
        #: pages a set spans (every set of a columnar fragment is one slot)
        self._set_pages = len(schema) if fmt == COLUMN else 1
        #: sizes the sets (shared with the table's other fragments)
        self.fitter = fitter or _SetFitter(schema, self.file.max_payload)
        #: the rows a full set holds (0 until known): fitted by each load,
        #: lowered to what fits whenever a merge of fewer rows overflows
        self._cap = 0
        #: lifetime merges (``sys.fragments``)
        self.merges = 0
        #: per string column, the Huffman coder of its last tiny set
        self._coders: dict[str, HuffmanCoder] = {}
        self._new_layout()
        if fs.exists(self.meta_path):
            self._load_meta()
            self._reopen_indexes()
        if fs.exists(self.deleted_path):
            self._load_tombstones()
        if fs.exists(self.cache_path):
            self.pred_cache = PredicateCache.from_bytes(self._read(self.cache_path))

    def _new_layout(self) -> None:
        """Start an empty file: the decoded values of the old layout are
        dropped, and later ones are cached under a fresh generation."""
        if hasattr(self, "layout"):
            self.forget_decoded()
        self.layout = _Layout.empty()
        self.next_page = 0
        #: first pages of set slots no set uses (min-heap)
        self._free: list[int] = []
        #: the file's epoch: names its set slots in the decoded cache, and
        #: voids a slot freed for an older file
        self._epoch = next(_generations)
        #: cache keys of values decoded per set (``_set_columns``)
        self._set_keys: set[tuple] = set()
        #: per row: tombstoned? (None while no row is)
        self._deleted: np.ndarray | None = None
        self._live = 0

    # the current layout's parts, for readers that need only one
    @property
    def sets(self) -> tuple[_SetMeta, ...]:
        return self.layout.sets

    @property
    def dead_rows(self) -> int:
        """Tombstoned rows, which still hold their positions."""
        return self.layout.n_rows - self._live

    def forget_decoded(self) -> None:
        """Drop this fragment's decoded values from the worker's cache."""
        self._forget(self.layout.generation)
        with self._lock:
            keys, self._set_keys = self._set_keys, set()
        for key in keys:
            self.bufmgr.decoded.discard(key)

    def _forget(self, generation: int) -> None:
        """Drop the fragment columns of one layout."""
        for c in self.schema:
            self.bufmgr.decoded.discard((generation, c.name))

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
        """Persist the layout (written when it changes): a few arrays,
        whatever the number of sets, and the rows a full set holds."""
        layout = self.layout
        self._write(self.meta_path, pickle.dumps(
            {
                "sets": np.array(layout.sets, dtype=np.int64).tobytes(),
                "next_page": self.next_page,
                "cap": self._cap,
                "minmax": {
                    col: (_pack(lo), _pack(hi)) for col, (lo, hi) in layout.minmax.columns().items()
                },
            },
            protocol=4,
        ))

    def _load_meta(self) -> None:
        meta = pickle.loads(self._read(self.meta_path))
        self.next_page = meta["next_page"]
        self._cap = meta["cap"]
        pairs = np.frombuffer(meta["sets"], dtype=np.int64).reshape(-1, 2)
        sets = tuple(_SetMeta(p, n) for p, n in pairs.tolist())
        bounds = np.concatenate([[0], np.cumsum(pairs[:, 1])]).astype(np.int64)
        minmax = {col: (_unpack(lo), _unpack(hi)) for col, (lo, hi) in meta["minmax"].items()}
        self.layout = _Layout(self.layout.generation, self.layout.holders, sets, bounds, PageMinMax(minmax))
        # the slots a merge freed are those no set names
        used = {s.first_page for s in sets}
        self._free = [p for p in range(0, self.next_page, self._set_pages) if p not in used]
        self._live = self.layout.n_rows

    def _save_tombstones(self) -> None:
        """Persist the tombstone mask, packed (written by deletes, which
        change nothing else)."""
        deleted = self._deleted
        self._write(self.deleted_path, b"" if deleted is None else np.packbits(deleted).tobytes())

    def _load_tombstones(self) -> None:
        bits = np.unpackbits(np.frombuffer(self._read(self.deleted_path), dtype=np.uint8))
        total = self.layout.n_rows
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
    def append_batch(self, batch: RowBatch, dml: bool = False) -> list[tuple[RowBatch, list[bytes]]]:
        """Append ``batch`` as new sets, published as one layout; returns
        each set's rows and column pages. A DML append (not a load) keeps
        each set's values decoded, for the readers and merges after it,
        and codes a tiny set with its column's last Huffman table."""
        layout = self.layout
        sets: list[_SetMeta] = []
        minmax: list[dict[str, tuple]] = []  # one entry per set
        written: list[tuple[RowBatch, list[bytes]]] = []
        try:
            if self.format == COLUMN:
                self._append_columnar(batch, sets, minmax, written, dml)
            else:
                self._append_rows(batch, sets, minmax, written)
        finally:
            if sets:
                # the tombstone rows go in before the layout that has them
                n = sum(s.n_rows for s in sets)
                if self._deleted is not None:
                    self._deleted = np.concatenate([self._deleted, np.zeros(n, dtype=bool)])
                self._live += n
                keep = dml and self.format == COLUMN
                self.layout = layout.appended(
                    sets,
                    minmax,
                    [self._decoded_set(*w) if keep else None for w in written],
                    self._cap // 2,
                )
        self._save_meta()
        first = len(layout.sets)
        for col in self.indexes:
            for i, (chunk, _) in enumerate(written):
                self._index_values(col, first + i, chunk.col(col))
        return written

    def _allocate(self) -> int:
        """The first page of a free set slot: the lowest a merge freed,
        else the next past the end of the file."""
        self._reclaim()
        with self._lock:
            if self._free:
                return heapq.heappop(self._free)
        page = self.next_page
        self.next_page += self._set_pages
        return page

    def _release(self, epoch: int, slots: list[int]) -> None:
        """Queue the set slots of a layout no reader holds any more. A
        finalizer runs in whichever thread drops the layout, perhaps
        inside a garbage collection that interrupted a holder of
        ``_lock``, so it takes no lock: the next writer frees them."""
        self._released.append((epoch, slots))

    def _reclaim(self) -> None:
        """Free the queued set slots of this file, and the values decoded
        from them."""
        keys: list[tuple] = []
        with self._lock:
            while self._released:
                epoch, slots = self._released.popleft()
                if epoch != self._epoch:
                    continue  # a slot of a file since rewritten
                freed = set(slots)
                doomed = [k for k in self._set_keys if k[1] in freed]
                self._set_keys.difference_update(doomed)
                keys += doomed
                for p in slots:
                    heapq.heappush(self._free, p)
        for key in keys:
            self.bufmgr.decoded.discard(key)

    def _append_columnar(self, batch: RowBatch, sets: list, minmax: list, written: list, dml: bool) -> None:
        fitter = self.fitter
        n = batch.length
        cum = fitter.weights(batch)
        # nothing learned: a sample of the first rows sizes the first set
        # (a reopened fragment, which knows its cap, starts from that)
        if not fitter.knows() and not self._cap and n > SAMPLE_ROWS:
            fitter.sample(batch, cum)
        off = 0
        while off < n:
            take = fitter.rows(cum, off, n)
            if not fitter.knows() and self._cap:
                take = min(take, self._cap)
            while True:
                chunk = batch.slice(off, off + take)
                tiny = dml and take < col_page.DICT_MIN_ROWS
                payloads = self._encode_set(chunk, self._coders if tiny else None)
                if not isinstance(payloads, _Overflow):
                    break
                if take == 1:
                    raise StorageError("single row exceeds page capacity")
                fitter.learn(payloads.column, payloads.nbytes, cum[payloads.column], off, off + take)
                take = min(take - 1, fitter.rows(cum, off, n))
            # every set teaches the fitter but a short tail (the rest of
            # an append, under a sample's rows), which a table learned from
            # more rows before
            tail = off + take == n and take < SAMPLE_ROWS
            for name, payload in zip(self.schema.names(), payloads):
                if name in cum and not (tail and name in fitter.rates):
                    fitter.learn(name, len(payload), cum[name], off, off + take)
            first_page = self._allocate()
            for i, payload in enumerate(payloads):
                self.bufmgr.put(self.path, first_page + i, payload)
            sets.append(_SetMeta(first_page, take))
            minmax.append(_column_minmax(chunk))
            written.append((chunk, payloads))
            off += take
        if n and (not dml or not self._cap):
            self._cap = fitter.cap(cum, n)

    def _encode_set(self, chunk: RowBatch, coders: dict | None = None) -> list[bytes] | _Overflow:
        """Every column page of ``chunk`` in schema order, or the first
        one over the page slot. Given ``coders``, a string page reuses its
        column's coder there when that covers its bytes, and leaves its
        own coder there."""
        payloads: list[bytes] = []
        for c in self.schema:
            if coders is None or c.dtype != DataType.STRING:
                payload = encode_column(chunk.col(c.name), c.dtype)
            else:
                payload = encode_column(chunk.col(c.name), c.dtype, coders.get(c.name))
                coders[c.name] = None if is_dict_page(payload) else string_page_coder(payload)
            if len(payload) > self.file.max_payload:
                return _Overflow(c.name, len(payload))
            payloads.append(payload)
        return payloads

    def _append_rows(self, batch: RowBatch, sets: list, minmax: list, written: list) -> None:
        page = RowPage(self.file.max_payload)
        start_row = 0
        rows_in_page = 0
        values = [batch.col(c.name) for c in self.schema]
        for r in range(batch.length):
            row = encode_row(self.schema, [v[r] for v in values])
            if page.try_append(row) is None:
                self._flush_row_page(page, batch.slice(start_row, start_row + rows_in_page), sets, minmax, written)
                page = RowPage(self.file.max_payload)
                if page.try_append(row) is None:
                    raise StorageError("single row exceeds page capacity")
                start_row = r
                rows_in_page = 0
            rows_in_page += 1
        if rows_in_page:
            self._flush_row_page(page, batch.slice(start_row, start_row + rows_in_page), sets, minmax, written)

    def _flush_row_page(self, page: RowPage, chunk: RowBatch, sets: list, minmax: list, written: list) -> None:
        payload = page.to_payload()
        self.bufmgr.put(self.path, self.next_page, payload)
        # row pages are likewise immutable once flushed
        sets.append(_SetMeta(self.next_page, chunk.length))
        minmax.append(_column_minmax(chunk))
        written.append((chunk, [payload]))
        self.next_page += 1

    def set_tombstones(self, positions: np.ndarray, deleted: bool) -> None:
        """Tombstone (or, undoing a delete, revive) the rows at
        ``positions``. The mask is replaced, never written in place, so a
        concurrent scan reads one whole mask."""
        mask = self._deleted
        mask = np.zeros(self.layout.n_rows, dtype=bool) if mask is None else mask.copy()
        changed = int((mask[positions] != deleted).sum())
        if not changed:
            return
        mask[positions] = deleted
        self._live += -changed if deleted else changed
        self._deleted = mask if mask.any() else None
        self._save_tombstones()

    def span_rows(self, first_row: int, n_rows: int) -> np.ndarray:
        """The positions of ``n_rows`` rows from ``first_row`` on (of those
        that exist: an append may have failed part-way)."""
        return np.arange(first_row, min(first_row + n_rows, self.layout.n_rows), dtype=np.int64)

    # -- merging appended sets ---------------------------------------------------------
    def merge_appended(self) -> bool:
        """Merge the trailing under-full sets by the size-tiered rule of
        :func:`_merge_start`; did it merge any?

        Called once a transaction that appended here has committed, under
        its X lock: every set is committed and no other writer runs. The
        merged set is encoded from decoded values — the layout's fragment
        columns, else the sets' own values the appends kept — and written
        to a free set slot. The new layout keeps every row's position, so
        tombstones, spans and undo stay valid; it inherits the decoded
        columns, its merged part resolved to the dictionary the cache
        holds for a dictionary page's content. The merged set is indexed
        before the layout is published, the replaced sets'
        predicate-cache entries go, and their pages are freed once no
        reader holds the old layout."""
        if self.format != COLUMN or not self.layout.sets:
            return False
        self._reclaim()
        layout = self.layout
        sizes = [s.n_rows for s in layout.sets]
        while True:
            lo = _merge_start(sizes, self._cap)
            if lo is None:
                return False
            chunk = self._rows_from(layout, lo)
            # a set that will merge again is coded with its columns' last
            # tables where they cover it; a full one with its own
            coders = self._coders if chunk.length < self._cap // 2 else None
            payloads = self._encode_set(chunk, coders)
            if not isinstance(payloads, _Overflow):
                break
            # learned: a full set holds the rows the overflowing page's
            # bytes say fit
            cum = self.fitter.weights(chunk)
            self.fitter.learn(payloads.column, payloads.nbytes, cum[payloads.column], 0, chunk.length)
            self._cap = min(self._cap, self.fitter.rows(cum, 0, chunk.length))
        first_page = self._allocate()
        for i, payload in enumerate(payloads):
            self.bufmgr.put(self.path, first_page + i, payload)
        # nothing persisted may name a page that is not
        self.bufmgr.flush(self.path)
        values = self._decoded_set(chunk, payloads)
        merged = layout.merged(lo, first_page, values if chunk.length < self._cap // 2 else None)
        self._adopt(merged, self._inherited(layout, lo, values, payloads))
        # indexed before it is published: a scan that takes the merged
        # layout must find every row of it under set ``lo``
        for col in self.indexes:
            self._index_values(col, lo, chunk.col(col))
        with self._lock:
            dropped = self.pred_cache.forget_from(lo)
            self.layout = merged
        if dropped and self.fs.exists(self.cache_path):
            self.persist_cache()
        self._save_meta()
        self._forget(layout.generation)
        weakref.finalize(
            layout.holders, self._release, self._epoch, [s.first_page for s in layout.sets[lo:]]
        )
        self.merges += 1
        return True

    def _rows_from(self, layout: _Layout, lo: int) -> RowBatch:
        """Every column of sets ``lo`` onwards, from decoded values: the
        fragment column where it covers them, else each set's values the
        layout kept (decoded only for a set it has none of)."""
        start = int(layout.bounds[lo])
        cols = {}
        for c in self.schema:
            fc = self.bufmgr.decoded.peek((layout.generation, c.name))
            covered = lo if fc is None else max(lo, min(fc.n_sets, len(layout.sets)))
            parts = [fc.values[start : int(layout.bounds[covered])]] if covered > lo else []
            for set_id in range(covered, len(layout.sets)):
                parts.append(self._set_columns(layout, [c.name], set_id)[c.name])
            cols[c.name] = _join(parts)
        return RowBatch._trusted(self.schema, cols, layout.n_rows - start)

    def _inherited(
        self, layout: _Layout, lo: int, merged: dict, payloads: list[bytes]
    ) -> dict[str, _FragColumn]:
        """The merged layout's fragment columns: each of the old layout's
        that covers the sets before ``lo``, its rows from there on those
        of the merged set (``merged``: its decoded values; ``payloads``:
        its pages)."""
        cache = self.bufmgr.decoded
        start = int(layout.bounds[lo])
        out = {}
        for c, payload in zip(self.schema, payloads):
            fc = cache.peek((layout.generation, c.name))
            if fc is None or fc.n_sets < lo:
                continue
            part = merged[c.name]
            covers = fc.n_sets == len(layout.sets)
            if isinstance(part, DictColumn):
                head = fc.values.head(start)
                if covers and len(head.dictionary) > _SMALL_DICTIONARY:
                    values = fc.values  # no small dictionary to fold the merged rows into
                else:
                    values = _join([head, part])
            elif covers:
                values = fc.values  # the same rows at the same positions
            else:
                values = np.concatenate([fc.values[:start], part])
            encoded = None
            if fc.encoded is not None:
                encoded = np.append(fc.encoded[:lo], is_dict_page(payload))
            out[c.name] = _FragColumn(values, lo + 1, encoded)
        return out

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
        layout = self.layout
        if layout.sets:
            column = self._columns(layout, [col])[col].values
            for set_id in range(len(layout.sets)):
                lo, hi = layout.bounds[set_id], layout.bounds[set_id + 1]
                self._index_values(col, set_id, column[lo:hi])

    def _index_values(self, col: str, set_id: int, values) -> None:
        """Index one set's values; tombstoned values stay indexed, and a
        merged set is indexed again under its id: the index is a superset
        anyway."""
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

    # -- decoded values ---------------------------------------------------------------
    def _columns(
        self, layout: _Layout, names: Sequence[str], n_sets: int | None = None
    ) -> dict[str, _FragColumn]:
        """The decoded columns ``names``, covering at least the first
        ``n_sets`` sets of ``layout`` (all of them for None): cached, or
        built (extended, after appends)."""
        n_sets = len(layout.sets) if n_sets is None else n_sets
        out: dict[str, _FragColumn] = {}
        stale: list[tuple[str, _FragColumn | None]] = []
        for name in names:
            fc = self.bufmgr.decoded.lookup((layout.generation, name))
            if fc is None or fc.n_sets < n_sets:
                stale.append((name, fc))
            elif fc.n_sets == n_sets:
                out[name] = fc
            else:  # extended past this reader's sets by a later append
                rows = int(layout.bounds[n_sets])
                out[name] = _FragColumn(
                    fc.values[:rows], n_sets, None if fc.encoded is None else fc.encoded[:n_sets]
                )
        if stale:
            out.update(self._build_columns(layout, stale, n_sets))
        return out

    def _build_columns(
        self, layout: _Layout, stale: list[tuple[str, _FragColumn | None]], n_sets: int
    ) -> dict[str, _FragColumn]:
        """Extend each column over the sets it is missing (all of them, or
        those appended since it was cached) — from their kept values, else
        decoded through the buffer pool — and cache the extended columns."""
        sets = layout.sets[:n_sets]
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
        cache = self.bufmgr.decoded
        out = {}
        for name, fc in stale:
            start = 0 if fc is None else fc.n_sets
            dtype = self.schema.dtype_of(name)
            encoded = None
            if self.format == ROW:
                parts = [b.col(name) for b in batches[start - first :]]
            else:
                col_no = self.schema.index_of(name)
                pages = [s.first_page + col_no for s in sets[start:]]
                self.bufmgr.declare_scan(self.path, pages[:256])
                payloads = self.bufmgr.get_many(self.path, pages)
                parts = []
                for set_id, payload in enumerate(payloads, start):
                    part = layout.tail.get(set_id, {}).get(name)
                    if part is None:
                        part = decode_page(payload, dtype, sets[set_id].n_rows, cache)
                    parts.append(part)
                if dtype == DataType.STRING:
                    encoded = np.array([is_dict_page(p) for p in payloads], dtype=bool)
            if fc is not None:
                parts.insert(0, fc.values)
                if encoded is not None:
                    encoded = np.concatenate([fc.encoded, encoded])
            values = _join(parts)
            fc = _FragColumn(values, n_sets, encoded)
            self._adopt(layout, {name: fc})
            out[name] = fc
        return out

    def _adopt(self, layout: _Layout, columns: dict[str, _FragColumn]) -> None:
        """Cache ``columns`` as ``layout``'s fragment columns: what a
        build, a merge and a reorganize hand the layout they made."""
        for name, fc in columns.items():
            col_page.freeze(fc.values)
            nbytes = col_page.decoded_nbytes(fc.values) + (0 if fc.encoded is None else fc.encoded.nbytes)
            self.bufmgr.decoded.insert((layout.generation, name), fc, nbytes)

    def _set_key(self, s: _SetMeta, name: str) -> tuple:
        """A set's decoded values are cached under its page slot, whose
        content no layout changes while a set holds it."""
        return (self._epoch, s.first_page, name)

    def _decoded_set(self, chunk: RowBatch, payloads: list[bytes]) -> dict:
        """A written set's values as its pages decode, without decoding
        them."""
        cache = self.bufmgr.decoded
        return {
            c.name: col_page.freeze(col_page.as_decoded(payload, chunk.col(c.name), c.dtype, cache))
            for c, payload in zip(self.schema, payloads)
        }

    def _tombstones(self, layout: _Layout) -> tuple[np.ndarray | None, np.ndarray | None]:
        """(per row of ``layout``: tombstoned?, per set: has it
        tombstones?), or (None, None) when no row is."""
        deleted = self._deleted
        if deleted is None:
            return None, None
        rows = deleted[: layout.n_rows]
        return rows, _any_per_set(rows, layout.bounds[:-1])

    def _set_columns(self, layout: _Layout, names: Sequence[str], set_id: int) -> dict:
        """The columns ``names`` of one set, decoded on their own (and
        cached under the set) — for the few sets a DML touches."""
        cache = self.bufmgr.decoded
        out, missing = {}, []
        kept = layout.tail.get(set_id, {})
        s = layout.sets[set_id]
        for name in names:
            hit = kept.get(name)
            if hit is None:
                hit = cache.lookup(self._set_key(s, name))
            if hit is None:
                missing.append(name)
            else:
                out[name] = hit
        if not missing:
            return out
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
            key = self._set_key(s, name)
            col_page.freeze(values)
            cache.insert(key, values, col_page.decoded_nbytes(values))
            with self._lock:
                self._set_keys.add(key)
            out[name] = values
        return out

    def _read_all(self, layout: _Layout) -> RowBatch:
        """Every column of ``layout``'s sets, tombstoned rows too."""
        if not layout.sets:
            return RowBatch.empty(self.schema)
        cols = self._columns(layout, self.schema.names())
        return RowBatch._trusted(
            self.schema, {n: _rows(cols[n].values, None) for n in self.schema.names()}, layout.n_rows
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

    def _kept_sets(self, layout: _Layout, scan_pred: ScanPredicate, stats: ScanStats) -> np.ndarray:
        """Per set: not proven empty by the index, the predicate cache or
        the min/max statistics (asked in that order, each counted)."""
        n_sets = len(layout.sets)
        keep = np.ones(n_sets, dtype=bool)
        candidates = self._index_candidates(scan_pred)
        if candidates is not None:
            keep[:] = False
            keep[[c for c in candidates if c < n_sets]] = True
            stats.sets_skipped_index += n_sets - int(np.count_nonzero(keep))
        cached = self.pred_cache.skippable(keep, scan_pred)
        if self.layout.generation != layout.generation:
            cached = []  # a merge renumbered the sets: the entries name others
        if cached:
            keep[cached] = False
            stats.sets_skipped_cache += len(cached)
        minmax = layout.minmax.skippable(n_sets, scan_pred)
        minmax &= keep
        stats.sets_skipped_minmax += int(np.count_nonzero(minmax))
        keep[minmax] = False
        return keep

    def _record_empty(self, layout: _Layout, set_ids: list[int], scan_pred: ScanPredicate) -> None:
        """Cache these sets of ``layout`` as empty for ``scan_pred``,
        unless a merge has renumbered the sets since."""
        with self._lock:
            if self.layout.generation == layout.generation:
                for set_id in set_ids:
                    self.pred_cache.record_empty(set_id, scan_pred)

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
        layout = self.layout  # whatever a writer publishes next, these sets
        n_sets = len(layout.sets)
        stats.sets_total += n_sets
        pages_per_set = len(names) if self.format == COLUMN else 1
        pruning = skipping and scan_pred is not None
        keep = None
        if pruning:
            keep = self._kept_sets(layout, scan_pred, stats)
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
        cols = self._columns(layout, list(dict.fromkeys([*names, *atoms_by_col])))
        bounds = layout.bounds
        sizes = np.diff(bounds)[kept]
        # the rows of the kept sets (None: every row), and each kept set's
        # first row among them
        idx = None if len(kept) == n_sets else np.flatnonzero(np.repeat(keep, np.diff(bounds)))
        starts = np.cumsum(sizes) - sizes
        tomb, tombstoned = self._tombstones(layout)
        if tomb is not None:
            tomb = tomb if idx is None else tomb[idx]
            tombstoned = tombstoned[kept]

        if atoms_by_col:
            mask = self._atom_pass(
                layout, cols, atoms_by_col, names, idx, kept, starts, tomb, tombstoned, scan_pred, stats
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
            layout.n_rows if rows is None else len(rows),
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
                if empty.any():
                    self._record_empty(layout, kept[empty].tolist(), scan_pred)
            batch = batch.filter(m)
        if batch.length:
            stats.rows_out += batch.length
            yield batch

    def _atom_pass(
        self, layout, cols, atoms_by_col, names, idx, kept, starts, tomb, tombstoned, scan_pred, stats
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
        if cacheable.any():
            self._record_empty(layout, kept[cacheable].tolist(), scan_pred)
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
        layout = self.layout
        n_sets = len(layout.sets)
        if not n_sets:
            return _NOTHING, None
        bounds = layout.bounds
        sizes = np.diff(bounds)
        keep = np.ones(n_sets, dtype=bool)
        if scan_pred is not None:
            keep = self._kept_sets(layout, scan_pred, ScanStats())
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
        cols = self._columns(layout, names, n_read)
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
            fc = self.bufmgr.decoded.lookup((layout.generation, n))
            if fc is not None and fc.n_sets >= last:
                out[n] = fc.values[positions]
        missing = [n for n in others if n not in out]
        if missing:
            set_of = np.searchsorted(bounds, positions, side="right") - 1
            ids, starts = np.unique(set_of, return_index=True)
            parts: dict[str, list] = {n: [] for n in missing}
            for set_id, lo, hi in zip(ids.tolist(), starts, [*starts[1:], len(positions)]):
                values = self._set_columns(layout, missing, set_id)
                local = positions[lo:hi] - bounds[set_id]
                for n in missing:
                    parts[n].append(values[n][local])
            for n in missing:
                out[n] = _join(parts[n])
        return positions, RowBatch._trusted(self.schema, out, len(positions))

    # -- maintenance ----------------------------------------------------------------
    def all_rows(self) -> RowBatch:
        layout = self.layout
        tomb, _ = self._tombstones(layout)
        batch = self._read_all(layout)
        return batch if tomb is None else batch.filter(~tomb)

    def reorganize(self, clustering: Sequence[str] | None) -> None:
        """Rewrite the fragment sorted on the clustering key; clears caches.
        The new layout is handed the decoded columns the rewrite holds."""
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
        if not data.length:
            self._save_meta()
        elif self.format == COLUMN:
            written = self.append_batch(data)
            flags = np.array([[is_dict_page(p) for p in payloads] for _, payloads in written], dtype=bool)
            n_sets = len(written)
            self._adopt(self.layout, {
                c.name: _FragColumn(data.col(c.name), n_sets, flags[:, i] if c.dtype == DataType.STRING else None)
                for i, c in enumerate(self.schema)
            })
        else:
            self.append_batch(data)
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
        self.fragments: list[_Fragment] = []
        fitter = None  # the first fragment's, shared by the others
        for d in range(n_disks):
            frag = _Fragment(fs, bufmgr, f"tables/{name}/disk{d}.dat", schema, fmt, page_size, codec, fitter)
            fitter = frag.fitter
            self.fragments.append(frag)

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
        row of ``fragment``, by default the one with the fewest live rows."""
        if fragment is None:
            fragment = min(range(len(self.fragments)), key=lambda i: self.fragments[i].row_count)
        return Span(fragment, self.fragments[fragment].layout.n_rows, n_rows)

    def insert(self, batch: RowBatch, at: Span | None = None) -> Span:
        """DML insert: append-only, does NOT respect clustering (paper).
        ``at`` is the span a caller named (and logged) beforehand."""
        at = at or self.next_span(batch.length)
        frag = self.fragments[at.fragment]
        rows = frag.layout.n_rows
        if (at.first_row, at.n_rows) != (rows, batch.length):
            raise StorageError(f"insert at {at} after {rows} rows of {self.name!r}")
        frag.append_batch(batch, dml=True)
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
        return span.fragment, self.fragments[span.fragment].span_rows(span.first_row, span.n_rows)

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


def _pack(values: np.ndarray) -> tuple:
    """A min/max array as ``.meta`` stores it: its dtype and bytes, or,
    for strings, its values' UTF-8 offsets and body — pickling an array,
    or a Python string a value, costs more than the bytes."""
    if values.dtype != object:
        return values.dtype.str, values.tobytes()
    blobs = [v.encode() for v in values.tolist()]
    offsets = array.array("q", itertools.accumulate(map(len, blobs), initial=0))
    return "utf8", offsets.tobytes(), b"".join(blobs)


def _unpack(stored: tuple) -> np.ndarray:
    """The array :func:`_pack` stored."""
    if stored[0] != "utf8":
        return np.frombuffer(stored[1], dtype=stored[0])
    bounds = array.array("q", stored[1]).tolist()
    body = stored[2]
    out = np.empty(len(bounds) - 1, dtype=object)
    out[:] = [body[a:b].decode() for a, b in zip(bounds, bounds[1:])]
    return out


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
