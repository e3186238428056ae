"""PAX-style columnar page sets.

A columnar table stores all columns in one file as a sequence of *page
sets*: for an ``n``-column table a page set is ``n`` consecutive pages,
each holding the values of one column for the same set of rows (paper
§III). Every page of a set stores the same number of values, so row
reconstruction is positional.

Fixed-width columns are raw little-endian arrays; strings are
Huffman-coded (paper: Huffman + LZ4 + sparse files address page-set
underutilization), and low-cardinality string pages are
dictionary-encoded first — a tiny Huffman-coded dictionary plus
fixed-width integer codes — so decode is a frombuffer and a gather
instead of a Huffman stream over every row. Page-slot compression
happens one layer down in :class:`~repro.storage.page.PagedFile`.

A string page decodes to the engine's one string representation, a
:class:`~repro.common.batch.DictColumn`: a dictionary page hands over its
codes and its dictionary as they are, a plain Huffman page its decoded
values as the dictionary with ascending codes. Nothing here builds an
array of row strings.

Each worker's buffer manager owns one byte-capped LRU of decoded data
(``BufferManager.decoded``, ``decoded_cache_mb`` per worker), so long
sessions over many tables stay within that cap instead of growing
without bound, and a cluster within ``n_workers`` times it. Scans read
*fragment columns* (see :mod:`repro.storage.table`): each built from
:func:`decode_page` and cached under the fragment's generation number;
no page is cached on its own. Page dictionaries share the same LRU,
keyed by their blob, so the pages of one worker that repeat one (every
``l_returnflag`` page) share a single
:class:`~repro.common.batch.StringDictionary` and whatever has been
memoised on it.
"""

from __future__ import annotations

import struct
import threading
import weakref
from collections import OrderedDict

import numpy as np

from ..common.batch import DictColumn, StringDictionary
from ..common.dtypes import DataType
from ..common.errors import PageFormatError
from .compression import HuffmanCoder, huffman_decode_strings, huffman_encode_strings

#: dict pages are self-describing via this prefix; plain Huffman pages
#: start with a u32 row count whose high byte is always zero for any
#: realistic page, so the formats cannot collide
_DICT_MAGIC = b"DPG1"

#: a string page of fewer rows is always a plain (Huffman) page
DICT_MIN_ROWS = 64


class _ByteLRU:
    """One worker's decoded cache: an LRU bounded by total payload bytes,
    not entry count.

    The previous ``functools.lru_cache(maxsize=4096)`` bounded entries
    but not bytes: 4096 wide string pages can pin gigabytes. Keys never
    go stale: a fragment column's key names its layout's generation, a
    dictionary's key is its immutable blob. Each cache keeps an explicit
    byte budget and hit/miss/evict counters for the metrics registry,
    and joins the process-wide totals while it lives. Values are
    computed outside the lock so concurrent scans never serialize on a
    decode; a racing duplicate compute is tolerated (both produce
    identical immutable values).
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self._d: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        _LIVE.add(self)

    def lookup(self, key):
        """The value cached under ``key``, or None (a counted miss: the
        caller decodes it)."""
        with self._lock:
            try:
                val = self._d[key]
            except KeyError:
                self.misses += 1
                return None
            self._d.move_to_end(key)
            self.hits += 1
            return val[0]

    def peek(self, key):
        """The value cached under ``key``, or None, uncounted: a writer
        asking whether a reader's decode can be kept current."""
        with self._lock:
            val = self._d.get(key)
            if val is None:
                return None
            self._d.move_to_end(key)
            return val[0]

    def insert(self, key, val, nbytes: int) -> None:
        with self._lock:
            old = self._d.pop(key, None)
            if old is not None:
                self.bytes -= old[1]
            self._d[key] = (val, nbytes)
            self.bytes += nbytes
            while self.bytes > self.max_bytes and len(self._d) > 1:
                _, (_, sz) = self._d.popitem(last=False)
                self.bytes -= sz
                self.evictions += 1

    def discard(self, key) -> None:
        with self._lock:
            old = self._d.pop(key, None)
            if old is not None:
                self.bytes -= old[1]

    def clear(self) -> None:
        with self._lock:
            self._d.clear()
            self.bytes = 0


#: every live decoded cache in the process, for the process-wide totals
#: below; a collected worker's cache leaves it
_LIVE: weakref.WeakSet[_ByteLRU] = weakref.WeakSet()


def decoded_cache_stats() -> dict[str, int]:
    """Hit/miss/evict/byte counters summed over every live decoded cache."""
    caches = list(_LIVE)
    return {k: sum(getattr(c, k) for c in caches) for k in ("hits", "misses", "evictions", "bytes")}


def clear_decoded_caches() -> None:
    for c in list(_LIVE):
        c.clear()


def _dict_encode_strings(values: list[str]) -> bytes | None:
    n = len(values)
    if n < DICT_MIN_ROWS:
        return None
    # cheap cardinality probe before hashing every row
    sample = values[:256]
    if len(set(sample)) * 2 > len(sample):
        return None
    # hash-factorize: only the distinct values are sorted, and Python's
    # str order is the order np.unique gives an object array, so the
    # dictionary (and its codes) are what a sort of every row would give
    distinct = dict.fromkeys(values)
    if len(distinct) * 4 > n:
        return None
    uniq = sorted(distinct)
    index = {v: i for i, v in enumerate(uniq)}
    width = 1 if len(uniq) <= 0xFF else 2 if len(uniq) <= 0xFFFF else 4
    codes = np.fromiter(map(index.__getitem__, values), dtype=f"<u{width}", count=n)
    dict_blob = huffman_encode_strings(uniq)
    header = _DICT_MAGIC + struct.pack("<BII", width, n, len(dict_blob))
    return header + dict_blob + codes.tobytes()


def _decode_dictionary(blob: bytes, cache: _ByteLRU | None) -> StringDictionary:
    """Huffman-decode a dictionary page's dictionary once per distinct
    content in ``cache`` (every time, for None), so every page that
    repeats it shares one object.

    Storage pages are immutable, and the key here is the blob *content*
    (not a page number), so staleness is impossible: a rewritten page is
    a different blob.
    """
    hit = None if cache is None else cache.lookup(blob)
    if hit is not None:
        return hit
    dictionary = StringDictionary(huffman_decode_strings(blob))
    if cache is not None:
        cache.insert(blob, dictionary, _dictionary_nbytes(dictionary))
    return dictionary


def _dictionary_nbytes(dictionary: StringDictionary) -> int:
    # pointer + str header + UTF-8 body per entry
    return dictionary.body_bytes + 56 * len(dictionary)


def is_dict_page(payload: bytes) -> bool:
    return payload[:4] == _DICT_MAGIC


def _decode_string_page(payload: bytes, n_rows: int, cache: _ByteLRU | None) -> DictColumn:
    if is_dict_page(payload):
        width, n, dict_len = struct.unpack_from("<BII", payload, 4)
        off = 4 + struct.calcsize("<BII")
        dictionary = _decode_dictionary(payload[off : off + dict_len], cache)
        codes = np.frombuffer(payload, dtype=f"<u{width}", offset=off + dict_len)
        if n != n_rows or len(codes) != n_rows:
            raise PageFormatError(f"string page holds {n} values, expected {n_rows}")
        if n_rows and int(codes.max()) >= len(dictionary):
            raise PageFormatError("dictionary page code out of range")
        return DictColumn(codes.astype(np.uint32), dictionary)
    # a plain page's values are nobody else's dictionary: the column
    # cache entry is their only home
    col = DictColumn.wrap(huffman_decode_strings(payload))
    if len(col) != n_rows:
        raise PageFormatError(f"string page holds {len(col)} values, expected {n_rows}")
    return col


def encode_column(arr, dtype: DataType, like: HuffmanCoder | None = None) -> bytes:
    """One column page of ``arr``. A plain string page is coded with
    ``like``'s Huffman table when that covers its bytes (and carries it,
    as every page carries its table)."""
    if dtype == DataType.STRING:
        values = np.asarray(arr, dtype=object).tolist()
        return _dict_encode_strings(values) or huffman_encode_strings(values, like)
    return np.ascontiguousarray(arr, dtype=dtype.numpy_dtype).tobytes()


def as_decoded(payload: bytes, arr, dtype: DataType, cache: _ByteLRU):
    """What ``decode_page(payload, dtype, len(arr), cache)`` returns, built
    from ``arr``, the values ``payload`` was encoded from, without
    decoding it: a dictionary page's dictionary is the one ``cache``
    holds for its content, if any, a plain page's values are its
    dictionary. Nothing is cached."""
    if dtype != DataType.STRING:
        return np.ascontiguousarray(arr, dtype=dtype.numpy_dtype)
    values = np.asarray(arr, dtype=object).tolist()
    if not is_dict_page(payload):
        return DictColumn.wrap(values)
    width, _, dict_len = struct.unpack_from("<BII", payload, 4)
    off = 4 + struct.calcsize("<BII")
    dictionary = cache.peek(payload[off : off + dict_len])
    if dictionary is None:
        dictionary = StringDictionary(sorted(dict.fromkeys(values)))
    codes = np.frombuffer(payload, dtype=f"<u{width}", offset=off + dict_len)
    return DictColumn(codes.astype(np.uint32), dictionary)


def decode_page(payload: bytes, dtype: DataType, n_rows: int, cache: _ByteLRU | None = None):
    """Decode one column page: a DictColumn for STRING, else a read-only
    view that borrows the payload's buffer. A dictionary page's
    dictionary is looked up in, and added to, ``cache`` (None: uncached).
    Every column page is validated against ``n_rows``."""
    if dtype == DataType.STRING:
        return _decode_string_page(payload, n_rows, cache)
    col = np.frombuffer(payload, dtype=dtype.numpy_dtype)
    if len(col) != n_rows:
        raise PageFormatError(f"column page holds {len(col)} values, expected {n_rows}")
    return col


def decoded_nbytes(col) -> int:
    """What the cache is charged for a decoded column: a string column's
    codes and dictionary (the entry keeps the dictionary alive whatever
    becomes of the dictionary's own entry)."""
    if isinstance(col, DictColumn):
        return col.codes.nbytes + _dictionary_nbytes(col.dictionary)
    return col.nbytes


def freeze(col):
    """Mark a decoded column read-only before it is shared across scans and
    queries, so an accidental in-place mutation fails loudly instead of
    corrupting the cache."""
    (col.codes if isinstance(col, DictColumn) else col).setflags(write=False)
    return col


def handout(col):
    """What a reader gets of a cached column. A string column is a fresh
    :class:`DictColumn` over the cached codes and dictionary, so the row
    strings a consumer memoises on it die with that consumer — the cache
    holds, and is charged for, codes and dictionary only."""
    if isinstance(col, DictColumn):
        fresh = DictColumn(col.codes, col.dictionary)
        fresh._decoded = col._decoded  # a plain page's values: the dictionary itself
        return fresh
    return col

