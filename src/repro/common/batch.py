"""Columnar row batches.

:class:`RowBatch` is the unit of dataflow in the execution engine: a set
of equal-length NumPy columns plus a :class:`~repro.common.schema.Schema`.
All operators consume and produce batches, so per-row Python overhead is
amortized over ``batch_size`` rows (the guides' "vectorize the hot loop"
rule).

Batches also know how to serialize themselves to a compact binary wire
format used by the shuffle/network layer and the spill files, so that the
simulated network can account real byte volumes. String columns are
encoded in bulk (offsets + concatenated UTF-8 body, built with NumPy
byte-matrix ops rather than per-row loops) and low-cardinality string
columns are dictionary-encoded on the wire, so shuffles do not pay
per-row Python overhead for the dominant TPC-H payload type.
"""

from __future__ import annotations

import struct
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dtypes import DataType, coerce_column
from .errors import ExecutionError
from .schema import Column, Schema

_MAGIC = b"RB02"

#: ablation toggles (benchmarks flip these to measure the scalar paths)
VECTORIZED_STRINGS = True
DICT_ENCODE_STRINGS = True

#: wire encodings for the per-column payload
_ENC_RAW = 0
_ENC_DICT = 1
#: raw strings prefixed by a NULL byte-mask (NULL string aggregates)
_ENC_NULLS = 2

#: dictionary-encode a string column when it has at least this many rows
#: and at most rows/4 distinct values
_DICT_MIN_ROWS = 64


class RowBatch:
    __slots__ = ("schema", "columns", "length", "_nbytes")

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray]):
        self.schema = schema
        self.columns: dict[str, np.ndarray] = {}
        n = None
        for col in schema:
            try:
                arr = columns[col.name]
            except KeyError:
                raise ExecutionError(f"batch missing column {col.name!r}") from None
            if n is None:
                n = len(arr)
            elif len(arr) != n:
                raise ExecutionError(
                    f"ragged batch: column {col.name!r} has {len(arr)} rows, expected {n}"
                )
            self.columns[col.name] = arr
        self.length = n or 0

    # -- construction ----------------------------------------------------------
    @classmethod
    def _trusted(cls, schema: Schema, columns: dict, length: int) -> "RowBatch":
        """Skip per-column validation for internal row-preserving
        transforms whose outputs align by construction (filter/take/
        slice/project). External inputs must go through ``__init__``."""
        b = cls.__new__(cls)
        b.schema = schema
        b.columns = columns
        b.length = length
        return b

    @classmethod
    def from_pairs(cls, *pairs: tuple[str, DataType, Sequence]) -> "RowBatch":
        schema = Schema(Column(n, t) for n, t, _ in pairs)
        cols = {n: coerce_column(v, t) for n, t, v in pairs}
        return cls(schema, cols)

    @classmethod
    def empty(cls, schema: Schema) -> "RowBatch":
        return cls(schema, {c.name: np.empty(0, dtype=c.dtype.numpy_dtype) for c in schema})

    @classmethod
    def concat(cls, schema: Schema, batches: Iterable["RowBatch"]) -> "RowBatch":
        batches = [b for b in batches if b.length]
        if not batches:
            return cls.empty(schema)
        if len(batches) == 1:
            return batches[0]
        cols = {
            c.name: np.concatenate([b.columns[c.name] for b in batches])
            for c in schema
        }
        return cls._trusted(
            schema, cols, sum(b.length for b in batches) if cols else 0
        )

    # -- basic ops ---------------------------------------------------------------
    def __len__(self) -> int:
        return self.length

    def col(self, name: str) -> np.ndarray:
        return self.columns[name]

    def filter(self, mask: np.ndarray) -> "RowBatch":
        """Keep rows where ``mask`` is True."""
        if mask.all():
            return self
        cols = {k: v[mask] for k, v in self.columns.items()}
        n = len(next(iter(cols.values()))) if cols else 0
        return RowBatch._trusted(self.schema, cols, n)

    def take(self, indices: np.ndarray) -> "RowBatch":
        """Gather rows by position (used by joins and sorts)."""
        cols = {k: v[indices] for k, v in self.columns.items()}
        return RowBatch._trusted(self.schema, cols, len(indices))

    def slice(self, start: int, stop: int) -> "RowBatch":
        cols = {k: v[start:stop] for k, v in self.columns.items()}
        n = len(next(iter(cols.values()))) if cols else 0
        return RowBatch._trusted(self.schema, cols, n)

    def project(self, names: Sequence[str]) -> "RowBatch":
        schema = self.schema.project(names)
        return RowBatch._trusted(
            schema, {n: self.columns[n] for n in names}, self.length
        )

    def rename(self, mapping: Mapping[str, str]) -> "RowBatch":
        """Rename columns; unmentioned columns keep their names."""
        schema = Schema(
            Column(mapping.get(c.name, c.name), c.dtype) for c in self.schema
        )
        cols = {mapping.get(k, k): v for k, v in self.columns.items()}
        return RowBatch(schema, cols)

    def with_column(self, name: str, dtype: DataType, values: np.ndarray) -> "RowBatch":
        schema = Schema(tuple(self.schema.columns) + (Column(name, dtype),))
        cols = dict(self.columns)
        cols[name] = values
        return RowBatch(schema, cols)

    def rows(self) -> list[tuple]:
        """Materialize as Python tuples (result delivery / tests only).

        NaN encodes SQL NULL (aggregates over no qualifying rows) and is
        delivered as None, like object-column NULLs.
        """
        if not self.length:
            return []
        lists = []
        for c in self.schema:
            a = self.columns[c.name]
            vals = a.tolist()
            if a.dtype.kind == "f":
                vals = [None if x != x else x for x in vals]
            lists.append(vals)
        return list(zip(*lists))

    # -- partitioning (shuffle support) -----------------------------------------
    def hash_codes(self, key_columns: Sequence[str]) -> np.ndarray:
        """Stable 64-bit hash of the key columns, vectorized.

        Uses a Fibonacci-style multiply-xor mix per column. For strings we
        fall back to Python ``hash``-free FNV over the object array (still a
        single pass). The same function is used by table partitioning, the
        shuffle operator, and hash joins' Bloom filters, so co-location
        reasoning in the optimizer matches runtime behaviour exactly.
        """
        return hash_value_arrays([self.columns[name] for name in key_columns], self.length)

    def partition(self, key_columns: Sequence[str], n_parts: int) -> list["RowBatch"]:
        """Split into ``n_parts`` batches by hash of the key columns."""
        if n_parts == 1:
            return [self]
        return self.partition_codes(self.hash_codes(key_columns), n_parts)

    def partition_codes(self, codes: np.ndarray, n_parts: int) -> list["RowBatch"]:
        """Split into ``n_parts`` batches, row ``i`` going to part
        ``codes[i] % n_parts``; row order is kept within a part. The one
        hash partitioner: the shuffle exchange and the baseline engines'
        disk shuffle hash their key *expressions* and slice through here."""
        part = (codes % np.uint64(n_parts)).astype(np.int64)
        order = np.argsort(part, kind="stable")
        sorted_part = part[order]
        bounds = np.searchsorted(sorted_part, np.arange(1, n_parts))
        chunks = np.split(order, bounds)
        return [self.take(idx) for idx in chunks]

    # -- serialization -----------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Compact binary wire format (used by shuffle + spill files)."""
        parts: list[bytes] = [_MAGIC, struct.pack("<IH", self.length, len(self.schema))]
        for c in self.schema:
            name_b = c.name.encode()
            arr = self.columns[c.name]
            wire_type = c.dtype
            if c.dtype == DataType.STRING:
                enc, payload = _encode_string_column(arr)
            else:
                if arr.dtype.kind == "f" and c.dtype != DataType.FLOAT64:
                    # a float64 NULL-hole array (NaN = NULL aggregate)
                    # riding under an integer/date/bool schema column:
                    # ship it as FLOAT64 so NULLs survive the wire
                    wire_type = DataType.FLOAT64
                    arr = arr.astype(np.float64, copy=False)
                enc, payload = _ENC_RAW, np.ascontiguousarray(arr).tobytes()
            parts.append(struct.pack("<HBB", len(name_b), _TYPE_CODE[wire_type], enc))
            parts.append(name_b)
            parts.append(struct.pack("<I", len(payload)))
            parts.append(payload)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RowBatch":
        if data[:4] != _MAGIC:
            raise ExecutionError("bad batch magic")
        off = 4
        length, ncols = struct.unpack_from("<IH", data, off)
        off += 6
        cols: dict[str, np.ndarray] = {}
        schema_cols: list[Column] = []
        for _ in range(ncols):
            nlen, tcode, enc = struct.unpack_from("<HBB", data, off)
            off += 4
            name = data[off : off + nlen].decode()
            off += nlen
            (plen,) = struct.unpack_from("<I", data, off)
            off += 4
            payload = data[off : off + plen]
            off += plen
            dtype = _CODE_TYPE[tcode]
            if dtype == DataType.STRING:
                arr = _decode_string_column(payload, length, enc)
            else:
                arr = np.frombuffer(payload, dtype=dtype.numpy_dtype).copy()
            schema_cols.append(Column(name, dtype))
            cols[name] = arr
        return cls(Schema(schema_cols), cols)

    @property
    def nbytes(self) -> int:
        """In-memory footprint estimate (drives spill decisions).

        Memoized: batches are immutable once built, and the string-column
        estimate walks every row."""
        try:
            return self._nbytes
        except AttributeError:
            pass
        total = 0
        for c in self.schema:
            arr = self.columns[c.name]
            if arr.dtype == object:
                total += sum(len(s) for s in arr if s is not None) + 8 * len(arr)
            else:
                total += arr.nbytes
        self._nbytes = total
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowBatch({self.length} rows, {self.schema.names()})"


_TYPE_CODE = {
    DataType.INT64: 0,
    DataType.FLOAT64: 1,
    DataType.DECIMAL: 2,
    DataType.DATE: 3,
    DataType.STRING: 4,
    DataType.BOOL: 5,
}
_CODE_TYPE = {v: k for k, v in _TYPE_CODE.items()}


def _utf8_matrix(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """UTF-8 encode all strings into a null-padded (n, width) byte matrix
    plus per-row byte lengths, entirely with NumPy bulk ops.

    Returns None when the bulk path cannot represent the data faithfully
    (a string ends with NUL, which the fixed-width bytes dtype strips).
    """
    n = len(arr)
    if arr.dtype.kind == "U":
        u = arr  # fixed-width unicode cannot carry trailing NULs at all
    else:
        u = arr.astype("U")
        # astype("U") silently strips trailing NULs; compare the stripped
        # lengths against the true ones to detect (and reject) that case
        true_lens = np.fromiter((len(s) for s in arr), count=n, dtype=np.int64)
        if not np.array_equal(np.char.str_len(u), true_lens):
            return None
    width_u = u.dtype.itemsize // 4
    if width_u == 0:
        return np.zeros((n, 0), dtype=np.uint8), np.zeros(n, dtype=np.int64)
    # pure-ASCII fast path: the UCS-4 code units *are* the UTF-8 bytes, so
    # the padded matrix is a plain cast — no per-element codec call
    cp = np.ascontiguousarray(u).view(np.uint32).reshape(n, width_u)
    if cp.max(initial=0) < 128:
        nz = cp != 0
        lens = np.where(nz.any(axis=1), width_u - nz[:, ::-1].argmax(axis=1), 0)
        if np.array_equal(nz.sum(axis=1), lens):  # no interior NUL chars
            return cp.astype(np.uint8), lens.astype(np.int64)
    b = np.char.encode(u, "utf-8")
    width = b.dtype.itemsize
    lens = np.char.str_len(b).astype(np.int64)
    if width == 0:
        return np.zeros((n, 0), dtype=np.uint8), lens
    mat = np.frombuffer(b.tobytes(), dtype=np.uint8).reshape(n, width)
    return mat, lens


def _encode_strings(arr: np.ndarray) -> bytes:
    """Offsets (uint32, n+1) + concatenated UTF-8 body, built in bulk."""
    n = len(arr)
    mats = _utf8_matrix(arr) if VECTORIZED_STRINGS and n else None
    if mats is not None:
        mat, lens = mats
        offsets = np.zeros(n + 1, dtype=np.uint32)
        np.cumsum(lens, out=offsets[1:])
        width = mat.shape[1]
        body = mat[np.arange(width) < lens[:, None]].tobytes() if width else b""
        return offsets.tobytes() + body
    # scalar fallback: empty input or strings the bulk path cannot carry
    blobs = [s.encode() for s in arr]
    offsets = np.zeros(len(blobs) + 1, dtype=np.uint32)
    if blobs:
        np.cumsum([len(b) for b in blobs], out=offsets[1:])
    return offsets.tobytes() + b"".join(blobs)


def decode_utf8_offsets(body: bytes, offsets: np.ndarray) -> np.ndarray | None:
    """Bulk-decode ``len(offsets) - 1`` UTF-8 strings sliced out of ``body``
    into an object array, or None when the data defeats the padded-matrix
    trick (a NUL byte anywhere in the body, since the fixed-width bytes
    view strips NULs). Shared by the RowBatch wire codec and the storage
    layer's Huffman string pages.
    """
    n = len(offsets) - 1
    out = np.empty(n, dtype=object)
    if n == 0:
        return out
    if b"\x00" in body:
        return None
    offs = offsets.astype(np.int64)
    lens = np.diff(offs)
    width = int(lens.max())
    if width == 0:
        out[:] = ""
        return out
    barr = np.frombuffer(body, dtype=np.uint8)
    valid = np.arange(width) < lens[:, None]
    mat = np.zeros((n, width), dtype=np.uint8)
    mat[valid] = barr[(offs[:-1, None] + np.arange(width))[valid]]
    packed = mat.view(f"S{width}").ravel()
    if barr.max(initial=0) < 128:
        # pure-ASCII fast path: bytes->UCS-4 is a plain widening cast,
        # far cheaper than a per-element UTF-8 decode call
        decoded = packed.astype(f"U{width}")
    else:
        decoded = np.char.decode(packed, "utf-8")
    out[:] = decoded.astype(object)
    return out


def _decode_strings(payload: bytes, n: int) -> np.ndarray:
    offsets = np.frombuffer(payload, dtype=np.uint32, count=n + 1)
    body = payload[4 * (n + 1) :]
    if n and VECTORIZED_STRINGS:
        out = decode_utf8_offsets(body, offsets)
        if out is not None:
            return out
    out = np.empty(n, dtype=object)
    for i in range(n):
        out[i] = body[offsets[i] : offsets[i + 1]].decode()
    return out


def _encode_string_column(arr: np.ndarray) -> tuple[int, bytes]:
    """Pick a wire encoding for a string column: raw offsets+body, or
    dictionary (codes + distinct values) when cardinality is low. NULLs
    (None, produced only by aggregates over no qualifying rows) get a
    byte-mask prefix ahead of the raw encoding."""
    n = len(arr)
    if any(x is None for x in arr.tolist()):
        mask = np.fromiter((x is None for x in arr), count=n, dtype=np.uint8)
        filled = np.empty(n, dtype=object)
        filled[:] = ["" if x is None else x for x in arr]
        return _ENC_NULLS, mask.tobytes() + _encode_strings(filled)
    if DICT_ENCODE_STRINGS and n >= _DICT_MIN_ROWS:
        # cheap cardinality probe first: a near-distinct sample means the
        # full O(n log n) unique pass cannot pay off, skip it
        sample = arr[:256]
        if len(set(sample.tolist())) * 2 <= len(sample):
            uniq, inv = np.unique(arr, return_inverse=True)
            if len(uniq) * 4 <= n:
                dict_payload = _encode_strings(uniq)
                codes = inv.astype(np.uint32).tobytes()
                return _ENC_DICT, struct.pack("<I", len(uniq)) + dict_payload + codes
    return _ENC_RAW, _encode_strings(arr)


def _decode_string_column(payload: bytes, n: int, enc: int) -> np.ndarray:
    if enc == _ENC_RAW:
        return _decode_strings(payload, n)
    if enc == _ENC_NULLS:
        mask = np.frombuffer(payload, dtype=np.uint8, count=n)
        out = _decode_strings(payload[n:], n)
        out[mask.astype(bool)] = None
        return out
    if enc != _ENC_DICT:
        raise ExecutionError(f"unknown string encoding {enc}")
    (nuniq,) = struct.unpack_from("<I", payload, 0)
    dict_offsets = np.frombuffer(payload, dtype=np.uint32, count=nuniq + 1, offset=4)
    dict_len = 4 * (nuniq + 1) + int(dict_offsets[-1])
    uniq = _decode_strings(payload[4 : 4 + dict_len], nuniq)
    codes = np.frombuffer(payload, dtype=np.uint32, offset=4 + dict_len, count=n)
    return uniq[codes.astype(np.int64)]


def hash_value_arrays(arrays, length: int | None = None) -> np.ndarray:
    """Stable engine-wide 64-bit hash of parallel value arrays.

    The column-wise Fibonacci multiply-xor mix of ``RowBatch.hash_codes``
    without needing a batch. Table partitioning, shuffle routing, join
    Bloom prefilters, and the storage layer's sideways bloom scan
    pushdown all hash through here, so a key hashed on the build side
    matches the same key hashed over raw scan values exactly.
    """
    if length is None:
        length = len(arrays[0]) if arrays else 0
    h = np.zeros(length, dtype=np.uint64)
    for arr in arrays:
        arr = np.asarray(arr)
        if arr.dtype == object:
            codes = _fnv1a_bulk(arr)
        else:
            codes = arr.astype(np.int64, copy=False).view(np.uint64).copy()
        codes *= np.uint64(0x9E3779B97F4A7C15)
        codes ^= codes >> np.uint64(29)
        h ^= codes + np.uint64(0x9E3779B9) + (h << np.uint64(6)) + (h >> np.uint64(2))
    return h


def _fnv1a(s: str) -> int:
    """Scalar FNV-1a (reference; the hot path uses :func:`_fnv1a_bulk`)."""
    h = 0xCBF29CE484222325
    for ch in s.encode():
        h ^= ch
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _fnv1a_bulk(arr: np.ndarray) -> np.ndarray:
    """FNV-1a over every string of an object column, vectorized across rows.

    Walks the padded UTF-8 byte matrix column by column (max-length
    iterations of O(n) NumPy ops instead of a per-character Python loop),
    producing bit-identical hashes to :func:`_fnv1a` — placement decisions
    made before and after vectorization agree exactly.
    """
    n = len(arr)
    mats = _utf8_matrix(arr) if VECTORIZED_STRINGS and n else None
    if mats is None:
        return np.fromiter((_fnv1a(s) for s in arr), count=n, dtype=np.uint64)
    mat, lens = mats
    h = np.full(n, 0xCBF29CE484222325, dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for j in range(mat.shape[1]):
            active = lens > j
            if not active.any():
                break
            h[active] = (h[active] ^ mat[active, j].astype(np.uint64)) * prime
    return h
