"""Columnar row batches.

:class:`RowBatch` is the unit of dataflow in the execution engine: a set
of equal-length columns plus a :class:`~repro.common.schema.Schema`.
All operators consume and produce batches, so per-row Python overhead is
amortized over ``batch_size`` rows (the guides' "vectorize the hot loop"
rule).

A STRING column has one in-memory representation, :class:`DictColumn`:
``uint32`` codes into a shared immutable :class:`StringDictionary`. Scans
and the wire decoder produce it, ``RowBatch`` wraps any array of Python
strings it is handed the same way, row-preserving transforms slice the
codes and share the dictionary, and everything that needs value order,
equality or a hash works once per dictionary *entry* and gathers. The
strings themselves are materialized by :meth:`DictColumn.decode`, which
the executor calls once, on the final result.

Batches also know how to serialize themselves to a compact binary wire
format used by the shuffle/network layer and the spill files, so that the
simulated network can account real byte volumes. A dictionary holds its
entries in two memoised faces, ``str`` and UTF-8 offsets + body, each
built from the other on first use. A string column ships as whichever of
two payloads is smaller: raw offsets + body, one string a row, or a
dictionary frame, the referenced entries plus uint32 codes. Both are byte
ranges gathered from the UTF-8 face, so a cached page dictionary is
encoded once for every query that ships it. The decoder keeps the bytes
it received as the new dictionary's UTF-8 face: hashing it and shipping
it onward never build Python strings, and only a consumer that needs
them (value order, comparisons, LIKE, the final decode) does.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import struct
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .dtypes import DataType, coerce_column
from .errors import ExecutionError
from .schema import Column, Schema

_MAGIC = b"RB02"

#: wire encodings for the per-column payload
_ENC_RAW = 0
_ENC_DICT = 1
#: raw strings prefixed by a NULL byte-mask (NULL string aggregates)
_ENC_NULLS = 2

# ---------------------------------------------------------------------------
# string columns
# ---------------------------------------------------------------------------


def code_space_is_dense(space: int, rows: int) -> bool:
    """Is a code space small enough, against the rows that fill it, for a
    ``space``-long scratch array to beat sorting the rows? The one density
    rule of the engine's direct addressing (factorized group keys, join
    tables): within four slots a row, or within 64 slots a row up to a
    fixed budget of 2**20 slots — so a hash fragment of a key column,
    spread some 16x wider than its rows, still qualifies."""
    return space <= max(4 * rows + 1024, min(1 << 20, 64 * rows))


def stable_order(codes: np.ndarray, space: int) -> np.ndarray:
    """``np.argsort(codes, kind="stable")`` for integers in ``[0, space)``.

    Codes narrowed to ``uint8``/``uint16`` are radix-sorted by NumPy, in
    linear time; a space up to 2**32 takes two such passes, low half
    first (a stable LSD radix sort)."""
    if space <= 1 << 8:
        return np.argsort(codes.astype(np.uint8), kind="stable")
    if space <= 1 << 16:
        return np.argsort(codes.astype(np.uint16), kind="stable")
    if space <= 1 << 32:
        order = np.argsort((codes & 0xFFFF).astype(np.uint16), kind="stable")
        high = (codes[order] >> 16).astype(np.uint16)
        return order[np.argsort(high, kind="stable")]
    return np.argsort(codes, kind="stable")


def densify_codes(codes: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """Renumber ``codes`` (integers in ``[0, space)``) to ``0..k-1``,
    keeping their order. Returns the dense int64 codes and the ``k``
    distinct original codes, ascending.

    A code space the density rule (:func:`code_space_is_dense`) accepts
    is densified with one scatter and one ``cumsum``; only a sparse one
    pays the sort inside ``np.unique``."""
    if code_space_is_dense(space, len(codes)):
        present = np.zeros(space, dtype=bool)
        present[codes] = True
        distinct = np.flatnonzero(present)
        if len(distinct) == space:
            return codes.astype(np.int64, copy=False), distinct
        return (np.cumsum(present) - 1)[codes], distinct
    distinct, dense = np.unique(codes, return_inverse=True)
    return dense.astype(np.int64, copy=False), distinct


class _Canon(NamedTuple):
    """A dictionary's entries in value order."""

    #: the distinct non-NULL entries, ascending
    values: np.ndarray
    #: per entry, its index into ``values``; -1 for a NULL (None) entry
    rank: np.ndarray
    has_null: bool


class _Utf8(NamedTuple):
    """A dictionary's entries as UTF-8: entry ``i`` is
    ``body[offsets[i]:offsets[i + 1]]``, the entries back to back."""

    #: int64, one more than the entries; ``offsets[0] == 0``
    offsets: np.ndarray
    #: uint8, ``offsets[-1]`` bytes
    body: np.ndarray

    def take(self, ids: np.ndarray) -> "_Utf8":
        """The face of entries ``ids``, in that order: every byte range
        gathered in one vectorized pass."""
        starts = self.offsets[:-1][ids]
        lens = self.offsets[1:][ids] - starts
        offsets = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        total = int(offsets[-1])
        if not total:
            return _Utf8(offsets, np.empty(0, dtype=np.uint8))
        at = np.repeat(starts - offsets[:-1], lens)
        at += np.arange(total)
        return _Utf8(offsets, self.body[at])

    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """The entries as a NUL-padded (n, width) byte matrix plus their
        byte lengths: the body, in row order, is exactly the matrix's
        in-length cells."""
        lens = np.diff(self.offsets)
        width = int(lens.max(initial=0))
        mat = np.zeros((len(lens), width), dtype=np.uint8)
        if width:
            mat[np.arange(width) < lens[:, None]] = self.body
        return mat, lens

    def strings(self) -> np.ndarray:
        """The entries as an object array of ``str``."""
        out = decode_utf8_offsets(self.body.tobytes(), self.offsets)
        if out is None:  # a NUL byte in the body: slice string by string
            body = self.body.tobytes()
            offs = self.offsets.tolist()
            out = np.empty(len(offs) - 1, dtype=object)
            out[:] = [body[a:b].decode() for a, b in zip(offs, offs[1:])]
        return out

    def to_bytes(self) -> bytes:
        """The wire form: uint32 offsets, then the body."""
        return self.offsets.astype(np.uint32).tobytes() + self.body.tobytes()

    @staticmethod
    def concat(faces: Sequence["_Utf8"]) -> "_Utf8":
        shifts = np.cumsum([0] + [int(f.offsets[-1]) for f in faces[:-1]])
        offsets = np.concatenate(
            [f.offsets[:-1] + s for f, s in zip(faces, shifts)]
            + [[int(shifts[-1]) + int(faces[-1].offsets[-1])]]
        ).astype(np.int64)
        return _Utf8(offsets, np.concatenate([f.body for f in faces]))


def _utf8_face(entries: np.ndarray) -> _Utf8:
    """UTF-8 encode an object array of ``str`` in bulk (each entry once)."""
    mats = _utf8_matrix(entries) if len(entries) else None
    if mats is not None:
        mat, lens = mats
        offsets = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        width = mat.shape[1]
        body = mat[np.arange(width) < lens[:, None]] if width else np.empty(0, dtype=np.uint8)
        return _Utf8(offsets, body)
    # scalar fallback: empty input or strings the bulk path cannot carry
    blobs = [s.encode() for s in entries]
    offsets = np.zeros(len(blobs) + 1, dtype=np.int64)
    if blobs:
        np.cumsum([len(b) for b in blobs], out=offsets[1:])
    return _Utf8(offsets, np.frombuffer(b"".join(blobs), dtype=np.uint8))


class StringDictionary:
    """The immutable entry list any number of :class:`DictColumn` share.

    One list, two memoised faces: the entries as ``str`` (:attr:`values`)
    and as UTF-8 offsets + body (:meth:`utf8`). Either face is built from
    the other on first use — a scanned page dictionary starts with the
    strings and builds its bytes once, when a column over it is first
    shipped; a dictionary received off the wire starts with the bytes and
    builds strings only for a consumer that needs them (value order,
    comparisons, LIKE, the final decode). Shipping it onward and hashing
    it work on the bytes. An appended dictionary (:meth:`concat`) starts
    with neither: it builds a face by appending its parts' faces, so each
    part converts only what it lacks.

    Entries carry no promise: they may repeat, come in any order and
    include None (the NULL a string MIN/MAX yields over no rows; its
    UTF-8 entry is empty). The first consumer that needs value order or
    equality canonicalises — sorted + unique over the *entries* — and the
    result is memoised here, as are the per-entry FNV hashes, the total
    string length and per-entry LIKE masks, so a dictionary that lives in
    the decoded-page cache pays each once for all queries. A racing
    duplicate computation is harmless: the values are equal.
    """

    __slots__ = (
        "_values", "_utf8", "_parts", "_len", "_canon", "_fnv", "_body_bytes", "_has_null", "_masks",
    )

    #: per-entry masks memoised per dictionary (LIKE patterns)
    MAX_MASKS = 32

    def __init__(self, values=None, *, utf8: _Utf8 | None = None, parts=None):
        self._values: np.ndarray | None = None
        if values is not None:
            # a private read-only view: the caller's array keeps its own flags
            self._values = np.asarray(values, dtype=object).view()
            self._values.setflags(write=False)
            self._len = len(self._values)
        elif utf8 is not None:
            self._len = len(utf8.offsets) - 1
        else:
            self._len = sum(len(d) for d in parts)
        self._utf8 = utf8
        self._parts: tuple[StringDictionary, ...] | None = parts
        self._canon: _Canon | None = None
        self._fnv: np.ndarray | None = None
        self._body_bytes: int | None = None
        self._has_null: bool | None = False if values is None and parts is None else None
        self._masks: dict = {}

    @property
    def values(self) -> np.ndarray:
        """The entries as an object array of ``str`` (None for NULL)."""
        v = self._values
        if v is None:
            if self._parts is not None:
                v = np.concatenate([d.values for d in self._parts])
            else:
                v = self._utf8.strings()
            v.setflags(write=False)
            self._values = v
        return v

    def utf8(self) -> _Utf8:
        """The entries as UTF-8 offsets + body (a None entry is empty)."""
        u = self._utf8
        if u is None:
            if self._parts is not None:
                u = _Utf8.concat([d.utf8() for d in self._parts])
            else:
                entries = self._values
                if self.has_null:
                    entries = np.where(np.equal(entries, None), "", entries)
                u = _utf8_face(entries)
            self._utf8 = u
        return u

    def __len__(self) -> int:
        return self._len

    @property
    def has_null(self) -> bool:
        """Is any entry None? Such an entry need not be referenced by a
        row, so nothing may be evaluated over these entries as strings.
        Only the ``str`` face can hold a None: the UTF-8 face writes it
        empty, and a dictionary built from bytes alone has none."""
        if self._has_null is None:
            if self._values is None:
                self._has_null = any(d.has_null for d in self._parts)
            else:
                self._has_null = bool(np.equal(self._values, None).any())
        return self._has_null

    def canon(self) -> _Canon:
        c = self._canon
        if c is None:
            entries = self.values
            has_null = self.has_null
            if has_null:
                null = np.equal(entries, None)
                entries = entries[~null]
            # a stable sort of objects is timsort: entries that arrive as a
            # few ascending runs (sorted page dictionaries, appended) cost
            # close to one comparison each instead of log n
            order = np.argsort(entries, kind="stable")
            ordered = entries[order]
            first = np.ones(len(ordered), dtype=bool)
            first[1:] = ordered[1:] != ordered[:-1]
            rank = np.empty(len(ordered), dtype=np.int64)
            rank[order] = np.cumsum(first) - 1
            if has_null:
                full = np.full(len(null), -1, dtype=np.int64)
                full[~null] = rank
                rank = full
            c = self._canon = _Canon(ordered[first], rank, has_null)
        return c

    def fnv(self) -> np.ndarray:
        """FNV-1a of every entry's UTF-8 bytes (no entry may be None):
        from the UTF-8 face when there is one, else straight from the
        strings (an appended dictionary appends its parts' hashes)."""
        if self._fnv is None:
            if self._parts is not None:
                self._fnv = np.concatenate([d.fnv() for d in self._parts])
            elif self._utf8 is not None:
                self._fnv = _fnv1a_matrix(*self._utf8.matrix())
            else:
                self._fnv = _fnv1a_bulk(self._values)
        return self._fnv

    def take(self, ids: np.ndarray) -> "StringDictionary":
        """The dictionary of entries ``ids``, each face it has gathered (an
        appended one's strings when all its parts have them, else its
        bytes). Strings whenever an entry is None: bytes alone would turn
        that NULL into an empty string."""
        values, utf8 = self._values, self._utf8
        if values is None:
            if self.has_null or (utf8 is None and all(d._values is not None for d in self._parts)):
                values = self.values
            elif utf8 is None:
                utf8 = self.utf8()
        return StringDictionary(
            None if values is None else values[ids],
            utf8=None if utf8 is None else utf8.take(ids),
        )

    def pick(self, ids: np.ndarray) -> list:
        """The entries ``ids`` as Python strings (None for NULL), built
        from whichever face each one's dictionary has, never a whole
        face: for a few rows over a dictionary far bigger than them."""
        if self._values is not None:
            return self._values[ids].tolist()
        if self._utf8 is not None:
            face = self._utf8.take(ids)
            body, offs = face.body.tobytes(), face.offsets.tolist()
            return [body[x:y].decode() for x, y in zip(offs, offs[1:])]
        ends = list(itertools.accumulate(map(len, self._parts)))
        rows: dict[int, list[int]] = {}  # part -> positions in ids
        ids = ids.tolist()
        for at, i in enumerate(ids):
            rows.setdefault(bisect.bisect_right(ends, i), []).append(at)
        out: list = [None] * len(ids)
        for k, ats in rows.items():
            first = ends[k] - len(self._parts[k])
            local = np.array([ids[at] - first for at in ats], dtype=np.int64)
            for at, v in zip(ats, self._parts[k].pick(local)):
                out[at] = v
        return out

    @staticmethod
    def concat(dicts: Sequence["StringDictionary"]) -> "StringDictionary":
        """The entries of ``dicts`` appended, with no face built yet: the
        first consumer builds the one it needs from the parts' faces, so
        columns received off the wire and unified never build strings to
        be shipped on, and a scanned part never re-decodes its bytes."""
        parts: list[StringDictionary] = []
        for d in dicts:
            lazy = d._parts is not None and d._values is None and d._utf8 is None
            parts.extend(d._parts if lazy else (d,))
        return StringDictionary(parts=tuple(parts))

    def mask(self, key, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """``fn`` over the entries, memoised under ``key`` (a few keys a
        dictionary; the entries never change, so a mask never goes stale)."""
        out = self._masks.get(key)
        if out is None:
            out = fn(self.values)
            if len(self._masks) < self.MAX_MASKS:
                self._masks[key] = out
        return out

    @property
    def body_bytes(self) -> int:
        """Total length of the entries' strings (UTF-8 bytes when the
        dictionary holds no strings yet)."""
        if self._body_bytes is None:
            if self._values is not None:
                # one C-level join instead of a Python-level len() per entry
                self._body_bytes = len("".join([s for s in self._values.tolist() if s is not None]))
            elif self._utf8 is not None:
                self._body_bytes = int(self._utf8.offsets[-1])
            else:
                self._body_bytes = sum(d.body_bytes for d in self._parts)
        return self._body_bytes


class DictColumn:
    """A STRING column: ``codes[i]`` indexes ``dictionary.values``.

    Quacks like the 1-d array it replaces where result delivery and tests
    look at values (``len``, iteration, ``tolist``, ``np.asarray``,
    indexing, comparisons yielding a bool mask); the engine itself works
    on ``codes`` and per-entry results.
    """

    __slots__ = ("codes", "dictionary", "_decoded")

    #: what ``np.asarray(column)`` yields
    dtype = np.dtype(object)
    #: make ``ndarray <op> column`` defer to the reflected method below
    __array_ufunc__ = None

    def __init__(self, codes: np.ndarray, dictionary: StringDictionary):
        self.codes = codes
        self.dictionary = dictionary
        self._decoded: np.ndarray | None = None

    @classmethod
    def wrap(cls, values) -> "DictColumn":
        """The column for an array of Python strings: the values are the
        dictionary, the codes count up — no sort, no hashing."""
        dictionary = StringDictionary(values)
        if dictionary.values.ndim != 1:
            raise ExecutionError("a string column must be one-dimensional")
        col = cls(np.arange(len(dictionary), dtype=np.uint32), dictionary)
        col._decoded = dictionary.values
        return col

    # -- the array face ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.codes)

    def decode(self) -> np.ndarray:
        """The strings, as an object array (memoised)."""
        if self._decoded is None:
            self._decoded = self.dictionary.values[self.codes]
        return self._decoded

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = self.decode()
        return out if dtype is None else out.astype(dtype, copy=False)

    def __iter__(self):
        return iter(self.decode())

    def tolist(self) -> list:
        return self.decode().tolist()

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self.dictionary.values[self.codes[key]]
        return DictColumn(self.codes[key], self.dictionary)

    @property
    def nbytes(self) -> int:
        """Footprint estimate: 8 bytes a row (the code now, a pointer once
        decoded) plus the dictionary's strings — pro rata when the rows can
        reference only part of it. For a wrapped array of strings that is
        exactly pointer + length per string."""
        rows, d = len(self.codes), self.dictionary
        body = d.body_bytes if len(d) <= rows else d.body_bytes * rows // len(d)
        return 8 * rows + body

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DictColumn({len(self.codes)} rows, {len(self.dictionary)} entries)"

    # -- per-entry evaluation ------------------------------------------------------
    def _by_row(self) -> bool:
        """Evaluate over the rows' strings rather than the entries: when
        the rows are the fewer, and when an entry is None — no row need
        reference it, and over rows a NULL fails exactly where it would
        in an array of the strings."""
        d = self.dictionary
        return len(self.codes) < len(d) or d.has_null

    def map_entries(self, fn: Callable[[np.ndarray], np.ndarray], key=None) -> np.ndarray:
        """``fn`` of every row's string, computed once per dictionary entry
        and gathered (or straight over the rows, see :meth:`_by_row`).
        With a ``key``, the per-entry result is memoised on the dictionary
        (:meth:`StringDictionary.mask`) for every later call with it."""
        d = self.dictionary
        if key is not None and (key in d._masks or not self._by_row()):
            return d.mask(key, fn)[self.codes]
        if self._by_row():
            return fn(self.decode())
        return fn(d.values)[self.codes]

    def map_values(self, fn: Callable[[np.ndarray], np.ndarray]) -> "DictColumn":
        """The column of ``fn``'s string results, same codes."""
        if self._by_row():
            return DictColumn.wrap(fn(self.decode()))
        return DictColumn(self.codes, StringDictionary(fn(self.dictionary.values)))

    def ranks(self) -> np.ndarray:
        """Per row, the value's position in the dictionary's value order
        (-1 for NULL): equal strings get equal ranks, order is str order."""
        return self.dictionary.canon().rank[self.codes]

    def hashes(self) -> np.ndarray:
        """Per row, FNV-1a of the string (a fresh array)."""
        d = self.dictionary
        if d._fnv is None and d._values is not None and self._by_row():
            return _fnv1a_bulk(self.decode())
        return d.fnv()[self.codes]

    def _compare(self, other, op) -> np.ndarray:
        if isinstance(other, np.ndarray):
            other = DictColumn.wrap(other)
        if isinstance(other, DictColumn):
            if len(other.dictionary) == 1:  # a constant column (a literal)
                other = other.dictionary.values[0]
            elif len(self.dictionary) == 1:
                return other._compare(self.dictionary.values[0], _SWAPPED[op])
            else:
                a, b = DictColumn.unify([self, other])
                return op(a.ranks(), b.ranks())
        return self.map_entries(lambda v: np.asarray(op(v, other), dtype=bool))

    def __eq__(self, other):
        return self._compare(other, operator.eq)

    def __ne__(self, other):
        return self._compare(other, operator.ne)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    __hash__ = None

    # -- several columns, one dictionary --------------------------------------------
    @staticmethod
    def unify(cols: Sequence["DictColumn"]) -> list["DictColumn"]:
        """The same columns re-coded against one shared dictionary.

        Columns that already share theirs come back untouched. Otherwise
        the distinct dictionaries (by identity) are appended — no sort —
        and each column's codes offset; a dictionary more than twice as
        long as the rows that point into it contributes only the entries
        those rows reference, so gathers of gathers stay proportional to
        their rows."""
        first = cols[0].dictionary
        if all(c.dictionary is first for c in cols):
            return list(cols)
        groups: dict[int, list[int]] = {}
        for i, c in enumerate(cols):
            groups.setdefault(id(c.dictionary), []).append(i)
        parts: list[StringDictionary] = []
        codes: list[np.ndarray | None] = [None] * len(cols)
        offset = 0
        for members in groups.values():
            d = cols[members[0]].dictionary
            rows = sum(len(cols[i]) for i in members)
            if len(d) > 2 * rows + 16:
                inv, used = densify_codes(np.concatenate([cols[i].codes for i in members]), len(d))
                d = d.take(used)
                inv = inv.astype(np.uint32)
                at = 0
                for i in members:
                    codes[i] = inv[at : at + len(cols[i])] + np.uint32(offset)
                    at += len(cols[i])
            else:
                for i in members:
                    codes[i] = cols[i].codes + np.uint32(offset)
            parts.append(d)
            offset += len(d)
        merged = StringDictionary.concat(parts)
        return [DictColumn(c, merged) for c in codes]

    def coded_into(self, onto: StringDictionary) -> "DictColumn | None":
        """The same strings as codes into ``onto`` when it holds every
        one of this column's entries, else None."""
        at = {v: i for i, v in enumerate(onto.values.tolist())}
        try:
            remap = np.array([at[v] for v in self.dictionary.values.tolist()], dtype=np.uint32)
        except KeyError:
            return None
        return DictColumn(remap[self.codes], onto)

    def head(self, n: int) -> "DictColumn":
        """The first ``n`` rows, over only the leading parts of an
        appended dictionary that they reference: the first part itself,
        with all that is memoised on it, when that one suffices."""
        codes = self.codes[:n]
        d = self.dictionary
        parts = d._parts
        if parts is not None and len(codes):
            ends = np.cumsum([len(p) for p in parts])
            k = int(np.searchsorted(ends, int(codes.max()), side="right")) + 1
            if k < len(parts):
                d = parts[0] if k == 1 else StringDictionary.concat(parts[:k])
        return DictColumn(codes, d)

    @staticmethod
    def concat(cols: Sequence["DictColumn"]) -> "DictColumn":
        cols = DictColumn.unify(cols)
        return DictColumn(np.concatenate([c.codes for c in cols]), cols[0].dictionary)


#: the comparison with its operands exchanged
_SWAPPED = {
    operator.eq: operator.eq, operator.ne: operator.ne,
    operator.lt: operator.gt, operator.gt: operator.lt,
    operator.le: operator.ge, operator.ge: operator.le,
}


def as_column(values):
    """Canonical column for anything an operator may be handed: a
    :class:`DictColumn` for strings, an ndarray for everything else."""
    if isinstance(values, DictColumn):
        return values
    arr = np.asarray(values)
    return DictColumn.wrap(arr) if arr.dtype.kind in "OU" else arr


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------


class RowBatch:
    __slots__ = ("schema", "columns", "length", "_nbytes")

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray]):
        self.schema = schema
        self.columns: dict[str, np.ndarray | DictColumn] = {}
        n = None
        for col in schema:
            try:
                arr = columns[col.name]
            except KeyError:
                raise ExecutionError(f"batch missing column {col.name!r}") from None
            if col.dtype == DataType.STRING and not isinstance(arr, DictColumn):
                arr = DictColumn.wrap(arr)
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
        cols = {}
        for c in schema:
            parts = [b.columns[c.name] for b in batches]
            join = DictColumn.concat if isinstance(parts[0], DictColumn) else np.concatenate
            cols[c.name] = join(parts)
        return cls._trusted(
            schema, cols, sum(b.length for b in batches) if cols else 0
        )

    # -- basic ops ---------------------------------------------------------------
    def __len__(self) -> int:
        return self.length

    def col(self, name: str):
        """The column: an ndarray, or a :class:`DictColumn` for STRING."""
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

    def decoded(self) -> "RowBatch":
        """Materialize every string column's values now (they are
        memoised on the column): the final gather of a query result, so
        delivery after the clock stops is a plain ``tolist``."""
        for arr in self.columns.values():
            if isinstance(arr, DictColumn):
                arr.decode()
        return self

    def rows(self) -> list[tuple]:
        """Materialize as Python tuples (result delivery / tests only).

        NaN encodes SQL NULL (aggregates over no qualifying rows) and is
        delivered as None, like string-column NULLs.
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

        Uses a Fibonacci-style multiply-xor mix per column; strings
        contribute the FNV-1a of their UTF-8 bytes. The same function is
        used by table partitioning, the shuffle operator, and hash joins'
        Bloom filters, so co-location reasoning in the optimizer matches
        runtime behaviour exactly.
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
        # a counting partition: the part sizes, and a stable (radix) order
        bounds = np.cumsum(np.bincount(part, minlength=n_parts))[:-1]
        chunks = np.split(stable_order(part, n_parts), bounds)
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
        cols: dict[str, np.ndarray | DictColumn] = {}
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

        Memoized: batches are immutable once built."""
        try:
            return self._nbytes
        except AttributeError:
            pass
        total = sum(arr.nbytes for arr in self.columns.values())
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


# ---------------------------------------------------------------------------
# string wire codec
# ---------------------------------------------------------------------------


def _utf8_matrix(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """UTF-8 encode all strings into a null-padded (n, width) byte matrix
    plus per-row byte lengths, entirely with NumPy bulk ops.

    Returns None when the bulk path cannot represent the data faithfully
    (a string ends with NUL, which the fixed-width bytes dtype strips).
    """
    n = len(arr)
    u = arr.astype("U")
    # astype("U") silently strips trailing NULs, which only ever shortens:
    # the total length tells whether any string lost one (reject those)
    if int(np.char.str_len(u).sum()) != len("".join(arr.tolist())):
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


def _distinct_entries(face: _Utf8) -> tuple[np.ndarray, np.ndarray]:
    """Merge equal entries by their bytes: the first index of each
    distinct entry, and every entry's index into those. Each entry's
    length leads its padded bytes, so padding never makes two equal."""
    mat, lens = face.matrix()
    n, width = mat.shape
    keyed = np.empty((n, width + 8), dtype=np.uint8)
    keyed[:, :8] = lens.astype("<i8").view(np.uint8).reshape(n, 8)
    keyed[:, 8:] = mat
    keys = keyed.view(np.dtype((np.void, width + 8))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse.ravel()


#: a string column of fewer rows is encoded row by row (``_encode_small``)
_SMALL_FRAME = 64


def _u32s(values) -> bytes:
    return struct.pack(f"<{len(values)}I", *values)


def _offsets_body(items: list) -> bytes:
    """The raw wire form of ``items`` (``str``, or UTF-8 ``bytes``):
    uint32 offsets, then the body."""
    if items and isinstance(items[0], bytes):
        body, lens = b"".join(items), map(len, items)
    else:
        body = "".join(items).encode()
        ascii_only = len(body) == sum(map(len, items))
        lens = map(len, items) if ascii_only else (len(v.encode()) for v in items)
    return _u32s([0, *itertools.accumulate(lens)]) + body


def _encode_small(col: DictColumn) -> tuple[int, bytes]:
    """A few rows' wire encoding, built from just their strings (their
    bytes, off a dictionary that has only those): no pass over a
    dictionary that may be far bigger than the rows."""
    d = col.dictionary
    if d._values is None and d._utf8 is not None:
        face = d._utf8.take(col.codes)
        body, offs = face.body.tobytes(), face.offsets.tolist()
        items = [body[x:y] for x, y in zip(offs, offs[1:])]
    else:
        items = d.pick(col.codes)
    if None in items:
        null = bytes([v is None for v in items])
        return _ENC_NULLS, null + _offsets_body(["" if v is None else v for v in items])
    raw = _offsets_body(items)
    uniq = list(dict.fromkeys(items))
    if len(uniq) < len(items):
        at = {v: i for i, v in enumerate(uniq)}
        frame = _u32s([len(uniq)]) + _offsets_body(uniq) + _u32s(list(map(at.__getitem__, items)))
        if len(frame) < len(raw):
            return _ENC_DICT, frame
    return _ENC_RAW, raw


def _encode_string_column(col: DictColumn) -> tuple[int, bytes]:
    """Pick a wire encoding for a string column: a dictionary frame (the
    referenced entries + uint32 codes) whenever it is the smaller payload,
    else raw offsets + body, one string a row. Both are byte ranges
    gathered from the dictionary's UTF-8 face; a big dictionary that has
    no face yet and of whose entries the rows reference under a quarter
    encodes only those instead. NULLs (None, produced only by aggregates
    over no qualifying rows) get a byte-mask prefix ahead of the raw
    encoding. A column of a few rows is encoded from their strings."""
    n = len(col)
    if n < _SMALL_FRAME:
        return _encode_small(col)
    d = col.dictionary
    codes, used = densify_codes(col.codes, len(d))
    if 4 * len(used) < len(d) and d._utf8 is None:
        d, ids, entries = d.take(used), codes, np.arange(len(used))
    else:
        ids, entries = col.codes, used
    face = d.utf8()
    if d.has_null:
        null = np.equal(d.values, None)[ids]
        if null.any():
            return _ENC_NULLS, null.astype(np.uint8).tobytes() + face.take(ids).to_bytes()
    lens = np.diff(face.offsets)
    raw_bytes = 4 * (n + 1) + int(lens[ids].sum())

    def frame_bytes() -> int:
        return 8 + 4 * (len(entries) + n) + int(lens[entries].sum())

    if frame_bytes() >= raw_bytes and len(entries) > 1:
        # appended page dictionaries repeat each other's entries (a low-
        # cardinality column read from many plain pages): when a sample
        # says so, merge equal entries — by their bytes, not the rows
        sample = face.take(entries[:256])
        body, offs = sample.body.tobytes(), sample.offsets.tolist()
        if 2 * len({body[x:y] for x, y in zip(offs, offs[1:])}) <= len(offs) - 1:
            first, inverse = _distinct_entries(face.take(entries))
            entries, codes = entries[first], inverse[codes]
    if frame_bytes() < raw_bytes:
        frame = face.take(entries).to_bytes() + codes.astype(np.uint32).tobytes()
        return _ENC_DICT, struct.pack("<I", len(entries)) + frame
    in_order = len(ids) == len(d) and bool((ids == np.arange(len(ids))).all())
    return _ENC_RAW, (face if in_order else face.take(ids)).to_bytes()


def _read_utf8(payload: bytes, n: int, at: int = 0) -> tuple[_Utf8, int]:
    """The UTF-8 face of ``n`` strings written at ``at`` (a view of the
    payload, no copy), and the offset just past it."""
    offsets = np.frombuffer(payload, dtype=np.uint32, count=n + 1, offset=at).astype(np.int64)
    at += 4 * (n + 1)
    size = int(offsets[-1])
    return _Utf8(offsets, np.frombuffer(payload, dtype=np.uint8, count=size, offset=at)), at + size


def _decode_string_column(payload: bytes, n: int, enc: int) -> DictColumn:
    """The column a string payload encodes. Raw and dictionary frames
    keep the received bytes as their dictionary's UTF-8 face; strings are
    built only if a consumer asks for them."""
    if enc == _ENC_RAW:
        face, _ = _read_utf8(payload, n)
        return DictColumn(np.arange(n, dtype=np.uint32), StringDictionary(utf8=face))
    if enc == _ENC_NULLS:
        mask = np.frombuffer(payload, dtype=np.uint8, count=n)
        out = _read_utf8(payload, n, n)[0].strings()
        out[mask.astype(bool)] = None
        return DictColumn.wrap(out)
    if enc != _ENC_DICT:
        raise ExecutionError(f"unknown string encoding {enc}")
    (nuniq,) = struct.unpack_from("<I", payload, 0)
    face, at = _read_utf8(payload, nuniq, 4)
    codes = np.frombuffer(payload, dtype=np.uint32, offset=at, count=n)
    if n and int(codes.max()) >= nuniq:
        raise ExecutionError("dictionary frame code out of range")
    return DictColumn(codes.copy(), StringDictionary(utf8=face))


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------


def hash_value_arrays(arrays, length: int | None = None) -> np.ndarray:
    """Stable engine-wide 64-bit hash of parallel value arrays.

    The column-wise Fibonacci multiply-xor mix of ``RowBatch.hash_codes``
    without needing a batch. Table partitioning, shuffle routing and join
    Bloom prefilters all hash through here, so a key hashed on the build
    side matches the same key hashed over raw scan values exactly. A
    string hashes to the FNV-1a of its UTF-8 bytes whatever dictionary it
    sits in, so placement does not depend on the column's encoding.
    """
    if length is None:
        length = len(arrays[0]) if arrays else 0
    h = np.zeros(length, dtype=np.uint64)
    for arr in arrays:
        arr = as_column(arr)
        if isinstance(arr, DictColumn):
            codes = arr.hashes()
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
    """FNV-1a over every string of an object array (see
    :func:`_fnv1a_matrix`)."""
    n = len(arr)
    mats = _utf8_matrix(arr) if n else None
    if mats is None:
        return np.fromiter((_fnv1a(s) for s in arr), count=n, dtype=np.uint64)
    return _fnv1a_matrix(*mats)


def _fnv1a_matrix(mat: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """FNV-1a of every row of a padded UTF-8 byte matrix, vectorized
    across rows.

    Walks the matrix column by column (max-length iterations of O(n)
    NumPy ops instead of a per-character Python loop), producing
    bit-identical hashes to :func:`_fnv1a` — placement decisions made
    before and after vectorization agree exactly.
    """
    h = np.full(len(lens), 0xCBF29CE484222325, dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for j in range(mat.shape[1]):
            active = lens > j
            if not active.any():
                break
            h[active] = (h[active] ^ mat[active, j].astype(np.uint64)) * prime
    return h
