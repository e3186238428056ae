"""Slotted row pages.

Row-oriented tables (paper §III) store complete rows in slotted pages:
a header with a slot directory (offset, length, tombstone flag per slot)
followed by row data growing from the tail. Each row is addressed by a
physical RID ``(node, disk, page, slot)``; this module covers the page
and slot levels.

Row encoding is a compact per-row binary format::

    INT64/FLOAT64/DECIMAL -> 8 bytes LE
    DATE                  -> 4 bytes LE
    BOOL                  -> 1 byte
    STRING                -> u16 length + UTF-8 bytes
"""

from __future__ import annotations

import struct
from typing import Iterator, Sequence

import numpy as np

from ..common.batch import RowBatch
from ..common.dtypes import DataType
from ..common.errors import PageFormatError
from ..common.schema import Schema

_PAGE_HDR = struct.Struct("<H")  # n_slots
_SLOT = struct.Struct("<IHB")  # offset, length, flags
FLAG_DEAD = 1


def encode_row(schema: Schema, values: Sequence) -> bytes:
    parts: list[bytes] = []
    for col, v in zip(schema.columns, values):
        dt = col.dtype
        if dt == DataType.INT64:
            parts.append(struct.pack("<q", int(v)))
        elif dt in (DataType.FLOAT64, DataType.DECIMAL):
            parts.append(struct.pack("<d", float(v)))
        elif dt == DataType.DATE:
            parts.append(struct.pack("<i", int(v)))
        elif dt == DataType.BOOL:
            parts.append(struct.pack("<B", 1 if v else 0))
        elif dt == DataType.STRING:
            b = str(v).encode()
            if len(b) > 0xFFFF:
                raise PageFormatError("string too long for row format")
            parts.append(struct.pack("<H", len(b)) + b)
        else:  # pragma: no cover - exhaustive
            raise PageFormatError(f"unsupported type {dt}")
    return b"".join(parts)


def decode_row(schema: Schema, data: bytes) -> tuple:
    out = []
    off = 0
    for col in schema.columns:
        dt = col.dtype
        if dt == DataType.INT64:
            out.append(struct.unpack_from("<q", data, off)[0])
            off += 8
        elif dt in (DataType.FLOAT64, DataType.DECIMAL):
            out.append(struct.unpack_from("<d", data, off)[0])
            off += 8
        elif dt == DataType.DATE:
            out.append(struct.unpack_from("<i", data, off)[0])
            off += 4
        elif dt == DataType.BOOL:
            out.append(bool(data[off]))
            off += 1
        elif dt == DataType.STRING:
            (n,) = struct.unpack_from("<H", data, off)
            off += 2
            out.append(data[off : off + n].decode())
            off += n
    return tuple(out)


class RowPage:
    """In-memory image of one slotted page."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.slots: list[tuple[bytes, int]] = []  # (row bytes, flags)
        self._used = _PAGE_HDR.size

    # -- building ----------------------------------------------------------------
    def try_append(self, row_bytes: bytes) -> int | None:
        """Append a row; returns slot number or None when the page is full."""
        need = _SLOT.size + len(row_bytes)
        if self._used + need > self.capacity:
            return None
        self.slots.append((row_bytes, 0))
        self._used += need
        return len(self.slots) - 1

    def mark_deleted(self, slot: int) -> None:
        data, flags = self.slots[slot]
        self.slots[slot] = (data, flags | FLAG_DEAD)

    def is_deleted(self, slot: int) -> bool:
        return bool(self.slots[slot][1] & FLAG_DEAD)

    # -- (de)serialization ---------------------------------------------------------
    def to_payload(self) -> bytes:
        dir_parts = []
        data_parts = []
        off = _PAGE_HDR.size + _SLOT.size * len(self.slots)
        for data, flags in self.slots:
            dir_parts.append(_SLOT.pack(off, len(data), flags))
            data_parts.append(data)
            off += len(data)
        return _PAGE_HDR.pack(len(self.slots)) + b"".join(dir_parts) + b"".join(data_parts)

    @classmethod
    def from_payload(cls, payload: bytes, capacity: int) -> "RowPage":
        (n,) = _PAGE_HDR.unpack_from(payload, 0)
        page = cls(capacity)
        off = _PAGE_HDR.size
        for _ in range(n):
            slot_off, length, flags = _SLOT.unpack_from(payload, off)
            off += _SLOT.size
            page.slots.append((payload[slot_off : slot_off + length], flags))
        page._used = _PAGE_HDR.size + sum(
            _SLOT.size + len(d) for d, _ in page.slots
        )
        return page

    # -- reading ----------------------------------------------------------------
    def iter_rows(self, schema: Schema, include_deleted: bool = False) -> Iterator[tuple[int, tuple]]:
        for slot, (data, flags) in enumerate(self.slots):
            if flags & FLAG_DEAD and not include_deleted:
                continue
            yield slot, decode_row(schema, data)

    def to_batch(self, schema: Schema) -> RowBatch:
        rows = [r for _, r in self.iter_rows(schema)]
        cols: dict[str, np.ndarray] = {}
        for i, col in enumerate(schema.columns):
            vals = [r[i] for r in rows]
            cols[col.name] = np.asarray(vals, dtype=col.dtype.numpy_dtype)
        return RowBatch(schema, cols)
