"""Paged files.

All table and index data lives in fixed-size page slots within ordinary
files (paper §III "Block Storage"). A page slot reserves ``page_size``
bytes in the file; the stored payload is compressed, so most slots are
only partially written — combined with sparse files this means free page
space occupies (almost) no disk (the paper's trick for columnar page
sets). Because slots sit at fixed offsets, a page can be addressed
directly without knowing compressed sizes.

On-disk slot layout::

    u32 payload_len | u8 flags | u32 checksum | body

``flags & 1`` marks a compressed body.
"""

from __future__ import annotations

import struct
import zlib

from ..common.errors import PageFormatError, StorageError
from ..util.fs import FileHandle, FileSystem
from .compression import Codec, get_codec

_HEADER = struct.Struct("<IBI")
FLAG_COMPRESSED = 1


class PagedFile:
    """Fixed-slot paged file with per-page compression and checksums."""

    def __init__(self, fs: FileSystem, path: str, page_size: int, codec: Codec | str = "lz4sim"):
        self.fs = fs
        self.path = path
        self.page_size = page_size
        self.codec = get_codec(codec) if isinstance(codec, str) else codec
        self._fh: FileHandle = fs.open(path)
        # physical I/O counters (consumed by stats and benchmarks)
        self.reads = 0
        self.writes = 0

    # -- geometry ---------------------------------------------------------------
    @property
    def max_payload(self) -> int:
        return self.page_size - _HEADER.size

    def num_pages(self) -> int:
        size = self._fh.size()
        return (size + self.page_size - 1) // self.page_size

    # -- I/O ---------------------------------------------------------------------
    def write_page(self, page_no: int, payload: bytes) -> None:
        if page_no < 0:
            raise StorageError("negative page number")
        if len(payload) > self.max_payload:
            raise PageFormatError(
                f"payload {len(payload)}B exceeds page capacity {self.max_payload}B"
            )
        body = self.codec.compress(payload)
        flags = FLAG_COMPRESSED
        if len(body) >= len(payload):
            body, flags = payload, 0
        if len(body) > self.max_payload:
            raise PageFormatError("compressed body exceeds page slot")
        crc = zlib.crc32(body)
        self._fh.pwrite(page_no * self.page_size, _HEADER.pack(len(body), flags, crc) + body)
        self.writes += 1

    def read_page(self, page_no: int) -> bytes:
        if page_no < 0 or page_no >= self.num_pages():
            raise StorageError(f"page {page_no} out of range in {self.path}")
        raw = self._fh.pread(page_no * self.page_size, self.page_size)
        body_len, flags, crc = _HEADER.unpack_from(raw, 0)
        if body_len > self.max_payload:
            raise PageFormatError(f"corrupt page header in {self.path}:{page_no}")
        body = raw[_HEADER.size : _HEADER.size + body_len]
        if zlib.crc32(body) != crc:
            raise PageFormatError(f"checksum mismatch in {self.path}:{page_no}")
        self.reads += 1
        if flags & FLAG_COMPRESSED:
            return self.codec.decompress(body)
        return bytes(body)

    def sync(self) -> None:
        self._fh.sync()

    def truncate_pages(self, n_pages: int) -> None:
        self._fh.truncate(n_pages * self.page_size)

    def close(self) -> None:
        self._fh.close()
