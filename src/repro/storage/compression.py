"""Page compression codecs and Huffman string coding.

The paper compresses every page with LZ4 (chosen for fast decompression)
and Huffman-encodes strings inside columnar page sets so that the column
with the largest values does not dominate page-set utilization.

LZ4 itself is not available offline, so ``lz4sim`` is zlib at level 1 —
the fastest byte-oriented codec in the standard library, with the same
qualitative profile (cheap, byte-granular, ~2-4x on TPC-H pages). The
codec is pluggable so absolute ratios are never baked into logic.

The Huffman coder is a real canonical-Huffman implementation operating on
UTF-8 bytes of a string column; it is exercised by the columnar store and
benchmarked against raw encoding.
"""

from __future__ import annotations

import heapq
import struct
import zlib
from typing import Sequence

import numpy as np

from ..common.batch import decode_utf8_offsets
from ..common.errors import StorageError

#: memoized coders keyed by their 256-byte length table: pages of one
#: column almost always share code lengths, so encode and decode build a
#: coder's tables once per distinct table, not once per page
_CODER_CACHE: dict[bytes, "HuffmanCoder"] = {}


class Codec:
    name = "none"

    def compress(self, data: bytes) -> bytes:
        return data

    def decompress(self, data: bytes) -> bytes:
        return data


class Lz4SimCodec(Codec):
    """Fast byte codec standing in for LZ4 (zlib level 1)."""

    name = "lz4sim"

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, 1)

    def decompress(self, data: bytes) -> bytes:
        return zlib.decompress(data)


_CODECS = {"none": Codec(), "lz4sim": Lz4SimCodec()}


def get_codec(name: str) -> Codec:
    try:
        return _CODECS[name]
    except KeyError:
        raise StorageError(f"unknown codec {name!r}") from None


# ---------------------------------------------------------------------------
# Canonical Huffman coding for string columns
# ---------------------------------------------------------------------------


class HuffmanCoder:
    """Canonical Huffman coder over bytes.

    A page's code table (code lengths per symbol) comes from the byte
    frequencies of that page's values and is stored in the page header,
    so decode needs no frequency information. Obtain coders through
    :meth:`from_data` / :meth:`from_table_bytes`: they share one coder,
    and one build of its NumPy tables, per distinct length table.
    """

    __slots__ = ("lengths", "_bits", "_pat_off", "_lens", "_max_len", "_first", "_cnt", "_base", "_symtab")

    def __init__(self, lengths: Sequence[int]):
        if len(lengths) != 256:
            raise StorageError("Huffman table must cover all 256 byte values")
        self.lengths = tuple(int(x) for x in lengths)
        lens = np.array(self.lengths, dtype=np.int64)
        # canonical codes: symbols in (length, symbol) order count up, the
        # running code shifted left whenever the length grows. The length-L
        # codes are then the range first[L] .. first[L] + cnt[L] - 1, and
        # code v of length L decodes to symtab[base[L] + v - first[L]]
        order = sorted((l, s) for s, l in enumerate(self.lengths) if l)
        max_len = max(self.lengths)
        first, cnt, base = (np.zeros(max_len + 1, dtype=np.int64) for _ in range(3))
        codes = np.zeros(256, dtype=np.int64)
        code = prev = 0
        for i, (length, sym) in enumerate(order):
            code <<= length - prev
            prev = length
            if not cnt[length]:
                first[length], base[length] = code, i
            cnt[length] += 1
            codes[sym] = code
            code += 1
        # every symbol's code bits, most significant first, laid end to end:
        # symbol s owns bits[pat_off[s] : pat_off[s] + lens[s]]
        pat_off = np.cumsum(lens) - lens
        owner = np.repeat(np.arange(256), lens)
        shift = pat_off[owner] + lens[owner] - 1 - np.arange(len(owner))
        self._bits = ((codes[owner] >> shift) & 1).astype(np.uint8)
        self._pat_off, self._lens = pat_off, lens
        self._max_len, self._first, self._cnt, self._base = max_len, first, cnt, base
        self._symtab = np.array([s for _, s in order], dtype=np.uint8)

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_data(cls, data: bytes) -> "HuffmanCoder":
        freq = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
        return cls.from_table_bytes(bytes(_code_lengths(freq.tolist())))

    @classmethod
    def from_table_bytes(cls, blob: bytes) -> "HuffmanCoder":
        coder = _CODER_CACHE.get(blob)
        if coder is None:
            if len(_CODER_CACHE) >= 512:
                _CODER_CACHE.clear()
            coder = _CODER_CACHE[blob] = cls(blob)
        return coder

    def table_bytes(self) -> bytes:
        return bytes(self.lengths)

    def covers(self, data: bytes) -> bool:
        """Does the table code every byte of ``data``?"""
        return bool(self._lens[np.frombuffer(data, dtype=np.uint8)].all())

    # -- coding ----------------------------------------------------------------
    def encode(self, data: bytes) -> bytes:
        """``u32 len(data)`` + the bit stream, zero-padded to a whole byte.

        One gather: bit ``p`` of the stream, inside the code of a symbol
        ``s`` that starts at stream bit ``start``, is
        ``bits[pat_off[s] + p - start]``.
        """
        sym = np.frombuffer(data, dtype=np.uint8)
        clen = self._lens[sym]
        if not clen.all():
            missing = int(sym[clen == 0][0])
            raise StorageError(f"symbol {missing} not in Huffman table")
        ends = np.cumsum(clen)
        total = int(ends[-1]) if len(ends) else 0
        idx = np.arange(total) + np.repeat(self._pat_off[sym] - (ends - clen), clen)
        return struct.pack("<I", len(data)) + np.packbits(self._bits[idx]).tobytes()

    def decode(self, blob: bytes) -> bytes:
        """Inverse of :meth:`encode`.

        Speculatively decodes a (length, symbol) pair at *every* bit
        offset in ``max_len`` vector passes — position p's first matching
        canonical range is exactly the prefix-free code starting there —
        then a single pointer chase over code lengths picks out the ``n``
        true symbol starts.
        """
        (n,) = struct.unpack_from("<I", blob, 0)
        max_len, first, cnt, base = self._max_len, self._first, self._cnt, self._base
        bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8, offset=4)).astype(np.int64)
        nbits = bits.size
        padded = np.concatenate([bits, np.zeros(max_len, dtype=np.int64)])
        val = np.zeros(nbits, dtype=np.int64)
        code_len = np.zeros(nbits, dtype=np.int64)
        sym = np.zeros(nbits, dtype=np.uint8)
        for length in range(1, max_len + 1):
            val = (val << 1) | padded[length - 1 : length - 1 + nbits]
            if not cnt[length]:
                continue
            hit = (code_len == 0) & (val >= first[length]) & (
                val < first[length] + cnt[length]
            )
            if hit.any():
                sym[hit] = self._symtab[base[length] + (val[hit] - first[length])]
                code_len[hit] = length
        steps = code_len.tolist()
        positions = np.empty(n, dtype=np.int64)
        p = 0
        for i in range(n):
            if p >= nbits or steps[p] == 0:
                raise StorageError("truncated Huffman stream")
            positions[i] = p
            p += steps[p]
        return sym[positions].tobytes()


def _code_lengths(freq: list[int]) -> list[int]:
    """Package-merge-free length assignment via a plain Huffman tree,
    then canonicalized. Lengths are capped at 32 (never hit for byte data).
    """
    heap: list[tuple[int, int, object]] = []
    serial = 0
    for sym, f in enumerate(freq):
        if f > 0:
            heap.append((f, serial, sym))
            serial += 1
    if not heap:
        return [0] * 256
    if len(heap) == 1:
        lengths = [0] * 256
        lengths[heap[0][2]] = 1
        return lengths
    heapq.heapify(heap)
    while len(heap) > 1:
        f1, _, n1 = heapq.heappop(heap)
        f2, _, n2 = heapq.heappop(heap)
        heapq.heappush(heap, (f1 + f2, serial, (n1, n2)))
        serial += 1
    lengths = [0] * 256
    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, int):
            lengths[node] = max(depth, 1)
        else:
            stack.append((node[0], depth + 1))
            stack.append((node[1], depth + 1))
    return lengths


def huffman_encode_strings(values: Sequence[str], like: HuffmanCoder | None = None) -> bytes:
    """Encode a string column: offsets + one Huffman stream, coded with
    ``like``'s table when that covers every byte, else with the table
    of the column's own byte frequencies.

    Format: u32 count | offsets[u32 * (n+1)] | table[256] | stream
    """
    blobs = [v.encode() for v in values]
    offsets = np.zeros(len(blobs) + 1, dtype="<u4")
    np.cumsum(np.fromiter(map(len, blobs), dtype=np.int64, count=len(blobs)), out=offsets[1:])
    raw = b"".join(blobs)
    if like is None or not like.covers(raw):
        like = HuffmanCoder.from_data(raw)
    return struct.pack("<I", len(blobs)) + offsets.tobytes() + like.table_bytes() + like.encode(raw)


def string_page_coder(blob: bytes) -> HuffmanCoder:
    """The coder of a :func:`huffman_encode_strings` blob's table."""
    (n,) = struct.unpack_from("<I", blob, 0)
    off = 4 * (n + 2)
    return HuffmanCoder.from_table_bytes(blob[off : off + 256])


def huffman_decode_strings(blob: bytes) -> list[str]:
    (n,) = struct.unpack_from("<I", blob, 0)
    offsets = np.frombuffer(blob, dtype="<u4", count=n + 1, offset=4).astype(np.int64)
    raw = string_page_coder(blob).decode(blob[4 * (n + 2) + 256 :])
    out = decode_utf8_offsets(raw, offsets)
    if out is not None:
        return out.tolist()
    # a NUL byte in the body: slice string by string
    bounds = offsets.tolist()
    return [raw[bounds[i] : bounds[i + 1]].decode() for i in range(n)]
