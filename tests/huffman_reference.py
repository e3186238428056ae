"""Scalar references for the storage layer's string pages.

The engine writes Huffman streams with a NumPy gather and dictionary
pages with a hash factorization. These are the per-bit coder and the
``np.unique`` dictionary page they replaced; the engine's output must
equal them byte for byte.
"""

from __future__ import annotations

import struct
from itertools import accumulate

import numpy as np

from repro.common.errors import StorageError
from repro.storage.col_page import _DICT_MAGIC
from repro.storage.compression import _code_lengths


def canonical_codes(lengths) -> list[tuple[int, int]]:
    """``(code, length)`` per byte value: symbols in (length, symbol)
    order count up, shifted left whenever the length grows."""
    table = [(0, 0)] * 256
    code = prev_len = 0
    for length, sym in sorted((l, s) for s, l in enumerate(lengths) if l > 0):
        code <<= length - prev_len
        table[sym] = (code, length)
        code += 1
        prev_len = length
    return table


def lengths_of(data: bytes) -> list[int]:
    freq = [0] * 256
    for b in data:
        freq[b] += 1
    return _code_lengths(freq)


def encode(lengths, data: bytes) -> bytes:
    """``u32 len(data)`` + the codes, one bit at a time, zero-padded."""
    enc = canonical_codes(lengths)
    out = bytearray()
    acc = nbits = 0
    for b in data:
        code, length = enc[b]
        if length == 0:
            raise StorageError(f"symbol {b} not in Huffman table")
        acc = (acc << length) | code
        nbits += length
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return struct.pack("<I", len(data)) + bytes(out)


def decode(lengths, blob: bytes) -> bytes:
    dec = {(length, code): sym for sym, (code, length) in enumerate(canonical_codes(lengths)) if length}
    (n,) = struct.unpack_from("<I", blob, 0)
    out = bytearray()
    code = length = 0
    for byte in blob[4:]:
        for shift in range(7, -1, -1):
            if len(out) == n:
                return bytes(out)
            code = (code << 1) | ((byte >> shift) & 1)
            length += 1
            hit = dec.get((length, code))
            if hit is not None:
                out.append(hit)
                code = length = 0
    if len(out) != n:
        raise StorageError("truncated Huffman stream")
    return bytes(out)


def encode_strings(values) -> bytes:
    """A plain string page: count | u32 offsets | length table | stream."""
    blobs = [v.encode() for v in values]
    raw = b"".join(blobs)
    lengths = lengths_of(raw)
    offsets = b"".join(struct.pack("<I", x) for x in accumulate(map(len, blobs), initial=0))
    return struct.pack("<I", len(blobs)) + offsets + bytes(lengths) + encode(lengths, raw)


def dict_page(values) -> bytes:
    """A ``DPG1`` dictionary page built from ``np.unique`` over the rows."""
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    uniq, codes = np.unique(arr, return_inverse=True)
    width = 1 if len(uniq) <= 0xFF else 2 if len(uniq) <= 0xFFFF else 4
    blob = encode_strings(list(uniq))
    header = _DICT_MAGIC + struct.pack("<BII", width, len(values), len(blob))
    return header + blob + codes.astype(f"<u{width}").tobytes()
