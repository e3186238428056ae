"""Bloom filters over 64-bit key codes.

HRDBMS builds Bloom filters over the join attributes of both inputs to
cut data movement. This engine has one user: the shuffle prefilter in
``core/exchange.py``, which drops probe rows whose join key misses the
build side's filter before they are sent.
"""

from __future__ import annotations

import numpy as np

#: default filter size — 1 Mbit (128 KiB) keeps the false-positive rate
#: under ~1% for builds up to ~100k distinct keys with 2 hash functions
N_BITS_DEFAULT = 1 << 20

_SALTS = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xC2B2AE3D27D4EB4F))


def bloom_filter_codes(codes: np.ndarray, n_bits: int = N_BITS_DEFAULT) -> np.ndarray:
    """Build a Bloom filter bitset over key codes (2 hash functions)."""
    bits = np.zeros(n_bits // 8, dtype=np.uint8)
    for salt in _SALTS:
        h = codes.astype(np.uint64) * salt
        h ^= h >> np.uint64(31)
        idx = (h % np.uint64(n_bits)).astype(np.int64)
        np.bitwise_or.at(bits, idx // 8, (1 << (idx % 8)).astype(np.uint8))
    return bits


def bloom_filter_test(bits: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Boolean per code: possibly present in the filter?"""
    n_bits = len(bits) * 8
    if n_bits == 0:
        # a zero-length bitset can't contain anything (and h % 0 would
        # raise); callers with an empty build side should short-circuit
        # to an explicit drop-all, but stay safe here either way
        return np.zeros(len(codes), dtype=bool)
    out = np.ones(len(codes), dtype=bool)
    for salt in _SALTS:
        h = codes.astype(np.uint64) * salt
        h ^= h >> np.uint64(31)
        idx = (h % np.uint64(n_bits)).astype(np.int64)
        out &= (bits[idx // 8] & (1 << (idx % 8)).astype(np.uint8)) != 0
    return out
