"""Execution-engine micro-benchmarks: kernels, operators, storage.

These measure the real engine's building blocks (the constants the cost
model abstracts) and double as ablations for the design choices in
DESIGN.md: Bloom-filtered shuffles, columnar vs row storage, compression.
"""

import numpy as np
import pytest

from repro.common import DataType, RowBatch, Schema
from repro.core.kernels import (
    JoinHashTable,
    bloom_filter_codes,
    bloom_filter_test,
    group_aggregate,
    sort_indices,
)
from repro.storage.buffer import BufferManager
from repro.storage.compression import get_codec
from repro.storage.page import PagedFile
from repro.storage.table import COLUMN, ROW, TableStorage
from repro.util.fs import MemFS

N = 200_000
rng = np.random.default_rng(0)


def test_hash_join_kernel(benchmark):
    left = rng.integers(0, 50_000, N)
    right = rng.integers(0, 50_000, N // 4)

    def run():
        return JoinHashTable([right]).match_indices([left])

    li, ri = benchmark(run)
    assert len(li) > 0


def test_group_aggregate_kernel(benchmark):
    codes = rng.integers(0, 1000, N)
    vals = rng.random(N)

    def run():
        return group_aggregate(codes, 1000, "SUM", vals)

    out = benchmark(run)
    assert len(out) == 1000


def test_sort_kernel(benchmark):
    b = RowBatch.from_pairs(
        ("k", DataType.INT64, rng.integers(0, 10**9, N)),
        ("v", DataType.FLOAT64, rng.random(N)),
    )
    benchmark(lambda: sort_indices(b, [("k", True), ("v", False)]))


def test_bloom_build_and_probe(benchmark):
    build = rng.integers(0, 1 << 40, 50_000).astype(np.uint64)
    probe = rng.integers(0, 1 << 40, N).astype(np.uint64)

    def run():
        bits = bloom_filter_codes(build)
        return bloom_filter_test(bits, probe)

    mask = benchmark(run)
    assert 0 <= mask.mean() <= 1


def test_batch_serialization(benchmark):
    strs = np.empty(20_000, dtype=object)
    strs[:] = [f"payload-{i % 97}" for i in range(20_000)]
    b = RowBatch.from_pairs(
        ("a", DataType.INT64, rng.integers(0, 10**9, 20_000)),
        ("s", DataType.STRING, strs),
    )

    def run():
        return RowBatch.from_bytes(b.to_bytes())

    out = benchmark(run)
    assert out.length == 20_000


def test_string_codec(benchmark):
    """Wire string codec: a low-cardinality column through a dictionary frame."""
    strs = np.empty(50_000, dtype=object)
    strs[:] = [f"order-status-{i % 5}" for i in range(50_000)]
    b = RowBatch.from_pairs(("s", DataType.STRING, strs))

    out = benchmark(lambda: RowBatch.from_bytes(b.to_bytes()))
    assert out.columns["s"].tolist() == strs.tolist()


def test_huffman_string_pages(benchmark):
    """Storage string codec: decode of a plain Huffman string page."""
    from repro.storage import compression as comp_mod

    values = [f"comment text fragment {i % 211}" for i in range(5_000)]
    blob = comp_mod.huffman_encode_strings(values)

    assert benchmark(lambda: comp_mod.huffman_decode_strings(blob)) == values


def test_page_compression_lz4sim(benchmark):
    codec = get_codec("lz4sim")
    payload = np.arange(16_384, dtype=np.int64).tobytes()

    def run():
        return codec.decompress(codec.compress(payload))

    assert benchmark(run) == payload


@pytest.mark.parametrize("fmt", [COLUMN, ROW])
def test_table_scan_format(benchmark, fmt):
    """Columnar page sets vs row pages for a narrow scan (PAX ablation)."""
    fs, bm = MemFS(), BufferManager(4, 512)
    schema = Schema.of(
        ("a", DataType.INT64), ("b", DataType.FLOAT64), ("c", DataType.STRING)
    )
    strs = np.empty(20_000, dtype=object)
    strs[:] = [f"string-value-{i % 31}" for i in range(20_000)]
    t = TableStorage(fs, bm, f"t_{fmt}", schema, fmt=fmt, page_size=32 * 1024)
    t.load(
        RowBatch(
            schema,
            {"a": rng.integers(0, 100, 20_000), "b": rng.random(20_000), "c": strs},
        )
    )

    def run():
        return sum(b.length for b in t.scan(["a"]))

    assert benchmark(run) == 20_000


def test_buffer_manager_hit_path(benchmark):
    fs, bm = MemFS(), BufferManager(8, 128)
    f = PagedFile(fs, "b.dat", 16 * 1024)
    bm.register_file(f)
    for i in range(64):
        f.write_page(i, bytes(1000))

    def run():
        total = 0
        for i in range(64):
            total += len(bm.get("b.dat", i, pin=False))
        return total

    assert benchmark(run) == 64_000


@pytest.mark.parametrize("parallel", [False, True])
def test_scan_parallelism(benchmark, parallel):
    """Intra-operator parallelism ablation: threaded per-fragment scans."""
    from repro import ClusterConfig, Database

    db = Database(
        ClusterConfig(
            n_workers=2, n_max=4, page_size=32 * 1024,
            disks_per_node=4, parallel_scans=parallel,
        )
    )
    db.sql("create table big (k integer, v decimal) partition by hash (k)")
    r = np.random.default_rng(2)
    db.load(
        "big",
        RowBatch.from_pairs(
            ("k", DataType.INT64, r.integers(0, 1000, 100_000)),
            ("v", DataType.FLOAT64, r.random(100_000)),
        ),
    )

    def run():
        return db.sql("select count(*), sum(v) from big where k < 500").rows()

    rows = benchmark(run)
    assert rows[0][0] > 0
