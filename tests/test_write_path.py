"""The columnar write path: Huffman encode, dictionary pages, set fitting.

Every page the engine writes must be byte-identical to what the scalar
per-bit coder and ``np.unique`` dictionary pages wrote
(``tests/huffman_reference.py``), and a table's page-set boundaries must
not depend on how the fitting loop searches for them.
"""

import hashlib

import numpy as np
import pytest

from repro.common import DataType, RowBatch, Schema
from repro.common.errors import StorageError
from repro.storage import col_page
from repro.storage import table as table_mod
from repro.storage.buffer import BufferManager
from repro.storage.compression import HuffmanCoder
from repro.storage.table import TableStorage
from repro.util.fs import MemFS
from repro.workloads import tpch_dbgen

from tests import huffman_reference as ref
from tests.conftest import TPCH_SEED, TPCH_SF, load_tpch


def _fibonacci_skew() -> bytes:
    """Symbol i repeated fib(i) times: the code lengths grow by one a symbol."""
    fib = [1, 1]
    while len(fib) < 22:
        fib.append(fib[-1] + fib[-2])
    return b"".join(bytes([65 + i]) * f for i, f in enumerate(fib))


CODER_INPUTS = {
    "all_256_bytes": bytes(range(256)) * 3 + bytes(range(0, 256, 7)),
    "single_symbol": b"z" * 37,
    "fibonacci": _fibonacci_skew(),
    **{f"short_{n}": b"the quick brown"[:n] for n in range(1, 16)},
}


class TestGatherEncoder:
    @pytest.mark.parametrize("name", sorted(CODER_INPUTS))
    def test_equals_reference_coder(self, name):
        data = CODER_INPUTS[name]
        coder = HuffmanCoder.from_data(data)
        lengths = ref.lengths_of(data)
        assert coder.lengths == tuple(lengths)
        stream = coder.encode(data)
        assert stream == ref.encode(lengths, data)
        assert coder.decode(stream) == data == ref.decode(lengths, stream)

    def test_fibonacci_codes_exceed_16_bits(self):
        assert max(HuffmanCoder.from_data(CODER_INPUTS["fibonacci"]).lengths) > 16

    def test_symbol_not_in_table(self):
        coder = HuffmanCoder.from_data(b"abcabc")
        with pytest.raises(StorageError, match="symbol 122 not in Huffman table"):
            coder.encode(b"abz")
        with pytest.raises(StorageError, match="symbol 122 not in Huffman table"):
            ref.encode(coder.lengths, b"abz")

    def test_one_coder_per_length_table(self):
        """Encode and decode share the coder, and its tables, of a table."""
        coder = HuffmanCoder.from_data(b"aab")
        assert HuffmanCoder.from_data(b"xxxy") is not coder  # other symbols
        assert HuffmanCoder.from_data(b"aaab") is coder
        assert HuffmanCoder.from_table_bytes(coder.table_bytes()) is coder


DICT_INPUTS = {
    "non_ascii": ["héllo", "wörld", "日本語", "ünïcödé", "é"] * 30,
    "equal_strings_distinct_objects": ["".join(["ab", "c"]) for _ in range(100)] + ["abd"] * 28,
    "exactly_quarter_distinct": [f"v{i % 32}" for i in range(128)],
    "embedded_nul": ["nul\x00inside", "plain", "nul\x00"] * 30,
}


class TestDictPages:
    @pytest.mark.parametrize("name", sorted(DICT_INPUTS))
    def test_equals_np_unique_reference(self, name):
        values = DICT_INPUTS[name]
        page = col_page._dict_encode_strings(values)
        assert page is not None and page == ref.dict_page(values)
        assert col_page.encode_column(values, DataType.STRING) == page
        assert col_page.decode_page(page, DataType.STRING, len(values)).tolist() == values

    def test_distinct_objects_really_are(self):
        values = DICT_INPUTS["equal_strings_distinct_objects"]
        assert values[0] == values[1] and values[0] is not values[1]

    def test_one_over_a_quarter_is_a_plain_page(self):
        values = [f"v{i % 33}" for i in range(128)]
        assert col_page._dict_encode_strings(values) is None
        assert col_page.encode_column(values, DataType.STRING) == ref.encode_strings(values)


#: sha256 over every worker file once TPC-H SF 0.002 is loaded on the
#: benchmark's cluster shape and written back. Computed with the per-bit-
#: length mask encoder and ``np.unique`` dictionary pages; any change to
#: dbgen, set fitting, a page format or the ``.meta`` layout moves it.
#: (Last moved when ``.meta`` went from one min/max dict per set to
#: per-column arrays; the page files kept their bytes.)
STORED_PAGES_SHA256 = "94649b62ea250706a1d49235a5bb7f12478cc6f9427a073add9f5e99bd81a3f8"


def test_stored_pages_are_byte_identical():
    db = load_tpch(tpch_dbgen.generate(sf=TPCH_SF, seed=TPCH_SEED), n_coordinators=2)
    digest = hashlib.sha256()
    for wid in sorted(db.workers):
        worker = db.workers[wid]
        worker.bufmgr.flush()
        for path in worker.fs.listdir(""):
            fh = worker.fs.open(path, create=False)
            digest.update(f"{wid}:{path}:".encode())
            digest.update(fh.pread(0, fh.size()))
    assert digest.hexdigest() == STORED_PAGES_SHA256


class TestSetFitting:
    #: set sizes and encode calls of the schema-order fitting loop, which
    #: re-encoded every column of each attempt
    SETS = [54] * 22 + [50, 47, 44, 41, 78, 69, 60, 52, 46, 81, 61, 45, 69, 69]
    SCHEMA_ORDER_CALLS = 486

    def test_halving_keeps_boundaries_with_fewer_encodes(self, monkeypatch):
        rng = np.random.default_rng(7)
        n = 2000
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz .,"))
        strings = ["".join(rng.choice(letters, size=int(m))) for m in rng.integers(20, 600, n)]
        schema = Schema.of(("k", DataType.INT64), ("v", DataType.FLOAT64), ("s", DataType.STRING))
        calls = []

        def counting(arr, dtype):
            calls.append(dtype)
            return col_page.encode_column(arr, dtype)

        monkeypatch.setattr(table_mod, "encode_column", counting)
        t = TableStorage(MemFS(), BufferManager(4, 64), "t", schema, page_size=16 * 1024)
        t.load(RowBatch(schema, {"k": np.arange(n), "v": rng.random(n), "s": strings}))
        assert [s.n_rows for s in t.fragments[0].sets] == self.SETS
        assert len(calls) < self.SCHEMA_ORDER_CALLS
        assert [r[0] for r in t.fragments[0].all_rows().rows()] == list(range(n))

    def test_single_row_over_capacity_raises(self):
        schema = Schema.of(("k", DataType.INT64), ("s", DataType.STRING))
        t = TableStorage(MemFS(), BufferManager(4, 64), "t", schema, page_size=4096)
        noise = np.random.default_rng(1).integers(0x4E00, 0x9FFF, 3000)
        with pytest.raises(StorageError, match="single row exceeds page capacity"):
            t.load(RowBatch(schema, {"k": np.arange(1), "s": ["".join(map(chr, noise))]}))
