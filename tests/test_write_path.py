"""The columnar write path: Huffman encode, dictionary pages, set fitting.

Every page the engine writes must be byte-identical to what the scalar
per-bit coder and ``np.unique`` dictionary pages wrote
(``tests/huffman_reference.py``), and a table's page sets are fitted by
their bytes: each encoded about once, each but a fragment's last filling
its widest page.
"""

import hashlib
import pickle
from collections import Counter

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
#: (Last moved when sets were fitted by their bytes and ``.meta`` stored
#: its strings as UTF-8; every decoded column, in row order, stayed
#: identical.)
STORED_PAGES_SHA256 = "87ed2f7e5be120ea012562478ce342bb6fc147839168a9071bae7498f5981c5d"


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


def _long_strings(n: int, seed: int = 7) -> list[str]:
    """Strings of 20 to 600 letters: a set of ~80 rows varies by ~6 % in
    bytes, so a count fitted from the last set's bytes alone often
    overflows."""
    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz .,"))
    return ["".join(rng.choice(letters, size=int(m))) for m in rng.integers(20, 600, n)]


def _widest_fill(frag) -> list[float]:
    """Per set, its widest page's bytes over the page slot's."""
    pages = len(frag.schema)
    return [
        max(len(frag.bufmgr.get(frag.path, s.first_page + i)) for i in range(pages)) / frag.file.max_payload
        for s in frag.sets
    ]


class TestSetFitting:
    SCHEMA = Schema.of(("k", DataType.INT64), ("v", DataType.FLOAT64), ("s", DataType.STRING))

    def _count_string_encodes(self, monkeypatch) -> list[int]:
        calls = []

        def counting(arr, dtype, *like):
            if dtype == DataType.STRING:
                calls.append(len(arr))
            return col_page.encode_column(arr, dtype, *like)

        monkeypatch.setattr(table_mod, "encode_column", counting)
        return calls

    def test_sets_fill_their_widest_page_with_one_encode_each(self, monkeypatch):
        n = 2000
        calls = self._count_string_encodes(monkeypatch)
        t = TableStorage(MemFS(), BufferManager(4, 64), "t", self.SCHEMA, page_size=16 * 1024)
        t.load(RowBatch(self.SCHEMA, {"k": np.arange(n), "v": np.random.default_rng(7).random(n), "s": _long_strings(n)}))
        frag = t.fragments[0]
        fills = _widest_fill(frag)
        assert all(f >= 0.85 for f in fills[:-1]), fills
        # a string page per set attempt, and one sample before the first
        assert len(calls) <= len(frag.sets) + 1
        assert calls[0] == table_mod.SAMPLE_ROWS
        assert [r[0] for r in frag.all_rows().rows()] == list(range(n))

    def test_an_overflow_refits_from_the_page_it_measured(self, monkeypatch):
        """Rows whose strings compress far worse than the ones the rate
        was learned from: the first set of them overflows, and the next
        attempt is sized from that page's bytes, not by halving."""
        n = 1200
        rng = np.random.default_rng(3)
        dull = ["".join(map(chr, rng.integers(0x61, 0x65, 300))) for _ in range(n // 2)]  # 2 bits a letter
        noisy = ["".join(map(chr, rng.integers(0x21, 0x7E, 300))) for _ in range(n // 2)]
        calls = self._count_string_encodes(monkeypatch)
        t = TableStorage(MemFS(), BufferManager(4, 64), "t", self.SCHEMA, page_size=16 * 1024)
        t.load(RowBatch(self.SCHEMA, {"k": np.arange(n), "v": np.zeros(n), "s": dull + noisy}))
        frag = t.fragments[0]
        overflowed = len(calls) - 1 - len(frag.sets)
        assert 1 <= overflowed <= 2
        noisy_sets = int((frag.layout.bounds[:-1] >= n // 2).sum())
        assert all(f >= 0.85 for f in _widest_fill(frag)[-noisy_sets:-1])
        assert [r[2] for r in frag.all_rows().rows()] == dull + noisy

    def test_a_merge_that_overflows_lowers_the_cap_to_what_fits(self):
        """A full set's rows were fitted to short strings; merged appends
        of long ones do not fit that many, and the cap falls to the rows
        the overflowing page's bytes say fit."""
        t = TableStorage(MemFS(), BufferManager(4, 64), "t", self.SCHEMA, page_size=16 * 1024)
        n = 4000
        t.load(RowBatch(self.SCHEMA, {"k": np.arange(n), "v": np.zeros(n), "s": ["ab" * 5] * n}))
        frag = t.fragments[0]
        cap = frag._cap
        rng = np.random.default_rng(5)
        rows = 0
        while frag._cap == cap:
            m = cap // 16
            noisy = ["".join(map(chr, rng.integers(0x21, 0x7E, 40))) for _ in range(m)]
            t.insert(RowBatch(self.SCHEMA, {"k": np.arange(m), "v": np.ones(m), "s": noisy}))
            rows += m
            frag.merge_appended()
            assert rows < 4 * cap  # the overflow came
        assert cap // 2 > frag._cap > 0
        assert frag.merges >= 1
        assert frag.row_count == n + rows
        # what the lowered cap fits, fits
        assert max(_widest_fill(frag)) <= 1

    def test_a_reopened_fragment_keeps_its_cap(self):
        fs = MemFS()
        t = TableStorage(fs, BufferManager(4, 64), "t", self.SCHEMA, page_size=16 * 1024)
        n = 600
        t.load(RowBatch(self.SCHEMA, {"k": np.arange(n), "v": np.zeros(n), "s": _long_strings(n)}))
        t.fragments[0].bufmgr.flush()
        cap = t.fragments[0]._cap
        again = TableStorage(fs, BufferManager(4, 64), "t", self.SCHEMA, page_size=16 * 1024)
        frag = again.fragments[0]
        assert frag._cap == cap and not frag.fitter.rates
        assert [r[0] for r in frag.all_rows().rows()] == list(range(n))
        # the next append is fitted from the cap, not from a sample
        calls = []
        orig = frag._encode_set
        frag._encode_set = lambda chunk, coders=None: calls.append(chunk.length) or orig(chunk, coders)
        again.insert(RowBatch(self.SCHEMA, {"k": np.arange(n), "v": np.ones(n), "s": _long_strings(n, seed=8)}))
        assert calls[0] == cap

    def test_single_row_over_capacity_raises(self):
        schema = Schema.of(("k", DataType.INT64), ("s", DataType.STRING))
        t = TableStorage(MemFS(), BufferManager(4, 64), "t", schema, page_size=4096)
        noise = np.random.default_rng(1).integers(0x4E00, 0x9FFF, 3000)
        with pytest.raises(StorageError, match="single row exceeds page capacity"):
            t.load(RowBatch(schema, {"k": np.arange(1), "s": ["".join(map(chr, noise))]}))


#: per table, the page sets of TPC-H SF 0.01 on the benchmark's cluster
#: shape (4 workers, 2 disks each, 32 KiB pages)
SF_001_SETS = {
    "lineitem": 48, "orders": 16, "partsupp": 8, "part": 8,
    "customer": 8, "supplier": 8, "nation": 8, "region": 8,
}


def test_tpch_load_fits_each_set_once(monkeypatch):
    encodes = Counter()
    encode_set, sample = table_mod._Fragment._encode_set, table_mod._SetFitter.sample

    def counted_encode(frag, *args):
        encodes[frag.path] += 1
        return encode_set(frag, *args)

    def counted_sample(fitter, *args):
        encodes["samples"] += 1
        return sample(fitter, *args)

    monkeypatch.setattr(table_mod._Fragment, "_encode_set", counted_encode)
    monkeypatch.setattr(table_mod._SetFitter, "sample", counted_sample)
    db = load_tpch(tpch_dbgen.generate(sf=0.01, seed=TPCH_SEED), n_coordinators=2)
    sets, fragments = Counter(), 0
    for worker in db.workers.values():
        for name, ts in worker.storage.items():
            for frag in ts.fragments:
                sets[name] += len(frag.sets)
                fragments += 1
                assert all(f >= 0.85 for f in _widest_fill(frag)[:-1])
    assert sets == SF_001_SETS
    # no set was encoded twice: one encode a set, and a sample a table
    # and worker whose rows exceed one
    assert encodes.pop("samples") <= fragments
    assert sum(encodes.values()) == sum(sets.values())


def test_meta_stores_string_bounds_as_utf8_and_reads_them_back():
    schema = Schema.of(("k", DataType.INT64), ("d", DataType.FLOAT64), ("s", DataType.STRING))
    fs = MemFS()
    t = TableStorage(fs, BufferManager(4, 64), "t", schema, page_size=4096)
    strings = ["", "é", "日本語", "nul\x00inside", "zz"] * 200
    t.load(RowBatch(schema, {"k": np.arange(1000), "d": np.linspace(0, 1, 1000), "s": strings}))
    frag = t.fragments[0]
    assert len(frag.sets) > 1
    stored = pickle.loads(frag._read(frag.meta_path))["minmax"]
    assert {kind for lo, hi in stored.values() for kind in (lo[0], hi[0])} == {"<i8", "<f8", "utf8"}
    assert all(isinstance(part, bytes) for lo, hi in stored.values() for part in lo[1:] + hi[1:])
    again = TableStorage(fs, BufferManager(4, 64), "t", schema, page_size=4096).fragments[0]
    want, got = frag.layout.minmax.columns(), again.layout.minmax.columns()
    assert want.keys() == got.keys()
    for col in want:
        for a, b in zip(want[col], got[col]):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
