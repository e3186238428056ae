"""Storage engine tests: filesystems, pages, buffer manager, tables."""

import numpy as np
import pytest

from repro.common import DataType, RowBatch, Schema
from repro.common.errors import PageFormatError, StorageError
from repro.storage.buffer import BufferManager
from repro.storage.col_page import (
    clear_decoded_caches,
    decode_page,
    decoded_cache_stats,
    encode_column,
)
from repro.storage.compression import (
    HuffmanCoder,
    get_codec,
    huffman_decode_strings,
    huffman_encode_strings,
)
from repro.storage.page import PagedFile
from repro.storage.predicate_cache import Atom, Op, ScanPredicate
from repro.storage.row_page import RowPage, decode_row, encode_row
from repro.storage.table import COLUMN, ROW, TableStorage
from repro.util.fs import LocalFS, MemFS
from tests.conftest import delete_where, update_where


class TestMemFS:
    def test_write_read(self, memfs):
        fh = memfs.open("a/b.dat")
        fh.pwrite(0, b"hello")
        assert fh.pread(0, 5) == b"hello"

    def test_read_past_end_zero_filled(self, memfs):
        fh = memfs.open("x")
        fh.pwrite(0, b"ab")
        assert fh.pread(0, 4) == b"ab\x00\x00"

    def test_sparse_accounting(self, memfs):
        fh = memfs.open("sparse")
        fh.pwrite(0, b"x")
        fh.pwrite(1024 * 1024, b"y")  # far offset: hole between
        assert memfs.total_allocated() <= 2 * 4096
        assert fh.size() > 1024 * 1024

    def test_delete_exists_listdir(self, memfs):
        memfs.open("t/1")
        memfs.open("t/2")
        assert memfs.exists("t/1")
        assert memfs.listdir("t/") == ["t/1", "t/2"]
        memfs.delete("t/1")
        assert not memfs.exists("t/1")

    def test_truncate(self, memfs):
        fh = memfs.open("f")
        fh.pwrite(0, b"abcdef")
        fh.truncate(3)
        assert fh.size() == 3
        assert fh.pread(0, 3) == b"abc"

    def test_open_missing_nocreate(self, memfs):
        with pytest.raises(StorageError):
            memfs.open("missing", create=False)


class TestLocalFS:
    def test_roundtrip(self, tmp_path):
        fs = LocalFS(str(tmp_path))
        fh = fs.open("sub/file.dat")
        fh.pwrite(10, b"abc")
        assert fh.pread(10, 3) == b"abc"
        fh.close()
        assert fs.exists("sub/file.dat")
        assert "sub/file.dat" in fs.listdir("sub")
        fs.delete("sub/file.dat")
        assert not fs.exists("sub/file.dat")


class TestCompression:
    def test_codecs_roundtrip(self):
        data = b"abcabcabc" * 100 + b"\x00\xff" * 50
        for name in ("none", "lz4sim"):
            codec = get_codec(name)
            assert codec.decompress(codec.compress(data)) == data

    def test_lz4sim_compresses_redundancy(self):
        codec = get_codec("lz4sim")
        data = b"A" * 10_000
        assert len(codec.compress(data)) < len(data) // 10

    def test_unknown_codec(self):
        with pytest.raises(StorageError):
            get_codec("zstd")

    def test_huffman_roundtrip(self):
        data = b"the quick brown fox jumps over the lazy dog" * 10
        coder = HuffmanCoder.from_data(data)
        assert coder.decode(coder.encode(data)) == data

    def test_huffman_table_transport(self):
        data = b"mississippi"
        coder = HuffmanCoder.from_data(data)
        decoder = HuffmanCoder.from_table_bytes(coder.table_bytes())
        assert decoder.decode(coder.encode(data)) == data

    def test_huffman_strings(self):
        vals = ["hello", "", "world", "aaa" * 40, "héllo"]
        assert huffman_decode_strings(huffman_encode_strings(vals)) == vals

    def test_huffman_compresses_skewed_text(self):
        vals = ["aaaaaaaaabbbbcc"] * 200
        encoded = huffman_encode_strings(vals)
        raw = sum(len(v) for v in vals)
        assert len(encoded) < raw


class TestPagedFile:
    def test_write_read(self, memfs):
        f = PagedFile(memfs, "p.dat", 4096)
        f.write_page(0, b"hello world")
        f.write_page(2, b"page two")
        assert f.read_page(0) == b"hello world"
        assert f.read_page(2) == b"page two"
        assert f.num_pages() == 3

    def test_payload_too_large(self, memfs):
        f = PagedFile(memfs, "p.dat", 4096)
        with pytest.raises(PageFormatError):
            f.write_page(0, b"\x00" * 5000)

    def test_out_of_range(self, memfs):
        f = PagedFile(memfs, "p.dat", 4096)
        with pytest.raises(StorageError):
            f.read_page(0)

    def test_checksum_detects_corruption(self, memfs):
        f = PagedFile(memfs, "p.dat", 4096, codec="none")
        f.write_page(0, b"important data!!")
        raw = memfs.open("p.dat")
        raw.pwrite(12, b"X")  # flip a byte inside the body
        with pytest.raises(PageFormatError):
            f.read_page(0)

    def test_incompressible_stored_raw(self, memfs):
        f = PagedFile(memfs, "p.dat", 4096)
        data = bytes(np.random.default_rng(0).integers(0, 256, 1000, dtype=np.uint8))
        f.write_page(0, data)
        assert f.read_page(0) == data

    def test_io_counters(self, memfs):
        f = PagedFile(memfs, "p.dat", 4096)
        f.write_page(0, b"x")
        f.read_page(0)
        assert f.writes == 1 and f.reads == 1


class TestBufferManager:
    def _file(self, memfs, bm, pages=20):
        f = PagedFile(memfs, "t.dat", 4096)
        bm.register_file(f)
        for i in range(pages):
            f.write_page(i, f"page{i}".encode())
        return f

    def test_get_caches(self, memfs):
        bm = BufferManager(2, 8)
        self._file(memfs, bm)
        assert bm.get("t.dat", 3) == b"page3"
        assert bm.misses == 1
        bm.get("t.dat", 3)
        assert bm.hits == 1

    def test_eviction_writes_back_dirty(self, memfs):
        bm = BufferManager(1, 2)
        f = self._file(memfs, bm, pages=4)
        bm.put("t.dat", 0, b"DIRTY0")
        for i in range(1, 4):
            bm.get("t.dat", i)
        bm2 = BufferManager(1, 2)
        bm2.register_file(f)
        assert bm2.get("t.dat", 0) == b"DIRTY0"

    def test_declare_scan_shields_once(self, memfs):
        bm = BufferManager(1, 4)
        self._file(memfs, bm)
        bm.get("t.dat", 0)
        bm.declare_scan("t.dat", [0])
        # fill the pool, forcing eviction pressure
        for i in range(1, 8):
            bm.get("t.dat", i)
        # page 0 was declared: it survived one extra clock sweep; a second
        # fill can evict it. We only assert the mechanism didn't corrupt.
        assert bm.get("t.dat", 0) == b"page0"

    def test_flush(self, memfs):
        bm = BufferManager(2, 8)
        f = self._file(memfs, bm)
        bm.put("t.dat", 5, b"NEW5")
        bm.flush()
        assert f.read_page(5) == b"NEW5"

    def test_invalidate(self, memfs):
        bm = BufferManager(2, 8)
        self._file(memfs, bm)
        bm.get("t.dat", 1)
        bm.invalidate("t.dat")
        assert bm.cached_pages == 0


class TestRowPage:
    def schema(self):
        return Schema.of(("a", DataType.INT64), ("s", DataType.STRING))

    def test_encode_decode_row(self):
        s = self.schema()
        data = encode_row(s, [42, "hello"])
        assert decode_row(s, data) == (42, "hello")

    def test_page_roundtrip(self):
        s = self.schema()
        page = RowPage(4096)
        for i in range(10):
            assert page.try_append(encode_row(s, [i, f"row{i}"])) == i
        back = RowPage.from_payload(page.to_payload(), 4096)
        rows = [r for _, r in back.iter_rows(s)]
        assert rows[3] == (3, "row3")

    def test_full_page(self):
        s = self.schema()
        page = RowPage(64)
        n = 0
        while page.try_append(encode_row(s, [n, "x" * 10])) is not None:
            n += 1
        assert 0 < n < 10

    def test_tombstones(self):
        s = self.schema()
        page = RowPage(4096)
        for i in range(5):
            page.try_append(encode_row(s, [i, "r"]))
        page.mark_deleted(2)
        assert page.is_deleted(2)
        live = [r[0] for _, r in page.iter_rows(s)]
        assert live == [0, 1, 3, 4]

    def test_to_batch(self):
        s = self.schema()
        page = RowPage(4096)
        for i in range(3):
            page.try_append(encode_row(s, [i, str(i)]))
        b = page.to_batch(s)
        assert b.col("a").tolist() == [0, 1, 2]


class TestColPage:
    def test_fixed_roundtrip(self):
        arr = np.array([1, 2, 3], dtype=np.int64)
        back = decode_page(encode_column(arr, DataType.INT64), DataType.INT64, 3)
        assert back.tolist() == [1, 2, 3]

    def test_string_roundtrip(self):
        arr = np.array(["a", "bb", ""], dtype=object)
        back = decode_page(encode_column(arr, DataType.STRING), DataType.STRING, 3)
        assert back.tolist() == ["a", "bb", ""]

    def test_wrong_count_rejected(self):
        arr = np.array([1, 2], dtype=np.int64)
        payload = encode_column(arr, DataType.INT64)
        with pytest.raises(Exception):
            decode_page(payload, DataType.INT64, 5)

    def test_rows_per_set_limited_by_widest(self):
        """A full set holds what its widest page fits: fewer rows beside
        a string column than of booleans alone."""
        n = 3000
        flags = np.arange(n) % 2 == 0
        caps = []
        for schema, cols in (
            (Schema.of(("b", DataType.BOOL), ("s", DataType.STRING)), {"b": flags, "s": [f"row {i}" for i in range(n)]}),
            (Schema.of(("b", DataType.BOOL)), {"b": flags}),
        ):
            t = TableStorage(MemFS(), BufferManager(4, 64), "t", schema, page_size=4096)
            t.load(RowBatch(schema, cols))
            caps.append(t.fragments[0]._cap)
        few, many = caps
        assert many > few > 0


def _table(memfs, bufmgr, fmt=COLUMN, n_disks=1, clustering=None):
    schema = Schema.of(
        ("k", DataType.INT64), ("v", DataType.FLOAT64), ("s", DataType.STRING)
    )
    return TableStorage(
        memfs, bufmgr, "t", schema, fmt=fmt, n_disks=n_disks,
        page_size=8192, clustering=clustering,
    )


def _data(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    s = np.empty(n, dtype=object)
    s[:] = [f"s{i % 10}" for i in range(n)]
    return RowBatch(
        Schema.of(("k", DataType.INT64), ("v", DataType.FLOAT64), ("s", DataType.STRING)),
        {"k": rng.integers(0, 500, n), "v": rng.random(n), "s": s},
    )


class TestTableStorage:
    @pytest.mark.parametrize("fmt", [COLUMN, ROW])
    def test_load_scan_roundtrip(self, memfs, bufmgr, fmt):
        t = _table(memfs, bufmgr, fmt=fmt)
        data = _data(500)
        t.load(data)
        assert t.row_count == 500
        got = sorted(
            r for b in t.scan(["k"]) for r in b.col("k").tolist()
        )
        assert got == sorted(data.col("k").tolist())

    def test_scan_with_predicate(self, memfs, bufmgr):
        t = _table(memfs, bufmgr)
        data = _data(1000)
        t.load(data)
        got = sum(b.length for b in t.scan(["k"], predicate=lambda b: b.col("k") < 50))
        assert got == int((data.col("k") < 50).sum())

    def test_multi_disk_spread(self, memfs, bufmgr):
        t = _table(memfs, bufmgr, n_disks=3)
        t.load(_data(600))
        per_disk = [f.row_count for f in t.fragments]
        assert sum(per_disk) == 600
        assert all(c > 0 for c in per_disk)

    def test_clustering_sorts_on_load(self, memfs, bufmgr):
        t = _table(memfs, bufmgr, clustering=["k"])
        t.load(_data(400))
        ks = np.concatenate([b.col("k") for b in t.fragments[0].scan(["k"])])
        assert (np.diff(ks) >= 0).all()

    def test_insert_does_not_respect_clustering(self, memfs, bufmgr):
        """Paper: DML appends; clustering restored only by reorganize."""
        t = _table(memfs, bufmgr, clustering=["k"])
        t.load(_data(200, seed=1))
        extra = _data(50, seed=2)
        t.insert(extra)
        assert t.row_count == 250

    def test_delete_where(self, memfs, bufmgr):
        t = _table(memfs, bufmgr)
        data = _data(300)
        t.load(data)
        n = delete_where(t, lambda b: b.col("k") == data.col("k")[0])
        assert n >= 1
        assert t.row_count == 300 - n
        remaining = [v for b in t.scan(["k"]) for v in b.col("k").tolist()]
        assert data.col("k")[0] not in remaining

    def test_update_where(self, memfs, bufmgr):
        t = _table(memfs, bufmgr)
        t.load(_data(100))

        def bump(old):
            cols = dict(old.columns)
            cols["v"] = old.col("v") + 100.0
            return RowBatch(old.schema, cols)

        n = update_where(t, lambda b: b.col("k") < 10, bump)
        assert n > 0
        assert t.row_count == 100  # update = delete + insert, count stable
        vals = [
            v
            for b in t.scan(["k", "v"], predicate=lambda b: b.col("k") < 10)
            for v in b.col("v").tolist()
        ]
        assert all(v >= 100.0 for v in vals)

    @pytest.mark.parametrize("fmt", [COLUMN, ROW])
    def test_update_reads_each_page_set_once(self, memfs, bufmgr, fmt):
        t = _table(memfs, bufmgr, fmt=fmt, n_disks=2)
        data = _data(2000)
        t.load(data)
        delete_where(t, lambda b: b.col("k") % 7 == 0)
        pages_per_set = len(t.schema) if fmt == COLUMN else 1
        pages = sum(len(f.sets) * pages_per_set for f in t.fragments)

        def bump(old):
            return RowBatch(old.schema, {**old.columns, "v": old.col("v") + 100.0})

        # from cold decoded columns, the update reads each page through
        # the pool exactly once (the delete above left them cached)
        clear_decoded_caches()
        before = bufmgr.hits + bufmgr.misses
        n = update_where(t, lambda b: b.col("k") < 50, bump)
        assert bufmgr.hits + bufmgr.misses - before == pages
        # tombstoned rows are not resurrected as new versions
        k = data.col("k")
        assert n == int(((k < 50) & (k % 7 != 0)).sum()) > 0
        assert t.row_count == 2000 - int((k % 7 == 0).sum())

    def test_reorganize_restores_clustering(self, memfs, bufmgr):
        t = _table(memfs, bufmgr, clustering=["k"])
        t.load(_data(200, seed=3))
        t.insert(_data(100, seed=4))
        t.reorganize()
        ks = np.concatenate([b.col("k") for b in t.fragments[0].scan(["k"])])
        assert (np.diff(ks) >= 0).all()
        assert t.row_count == 300

    def test_reorganize_clears_predicate_cache(self, memfs, bufmgr):
        from repro.storage.predicate_cache import Atom, Op, ScanPredicate

        t = _table(memfs, bufmgr)
        t.load(_data(500))
        sp = ScanPredicate([Atom("k", Op.LT, -1)])
        list(t.scan(["k"], predicate=lambda b: b.col("k") < -1, scan_pred=sp))
        t.reorganize()
        assert all(f.pred_cache.n_entries == 0 for f in t.fragments)

    def test_metadata_persists_across_reopen(self, memfs, bufmgr):
        t = _table(memfs, bufmgr)
        t.load(_data(150))
        # reopen against the same filesystem
        bm2 = BufferManager(4, 64)
        t2 = _table(memfs, bm2)
        assert t2.row_count == 150

    def test_live_rows_and_tombstones_survive_reopen(self, memfs, bufmgr):
        """Appends after the last tombstone write are live on reopen; the
        live-row count is kept by appends and deletes, not recounted."""
        t = _table(memfs, bufmgr, n_disks=2)
        data = _data(1500)
        t.load(data)
        n = delete_where(t, lambda b: b.col("k") % 4 == 0)
        t.insert(_data(300, seed=5))  # after the mask was written
        assert t.row_count == 1800 - n
        bufmgr.flush()
        again = _table(memfs, BufferManager(4, 64), n_disks=2)
        assert [f.row_count for f in again.fragments] == [f.row_count for f in t.fragments]
        assert sorted(r for b in again.scan(["k", "v", "s"]) for r in b.rows()) == sorted(
            r for b in t.scan(["k", "v", "s"]) for r in b.rows()
        )

    def test_predicate_cache_bytes(self, memfs, bufmgr):
        t = _table(memfs, bufmgr)
        t.load(_data(100))
        assert all(f.pred_cache.nbytes > 0 for f in t.fragments)  # pickled empty dict still has size


class TestFragmentColumnInvalidation:
    """Decoded fragment columns never serve stale rows: after each way a
    fragment's rows change, a skipping, near-data scan returns exactly
    what a ``skipping=False`` scan of freshly loaded data returns."""

    #: a value inside every set's min/max range that few rows hold, so the
    #: encoded pass drops sets and the predicate cache records them
    SCAN_PRED = ScanPredicate([Atom("k", Op.EQ, 250)])

    @staticmethod
    def predicate(b):
        return b.col("k") == 250

    def matching(self, t, skipping=True):
        kw = {"scan_pred": self.SCAN_PRED, "neardata": True} if skipping else {}
        batches = t.scan(["k", "v", "s"], self.predicate, skipping=skipping, **kw)
        return sorted(r for b in batches for r in b.rows())

    def rows(self, t, skipping=True):
        """The predicate's rows, then every row."""
        return self.matching(t, skipping), sorted(r for b in t.scan(["k", "v", "s"]) for r in b.rows())

    def fresh(self, data: RowBatch):
        t = _table(MemFS(), BufferManager(4, 64), n_disks=2)
        t.load(data)
        return self.rows(t, skipping=False)

    def warm(self, memfs, bufmgr):
        t = _table(memfs, bufmgr, n_disks=2)
        data = _data(3000)
        t.load(data)
        for _ in range(2):  # decoded columns and predicate cache warm
            assert self.rows(t) == self.fresh(data)
        assert t.cumulative_stats().sets_skipped_cache > 0
        return t, data

    def test_insert_extends_with_the_new_sets_only(self, memfs, bufmgr):
        t, data = self.warm(memfs, bufmgr)
        extra = _data(400, seed=1)
        sets_before = sum(len(f.sets) for f in t.fragments)
        t.insert(extra)
        new_sets = sum(len(f.sets) for f in t.fragments) - sets_before
        before = bufmgr.hits + bufmgr.misses
        got = self.rows(t)
        # the two scans decoded only the appended sets' pages, once
        assert bufmgr.hits + bufmgr.misses - before == 3 * new_sets > 0
        assert got == self.fresh(RowBatch.concat(data.schema, [data, extra]))

    def test_delete_and_update(self, memfs, bufmgr):
        t, data = self.warm(memfs, bufmgr)
        delete_where(t, lambda b: b.col("k") % 3 == 0)
        live = data.filter(data.col("k") % 3 != 0)
        assert self.rows(t) == self.fresh(live)

        def bump(old):
            return RowBatch(old.schema, {**old.columns, "k": old.col("k") - 100})

        update_where(t, lambda b: (b.col("k") >= 100) & (b.col("k") < 110), bump)
        moved = (live.col("k") >= 100) & (live.col("k") < 110)
        want = RowBatch.concat(live.schema, [live.filter(~moved), bump(live.filter(moved))])
        assert self.rows(t) == self.fresh(want)

    def test_reorganize(self, memfs, bufmgr):
        t, data = self.warm(memfs, bufmgr)
        delete_where(t, lambda b: b.col("k") % 2 == 0)
        generations = [f.layout.generation for f in t.fragments]
        t.clustering = ("k",)
        t.reorganize()
        assert all(f.layout.generation not in generations for f in t.fragments)
        assert self.rows(t) == self.fresh(data.filter(data.col("k") % 2 == 1))

    def test_restart_reloads_meta(self, memfs, bufmgr):
        t, data = self.warm(memfs, bufmgr)
        delete_where(t, lambda b: b.col("k") % 5 == 0)
        t.persist_caches()
        bufmgr.flush()
        again = _table(memfs, BufferManager(4, 64), n_disks=2)
        assert {f.layout.generation for f in again.fragments}.isdisjoint(
            f.layout.generation for f in t.fragments
        )
        assert self.rows(again) == self.fresh(data.filter(data.col("k") % 5 != 0))

    def test_elastic_rebalance(self):
        from repro import ClusterConfig, Database

        db = Database(ClusterConfig(n_workers=3, n_max=4, page_size=8192))
        db.sql("create table t (k integer, v float, s varchar) partition by hash (k)")
        data = _data(3000)
        db.load("t", data)
        assert db.sql("select count(*) from t where k = 250").rows()[0][0] > 0
        db.add_worker()
        got = sorted(r for w in db.workers.values() for r in self.matching(w.storage["t"]))
        assert got == self.fresh(data)[0]

    def test_cleared_cache_misses_on_the_next_scan(self, memfs, bufmgr):
        t, _ = self.warm(memfs, bufmgr)
        clear_decoded_caches()
        before = decoded_cache_stats()
        self.rows(t)
        after = decoded_cache_stats()
        assert after["misses"] > before["misses"] and after["bytes"] > 0
        self.rows(t)
        assert decoded_cache_stats()["misses"] == after["misses"]


class TestDmlReadsWhatItChanges:
    """A DELETE finds its rows through set skipping and pays for the
    sets that hold them: counted in pages fetched and ``.meta`` writes."""

    @staticmethod
    def _db():
        from repro import ClusterConfig, Database

        db = Database(ClusterConfig(n_workers=1, n_max=4, disks_per_node=2, page_size=4096))
        db.sql("create table t (k integer, v double, s varchar) partition by hash (k)")
        n = 6000
        db.load("t", RowBatch.from_pairs(
            ("k", DataType.INT64, list(range(n))),
            ("v", DataType.FLOAT64, [0.5 * i for i in range(n)]),
            ("s", DataType.STRING, [f"row {i} of the load" for i in range(n)]),
        ))
        # appended sets: keys above every loaded one, in both fragments
        db.sql("insert into t values " + ", ".join(f"({k}, 1.0, 'new')" for k in range(9000, 9400)))
        db.sql("insert into t values " + ", ".join(f"({k}, 2.0, 'new')" for k in range(9400, 9800)))
        return db

    def test_delete_decodes_only_what_it_needs_and_logs_what_it_tombstones(self, monkeypatch):
        from repro.storage import table as table_mod
        from repro.txn.wal import UPDATE

        db = self._db()
        worker = db.workers[0]
        storage = worker.storage["t"]
        frags = storage.fragments
        assert all(len(f.sets) > 10 for f in frags)
        rows_before = [f.all_rows() for f in frags]
        worker.bufmgr.flush()
        clear_decoded_caches()

        fetched: list[tuple[str, int]] = []
        get, get_many = worker.bufmgr.get, worker.bufmgr.get_many
        monkeypatch.setattr(worker.bufmgr, "get", lambda p, n: (fetched.append((p, n)), get(p, n))[1])
        monkeypatch.setattr(
            worker.bufmgr, "get_many", lambda p, ns: (fetched.extend((p, n) for n in ns), get_many(p, ns))[1]
        )
        saved: list[tuple[str, str]] = []
        for what in ("_save_meta", "_save_tombstones", "persist_cache"):
            save = getattr(table_mod._Fragment, what)
            monkeypatch.setattr(
                table_mod._Fragment, what,
                lambda f, what=what, save=save: (saved.append((f.path, what)), save(f))[1],
            )

        assert db.sql("delete from t where k = 3001").rowcount == 1

        def owner(path, page):
            """(fragment, set, column) of a fetched page."""
            f = next(i for i, f in enumerate(frags) if f.path == path)
            set_id = max(i for i, s in enumerate(frags[f].sets) if s.first_page <= page)
            return f, set_id, frags[f].schema.names()[page - frags[f].sets[set_id].first_page]

        def admitted(f):
            """The set of fragment ``f`` whose key range holds 3001 (keys
            were loaded ascending, then came the appended sets)."""
            keys, bounds = rows_before[f].col("k"), frags[f].layout.bounds
            return next(i for i in range(len(frags[f].sets)) if keys[bounds[i + 1] - 1] >= 3001)

        victim = next(f for f in (0, 1) if 3001 in rows_before[f].col("k"))
        sets = {f: admitted(f) for f in (0, 1)}
        assert all(sets[f] + 1 < len(frags[f].sets) for f in (0, 1))
        # key pages as far as the set min/max admits (none after it, so
        # none of the appended sets), and the victim set's other pages
        assert {owner(*p) for p in fetched} == {
            (f, i, "k") for f in (0, 1) for i in range(sets[f] + 1)
        } | {(victim, sets[victim], "v"), (victim, sets[victim], "s")}
        # the fragment that lost a row wrote its tombstones and nothing
        # else; the other wrote nothing
        assert saved == [(frags[victim].path, "_save_tombstones")]

        rec = next(r for r in worker_log(db) if r.kind == UPDATE and r.info["op"] == "delete")
        ((frag_no, positions),) = rec.info["at"]
        image = RowBatch.from_bytes(rec.before)
        assert frag_no == victim
        assert image.rows() == rows_before[victim].take(positions).rows() == [(3001, 1500.5, "row 3001 of the load")]
        assert sorted(frags[victim].all_rows().rows()) == sorted(
            r for r in rows_before[victim].rows() if r[0] != 3001
        )


def worker_log(db):
    return db.txn_system.nodes[0].log.records()
