"""Merging the sets DML appends: the size-tiered rule, and what a merge
keeps — every row at its position (reads, undo in memory and from the
WAL), a scan already running, the decoded cache, a restart and the
indexes.

The refresh test keeps its own expected tables in NumPy: the engine and
``execute_reference`` read the same storage, so the reference executor
cannot tell a merge that lost or duplicated rows."""

import math
import random
import threading
from collections import Counter

import numpy as np
import pytest

from repro import ClusterConfig, Database
from repro.common import DataType, RowBatch, Schema
from repro.sql import parse, parse_expr
from repro.storage.buffer import BufferManager
from repro.storage.predicate_cache import Atom, Op, ScanPredicate
from repro.storage.table import MERGE_AFTER, TableStorage, _merge_start
from repro.util.fs import MemFS
from repro.workloads import tpch_dbgen, tpch_queries, tpch_schema

from tests.conftest import delete_where, rows_approx_equal


def _run(sizes):
    """The trailing run of under-full sets the rule looks at (cap 866)."""
    run = 0
    for n in reversed(sizes):
        if n >= 433:
            break
        run += 1
    return run


class TestMergeRule:
    CAP = 866

    def test_a_short_run_waits(self):
        assert _merge_start([866, 866] + [10] * MERGE_AFTER, self.CAP) is None

    def test_a_long_run_merges_its_equal_tail(self):
        sizes = [866, 866] + [10] * (MERGE_AFTER + 1)
        assert _merge_start(sizes, self.CAP) == 2

    def test_an_older_bigger_set_stays(self):
        sizes = [866, 300] + [10] * (MERGE_AFTER + 1)
        assert _merge_start(sizes, self.CAP) == 2

    def test_half_a_set_of_rows_seals_the_run(self):
        assert _merge_start([866, 300, 140], self.CAP) == 1
        assert _merge_start([866, 300, 120], self.CAP) is None

    def test_full_sets_are_never_merged(self):
        assert _merge_start([866, 433] + [5] * MERGE_AFTER, self.CAP) is None
        assert _merge_start([866, 433] + [5] * (MERGE_AFTER + 1), self.CAP) == 2
        assert _merge_start([1251], self.CAP) is None

    @pytest.mark.parametrize("lo,hi", [(1, 4), (16, 38), (100, 300)])
    def test_bounds_over_a_stream_of_appends(self, lo, hi):
        rng = random.Random(lo)
        loaded = [866] * 5 + [1251]
        sizes = list(loaded)
        encodes: list[int] = []  # per appended row, how often it was encoded
        owner: list[list[int]] = [[] for _ in loaded]  # per set, its appended rows
        for _ in range(600):
            n = rng.randint(lo, hi)
            owner.append(list(range(len(encodes), len(encodes) + n)))
            encodes.extend([1] * n)
            sizes.append(n)
            start = _merge_start(sizes, self.CAP)
            if start is not None:
                rows = [r for o in owner[start:] for r in o]
                for r in rows:
                    encodes[r] += 1
                sizes[start:] = [sum(sizes[start:])]
                owner[start:] = [rows]
            assert sizes[: len(loaded)] == loaded  # loaded full sets untouched
            assert max(sizes) <= 1251
            assert _run(sizes) <= MERGE_AFTER + math.log2(self.CAP) + 1
            appended = sum(sizes) - sum(loaded)
            assert len(sizes) <= len(loaded) + appended // 433 + 1 + MERGE_AFTER + math.log2(self.CAP) + 1
        assert max(encodes) <= math.log2(self.CAP) + 2


SF = 0.002
CONFIG = dict(n_workers=3, n_max=4, page_size=32 * 1024)
READS = (1, 3, 6, 12, 14)


def _columns(batch: RowBatch) -> dict[str, np.ndarray]:
    return {c.name: np.asarray(batch.col(c.name)).copy() for c in batch.schema}


def _batch(schema: Schema, cols: dict[str, np.ndarray]) -> RowBatch:
    return RowBatch(schema, {c.name: cols[c.name] for c in schema})


class TestRefreshCycles:
    """200 RF1/RF2 cycles through the transaction system at SF 0.002,
    against expected tables kept in NumPy."""

    CYCLES = 200

    def test_two_hundred_cycles(self):
        data = tpch_dbgen.generate(sf=SF)
        db = Database(ClusterConfig(**CONFIG))
        for name, schema in tpch_schema.SCHEMAS.items():
            db.create_table(name, schema, tpch_schema.PARTITIONING[name])
            db.load(name, data[name])
        schemas = {t: tpch_schema.SCHEMAS[t] for t in ("orders", "lineitem")}
        expect = {t: _columns(data[t]) for t in schemas}
        frags = {
            (t, w, i): f
            for t in schemas for w, wk in db.workers.items()
            for i, f in enumerate(wk.storage[t].fragments)
        }
        loaded = {k: (len(f.sets), f.layout.n_rows) for k, f in frags.items()}
        pool = tpch_dbgen.gen_orders(SF, seed=4242)
        next_key = int(expect["orders"]["o_orderkey"].max()) + 1
        n = max(1, round(SF * 1500))
        ts = db.txn_system
        for cycle in range(self.CYCLES):
            # RF1: n new orders above every key, with their line items
            at = (cycle * n) % (pool.length - n)
            cols = dict(pool.slice(at, at + n).columns)
            cols["o_orderkey"] = np.arange(next_key, next_key + n, dtype=np.int64)
            next_key += n
            orders = RowBatch(pool.schema, cols)
            lines = tpch_dbgen.gen_lineitem(SF, seed=7000 + cycle, orders=orders)
            txn = ts.begin()
            ts.run_dml("orders", "insert", batch=orders, txn=txn)
            ts.run_dml("lineitem", "insert", batch=lines, txn=txn)
            assert ts.commit(txn)
            for t, new in (("orders", orders), ("lineitem", lines)):
                add = _columns(new)
                expect[t] = {c: np.concatenate([v, add[c]]) for c, v in expect[t].items()}
            # RF2: the n oldest orders and their line items
            keys = np.sort(expect["orders"]["o_orderkey"])[:n]
            lo, hi = int(keys[0]), int(keys[-1])
            txn = ts.begin()
            ts.run_dml("lineitem", "delete", txn=txn,
                       predicate=parse_expr(f"l_orderkey >= {lo} and l_orderkey <= {hi}"))
            ts.run_dml("orders", "delete", txn=txn,
                       predicate=parse_expr(f"o_orderkey >= {lo} and o_orderkey <= {hi}"))
            assert ts.commit(txn)
            for t, key in (("orders", "o_orderkey"), ("lineitem", "l_orderkey")):
                keep = ~np.isin(expect[t][key], keys)
                expect[t] = {c: v[keep] for c, v in expect[t].items()}
            for k, f in frags.items():
                n_loaded, rows_loaded = loaded[k]
                half = f._cap // 2
                appended = f.layout.n_rows - rows_loaded
                bound = n_loaded + appended // half + 1 + MERGE_AFTER + math.log2(f._cap) + 1
                assert len(f.sets) <= bound, (k, cycle, [s.n_rows for s in f.sets])

        assert sum(f.merges for f in frags.values()) > 0
        for t, schema in schemas.items():
            got = sorted(db.sql(f"select * from {t}").rows())
            assert got == sorted(_batch(schema, expect[t]).rows()), t
            dead, merges = db.sql(
                f"select sum(dead_rows), sum(merges) from sys.fragments where table_name = '{t}'"
            ).rows()[0]
            appended = sum(f.layout.n_rows for k, f in frags.items() if k[0] == t)
            assert dead == appended - len(expect[t][schema.columns[0].name])
            assert merges == sum(f.merges for k, f in frags.items() if k[0] == t) > 0
        # the reads: a fresh database loaded with the expected rows
        fresh = Database(ClusterConfig(**CONFIG))
        for name, schema in tpch_schema.SCHEMAS.items():
            fresh.create_table(name, schema, tpch_schema.PARTITIONING[name])
            fresh.load(name, _batch(schema, expect[name]) if name in expect else data[name])
        for q in READS:
            text = tpch_queries.query(q, SF)
            got, want = sorted(db.sql(text).rows()), sorted(fresh.sql(text).rows())
            assert rows_approx_equal(got, want, tol=1e-9), q


def _one_fragment_db() -> Database:
    db = Database(ClusterConfig(n_workers=1, disks_per_node=1, n_max=4, page_size=16 * 1024))
    db.sql("create table t (k integer, v varchar) partition by hash (k)")
    db.sql("insert into t values " + ", ".join(f"({k}, 'v{k % 7}')" for k in range(1000)))
    return db


def _fragment(db: Database):
    return db.workers[0].storage["t"].fragments[0]


def _insert(db: Database, keys, txn=None) -> None:
    db.insert_values(parse("insert into t values " + ", ".join(f"({k}, 'n{k}')" for k in keys)), txn=txn)


class TestUndoAcrossAMerge:
    """A loser's appended set is merged by the next committer on its
    worker (its locks died with the worker); undo still removes exactly
    its rows, in memory and from the WAL."""

    @pytest.mark.parametrize("path", ["memory", "wal"])
    def test_insert_undone_after_its_set_merged(self, path):
        db = _one_fragment_db()
        frag = _fragment(db)
        for i in range(3):
            _insert(db, [2000 + i])
        loser = db.txn_system.begin()
        _insert(db, [5, 3000], txn=loser)  # 5 equals a committed row's key
        db.txn_system.nodes[0].locks.release_all(loser.txn_id)
        sets = len(frag.sets)
        for i in range(MERGE_AFTER):
            _insert(db, [4000 + i])
        assert frag.merges > 0 and len(frag.sets) < sets + MERGE_AFTER
        if path == "memory":
            db.txn_system.rollback(loser)
        else:
            assert set(db.txn_system.resolve_in_doubt().values()) == {"rollback"}
        want = list(range(1000)) + [2000, 2001, 2002] + [4000 + i for i in range(MERGE_AFTER)]
        assert sorted(r[0] for r in db.sql("select k from t").rows()) == sorted(want)
        assert db.sql("select count(*) from t where k = 5").rows() == [(1,)]


class TestMergeUnderAScan:
    def test_an_open_scan_reads_its_layout(self):
        db = _one_fragment_db()
        frag = _fragment(db)
        for i in range(MERGE_AFTER - 1):  # the run is one set short of merging
            _insert(db, [2000 + i])
        assert frag.merges == 0
        rows_before = frag.layout.n_rows
        seen = {}

        def predicate(batch):
            # a writer appends and merges while this scan holds its layout
            _insert(db, [9000])
            seen["merges"], seen["free"] = frag.merges, list(frag._free)
            return np.ones(batch.length, dtype=bool)

        batches = list(frag.scan(["k"], predicate=predicate))
        assert seen["merges"] == 1
        assert sum(b.length for b in batches) == rows_before  # not the row it appended
        assert seen["free"] == []  # the replaced sets' slots waited for the scan
        assert frag._released  # ...and are queued once it is done
        frag._reclaim()
        assert frag._free
        keys = sorted(r[0] for r in db.sql("select k from t").rows())
        assert keys == sorted(list(range(1000)) + [2000 + i for i in range(MERGE_AFTER - 1)] + [9000])


    def test_a_layout_dropped_under_the_fragment_lock_is_freed_later(self):
        """The finalizer of a replaced layout may run while its thread
        holds the fragment's lock (a garbage collection can interrupt any
        holder): it takes no lock, and the next append frees the slots."""
        db = _one_fragment_db()
        frag = _fragment(db)
        for i in range(MERGE_AFTER - 1):
            _insert(db, [2000 + i])
        scan = frag.scan(["k"])
        next(scan)  # holds the layout
        _insert(db, [9000])
        assert frag.merges == 1
        replaced = {s.first_page for s in frag.layout.sets} ^ set(range(0, frag.next_page, 2))
        dropped = threading.Event()

        def drop():
            with frag._lock:
                scan.close()  # the last holder of the replaced layout
                dropped.set()

        worker = threading.Thread(target=drop, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert dropped.is_set()
        assert frag._free == [] and frag._released
        _insert(db, [9001])  # the next append frees the slots, and takes the lowest
        assert frag.sets[-1].first_page == min(replaced)
        keys = sorted(r[0] for r in db.sql("select k from t").rows())
        assert keys == sorted(list(range(1000)) + [2000 + i for i in range(MERGE_AFTER - 1)] + [9000, 9001])


class TestIndexAcrossAMerge:
    def test_a_scan_of_the_published_layout_finds_every_merged_row(self, monkeypatch):
        """A read takes no lock, so it may take the merged layout before
        the merge has written ``.meta``: the index names the merged set
        by then, for keys of every set it replaced."""
        db = _one_fragment_db()
        db.sql("create index ik on t (k)")
        frag = _fragment(db)
        keys = [2000 + i for i in range(MERGE_AFTER)]
        for k in keys[:-1]:
            _insert(db, [k])
        generation = frag.layout.generation
        found = {}
        save_meta = frag._save_meta

        def scan_then_save():
            if frag.layout.generation != generation and not found:  # the merge has published
                for k in keys:
                    batches = frag.scan(
                        ["k"],
                        predicate=lambda b, k=k: b.col("k") == k,
                        scan_pred=ScanPredicate([Atom("k", Op.EQ, k)]),
                    )
                    found[k] = sum(b.length for b in batches)
            save_meta()

        monkeypatch.setattr(frag, "_save_meta", scan_then_save)
        _insert(db, [keys[-1]])
        assert frag.merges == 1
        assert found == {k: 1 for k in keys}


class TestFailedMerge:
    def test_a_merge_that_fails_leaves_the_commit_committed(self, monkeypatch):
        db = _one_fragment_db()
        frag = _fragment(db)
        for i in range(MERGE_AFTER - 1):
            _insert(db, [2000 + i])
        flush = frag.bufmgr.flush

        def failing_flush(path=None):
            if path == frag.path:  # the merge's own flush
                raise OSError("no space left on device")
            flush(path)

        monkeypatch.setattr(frag.bufmgr, "flush", failing_flush)
        ts = db.txn_system
        txn = ts.begin()
        _insert(db, [9000], txn=txn)
        assert ts.commit(txn)
        assert txn.state == "committed" and txn.txn_id not in ts._active
        assert ts.nodes[0].locks.held_resources(txn.txn_id) == set()
        assert frag.merges == 0
        events = db.sql("select node, detail from sys.events where kind = 'merge_failed'").rows()
        assert len(events) == 1 and events[0][0] == 0 and "no space left" in events[0][1]
        monkeypatch.undo()
        _insert(db, [9001])  # the next commit merges
        assert frag.merges == 1
        keys = sorted(r[0] for r in db.sql("select k from t").rows())
        assert keys == sorted(list(range(1000)) + [2000 + i for i in range(MERGE_AFTER - 1)] + [9000, 9001])


class TestPredicateCacheAcrossAMerge:
    def test_a_merged_set_is_not_skipped_for_what_its_parts_lacked(self):
        db = _one_fragment_db()
        frag = _fragment(db)
        for i in range(MERGE_AFTER - 1):  # sets whose min/max cannot rule out 'm'
            db.sql(f"insert into t values ({2000 + 2 * i}, 'a'), ({2001 + 2 * i}, 'z')")
        query = "select count(*) from t where v = 'm'"
        assert db.sql(query).rows() == [(0,)]
        assert frag.pred_cache.n_entries >= MERGE_AFTER - 1  # each set cached as empty
        db.sql("insert into t values (3000, 'm'), (3001, 'm')")
        assert frag.merges == 1
        assert db.sql(query).rows() == [(2,)]


class TestDecodedCache:
    def test_a_merge_decodes_nothing(self):
        db = _one_fragment_db()
        frag = _fragment(db)
        cache = db.workers[0].bufmgr.decoded
        db.sql("select * from t").rows()  # every column decoded once
        misses, merges = cache.misses, frag.merges
        for i in range(MERGE_AFTER + 2):
            _insert(db, [2000 + i])
        assert frag.merges > merges
        assert cache.misses == misses
        assert len(db.sql("select * from t").rows()) == 1000 + MERGE_AFTER + 2
        assert cache.misses == misses  # the merged layout inherited the columns

    def test_a_merged_low_cardinality_column_keeps_one_dictionary(self):
        db = Database(ClusterConfig(n_workers=1, disks_per_node=1, n_max=4, page_size=16 * 1024))
        db.sql("create table t (k integer, v varchar) partition by hash (k)")
        db.sql("insert into t values " + ", ".join(f"({k}, 'v{k % 3}')" for k in range(1000)))
        frag = _fragment(db)
        db.sql("select v, count(*) from t group by v").rows()
        loaded = db.workers[0].bufmgr.decoded.peek((frag.layout.generation, "v")).values.dictionary
        for i in range(MERGE_AFTER + 2):
            db.sql(f"insert into t values ({2000 + i}, 'v{i % 3}')")
        assert frag.merges > 0
        got = db.sql("select v, count(*) from t group by v").rows()
        want = Counter([f"v{k % 3}" for k in range(1000)] + [f"v{i % 3}" for i in range(MERGE_AFTER + 2)])
        assert sorted(got) == sorted(want.items())
        column = db.workers[0].bufmgr.decoded.peek((frag.layout.generation, "v")).values
        assert column.dictionary is loaded

    def test_first_scan_after_reorganize_decodes_nothing(self):
        db = _one_fragment_db()
        for i in range(4):
            _insert(db, [2000 + i])
        db.sql("delete from t where k < 100")
        db.reorganize("t")
        cache = db.workers[0].bufmgr.decoded
        misses = cache.misses
        assert len(db.sql("select * from t").rows()) == 904
        assert db.sql("delete from t where k = 500").rowcount == 1
        assert cache.misses == misses


class TestRestart:
    SCHEMA = Schema.of(("k", DataType.INT64), ("v", DataType.STRING))

    def _storage(self, fs):
        return TableStorage(fs, BufferManager(4, 256), "t", self.SCHEMA, page_size=16 * 1024)

    def test_a_reopened_fragment_reads_equal_rows(self):
        fs = MemFS()
        t = self._storage(fs)
        n = 1500
        t.load(RowBatch(self.SCHEMA, {"k": np.arange(n), "v": [f"v{k % 5}" for k in range(n)]}))
        t.create_index("k")
        rng = np.random.default_rng(3)
        for i in range(60):
            keys = np.arange(n + 10 * i, n + 10 * i + int(rng.integers(1, 10)))
            span = t.insert(RowBatch(self.SCHEMA, {"k": keys, "v": [f"n{k}" for k in keys]}))
            t.fragments[span.fragment].merge_appended()
            if i % 7 == 0:
                delete_where(t, lambda b, i=i: b.col("k") % 53 == i % 53)
        assert sum(f.merges for f in t.fragments) > 0
        for f in t.fragments:
            f.bufmgr.flush()
        again = self._storage(fs)
        rows = sorted(r for b in t.scan() for r in b.rows())
        assert sorted(r for b in again.scan() for r in b.rows()) == rows
        assert again.row_count == t.row_count == len(rows)
        for f in again.fragments:
            values = f.all_rows().col("k")
            held = {}
            for set_id in range(len(f.sets)):
                lo, hi = f.layout.bounds[set_id], f.layout.bounds[set_id + 1]
                for k in f._read_all(f.layout).col("k")[lo:hi].tolist():
                    held.setdefault(k, set()).add(set_id)
            for k in values[:: max(1, len(values) // 50)].tolist():
                candidates = f._index_candidates(ScanPredicate([Atom("k", Op.EQ, k)]))
                assert held[k] <= candidates, k
