"""Near-data execution: encoded-page pushdown, concurrent scans, decoded LRU.

The acceptance bar for the near-data scan layer: results must be
*bit-identical* to the decode-then-filter oracle — same rows, same
bytes — whether predicates run over raw fixed-width views, dictionary
code space, or the classic decode path, and whether a scan runs solo or
beside concurrent scans of the same fragment. The tests drive the hard
inputs explicitly: dictionary-miss strings whose value lies inside the
zone-map range (so only the encoded path can eliminate the set), int64
sums at the 2^53 float-precision boundary (an inexact float fold would
corrupt them), empty/NULL aggregate groups, and TPC-H under injected
faults against a baseline whose scans were forced onto the decode path.
"""

from __future__ import annotations

import gc
import threading
from functools import partial

import numpy as np
import pytest

from repro import ClusterConfig, Database
from repro.common import DataType, RowBatch
from repro.common.schema import Schema
from repro.fault import FaultSchedule
from repro.storage.buffer import BufferManager
from repro.storage.col_page import _ByteLRU, clear_decoded_caches, decoded_cache_stats
from repro.storage.predicate_cache import Atom, Op, ScanPredicate
from repro.storage.table import ScanStats, TableStorage
from repro.util.fs import MemFS
from repro.workloads import tpch_dbgen, tpch_queries, tpch_schema

from tests.conftest import delete_where, forced_scans

CHAOS_SEEDS = [11, 23, 37]
TPCH_QUERIES = [1, 3, 6, 12]


# ---------------------------------------------------------------------------
# storage-level oracle: near-data scan ≡ decode-then-filter
# ---------------------------------------------------------------------------


def make_table(n=6000, n_tags=12, page_size=16 * 1024):
    fs = MemFS()
    bm = BufferManager(4, 512)
    schema = Schema.of(
        ("k", DataType.INT64), ("tag", DataType.STRING), ("v", DataType.FLOAT64)
    )
    t = TableStorage(fs, bm, "t", schema, page_size=page_size, clustering=["k"])
    rng = np.random.default_rng(5)
    tags = np.empty(n, dtype=object)
    tags[:] = [f"tag{i:02d}" for i in rng.integers(0, n_tags, n)]
    t.load(
        RowBatch.from_pairs(
            ("k", DataType.INT64, rng.integers(0, 1000, n)),
            ("tag", DataType.STRING, tags),
            ("v", DataType.FLOAT64, rng.random(n)),
        )
    )
    return t


def collect(t, **kw):
    stats = ScanStats()
    batches = list(t.scan(stats=stats, **kw))
    return RowBatch.concat(t.schema, batches) if batches else RowBatch.empty(t.schema), stats


def assert_batches_identical(a: RowBatch, b: RowBatch):
    assert a.length == b.length
    for c in a.schema.names():
        ca, cb = a.col(c), b.col(c)
        if ca.dtype == object:
            assert list(ca) == list(cb), c
        else:
            assert ca.tobytes() == cb.tobytes(), c


class TestNearDataOracle:
    def test_numeric_range_bit_identical(self):
        t = make_table()
        sp = ScanPredicate([Atom("k", Op.GE, 100), Atom("k", Op.LT, 300)])
        pred = lambda b: (b.col("k") >= 100) & (b.col("k") < 300)  # noqa: E731
        on, st_on = collect(t, predicate=pred, scan_pred=sp, neardata=True)
        off, st_off = collect(t, predicate=pred, scan_pred=sp, neardata=False)
        assert_batches_identical(on, off)
        assert on.length > 0
        assert st_on.pages_pushed_down > 0 and st_on.sets_pushed > 0
        assert st_off.pages_pushed_down == 0
        assert st_on.rows_out == st_off.rows_out

    def test_dict_string_eq_bit_identical(self):
        t = make_table()
        sp = ScanPredicate([Atom("tag", Op.EQ, "tag03")])
        pred = lambda b: b.col("tag") == "tag03"  # noqa: E731
        on, st_on = collect(t, predicate=pred, scan_pred=sp, neardata=True)
        off, _ = collect(t, predicate=pred, scan_pred=sp, neardata=False)
        assert_batches_identical(on, off)
        assert on.length > 0
        assert st_on.pages_pushed_down > 0  # evaluated in code space

    def test_dictionary_miss_inside_zone_map_range(self):
        # "tag03x" sorts between min "tag00" and max, so zone maps CANNOT
        # skip — only the dictionary probe can prove sets empty, and it
        # must do so without producing different results than the oracle
        t = make_table()
        sp = ScanPredicate([Atom("tag", Op.EQ, "tag03x")])
        pred = lambda b: b.col("tag") == "tag03x"  # noqa: E731
        on, st_on = collect(t, predicate=pred, scan_pred=sp, neardata=True)
        off, _ = collect(t, predicate=pred, scan_pred=sp, neardata=False)
        assert on.length == 0 and off.length == 0
        assert st_on.sets_skipped_minmax == 0  # the zone map really couldn't help
        assert st_on.sets_skipped_encoded > 0  # the dictionary probe did
        assert st_on.pages_skipped > 0  # counted pages a decode scan would read

    def test_opaque_conjunct_fallback_bit_identical(self):
        # atoms cover only part of the predicate: the encoded path thins
        # candidates, the compiled predicate must finish the job
        t = make_table()
        sp = ScanPredicate([Atom("k", Op.LT, 500)], opaque=["mod(v)"])
        pred = lambda b: (b.col("k") < 500) & (b.col("k") % 7 == 0)  # noqa: E731
        on, _ = collect(t, predicate=pred, scan_pred=sp, neardata=True)
        off, _ = collect(t, predicate=pred, scan_pred=sp, neardata=False)
        assert_batches_identical(on, off)
        assert on.length > 0

    def test_deleted_rows_respected(self):
        t = make_table()
        delete_where(t, lambda b: b.col("k") % 3 == 0)
        sp = ScanPredicate([Atom("k", Op.LT, 400)])
        pred = lambda b: b.col("k") < 400  # noqa: E731
        on, _ = collect(t, predicate=pred, scan_pred=sp, neardata=True)
        off, _ = collect(t, predicate=pred, scan_pred=sp, neardata=False)
        assert_batches_identical(on, off)
        assert not (on.col("k") % 3 == 0).any()

    def test_cumulative_stats_accumulate(self):
        t = make_table()
        sp = ScanPredicate([Atom("k", Op.LT, 200)])
        pred = lambda b: b.col("k") < 200  # noqa: E731
        _, st = collect(t, predicate=pred, scan_pred=sp, neardata=True)
        cum = t.cumulative_stats()
        assert cum.pages_pushed_down == st.pages_pushed_down > 0
        assert cum.pages_read == st.pages_read
        _, st2 = collect(t, predicate=pred, scan_pred=sp, neardata=True)
        cum2 = t.cumulative_stats()
        assert cum2.pages_read == st.pages_read + st2.pages_read


# ---------------------------------------------------------------------------
# concurrent scans of one fragment
# ---------------------------------------------------------------------------


class TestSharedScans:
    """Concurrent scans of one fragment share nothing but the
    process-wide decoded-page cache (and the buffer pool)."""

    def test_eight_threads_different_filters_correct(self):
        # the solo scans run on an identical copy, so the concurrent ones
        # start with a cold predicate cache
        t, solo = (make_table(n=20000, page_size=8 * 1024) for _ in range(2))
        assert len(t.fragments) == 1
        bounds = [100, 200, 300, 400, 500, 600, 700, 1001]

        def engine_scan(table, lo):
            sp = ScanPredicate([Atom("k", Op.LT, lo)])
            batch, _ = collect(
                table, predicate=lambda b: b.col("k") < lo, scan_pred=sp, neardata=True
            )
            return batch

        oracle = {lo: engine_scan(solo, lo) for lo in bounds}
        # cold decoded-page cache: the eight scans race to decode and
        # insert the same pages
        clear_decoded_caches()
        results: dict[int, RowBatch] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(len(bounds))

        def run(lo):
            try:
                barrier.wait()
                results[lo] = engine_scan(t, lo)
            except BaseException as e:  # surface thread failures in the test
                errors.append(e)

        threads = [threading.Thread(target=run, args=(lo,)) for lo in bounds]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
        assert not errors
        for lo in bounds:
            assert_batches_identical(results[lo], oracle[lo])


# ---------------------------------------------------------------------------
# decoded-page byte-capped LRU
# ---------------------------------------------------------------------------


class TestByteLRU:
    def test_cap_evicts_oldest_and_counts(self):
        c = _ByteLRU(100)
        c.insert("a", "A", 40)
        c.insert("b", "B", 40)
        assert c.lookup("a") == "A"  # refresh a: b is now LRU
        c.insert("c", "C", 40)  # 120 > 100: evict b
        assert c.lookup("b") is None
        assert c.lookup("a") == "A" and c.lookup("c") == "C"
        assert c.evictions == 1 and c.bytes == 80
        assert c.hits == 3 and c.misses == 1

    def test_reinsert_same_key_replaces_bytes(self):
        c = _ByteLRU(100)
        c.insert("a", "A", 60)
        c.insert("a", "A2", 30)
        assert c.bytes == 30 and c.lookup("a") == "A2"

    def test_oversized_entry_keeps_one(self):
        c = _ByteLRU(10)
        c.insert("big", "B", 500)
        assert c.lookup("big") == "B"  # never evicts below one entry

    def test_scan_populates_then_hits(self):
        clear_decoded_caches()
        before = decoded_cache_stats()
        t = make_table()
        collect(t, neardata=False)
        mid = decoded_cache_stats()
        assert mid["misses"] > before["misses"]
        assert mid["bytes"] > 0
        collect(t, neardata=False)
        after = decoded_cache_stats()
        assert after["hits"] > mid["hits"]
        assert after["misses"] == mid["misses"]  # second pass fully cached

    @staticmethod
    def cluster(mb=64):
        db = Database(ClusterConfig(n_workers=2, decoded_cache_mb=mb))
        db.sql("create table t (k integer, s varchar) partition by hash (k)")
        db.sql("insert into t values " + ", ".join(f"({k}, 's{k % 3}')" for k in range(200)))
        return db

    @staticmethod
    def own_stats(*dbs):
        """One cluster's worker caches' counters, summed (as the process
        totals are)."""
        caches = [w.bufmgr.decoded for db in dbs for w in db.workers.values()]
        return {k: sum(getattr(c, k) for c in caches) for k in ("hits", "misses", "evictions", "bytes")}

    def test_process_totals_cover_every_live_cluster_and_no_dead_one(self):
        # the benchmark reads these two entry points: the totals over
        # all live clusters, and a clear that makes its cold-scan probe cold
        gc.collect()
        clear_decoded_caches()
        base = decoded_cache_stats()
        a, b = self.cluster(), self.cluster()
        for db in (a, b):
            assert db.sql("select count(*) from t where s = 's1'").rows() == [(67,)]

        def plus(*dbs):
            own = self.own_stats(*dbs)
            return {k: base[k] + own[k] for k in base}

        assert decoded_cache_stats() == plus(a, b) and self.own_stats(a)["bytes"] > 0
        del a
        gc.collect()
        assert decoded_cache_stats() == plus(b)
        clear_decoded_caches()
        assert decoded_cache_stats()["bytes"] == 0
        misses = self.own_stats(b)["misses"]
        b.sql("select count(*) from t where s = 's1'")
        assert self.own_stats(b)["misses"] > misses  # cold again

    def test_two_databases_keep_their_own_limits(self):
        def decoded_samples(db):
            snap = db.metrics_snapshot()
            return {
                (name, s["labels"]["node"]): s["value"]
                for name, fam in snap.items() if name.startswith("repro_storage_decoded_cache_")
                for s in fam["samples"]
            }

        small, large = self.cluster(3), self.cluster(5)
        for db, mb in ((small, 3), (large, 5)):
            assert [w.bufmgr.decoded.max_bytes for w in db.workers.values()] == [mb << 20] * 2
        samples = decoded_samples(large)
        assert len(samples) == 4 * 2 and not any(samples.values())
        assert small.sql("select count(*) from t where s = 's1'").rows() == [(67,)]
        assert decoded_samples(small)[("repro_storage_decoded_cache_bytes", "0")] > 0
        assert decoded_samples(large) == samples  # the other cluster's caches are untouched


# ---------------------------------------------------------------------------
# aggregate pushdown exactness
# ---------------------------------------------------------------------------


#: force every storage scan onto the decode-then-filter path — the
#: storage-level ``neardata=False`` oracle, applied end to end
decode_path_scans = partial(forced_scans, neardata=False)


class TestFoldExactness:
    def _db(self, **kw):
        db = Database(ClusterConfig(n_workers=2, n_max=4, page_size=16 * 1024, **kw))
        db.sql("create table big (g integer, x integer) partition by hash (g)")
        n = 4000
        rng = np.random.default_rng(3)
        x = rng.integers(0, 7, n)
        x[0] = 2**53  # float64 cannot represent 2^53 + odd remainders
        x[1] = 3
        db.load(
            "big",
            RowBatch.from_pairs(
                ("g", DataType.INT64, rng.integers(0, 5, n)),
                ("x", DataType.INT64, x),
            ),
        )
        return db, int(x.sum())

    def test_int64_sum_exact_at_2p53(self):
        db, want = self._db()
        q = "select sum(x) from big"
        with decode_path_scans():
            off = db.sql(q).rows()
        assert db.sql(q).rows() == off == [(want,)]

    def test_grouped_aggs_identical(self):
        db, _ = self._db()
        q = "select g, count(*), sum(x), min(x), max(x) from big group by g order by g"
        with decode_path_scans():
            off = db.sql(q).rows()
        assert db.sql(q).rows() == off == db.execute_reference(q).rows()

    def test_empty_and_null_groups_identical(self):
        db, _ = self._db()
        # empty match: global aggregates over zero rows (NULL min/max)
        for q in (
            "select count(*), sum(x), min(x), max(x) from big where g = 999",
            "select g, min(x) from big where x > 6 group by g order by g",
        ):
            with decode_path_scans():
                off = db.sql(q).rows()
            assert db.sql(q).rows() == off


# ---------------------------------------------------------------------------
# end-to-end: TPC-H byte-identity with toggles, under chaos seeds
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_data():
    return tpch_dbgen.generate(sf=0.005)


def build_tpch(data, **kw):
    cfg = ClusterConfig(
        n_workers=4, n_max=4, page_size=32 * 1024, batch_size=4096,
        send_retries=6, max_query_restarts=16, **kw
    )
    db = Database(cfg)
    for name, schema in tpch_schema.SCHEMAS.items():
        db.create_table(name, schema, tpch_schema.PARTITIONING[name])
        db.load(name, data[name])
    return db


class TestTPCHToggles:
    @pytest.fixture(scope="class")
    def baseline(self, tpch_data):
        db = build_tpch(tpch_data)
        db.chaos(FaultSchedule.none())
        with decode_path_scans():
            return [db.sql(tpch_queries.QUERIES[q]).rows() for q in TPCH_QUERIES]

    def test_features_on_byte_identical(self, tpch_data, baseline):
        db = build_tpch(tpch_data)
        db.chaos(FaultSchedule.none())
        for want, q in zip(baseline, TPCH_QUERIES):
            res = db.sql(tpch_queries.QUERIES[q])
            assert res.rows() == want, f"Q{q} diverged with features on"

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_identical_under_chaos(self, tpch_data, baseline, seed):
        db = build_tpch(tpch_data)
        schedule = FaultSchedule.chaos(seed, db.worker_ids)
        db.chaos(schedule)
        for want, q in zip(baseline, TPCH_QUERIES):
            assert db.sql(tpch_queries.QUERIES[q]).rows() == want, (
                f"Q{q} diverged under {schedule.describe()}"
            )

    def test_explain_and_metrics_reconcile(self, tpch_data):
        db = build_tpch(tpch_data)
        res = db.sql(tpch_queries.QUERIES[6])
        assert res.stats.pages_pushed_down > 0
        out = db.explain_analyze(tpch_queries.QUERIES[6])
        assert "pushed=" in out and "pages_pushed=" in out
        # Prometheus counters must reconcile with the scan layer exactly
        prom = db.metrics_prometheus()

        def prom_sum(metric):
            return sum(
                float(line.rsplit(" ", 1)[1])
                for line in prom.splitlines()
                if line.startswith(metric) and not line.startswith("#")
            )

        for metric, field_name in [
            ("repro_storage_pages_read_total", "pages_read"),
            ("repro_storage_pages_pushed_down_total", "pages_pushed_down"),
            ("repro_storage_pages_skipped_total", "pages_skipped"),
        ]:
            want = sum(
                getattr(ts.cumulative_stats(), field_name)
                for wk in db.workers.values()
                for ts in wk.storage.values()
            )
            assert prom_sum(metric) == want, metric
        assert prom_sum("repro_storage_pages_pushed_down_total") >= res.stats.pages_pushed_down
        assert "repro_storage_decoded_cache_hits_total" in prom
