"""Predicate-based data skipping: implication soundness + cache behaviour.

The cache may only skip a page when the new predicate *implies* a cached
one; the property test checks implication against brute-force evaluation
over random rows — if ``implies`` ever returns True for a pair where
some row satisfies the new predicate but not the cached one, skipping
would be unsound.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.predicate_cache import Atom, Op, PageMinMax, PredicateCache, ScanPredicate


def P(*atoms, opaque=()):
    return ScanPredicate(atoms, opaque)


class TestImplication:
    def test_equal_predicates(self):
        a = P(Atom("x", Op.LT, 5))
        assert a.implies(P(Atom("x", Op.LT, 5)))

    def test_tighter_range_implies_wider(self):
        assert P(Atom("x", Op.LT, 3)).implies(P(Atom("x", Op.LT, 5)))
        assert P(Atom("x", Op.LE, 5)).implies(P(Atom("x", Op.LT, 6)))
        assert P(Atom("x", Op.GT, 10)).implies(P(Atom("x", Op.GE, 10)))

    def test_wider_does_not_imply_tighter(self):
        assert not P(Atom("x", Op.LT, 5)).implies(P(Atom("x", Op.LT, 3)))

    def test_eq_implies_range(self):
        assert P(Atom("x", Op.EQ, 4)).implies(P(Atom("x", Op.LT, 5)))
        assert P(Atom("x", Op.EQ, 4)).implies(P(Atom("x", Op.GE, 4)))
        assert not P(Atom("x", Op.EQ, 6)).implies(P(Atom("x", Op.LT, 5)))

    def test_eq_implies_ne_other(self):
        assert P(Atom("x", Op.EQ, 4)).implies(P(Atom("x", Op.NE, 9)))
        assert not P(Atom("x", Op.EQ, 4)).implies(P(Atom("x", Op.NE, 4)))

    def test_extra_conjuncts_strengthen(self):
        strong = P(Atom("x", Op.LT, 5), Atom("y", Op.EQ, 1))
        assert strong.implies(P(Atom("x", Op.LT, 5)))

    def test_missing_conjunct_blocks(self):
        weak = P(Atom("x", Op.LT, 5))
        assert not weak.implies(P(Atom("x", Op.LT, 5), Atom("y", Op.EQ, 1)))

    def test_unsatisfiable_implies_anything(self):
        impossible = P(Atom("x", Op.LT, 1), Atom("x", Op.GT, 5))
        assert impossible.implies(P(Atom("z", Op.EQ, 42)))

    def test_opaque_requires_superset(self):
        a = P(Atom("x", Op.LT, 5), opaque=["f(y)"])
        b = P(opaque=["f(y)"])
        assert a.implies(b)
        assert not b.implies(P(opaque=["g(z)"]))

    def test_strings_lexicographic(self):
        assert P(Atom("s", Op.GE, "CANADA"), Atom("s", Op.LT, "CANADB")).implies(
            P(Atom("s", Op.GE, "CAN"))
        )

    def test_mixed_types_sound(self):
        # incomparable constants must never claim implication
        a = P(Atom("x", Op.LT, "zzz"))
        assert not a.implies(P(Atom("x", Op.LT, 5)))


_OPS = [Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ, Op.NE]


def _eval_atom(atom: Atom, value: int) -> bool:
    return {
        Op.LT: value < atom.value,
        Op.LE: value <= atom.value,
        Op.GT: value > atom.value,
        Op.GE: value >= atom.value,
        Op.EQ: value == atom.value,
        Op.NE: value != atom.value,
    }[atom.op]


def _eval_pred(p: ScanPredicate, row: dict) -> bool:
    return all(_eval_atom(a, row[a.column]) for a in p.atoms)


@settings(max_examples=300, deadline=None)
@given(
    atoms_a=st.lists(
        st.tuples(
            st.sampled_from(["x", "y"]),
            st.sampled_from(_OPS),
            st.integers(min_value=-5, max_value=5),
        ),
        min_size=0,
        max_size=4,
    ),
    atoms_b=st.lists(
        st.tuples(
            st.sampled_from(["x", "y"]),
            st.sampled_from(_OPS),
            st.integers(min_value=-5, max_value=5),
        ),
        min_size=0,
        max_size=3,
    ),
)
def test_implication_soundness_property(atoms_a, atoms_b):
    """implies(a, b) == True must mean every model of a satisfies b."""
    a = P(*(Atom(c, o, v) for c, o, v in atoms_a))
    b = P(*(Atom(c, o, v) for c, o, v in atoms_b))
    if a.implies(b):
        for x in range(-7, 8):
            for y in range(-7, 8):
                row = {"x": x, "y": y}
                if _eval_pred(a, row):
                    assert _eval_pred(b, row), (a, b, row)


class TestPredicateCache:
    def test_record_and_skip_exact(self):
        c = PredicateCache()
        p = P(Atom("x", Op.LT, 5))
        assert not c.can_skip(1, p)
        c.record_empty(1, p)
        assert c.can_skip(1, p)
        assert not c.can_skip(2, p)

    def test_skip_by_implication(self):
        c = PredicateCache()
        c.record_empty(1, P(Atom("x", Op.LT, 10)))
        assert c.can_skip(1, P(Atom("x", Op.LT, 5)))
        assert not c.can_skip(1, P(Atom("x", Op.LT, 20)))

    def test_empty_predicate_never_cached(self):
        c = PredicateCache()
        c.record_empty(1, P())
        assert not c.can_skip(1, P())

    def test_eviction_bounded(self):
        c = PredicateCache(max_per_page=3)
        for i in range(10):
            c.record_empty(1, P(Atom("x", Op.EQ, i)))
        assert c.n_entries == 3

    def test_persistence_roundtrip(self):
        c = PredicateCache()
        c.record_empty(1, P(Atom("x", Op.LT, 5), opaque=["like(s)"]))
        c.record_empty(9, P(Atom("y", Op.EQ, "foo")))
        back = PredicateCache.from_bytes(c.to_bytes())
        assert back.can_skip(1, P(Atom("x", Op.LT, 5), opaque=["like(s)"]))
        assert back.can_skip(9, P(Atom("y", Op.EQ, "foo")))

    def test_hit_counters(self):
        c = PredicateCache()
        p = P(Atom("x", Op.EQ, 1))
        c.record_empty(1, p)
        c.can_skip(1, p)
        c.can_skip(2, p)
        assert c.hits == 1 and c.probes == 2

    def test_footprint_accounting(self):
        """The paper reports ~250 MB/node at 10 TB + 1000 queries; at our
        scale the footprint should stay proportionally tiny."""
        c = PredicateCache()
        for page in range(100):
            for q in range(5):
                c.record_empty(page, P(Atom("x", Op.LT, q * 10)))
        assert 0 < c.nbytes < 200_000


class TestPageMinMax:
    def test_skip_out_of_range(self):
        mm = PageMinMax()
        mm = mm.extended([{"x": (10, 20), "s": ("b", "d")}])
        mm = mm.extended([{"x": (0, 100), "s": ("a", "z")}])

        def skips(*atoms):
            return mm.skippable(2, P(*atoms)).tolist()

        assert skips(Atom("x", Op.LT, 5)) == [True, False]
        assert skips(Atom("x", Op.GT, 25)) == [True, False]
        assert skips(Atom("x", Op.EQ, 99)) == [True, False]
        assert skips(Atom("x", Op.EQ, 15)) == [False, False]
        assert skips(Atom("x", Op.LT, 15)) == [False, False]
        assert skips(Atom("x", Op.LE, -1)) == [True, True]
        assert skips(Atom("x", Op.GE, 101)) == [True, True]
        # strings compare as Python strings; atoms of a conjunction add up
        assert skips(Atom("s", Op.EQ, "e")) == [True, False]
        assert skips(Atom("s", Op.GE, "c"), Atom("x", Op.GT, 50)) == [True, False]

    def test_unknown_page_or_column(self):
        mm = PageMinMax()
        assert not mm.skippable(7, P(Atom("x", Op.LT, 5))).any()
        mm = mm.extended([{"y": (0, 1)}])
        assert not mm.skippable(1, P(Atom("x", Op.LT, 5))).any()
        # an incomparable constant proves nothing
        assert not mm.skippable(1, P(Atom("y", Op.LT, "a"))).any()
        # sets beyond the recorded ones are never skipped
        assert mm.skippable(3, P(Atom("y", Op.GT, 5))).tolist() == [True, False, False]

    def test_generalization_claim(self):
        """Cases min-max cannot skip but the predicate cache can: an
        in-range predicate that previously matched nothing (the paper's
        generalization argument)."""
        mm = PageMinMax()
        mm = mm.extended([{"x": (0, 100)}])
        p = P(Atom("x", Op.EQ, 50))  # in range: min-max cannot skip
        assert not mm.skippable(1, p)[0]
        pc = PredicateCache()
        pc.record_empty(0, p)  # ...but a previous scan proved it empty
        assert pc.can_skip(0, p)
        assert pc.skippable(np.ones(2, dtype=bool), p) == [0]
        assert pc.skippable(np.array([False, True]), p) == []


class TestEndToEndSkipping:
    def test_second_scan_skips_sets(self, memfs, bufmgr):
        """A repeated selective scan must read fewer page sets."""
        from repro.common import DataType, RowBatch, Schema
        from repro.storage.table import ScanStats, TableStorage

        schema = Schema.of(("k", DataType.INT64))
        t = TableStorage(memfs, bufmgr, "t", schema, page_size=8192, clustering=["k"])
        t.load(RowBatch.from_pairs(("k", DataType.INT64, list(range(20000)))))
        pred = lambda b: b.col("k") > 19_999_999  # matches nothing
        sp = ScanPredicate([Atom("k", Op.GT, 19_999_999)])
        s1, s2 = ScanStats(), ScanStats()
        list(t.scan(["k"], pred, sp, stats=s1))
        list(t.scan(["k"], pred, sp, stats=s2))
        assert s2.sets_read < s1.sets_total
        assert s2.sets_skipped_cache + s2.sets_skipped_minmax > 0

    def test_skipping_never_changes_results(self, memfs, bufmgr):
        from repro.common import DataType, RowBatch, Schema
        from repro.storage.table import TableStorage

        rng = np.random.default_rng(5)
        schema = Schema.of(("k", DataType.INT64))
        t = TableStorage(memfs, bufmgr, "t", schema, page_size=8192, clustering=["k"])
        t.load(RowBatch.from_pairs(("k", DataType.INT64, rng.integers(0, 1000, 5000))))
        for lo, hi in [(100, 200), (150, 160), (100, 200), (990, 2000)]:
            pred = lambda b, lo=lo, hi=hi: (b.col("k") >= lo) & (b.col("k") < hi)
            sp = ScanPredicate([Atom("k", Op.GE, lo), Atom("k", Op.LT, hi)])
            with_skip = sum(b.length for b in t.scan(["k"], pred, sp, skipping=True))
            without = sum(b.length for b in t.scan(["k"], pred, sp, skipping=False))
            assert with_skip == without

    def test_8020_workload_keeps_cache_small(self, memfs, bufmgr):
        """Paper §III: an 80-20 workload hits the predicate cache while
        its footprint stays small (~250 MB/node at 10 TB + 1000 queries;
        this table is ~7 orders of magnitude smaller, so well under
        1 MB). The table is unclustered, so min-max ranges span the
        domain: exactly where the cache generalizes min-max."""
        from repro.common import DataType, RowBatch, Schema
        from repro.storage.table import TableStorage
        from repro.workloads.skew import SkewedWorkload

        n = 60_000
        rng = np.random.default_rng(0)
        schema = Schema.of(("ts", DataType.FLOAT64), ("v", DataType.INT64))
        t = TableStorage(memfs, bufmgr, "t", schema, page_size=16 * 1024)
        t.load(RowBatch(schema, {
            "ts": rng.random(n) * 1000.0, "v": rng.integers(0, 1000, n),
        }))
        wl = SkewedWorkload("ts", (0.0, 1000.0), range_fraction=0.00002, seed=3)
        for q in wl.queries(200):
            pred = lambda b, lo=q.lo, hi=q.hi: (b.col("ts") >= lo) & (b.col("ts") < hi)
            sp = ScanPredicate([Atom("ts", Op.GE, q.lo), Atom("ts", Op.LT, q.hi)])
            for _ in t.scan(["ts", "v"], pred, sp):
                pass
        assert sum(f.pred_cache.nbytes for f in t.fragments) < 1_000_000
        assert sum(f.pred_cache.hits for f in t.fragments) > 0


class TestCachePersistence:
    def test_predicate_cache_survives_restart(self, memfs):
        """Paper §III: caches are persisted and loaded on database restart."""
        from repro.common import DataType, RowBatch, Schema
        from repro.storage.buffer import BufferManager
        from repro.storage.table import ScanStats, TableStorage

        schema = Schema.of(("k", DataType.INT64))
        bm = BufferManager(4, 64)
        t = TableStorage(memfs, bm, "t", schema, page_size=8192)
        # even values only: an odd-valued equality is inside every page's
        # min-max range (so min-max cannot skip) yet matches nothing —
        # exactly what the predicate cache learns
        t.load(RowBatch.from_pairs(("k", DataType.INT64, [2 * i for i in range(5000)])))
        pred = lambda b: b.col("k") == 3001
        sp = ScanPredicate([Atom("k", Op.EQ, 3001)])
        list(t.scan(["k"], pred, sp))  # records empty sets
        t.persist_caches()

        # "restart": a fresh buffer manager + storage over the same files
        bm2 = BufferManager(4, 64)
        t2 = TableStorage(memfs, bm2, "t", schema, page_size=8192)
        st = ScanStats()
        list(t2.scan(["k"], pred, sp, stats=st))
        assert st.sets_skipped_cache > 0


class TestDatabaseCachePersistence:
    """``Database.close`` persists what read-only scans learned, and a
    reorganize never leaves a persisted entry behind for its new sets."""

    SQL = "select count(*) from t where k = {}"

    @staticmethod
    def _db():
        from repro import ClusterConfig, Database
        from repro.common import DataType, RowBatch

        db = Database(ClusterConfig(n_workers=2, n_max=4, page_size=8192))
        db.sql("create table t (k integer, v integer) partition by hash (k)")
        # even keys only: an odd-key equality lies inside the min/max of
        # every set yet matches nothing, which only the cache can learn
        db.load("t", RowBatch.from_pairs(
            ("k", DataType.INT64, [2 * i for i in range(6000)]),
            ("v", DataType.INT64, list(range(6000))),
        ))
        return db

    @staticmethod
    def _reopened(db):
        """Each worker's table opened again over the same MemFS, through
        a fresh buffer pool (what a restart of the worker reads)."""
        from repro.cluster.database import Worker

        entry = db.catalog.entry("t")
        return {w: Worker(w, db.config, wk.fs).create_table(entry) for w, wk in db.workers.items()}

    @staticmethod
    def _entries(storage):
        return [{pid: set(preds) for pid, preds in f.pred_cache._cache.items()} for f in storage.fragments]

    def test_read_only_entries_survive_close_and_reopen(self):
        db = self._db()
        for k in (1001, 3001, 7001):
            assert db.sql(self.SQL.format(k)).rows() == [(0,)]
        learned = {w: self._entries(wk.storage["t"]) for w, wk in db.workers.items()}
        assert sum(len(e) for es in learned.values() for e in es) > 0
        # nothing persisted them yet: a restart now would lose them
        assert all(not any(self._entries(ts)) for ts in self._reopened(db).values())
        db.close()
        again = self._reopened(db)
        assert {w: self._entries(ts) for w, ts in again.items()} == learned
        from repro.storage.table import ScanStats

        stats = ScanStats()
        for ts in again.values():
            sp = ScanPredicate([Atom("k", Op.EQ, 3001)])
            assert not list(ts.scan(["k"], lambda b: b.col("k") == 3001, sp, stats=stats, neardata=True))
        assert stats.sets_skipped_cache > 0

    def test_reorganize_leaves_no_stale_entry(self):
        db = self._db()
        for k in (1001, 3001):
            assert db.sql(self.SQL.format(k)).rows() == [(0,)]
        db.close()  # the entries are on disk
        # a matching row arrives in a new set, and a reorganize sorts it
        # into sets whose old ids carry "k = 1001 matches nothing"
        db.sql("insert into t values (1001, 1), (3001, 2)")
        db.reorganize("t")
        # no close: as after a crash, only what reorganize itself wrote
        for w, ts in self._reopened(db).items():
            assert not any(self._entries(ts)), w
        for wk in db.workers.values():
            wk.bufmgr.flush()
        for k in (1001, 3001):
            got = [
                b.length
                for ts in self._reopened(db).values()
                for b in ts.scan(["k"], lambda b, k=k: b.col("k") == k,
                                 ScanPredicate([Atom("k", Op.EQ, k)]), neardata=True)
            ]
            assert sum(got) == 1, k
