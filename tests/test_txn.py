"""Concurrency control & recovery: locks, WAL, ARIES, 2PC, DML."""

from graphlib import TopologicalSorter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, Database
from repro.common.errors import DeadlockError, LockTimeoutError, RecoveryError, TxnError
from repro.network.simnet import SimNetwork
from repro.txn.aries import recover
from repro.txn.locks import LockManager, LockMode
from repro.txn.twopc import TwoPCStats, XAManager
from repro.txn.wal import ABORT, BEGIN, COMMIT, COMPENSATION, LogManager, PREPARE, UPDATE
from repro.util.fs import MemFS


class TestLockManager:
    def test_shared_compatible(self):
        lm = LockManager()
        assert lm.acquire(1, "p1", LockMode.S)
        assert lm.acquire(2, "p1", LockMode.S)

    def test_exclusive_blocks(self):
        lm = LockManager()
        assert lm.acquire(1, "p1", LockMode.X)
        assert not lm.acquire(2, "p1", LockMode.S)
        assert not lm.acquire(3, "p1", LockMode.X)

    def test_reentrant(self):
        lm = LockManager()
        assert lm.acquire(1, "p1", LockMode.X)
        assert lm.acquire(1, "p1", LockMode.S)
        assert lm.acquire(1, "p1", LockMode.X)

    def test_upgrade_sole_holder(self):
        lm = LockManager()
        assert lm.acquire(1, "p1", LockMode.S)
        assert lm.acquire(1, "p1", LockMode.X)

    def test_upgrade_contended_blocks(self):
        lm = LockManager()
        lm.acquire(1, "p1", LockMode.S)
        lm.acquire(2, "p1", LockMode.S)
        assert not lm.acquire(1, "p1", LockMode.X)

    def test_release_grants_waiters(self):
        lm = LockManager()
        lm.acquire(1, "p1", LockMode.X)
        assert not lm.acquire(2, "p1", LockMode.S)
        granted = lm.release_all(1)
        assert 2 in granted
        assert lm.holds(2, "p1") == LockMode.S

    def test_fifo_fairness(self):
        lm = LockManager()
        lm.acquire(1, "p1", LockMode.S)
        assert not lm.acquire(2, "p1", LockMode.X)  # waits
        assert not lm.acquire(3, "p1", LockMode.S)  # behind the X waiter
        granted = lm.release_all(1)
        assert granted[0] == 2

    def test_deadlock_detected_on_acquire(self):
        lm = LockManager()
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(2, "b", LockMode.X)
        assert not lm.acquire(1, "b", LockMode.X)  # 1 waits on 2
        with pytest.raises(DeadlockError):
            lm.acquire(2, "a", LockMode.X)  # closes the cycle

    def test_timeout(self):
        lm = LockManager(timeout=5.0)
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(2, "a", LockMode.X)
        with pytest.raises(LockTimeoutError):
            lm.advance_time(2, 6.0)

    def test_ss2pl_releases_everything(self):
        lm = LockManager()
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(1, "b", LockMode.S)
        lm.release_all(1)
        assert lm.holds(1, "a") is None and lm.holds(1, "b") is None


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(
    st.tuples(
        st.sampled_from(["acquire"] * 4 + ["release_all", "cancel_wait"]),
        st.integers(1, 4),
        st.sampled_from("abc"),
        st.sampled_from([LockMode.S, LockMode.X]),
    ),
    max_size=40,
))
@example(steps=[
    ("acquire", 1, "a", LockMode.X), ("acquire", 2, "b", LockMode.S),
    ("acquire", 3, "c", LockMode.X), ("acquire", 1, "b", LockMode.X),
    ("acquire", 2, "c", LockMode.S), ("acquire", 3, "a", LockMode.S),
])
def test_wait_for_graph_never_holds_a_cycle(steps):
    """``acquire`` refuses every wait that would close a local cycle, so
    the wait-for graph stays acyclic and no periodic detector is needed."""
    lm = LockManager()
    for op, txn, resource, mode in steps:
        if op == "acquire":
            try:
                lm.acquire(txn, resource, mode)
            except DeadlockError:
                pass
        elif op == "release_all":
            lm.release_all(txn)
        else:
            lm.cancel_wait(txn)
        TopologicalSorter(lm._wait_for_edges()).prepare()  # raises CycleError on a cycle


class TestWAL:
    def test_append_scan_roundtrip(self, memfs):
        log = LogManager(memfs)
        log.append(txn=1, kind=BEGIN)
        log.append(txn=1, kind=UPDATE, page=("t", "f", 0), before=b"a", after=b"b")
        log.append(txn=1, kind=COMMIT)
        log.force()
        recs = log.records()
        assert [r.kind for r in recs] == [BEGIN, UPDATE, COMMIT]
        assert recs[0].lsn < recs[1].lsn < recs[2].lsn

    def test_lsn_continues_after_reopen(self, memfs):
        log = LogManager(memfs)
        log.append(txn=1, kind=BEGIN)
        log.force()
        log2 = LogManager(memfs)
        lsn = log2.append(txn=2, kind=BEGIN)
        assert lsn == 2


class _Pages:
    """Fake page store for recovery tests."""

    def __init__(self):
        self.pages: dict[tuple, bytes] = {}

    def write(self, key, image):
        self.pages[key] = image


class TestAriesRecovery:
    def test_committed_redone(self, memfs):
        log = LogManager(memfs)
        log.append(txn=1, kind=BEGIN)
        log.append(txn=1, kind=UPDATE, page=("t", 0), before=b"old", after=b"new")
        log.append(txn=1, kind=COMMIT)
        pages = _Pages()
        rep = recover(log, pages.write)
        assert 1 in rep.committed
        assert pages.pages[("t", 0)] == b"new"
        assert rep.redo_count == 1 and rep.undo_count == 0

    def test_loser_undone_with_clr(self, memfs):
        log = LogManager(memfs)
        log.append(txn=2, kind=BEGIN)
        log.append(txn=2, kind=UPDATE, page=("t", 1), before=b"old", after=b"new")
        pages = _Pages()
        rep = recover(log, pages.write)
        assert 2 in rep.losers
        assert pages.pages[("t", 1)] == b"old"
        kinds = [r.kind for r in log.records()]
        assert COMPENSATION in kinds and kinds[-1] == ABORT

    def test_recovery_idempotent(self, memfs):
        """Crash during recovery: CLRs prevent double-undo."""
        log = LogManager(memfs)
        log.append(txn=2, kind=BEGIN)
        log.append(txn=2, kind=UPDATE, page=("t", 1), before=b"old", after=b"new")
        pages = _Pages()
        recover(log, pages.write)
        rep2 = recover(log, pages.write)
        assert rep2.undo_count == 0
        assert pages.pages[("t", 1)] == b"old"

    def test_in_doubt_asks_coordinator_commit(self, memfs):
        log = LogManager(memfs)
        log.append(txn=3, kind=BEGIN)
        log.append(txn=3, kind=UPDATE, page=("t", 2), before=b"o", after=b"n")
        log.append(txn=3, kind=PREPARE, coordinator=10_000)
        pages = _Pages()
        rep = recover(log, pages.write, resolve_outcome=lambda c, t: "commit")
        assert rep.in_doubt_resolved == {3: "commit"}
        assert pages.pages[("t", 2)] == b"n"

    def test_in_doubt_asks_coordinator_rollback(self, memfs):
        log = LogManager(memfs)
        log.append(txn=3, kind=BEGIN)
        log.append(txn=3, kind=UPDATE, page=("t", 2), before=b"o", after=b"n")
        log.append(txn=3, kind=PREPARE, coordinator=10_000)
        pages = _Pages()
        recover(log, pages.write, resolve_outcome=lambda c, t: "rollback")
        assert pages.pages[("t", 2)] == b"o"

    def test_in_doubt_without_resolver_fails(self, memfs):
        log = LogManager(memfs)
        log.append(txn=3, kind=PREPARE, coordinator=10_000)
        with pytest.raises(RecoveryError):
            recover(log, _Pages().write)

    def test_interleaved_transactions(self, memfs):
        log = LogManager(memfs)
        log.append(txn=1, kind=BEGIN)
        log.append(txn=2, kind=BEGIN)
        log.append(txn=1, kind=UPDATE, page=("t", 0), before=b"a0", after=b"a1")
        log.append(txn=2, kind=UPDATE, page=("t", 1), before=b"b0", after=b"b1")
        log.append(txn=1, kind=COMMIT)
        pages = _Pages()
        recover(log, pages.write)
        assert pages.pages[("t", 0)] == b"a1"  # committed survives
        assert pages.pages[("t", 1)] == b"b0"  # loser rolled back


class _FakeParticipant:
    def __init__(self, node_id, vote=True):
        self.node_id = node_id
        self.vote = vote
        self.events = []

    def prepare(self, txn, coordinator):
        self.events.append("prepare")
        return self.vote

    def commit(self, txn):
        self.events.append("commit")

    def rollback(self, txn):
        self.events.append("rollback")


class TestTwoPC:
    def _xa(self, n_nodes=8, n_max=4):
        net = SimNetwork([999] + list(range(n_nodes)))
        xa = XAManager(999, net, n_max, LogManager(MemFS()))
        return xa, net

    def test_all_yes_commits(self):
        xa, _ = self._xa()
        parts = {i: _FakeParticipant(i) for i in range(4)}
        assert xa.commit(1, parts)
        for p in parts.values():
            assert p.events == ["prepare", "commit"]

    def test_one_no_rolls_back_all(self):
        xa, _ = self._xa()
        parts = {i: _FakeParticipant(i, vote=(i != 2)) for i in range(4)}
        assert not xa.commit(1, parts)
        for p in parts.values():
            assert p.events[-1] == "rollback"

    def test_empty_participants(self):
        xa, _ = self._xa()
        assert xa.commit(1, {})

    def test_presumed_abort(self):
        xa, _ = self._xa()
        assert xa.outcome(12345) == "rollback"

    def test_outcome_from_log(self):
        xa, _ = self._xa()
        xa.commit(7, {0: _FakeParticipant(0)})
        xa.decisions.clear()  # simulate coordinator restart
        assert xa.outcome(7) == "commit"

    def test_hierarchical_bounds_coordinator_messages(self):
        """The tree fan-out bounds the coordinator's direct message count
        regardless of participant count (paper §VI)."""

        def coordinator_messages(n: int, n_max: int) -> int:
            xa, _ = self._xa(n_nodes=n, n_max=n_max)
            stats = TwoPCStats()
            assert xa.commit(1, {i: _FakeParticipant(i) for i in range(n)}, stats)
            return stats.coordinator_messages

        # fan-out 3: the coordinator exchanges messages with <= 3 children
        assert coordinator_messages(30, 4) <= 3 * 3  # prepare+vote+decision
        assert coordinator_messages(96, 4) <= 3 * 3
        # fan-out = cluster size degenerates to flat 2PC: the coordinator
        # talks to every participant
        assert coordinator_messages(96, 97) >= 2 * 96


class TestXAOutcomeRecovery:
    """The termination protocol's source of truth: ``XAManager.outcome``
    must answer correctly from memory, from the forced XA log after a
    coordinator restart, and by presumed abort when no record exists."""

    def _xa(self):
        net = SimNetwork([999, 0, 1])
        return XAManager(999, net, 4, LogManager(MemFS())), net

    def test_presumed_abort_even_with_other_decisions(self):
        xa, _ = self._xa()
        xa.commit(1, {0: _FakeParticipant(0)})
        xa.rollback(2, {0: _FakeParticipant(0)})
        # txn 3 never reached a decision: silence means rollback
        assert xa.outcome(3) == "rollback"

    def test_outcome_survives_coordinator_restart(self):
        xa, net = self._xa()
        xa.commit(5, {0: _FakeParticipant(0)})
        assert not xa.commit(6, {0: _FakeParticipant(0, vote=False)})
        # a brand-new manager over the same forced log (true restart:
        # no in-memory decision table survives)
        xa2 = XAManager(999, net, 4, xa.xa_log)
        assert xa2.decisions == {}
        assert xa2.outcome(5) == "commit"
        assert xa2.outcome(6) == "rollback"

    def test_recover_rebuilds_decision_table(self):
        xa, net = self._xa()
        xa.commit(10, {0: _FakeParticipant(0)})
        assert not xa.commit(11, {0: _FakeParticipant(0, vote=False)})
        xa.rollback(12, {0: _FakeParticipant(0)})
        xa2 = XAManager(999, net, 4, xa.xa_log)
        assert xa2.recover() == {10: "commit", 11: "rollback", 12: "rollback"}
        # after analysis, outcome answers from the rebuilt table
        assert xa2.outcome(10) == "commit"


def _dml_db(n_workers=3):
    cfg = ClusterConfig(n_workers=n_workers, n_max=4, page_size=16 * 1024)
    db = Database(cfg)
    db.sql("create table t (k integer, v varchar) partition by hash (k)")
    return db


def _undo(db, txn, path: str) -> None:
    """Roll ``txn`` back in memory, or as crash recovery does: from the
    WAL alone, on every worker (a loser: no PREPARE, presumed abort)."""
    if path == "memory":
        db.txn_system.rollback(txn)
    else:
        resolved = db.txn_system.resolve_in_doubt()
        assert set(resolved.values()) == {"rollback"}


class TestPositionalUndo:
    """Undo removes exactly the rows its transaction wrote: a committed
    row equal to an undone one survives, in memory and from the WAL."""

    @pytest.mark.parametrize("path", ["memory", "wal"])
    def test_insert_rollback_keeps_an_equal_committed_row(self, path):
        from repro.sql import parse

        db = _dml_db()
        db.sql("insert into t values (1, 'a'), (2, 'b')")
        txn = db.txn_system.begin()
        db.insert_values(parse("insert into t values (1, 'a')"), txn=txn)
        _undo(db, txn, path)
        assert sorted(db.sql("select k, v from t").rows()) == [(1, "a"), (2, "b")]

    @pytest.mark.parametrize("path", ["memory", "wal"])
    def test_update_rollback_keeps_an_equal_committed_row(self, path):
        from repro.sql import parse

        db = _dml_db()
        db.sql("insert into t values (1, 'a'), (1, 'z'), (2, 'b')")
        txn = db.txn_system.begin()
        # the new version (1, 'z') equals a committed row
        db.update_where(parse("update t set v = 'z' where v = 'a'"), txn=txn)
        _undo(db, txn, path)
        assert sorted(db.sql("select k, v from t").rows()) == [(1, "a"), (1, "z"), (2, "b")]

    @pytest.mark.parametrize("path", ["memory", "wal"])
    def test_rollback_of_a_transaction_that_rewrites_its_own_rows(self, path):
        from repro.sql import parse

        db = _dml_db()
        db.sql("insert into t values (1, 'a'), (5, 'p')")
        txn = db.txn_system.begin()
        db.insert_values(parse("insert into t values (5, 'p'), (7, 'q')"), txn=txn)
        db.update_where(parse("update t set v = 'r' where k = 5"), txn=txn)
        db.update_where(parse("update t set v = 's' where k = 5"), txn=txn)
        db.delete_where(parse("delete from t where k = 7 or k = 1"), txn=txn)
        assert sorted(db.sql("select k, v from t").rows()) == [(5, "s"), (5, "s")]
        _undo(db, txn, path)
        assert sorted(db.sql("select k, v from t").rows()) == [(1, "a"), (5, "p")]
        assert db.table_rows("t") == 2


class TestTransactionalDML:
    def test_autocommit_insert_select(self):
        db = _dml_db()
        r = db.sql("insert into t values (1, 'a'), (2, 'b'), (3, 'c')")
        assert r.rowcount == 3
        assert db.sql("select count(*) from t").rows() == [(3,)]

    def test_delete(self):
        db = _dml_db()
        db.sql("insert into t values (1, 'a'), (2, 'b'), (3, 'c')")
        r = db.sql("delete from t where k < 3")
        assert r.rowcount == 2
        assert db.sql("select k from t").rows() == [(3,)]

    def test_update(self):
        db = _dml_db()
        db.sql("insert into t values (1, 'a'), (2, 'b')")
        r = db.sql("update t set v = 'z' where k = 2")
        assert r.rowcount == 1
        assert sorted(db.sql("select v from t").rows()) == [("a",), ("z",)]

    def test_explicit_rollback_undoes(self):
        db = _dml_db()
        db.sql("insert into t values (1, 'a')")
        txn = db.txn_system.begin()
        db.insert_values(__import__("repro.sql", fromlist=["parse"]).parse(
            "insert into t values (9, 'x')"), txn=txn)
        assert db.sql("select count(*) from t").rows() == [(2,)]
        db.txn_system.rollback(txn)
        assert db.sql("select count(*) from t").rows() == [(1,)]

    def test_rollback_restores_update(self):
        from repro.sql import parse

        db = _dml_db()
        db.sql("insert into t values (1, 'a'), (2, 'b')")
        txn = db.txn_system.begin()
        db.update_where(parse("update t set v = 'mut' where k = 1"), txn=txn)
        db.txn_system.rollback(txn)
        assert sorted(db.sql("select v from t").rows()) == [("a",), ("b",)]

    def test_commit_releases_locks(self):
        from repro.sql import parse

        db = _dml_db()
        txn = db.txn_system.begin()
        db.insert_values(parse("insert into t values (1, 'a')"), txn=txn)
        assert db.txn_system.commit(txn)
        # a new transaction can now lock the same table
        r = db.sql("insert into t values (2, 'b')")
        assert r.rowcount == 1

    def test_conflicting_txn_times_out(self):
        from repro.sql import parse

        db = _dml_db(n_workers=1)
        t1 = db.txn_system.begin()
        db.insert_values(parse("insert into t values (1, 'a')"), txn=t1)
        t2 = db.txn_system.begin()
        with pytest.raises((LockTimeoutError, TxnError)):
            db.insert_values(parse("insert into t values (2, 'b')"), txn=t2)
        db.txn_system.rollback(t1)

    def test_wal_records_written(self):
        db = _dml_db()
        db.sql("insert into t values (1, 'a'), (2, 'b')")
        kinds = []
        for node in db.txn_system.nodes.values():
            kinds.extend(r.kind for r in node.log.records())
        assert UPDATE in kinds and PREPARE in kinds and COMMIT in kinds

    def test_aborted_txn_unusable(self):
        db = _dml_db()
        txn = db.txn_system.begin()
        db.txn_system.rollback(txn)
        from repro.common.errors import TxnAbortedError

        with pytest.raises(TxnAbortedError):
            db.txn_system.commit(txn)


class TestMetadataSync:
    def test_replicated_catalog(self):
        db = _dml_db()
        db.sql("create table m (x integer)")
        for coord in db.coordinators:
            assert coord.catalog.has_table("m")

    def test_failing_ddl_changes_no_replica(self):
        """DDL applies to each coordinator replica in turn; a mutation that
        fails validates before it writes, so it fails on the first replica
        and leaves every replica as it was."""
        from repro.common.errors import CatalogError

        db = Database(ClusterConfig(n_workers=2, n_coordinators=3, n_max=4, page_size=16 * 1024))
        db.sql("create table m (x integer)")
        before = [(c.catalog.version, set(c.catalog.tables)) for c in db.coordinators]
        with pytest.raises(CatalogError):
            db.sql("create table m (y integer)")
        with pytest.raises(CatalogError):
            db.sql("drop table nope")
        assert [(c.catalog.version, set(c.catalog.tables)) for c in db.coordinators] == before

    def test_multi_coordinator_sync(self):
        cfg = ClusterConfig(n_workers=2, n_coordinators=3, n_max=4, page_size=16 * 1024)
        db = Database(cfg)
        db.sql("create table t (k integer)")
        assert all(c.catalog.has_table("t") for c in db.coordinators)


class TestSerializableReads:
    """SELECT inside a transaction takes SS2PL shared locks (paper §VI)."""

    def test_read_blocks_writer(self):
        from repro.common.errors import LockTimeoutError

        db = _dml_db()
        db.sql("insert into t values (1, 'a')")
        reader = db.txn_system.begin()
        assert db.sql("select count(*) from t", txn=reader).rows() == [(1,)]
        writer = db.txn_system.begin()
        with pytest.raises((LockTimeoutError, TxnError)):
            db.sql("update t set v = 'x' where k = 1", txn=writer)
        # a failed DML statement aborts its transaction automatically
        assert writer.state == "aborted"
        db.txn_system.commit(reader)
        # after the reader commits, writes proceed
        assert db.sql("update t set v = 'x' where k = 1").rowcount == 1

    def test_concurrent_readers_allowed(self):
        db = _dml_db()
        db.sql("insert into t values (1, 'a')")
        r1 = db.txn_system.begin()
        r2 = db.txn_system.begin()
        assert db.sql("select count(*) from t", txn=r1).rows() == [(1,)]
        assert db.sql("select count(*) from t", txn=r2).rows() == [(1,)]
        db.txn_system.commit(r1)
        db.txn_system.commit(r2)

    def test_writer_blocks_reader(self):
        from repro.common.errors import LockTimeoutError
        from repro.sql import parse

        db = _dml_db()
        db.sql("insert into t values (1, 'a')")
        writer = db.txn_system.begin()
        db.update_where(parse("update t set v = 'z' where k = 1"), txn=writer)
        reader = db.txn_system.begin()
        with pytest.raises((LockTimeoutError, TxnError)):
            db.sql("select count(*) from t", txn=reader)
        db.txn_system.rollback(writer)
        db.txn_system.rollback(reader)

    def test_autocommit_reads_take_no_locks(self):
        db = _dml_db()
        db.sql("insert into t values (1, 'a')")
        writer = db.txn_system.begin()
        from repro.sql import parse

        db.update_where(parse("update t set v = 'z' where k = 1"), txn=writer)
        # non-transactional reads never block (OLAP default)
        assert db.sql("select count(*) from t").rows() == [(1,)]
        db.txn_system.rollback(writer)

    def test_read_locks_released_on_commit(self):
        db = _dml_db()
        db.sql("insert into t values (1, 'a')")
        reader = db.txn_system.begin()
        db.sql("select count(*) from t", txn=reader)
        held_before = any(
            n.locks.held_resources(reader.txn_id) for n in db.txn_system.nodes.values()
        )
        assert held_before
        db.txn_system.commit(reader)
        held_after = any(
            n.locks.held_resources(reader.txn_id) for n in db.txn_system.nodes.values()
        )
        assert not held_after
