"""Transaction system: ties locks, WAL, and 2PC to the cluster.

Every worker runs a lock manager, transaction manager, and log manager;
every coordinator additionally runs an XA manager (paper §VI). DML
statements execute under SS2PL with logical undo logging; commit runs
hierarchical 2PC across the involved workers. DDL (metadata changes)
is not transactional here: the coordinator replicas are in-process
copies that ``Database._replicate_metadata`` updates in turn.

Undo goes by position. Every DML record names where its change
happened: a delete the (fragment, row positions) it tombstoned, an
insert the :class:`~repro.storage.table.Span` (fragment, first new row,
rows) its append created, an update both. Appends only add rows after
the last, the transaction's X lock keeps other writers off the table on
that worker, and the merge of appended sets runs only once a
transaction has committed (under its X lock, so only committed sets
merge) and keeps every row's position; so undo tombstones exactly the
spans and revives exactly the positions — never a committed row that
merely equals an undone one. The same
record drives the in-memory undo (rollback) and the WAL undo (crash
recovery); its before/after images keep the rows themselves. Storage
flushes at commit (force policy at the system level; the page-image
no-force ARIES path lives in :mod:`repro.txn.aries` and is exercised at
the storage layer).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..common.batch import RowBatch
from ..common.errors import LockTimeoutError, ReproError, TxnAbortedError, TxnError
from ..sql.ast import column_refs
from ..sql.compiler import compile_predicate, to_scan_predicate
from .locks import LockManager, LockMode
from .twopc import TwoPCStats, XAManager
from .wal import ABORT, COMMIT, LogManager, PREPARE, UPDATE

_txn_ids = itertools.count(1)


@dataclass
class Txn:
    txn_id: int
    coordinator: int
    involved: set[int] = field(default_factory=set)
    state: str = "active"  # active | committed | aborted
    #: undo stack: (worker, table, the DML record's ``info``)
    undo: list[tuple[int, str, dict]] = field(default_factory=list)

    def check_active(self) -> None:
        if self.state != "active":
            raise TxnAbortedError(f"txn {self.txn_id} is {self.state}")


class WorkerTxnNode:
    """Per-worker lock manager + transaction manager + log manager."""

    def __init__(self, worker, timeout: float = 10.0):
        self.worker = worker
        self.node_id = worker.worker_id
        self.locks = LockManager(worker.worker_id, timeout)
        self.log = LogManager(worker.fs, "wal/log.wal")
        self._system: "TransactionSystem | None" = None

    # 2PC participant interface ----------------------------------------------------
    def prepare(self, txn: int, coordinator: int) -> bool:
        self.log.append(txn=txn, kind=PREPARE, coordinator=coordinator)
        self.log.force()
        return True

    def commit(self, txn: int) -> None:
        self.log.append(txn=txn, kind=COMMIT)
        self.log.force()
        # request the buffer manager to write back and release locks (paper's
        # commit-time actions: write back pages, release locks, persist WAL)
        self.worker.bufmgr.flush()
        try:
            if self._system is not None:
                self._system.merge_appended(self.node_id, txn)
        finally:
            self.locks.release_all(txn)

    def rollback(self, txn: int) -> None:
        if self._system is not None:
            self._system.undo_on_worker(self.node_id, txn)
        self.log.append(txn=txn, kind=ABORT)
        self.log.force()
        self.locks.release_all(txn)


class TransactionSystem:
    def __init__(self, db):
        self.db = db
        self.nodes: dict[int, WorkerTxnNode] = {}
        for w, worker in db.workers.items():
            node = WorkerTxnNode(worker, db.config.lock_timeout)
            node._system = self
            self.nodes[w] = node
        self.xa: dict[int, XAManager] = {}
        for i, coord in enumerate(db.coordinators):
            fs = db.workers[db.worker_ids[0]].fs  # coordinator logs share sim FS space
            log = LogManager(fs, f"wal/xa_coord{coord.coord_id}.wal")
            self.xa[coord.coord_id] = XAManager(coord.coord_id, db.net, db.config.n_max, log)
        self._active: dict[int, Txn] = {}

    def register_worker(self, worker) -> None:
        """Elastic scale-out: give a joining worker its lock/txn/log node.

        Mutates ``nodes`` in place so metric collectors holding the dict
        pick the new worker up. Drained workers keep their node (their
        WAL history stays queryable); DML never touches them again
        because every DML path iterates the live ``db.worker_ids``."""
        if worker.worker_id in self.nodes:
            return
        node = WorkerTxnNode(worker, self.db.config.lock_timeout)
        node._system = self
        self.nodes[worker.worker_id] = node

    # -- lifecycle ---------------------------------------------------------------------
    def begin(self, coordinator: int = 0) -> Txn:
        txn = Txn(next(_txn_ids), self.db.coord_ids[coordinator])
        self._active[txn.txn_id] = txn
        return txn

    def commit(self, txn: Txn, stats: TwoPCStats | None = None) -> bool:
        txn.check_active()
        participants = {w: self.nodes[w] for w in txn.involved}
        ok = self.xa[txn.coordinator].commit(txn.txn_id, participants, stats)
        txn.state = "committed" if ok else "aborted"
        self._active.pop(txn.txn_id, None)
        return ok

    def rollback(self, txn: Txn) -> None:
        txn.check_active()
        participants = {w: self.nodes[w] for w in txn.involved}
        self.xa[txn.coordinator].rollback(txn.txn_id, participants)
        txn.state = "aborted"
        self._active.pop(txn.txn_id, None)

    # -- DML ----------------------------------------------------------------------------
    def run_dml(
        self,
        table: str,
        op: str,
        batch: RowBatch | None = None,
        predicate=None,
        assignments=None,
        txn: Txn | None = None,
    ) -> int:
        autocommit = txn is None
        txn = txn or self.begin()
        txn.check_active()
        entry = self.db.catalog.entry(table)
        try:
            if op == "insert":
                n = self._insert(txn, entry, batch)
            elif op == "delete":
                n = self._delete(txn, entry, predicate)
            elif op == "update":
                n = self._update(txn, entry, predicate, assignments)
            else:
                raise TxnError(f"unknown DML op {op!r}")
        except Exception:
            self.rollback(txn)
            raise
        if autocommit:
            if not self.commit(txn):
                raise TxnError("autocommit transaction failed to commit")
        return n

    def _lock(self, txn: Txn, worker_id: int, table: str, mode: LockMode = LockMode.X) -> None:
        node = self.nodes[worker_id]
        granted = node.locks.acquire(txn.txn_id, ("table", table), mode)
        if not granted:
            # single-threaded simulation: a conflicting holder will not go
            # away while we wait, so surface the timeout immediately —
            # withdrawing the queued request so it can't be granted later
            try:
                node.locks.advance_time(txn.txn_id, self.db.config.lock_timeout + 1)
            finally:
                node.locks.cancel_wait(txn.txn_id)
            raise LockTimeoutError(f"txn {txn.txn_id} blocked on {table} at worker {worker_id}")
        txn.involved.add(worker_id)

    def lock_read(self, txn: Txn, tables: set[str]) -> None:
        """Serializable reads: S-locks on every worker holding the tables
        (SS2PL — held until commit, like all locks)."""
        txn.check_active()
        for table in sorted(tables):
            for w in self.db.worker_ids:
                self._lock(txn, w, table, LockMode.S)

    def _insert(self, txn: Txn, entry, batch: RowBatch) -> int:
        from ..storage.partition import Replicated

        n_workers = len(self.db.worker_ids)  # live membership, not the seed size
        if isinstance(entry.scheme, Replicated):
            parts = {w: batch for w in self.db.worker_ids}
        else:
            targets = entry.scheme.assign_nodes(batch, n_workers)
            parts = {
                self.db.worker_ids[i]: batch.filter(targets == i) for i in range(n_workers)
            }
        total = 0
        for w, part in parts.items():
            if part.length == 0:
                continue
            self._lock(txn, w, entry.name)
            storage = self.db.workers[w].storage[entry.name]
            span = storage.next_span(part.length)
            info = {"op": "insert", "spans": [span]}
            self._log(txn, w, entry.name, info, after=part.to_bytes())
            storage.insert(part, span)
            total += part.length
        return total

    def _delete(self, txn: Txn, entry, predicate) -> int:
        match = self._compile_pred(entry, predicate)
        total = 0
        for w in self.db.worker_ids:
            storage = self.db.workers[w].storage[entry.name]
            found = storage.find(*match)
            if found.rows.length == 0:
                continue
            self._lock(txn, w, entry.name)
            self._log(txn, w, entry.name, {"op": "delete", "at": found.at},
                      before=found.rows.to_bytes())
            storage.tombstone(found.at)
            total += found.rows.length
        return total

    def _update(self, txn: Txn, entry, predicate, assignments) -> int:
        from ..sql.compiler import compile_expr

        match = self._compile_pred(entry, predicate)
        assign_fns = [
            (col, compile_expr(e, entry.schema)) for col, e in (assignments or [])
        ]

        def updater(old: RowBatch) -> RowBatch:
            cols = dict(old.columns)
            for col, compiled in assign_fns:
                cols[entry.schema.resolve(col)] = compiled.fn(old)
            return RowBatch(old.schema, cols)

        total = 0
        for w in self.db.worker_ids:
            storage = self.db.workers[w].storage[entry.name]
            found = storage.find(*match)
            if found.rows.length == 0:
                continue
            self._lock(txn, w, entry.name)
            new_rows = updater(found.rows)
            # each fragment's new versions are appended to that fragment
            spans = [storage.next_span(len(pos), fragment=f) for f, pos in found.at]
            info = {"op": "update", "at": found.at, "spans": spans}
            self._log(txn, w, entry.name, info,
                      before=found.rows.to_bytes(), after=new_rows.to_bytes())
            storage.tombstone(found.at)
            off = 0
            for span in spans:
                storage.insert(new_rows.slice(off, off + span.n_rows), span)
                off += span.n_rows
            total += found.rows.length
        return total

    def _log(self, txn: Txn, worker: int, table: str, info: dict, **images) -> None:
        """WAL first: the record (and the undo entry, so a change that
        fails part-way is still undone) precede the storage change."""
        self.nodes[worker].log.append(
            txn=txn.txn_id, kind=UPDATE, page=("logical", table, worker), info=info, **images
        )
        txn.undo.append((worker, table, info))

    def _compile_pred(self, entry, predicate):
        """(predicate, the columns it reads, its skipping key): what
        ``TableStorage.find`` takes."""
        if predicate is None:
            return lambda b: np.ones(b.length, dtype=bool), [], None
        schema = entry.schema
        columns = {
            schema.try_resolve(r.key) or schema.try_resolve(r.name) for r in column_refs(predicate)
        }
        return (
            compile_predicate(predicate, schema),
            sorted(c for c in columns if c is not None),
            to_scan_predicate(predicate, schema),
        )

    def merge_appended(self, worker_id: int, txn_id: int) -> None:
        """After ``txn_id`` committed on a worker, still under its X locks:
        merge the trailing sets of each fragment it appended to there.

        This runs in 2PC's phase 2, where only the decision may fail the
        commit: a merge is optional upkeep and leaves a fragment as it
        was on disk when it fails, so a failure is recorded (a
        ``merge_failed`` event) and the fragment merges at a later
        commit."""
        txn = self._active.get(txn_id)
        worker = self.db.workers.get(worker_id)
        if txn is None or worker is None:
            return
        appended = {
            (table, span.fragment)
            for w, table, info in txn.undo
            if w == worker_id
            for span in info.get("spans", ())
        }
        for table, fragment in sorted(appended):
            storage = worker.storage.get(table)
            if storage is None:
                continue
            try:
                storage.fragments[fragment].merge_appended()
            except (ReproError, OSError) as exc:
                self.db.recorder.record(
                    "merge_failed", node=worker_id, table=table, fragment=fragment, error=repr(exc)
                )

    # -- logical undo --------------------------------------------------------------------
    def undo_on_worker(self, worker_id: int, txn_id: int) -> None:
        txn = self._active.get(txn_id)
        if txn is None:
            return
        for w, table, info in reversed(txn.undo):
            if w != worker_id:
                continue
            worker = self.db.workers.get(w)  # may have drained mid-txn
            storage = worker.storage.get(table) if worker is not None else None
            if storage is not None:
                self._undo(storage, info)

    @staticmethod
    def _undo(storage, info: dict) -> None:
        """Undo one DML record: tombstone the rows its appends created,
        revive the rows it tombstoned."""
        spans = info.get("spans", ())
        if spans:
            storage.tombstone([storage.span_rows(s) for s in spans])
        storage.revive(info.get("at", ()))

    # -- crash recovery (2PC termination protocol) -----------------------------------------
    def recover_worker(self, worker_id: int) -> dict[int, str]:
        """Post-crash recovery for one worker's transaction state.

        Scans the worker's WAL: transactions whose log ends without a
        decision are either **losers** (no PREPARE record — presumed
        abort, undone from WAL before-images) or **in doubt** (PREPARE
        forced, no decision — the termination protocol asks the owning
        coordinator's :meth:`XAManager.outcome`, which answers from its
        forced XA log or presumes abort). Returns ``{txn: decision}`` for
        every transaction resolved.
        """
        node = self.nodes[worker_id]
        status: dict[int, tuple[str, int | None]] = {}
        for rec in node.log.records():
            if rec.kind == UPDATE:
                status.setdefault(rec.txn, ("active", None))
            elif rec.kind == PREPARE:
                status[rec.txn] = ("prepared", rec.coordinator)
            elif rec.kind in (COMMIT, ABORT):
                status[rec.txn] = ("decided", None)
        resolved: dict[int, str] = {}
        for txn_id, (state, coord) in status.items():
            if state == "decided":
                continue
            if state == "prepared":
                xa = self.xa.get(coord) or next(iter(self.xa.values()))
                decision = xa.outcome(txn_id)
            else:
                decision = "rollback"  # loser transaction: presumed abort
            if decision == "commit":
                node.commit(txn_id)
            else:
                self.undo_from_wal(worker_id, txn_id)
                node.log.append(txn=txn_id, kind=ABORT)
                node.log.force()
                node.locks.release_all(txn_id)
            resolved[txn_id] = decision
        return resolved

    def resolve_in_doubt(self) -> dict[tuple[int, int], str]:
        """Run the termination protocol on every worker; returns
        ``{(worker, txn): decision}`` for all transactions converged."""
        out: dict[tuple[int, int], str] = {}
        for w in sorted(self.nodes):
            for txn_id, decision in self.recover_worker(w).items():
                out[(w, txn_id)] = decision
        return out

    def undo_from_wal(self, worker_id: int, txn_id: int) -> None:
        """Undo driven purely by the WAL's records — the path a worker
        takes when its in-memory transaction state died with it (crash
        recovery), mirroring ARIES logical undo."""
        node = self.nodes[worker_id]
        recs = [
            r
            for r in node.log.records()
            if r.txn == txn_id
            and r.kind == UPDATE
            and r.page
            and r.page[0] == "logical"
        ]
        for rec in reversed(recs):
            _, table, _w = rec.page
            storage = self.db.workers[worker_id].storage.get(table)
            if storage is not None:
                self._undo(storage, rec.info)
