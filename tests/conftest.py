"""Shared fixtures: small TPC-H databases, reusable clusters."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest

from repro import ClusterConfig, Database
from repro.common import DataType, RowBatch
from repro.core.executor import DistributedExecutor
from repro.sql import parse
from repro.storage.buffer import BufferManager
from repro.storage.table import TableStorage
from repro.telemetry import Tracer
from repro.util.fs import MemFS
from repro.workloads import tpch_dbgen, tpch_schema

TPCH_SF = 0.002
TPCH_SEED = 19940401


@pytest.fixture(scope="session")
def tpch_data():
    """Tiny deterministic TPC-H instance shared across the session."""
    return tpch_dbgen.generate(sf=TPCH_SF, seed=TPCH_SEED)


def delete_where(t: TableStorage, predicate) -> int:
    """Storage-level DELETE, as the transaction system runs it: find the
    live matches, then tombstone them. Returns the rows deleted."""
    found = t.find(predicate)
    t.tombstone(found.at)
    return found.rows.length


def update_where(t: TableStorage, predicate, updater) -> int:
    """Storage-level UPDATE: tombstone the matches and append their new
    versions (``updater(old rows)``) to the fragments they came from."""
    found = t.find(predicate)
    new_rows = updater(found.rows)
    t.tombstone(found.at)
    off = 0
    for i, positions in found.at:
        t.insert(new_rows.slice(off, off + len(positions)), t.next_span(len(positions), i))
        off += len(positions)
    return found.rows.length


def load_tpch(data, **cfg_overrides) -> Database:
    """A 4-worker cluster loaded with a TPC-H instance."""
    cfg = dict(n_workers=4, n_max=4, page_size=32 * 1024, batch_size=4096)
    cfg.update(cfg_overrides)
    db = Database(ClusterConfig(**cfg))
    for name, schema in tpch_schema.SCHEMAS.items():
        db.create_table(name, schema, tpch_schema.PARTITIONING[name])
        db.load(name, data[name])
    return db


@pytest.fixture(scope="session")
def tpch_db(tpch_data):
    """A 4-worker cluster loaded with the tiny TPC-H instance."""
    return load_tpch(tpch_data)


@pytest.fixture()
def memfs():
    return MemFS()


@pytest.fixture()
def bufmgr(memfs):
    return BufferManager(4, 64)


def make_batch(**cols) -> RowBatch:
    """Quick batch builder: make_batch(a=(DataType.INT64, [1,2,3]))."""
    pairs = []
    for name, (dtype, values) in cols.items():
        pairs.append((name, dtype, values))
    return RowBatch.from_pairs(*pairs)


def simple_db(n_workers: int = 2, **cfg_kwargs) -> Database:
    cfg = ClusterConfig(n_workers=n_workers, n_max=4, page_size=16 * 1024, **cfg_kwargs)
    return Database(cfg)


def rows_approx_equal(a, b, tol=1e-6) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for va, vb in zip(ra, rb):
            if isinstance(va, float) or isinstance(vb, float):
                if abs(float(va) - float(vb)) > tol * max(1.0, abs(float(va))):
                    return False
            elif va != vb:
                return False
    return True


def rows_match_unordered(a, b, tol=1e-6) -> bool:
    return rows_approx_equal(sorted(map(str, a)), sorted(map(str, b)), tol) or (
        rows_approx_equal(a, b, tol)
    )


@contextmanager
def forced_scans(**overrides):
    """Every storage scan inside the block runs with these
    ``TableStorage.scan`` arguments, whatever the engine passed: the
    storage-level oracles (``skipping=False``, ``neardata=False``, ...)
    applied end to end."""
    scan = TableStorage.scan
    with mock.patch.object(
        TableStorage, "scan", lambda self, *a, **kw: scan(self, *a, **{**kw, **overrides})
    ):
        yield


def analyzed(db: Database, sql: str):
    """Run ``sql`` the way ``explain_analyze`` does — the SELECT lifecycle
    under a tracer — and return the QueryResult with its trace."""
    return db._select(sql, parse(sql), 0, None, tracer=db.tracer or Tracer())


@contextmanager
def quiescent(db: Database):
    """Every query run inside the block — succeeded, restarted or failed
    for good — must leave nothing behind: its in-flight batch count
    reads 0, no node's inbox holds a message under its ``q<id>|``
    exchange-tag prefix, admission holds no query, grant or waiter, and
    every worker's memory governor is back at 0 bytes used."""
    executors: list[DistributedExecutor] = []
    for_query = DistributedExecutor.for_query

    def spy(self, *args, **kwargs):
        ex = for_query(self, *args, **kwargs)
        executors.append(ex)
        return ex

    with mock.patch.object(DistributedExecutor, "for_query", spy):
        yield
    assert executors, "no query ran inside the quiescence check"
    for ex in executors:
        assert ex.inflight.current == 0, f"{ex.qtag} left batches in flight"
        stale = [
            tag
            for box in db.net._inbox.values()
            for _src, tag, *_ in box
            if tag.startswith(ex.qtag)
        ]
        assert not stale, f"{ex.qtag} left messages in inboxes: {stale[:3]}"
    adm = db.admission
    assert (adm.active, adm.granted, adm.queue_depth) == (0, 0, 0), "admission not released"
    used = {w: wk.governor.used for w, wk in db.workers.items() if wk.governor.used}
    assert not used, f"governors still hold memory: {used}"
