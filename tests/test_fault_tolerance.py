"""Fault tolerance: mid-query worker failure -> query restart (paper §I),
plus buffer-manager behaviour under concurrent access."""

import threading

import numpy as np
import pytest

from repro import ClusterConfig, Database
from repro.common import DataType, RowBatch
from repro.common.errors import WorkerFailureError
from repro.storage.buffer import BufferManager
from repro.storage.page import PagedFile
from repro.util.fs import MemFS


def build_db():
    db = Database(ClusterConfig(n_workers=3, n_max=4, page_size=16 * 1024))
    db.sql("create table t (k integer, v integer) partition by hash (k)")
    rng = np.random.default_rng(5)
    db.load(
        "t",
        RowBatch.from_pairs(
            ("k", DataType.INT64, rng.integers(0, 100, 2000)),
            ("v", DataType.INT64, rng.integers(0, 10, 2000)),
        ),
    )
    return db


class FlakyWorker:
    """Fails worker 1's first ``n_failures`` scans, then recovers."""

    def __init__(self, n_failures: int, worker: int = 1):
        self.remaining = n_failures
        self.worker = worker

    def __call__(self, worker_id: int, op) -> None:
        if worker_id == self.worker and self.remaining > 0:
            self.remaining -= 1
            raise WorkerFailureError(worker_id)


class TestQueryRestart:
    def test_restart_after_transient_failure(self):
        db = build_db()
        want = db.sql("select v, count(*) from t group by v order by v").rows()
        db._executor.fault_injector = FlakyWorker(1)
        got = db.sql("select v, count(*) from t group by v order by v")
        assert got.rows() == want
        assert got.stats.restarts == 1
        db._executor.fault_injector = None

    def test_multiple_transient_failures(self):
        db = build_db()
        want = db.sql("select sum(v) from t").rows()
        db._executor.fault_injector = FlakyWorker(2)
        got = db.sql("select sum(v) from t")
        assert got.rows() == want
        assert got.stats.restarts == 2
        db._executor.fault_injector = None

    def test_permanent_failure_surfaces(self):
        db = build_db()
        db._executor.fault_injector = FlakyWorker(10**6)
        with pytest.raises(WorkerFailureError):
            db.sql("select count(*) from t")
        db._executor.fault_injector = None

    def test_no_stale_exchange_data_after_restart(self):
        """In-flight shuffle messages from the failed attempt must not leak
        into the retry (the restart clears the inboxes)."""
        db = build_db()
        want = db.sql("select k, count(*) from t group by k order by k limit 5").rows()

        class FailLate:
            def __init__(self):
                self.calls = 0

            def __call__(self, worker_id, op):
                self.calls += 1
                if self.calls == 3:  # after some workers already scanned
                    raise WorkerFailureError(worker_id)

        db._executor.fault_injector = FailLate()
        got = db.sql("select k, count(*) from t group by k order by k limit 5")
        assert got.rows() == want
        db._executor.fault_injector = None

    def test_stats_zero_restarts_normally(self):
        db = build_db()
        assert db.sql("select count(*) from t").stats.restarts == 0


class TestBufferManagerConcurrency:
    def test_parallel_readers(self):
        """The striped buffer manager must serve concurrent readers without
        corruption (paper: parallel buffer manager hidden behind a wrapper)."""
        fs = MemFS()
        bm = BufferManager(8, 64)
        f = PagedFile(fs, "c.dat", 8192)
        bm.register_file(f)
        for i in range(128):
            f.write_page(i, f"page-{i}".encode())

        errors: list = []

        def reader(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(300):
                    p = int(rng.integers(0, 128))
                    got = bm.get("c.dat", p)
                    if got != f"page-{p}".encode():
                        errors.append((p, got))
            except Exception as e:  # pragma: no cover
                errors.append(e)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_parallel_writers_distinct_pages(self):
        fs = MemFS()
        bm = BufferManager(4, 256)
        f = PagedFile(fs, "w.dat", 8192)
        bm.register_file(f)
        f.write_page(255, b"init")

        def writer(base: int) -> None:
            for i in range(50):
                bm.put("w.dat", base * 50 + i, f"w{base}-{i}".encode())

        threads = [threading.Thread(target=writer, args=(b,)) for b in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        bm.flush()
        for b in range(4):
            for i in range(50):
                assert f.read_page(b * 50 + i) == f"w{b}-{i}".encode()


class TestScanUnderMemoryPressure:
    def test_query_completes_under_memory_pressure(self):
        """A worker whose governor is 99 % used still serves its scan."""
        from repro import ClusterConfig, Database
        from repro.common import DataType, RowBatch

        db = Database(
            ClusterConfig(n_workers=2, n_max=4, page_size=16 * 1024, disks_per_node=3)
        )
        db.sql("create table t (k integer, v integer) partition by hash (k)")
        rng = np.random.default_rng(6)
        db.load(
            "t",
            RowBatch.from_pairs(
                ("k", DataType.INT64, rng.integers(0, 100, 8000)),
                ("v", DataType.INT64, rng.integers(0, 10, 8000)),
            ),
        )
        worker = db.workers[0]
        worker.governor.acquire(int(worker.governor.budget * 0.99))
        assert db.sql("select count(*) from t").rows()[0][0] == 8000
        worker.governor.release(int(worker.governor.budget * 0.99))
