"""Write-ahead logging.

Every node runs a log manager over an append-only WAL file (paper §VI).
Worker WALs track user-data changes; coordinator WALs track metadata
changes and additionally keep the *XA log* of PREPARE/COMMIT/ROLLBACK
decisions that workers consult when their own WAL ends at an in-doubt
PREPARE record.

Records are length-prefixed pickled dicts with monotonically increasing
LSNs; ``force()`` is the durability barrier 2PC requires before
acknowledging PREPARE or COMMIT.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from typing import Iterator, Optional

from ..common.errors import RecoveryError
from ..util.fs import FileSystem

# record types
UPDATE = "update"
COMPENSATION = "clr"
BEGIN = "begin"
COMMIT = "commit"
ABORT = "abort"
PREPARE = "prepare"


@dataclass(frozen=True)
class LogRecord:
    lsn: int
    txn: int
    kind: str
    #: (table, fragment path, page_no) for UPDATE/CLR
    page: Optional[tuple] = None
    before: Optional[bytes] = None
    after: Optional[bytes] = None
    #: CLR: next record to undo
    undo_next: Optional[int] = None
    #: PREPARE: which coordinator owns the commit decision
    coordinator: Optional[int] = None
    #: extra payload (metadata ops, 2PC participant lists, ...)
    info: Optional[dict] = None


class LogManager:
    def __init__(self, fs: FileSystem, path: str = "wal/log.wal"):
        self.fs = fs
        self.path = path
        self._fh = fs.open(path)
        self._next_lsn = 1
        self._tail = self._fh.size()
        self._unforced = 0
        # observability (sampled by the cluster metrics registry)
        #: records appended over the manager's lifetime
        self.records_written = 0
        #: force() calls that actually had unforced records (fsync batches)
        self.fsync_batches = 0
        #: records covered by those batches (group-commit amortization)
        self.fsynced_records = 0
        if self._tail:
            for rec in self.scan():
                self._next_lsn = rec.lsn + 1

    # -- writing -----------------------------------------------------------------
    def append(self, **kw) -> int:
        lsn = self._next_lsn
        self._next_lsn += 1
        rec = LogRecord(lsn=lsn, **kw)
        blob = pickle.dumps(rec, protocol=4)
        self._fh.pwrite(self._tail, struct.pack("<I", len(blob)) + blob)
        self._tail += 4 + len(blob)
        self._unforced += 1
        self.records_written += 1
        return lsn

    def force(self) -> None:
        """Flush to stable storage (WAL protocol barrier)."""
        self._fh.sync()
        if self._unforced:
            self.fsync_batches += 1
            self.fsynced_records += self._unforced
        self._unforced = 0

    # -- reading ------------------------------------------------------------------
    def scan(self) -> Iterator[LogRecord]:
        size = self._fh.size()
        off = 0
        while off < size:
            header = self._fh.pread(off, 4)
            (n,) = struct.unpack("<I", header)
            if n == 0:
                break
            blob = self._fh.pread(off + 4, n)
            try:
                rec = pickle.loads(blob)
            except Exception as e:  # pragma: no cover - corrupt log
                raise RecoveryError(f"corrupt WAL record at {off}: {e}") from e
            yield rec
            off += 4 + n

    def records(self) -> list[LogRecord]:
        return list(self.scan())

    def truncate(self) -> None:
        self._fh.truncate(0)
        self._tail = 0
        self._next_lsn = 1
