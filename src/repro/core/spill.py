"""Spill-to-disk support.

Every HRDBMS operator can spill to disk when memory runs short (paper
§IV "Spilling to Disk"; resource management level 3). The executor
materializes operator inputs into :class:`SpillableList` buffers that
transparently overflow to a worker-local temp file once the operator's
memory grant is exhausted, so queries over data much larger than memory
complete instead of failing — the behaviour the 3 TB experiment relies
on.

File format: length-prefixed RowBatch wire frames appended to a temp
file on the worker's filesystem.
"""

from __future__ import annotations

import itertools
import struct
import threading
from typing import Iterator

from ..common.batch import RowBatch
from ..common.schema import Schema
from ..util.fs import FileSystem

_spill_ids = itertools.count()


class MemoryGovernor:
    """Per-worker memory accounting (resource-management level 2/3).

    Operators acquire grants; when the worker's budget is exceeded the
    governor answers ``should_spill`` affirmatively and tracks how many
    bytes went to disk (benchmark observability).

    Thread-safe: one governor per worker is shared by every concurrent
    query touching that worker, so ``used``/``peak`` reflect the true
    aggregate pressure and spill decisions see the whole node.
    """

    def __init__(self, budget_bytes: int):
        self.budget = budget_bytes
        self.used = 0
        self.spilled_bytes = 0
        self.peak = 0
        self._mu = threading.Lock()
        #: called (outside the lock) with each spilled byte count — the
        #: Database points this at the flight recorder
        self.listener = None

    def acquire(self, n: int) -> None:
        with self._mu:
            self.used += n
            self.peak = max(self.peak, self.used)

    def release(self, n: int) -> None:
        with self._mu:
            self.used = max(0, self.used - n)

    def should_spill(self, extra: int = 0) -> bool:
        with self._mu:
            return self.used + extra > self.budget

    def note_spill(self, n: int) -> None:
        with self._mu:
            self.spilled_bytes += n
        listener = self.listener
        if listener is not None:
            listener(n)


class SpillableList:
    """A batch buffer that overflows to disk under memory pressure."""

    def __init__(self, fs: FileSystem, governor: MemoryGovernor, schema: Schema, tag: str = "spill"):
        self.fs = fs
        self.governor = governor
        self.schema = schema
        self._mem: list[RowBatch] = []
        self._mem_bytes = 0
        self._path: str | None = None
        self._disk_rows = 0
        self._tag = tag

    def append(self, batch: RowBatch) -> None:
        if batch.length == 0:
            return
        nb = batch.nbytes
        if self.governor.should_spill(nb):
            self._spill_out()
            self._write(batch)
            return
        self._mem.append(batch)
        self._mem_bytes += nb
        self.governor.acquire(nb)

    def _spill_out(self) -> None:
        for b in self._mem:
            self._write(b)
        self.governor.release(self._mem_bytes)
        self._mem = []
        self._mem_bytes = 0

    def _write(self, batch: RowBatch) -> None:
        if self._path is None:
            self._path = f"temp/{self._tag}{next(_spill_ids)}.spill"
        fh = self.fs.open(self._path)
        frame = batch.to_bytes()
        off = fh.size()
        fh.pwrite(off, struct.pack("<I", len(frame)) + frame)
        fh.close()
        self._disk_rows += batch.length
        self.governor.note_spill(len(frame))

    def __iter__(self) -> Iterator[RowBatch]:
        if self._path is not None:
            fh = self.fs.open(self._path, create=False)
            size = fh.size()
            off = 0
            while off < size:
                (n,) = struct.unpack("<I", fh.pread(off, 4))
                off += 4
                yield RowBatch.from_bytes(fh.pread(off, n))
                off += n
            fh.close()
        yield from self._mem

    @property
    def rows(self) -> int:
        return self._disk_rows + sum(b.length for b in self._mem)

    @property
    def spilled(self) -> bool:
        return self._path is not None

    def close(self) -> None:
        if self._path is not None:
            self.fs.delete(self._path)
            self._path = None
        self.governor.release(self._mem_bytes)
        self._mem = []
        self._mem_bytes = 0
