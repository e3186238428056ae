"""Exception hierarchy for the HRDBMS reproduction.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch database errors without swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """Invalid configuration value."""


class StorageError(ReproError):
    """Errors raised by the storage engine (pages, files, tables)."""


class PageFormatError(StorageError):
    """A page failed to (de)serialize: corrupt header, bad checksum, ..."""


class BufferPoolError(StorageError):
    """Buffer-manager invariant violation (unregistered file, empty stripe, ...)."""


class IndexError_(StorageError):
    """B+-tree structure errors."""


class CatalogError(ReproError):
    """Metadata errors: unknown table, duplicate table, bad partitioning."""


class SQLError(ReproError):
    """Base class for SQL front-end errors."""


class LexError(SQLError):
    """Tokenizer failure; carries the offending position."""

    def __init__(self, message: str, pos: int = -1):
        super().__init__(message)
        self.pos = pos


class ParseError(SQLError):
    """Parser failure; carries the offending token text."""

    def __init__(self, message: str, token: str | None = None):
        super().__init__(message)
        self.token = token


class BindError(SQLError):
    """Name-resolution failure (unknown column/table/function)."""


class PlanError(ReproError):
    """Optimizer could not produce a plan (unsupported construct, ...)."""


class ExecutionError(ReproError):
    """Runtime failure inside the execution engine."""


class WorkerFailureError(ExecutionError):
    """A worker failed mid-query. The paper's fault-tolerance model:
    mid-query failures abort the query, which is restarted after the
    node recovers (ARIES handles its local state)."""

    def __init__(self, worker_id: int, message: str = ""):
        super().__init__(message or f"worker {worker_id} failed mid-query")
        self.worker_id = worker_id


class NetworkError(ReproError):
    """Simulated-network failures (unknown node, no route, closed link)."""


class TopologyError(NetworkError):
    """Invalid communication-topology construction."""


class TxnError(ReproError):
    """Transaction subsystem errors."""


class LockTimeoutError(TxnError):
    """A lock request timed out (possible distributed deadlock)."""


class DeadlockError(TxnError):
    """Local wait-for-graph deadlock detected; victim must roll back."""


class TxnAbortedError(TxnError):
    """Operation attempted on a transaction that was already aborted."""


class TwoPCError(TxnError):
    """Two-phase-commit protocol failure."""


class RecoveryError(TxnError):
    """ARIES recovery failed (corrupt WAL, ...)."""
