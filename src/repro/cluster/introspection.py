"""Introspection as data: the ``sys.*`` virtual system tables.

The cluster's whole telemetry surface — query lifecycle, per-operator
actuals, metrics (live and historical), worker health, fragment scan
counters, the plan cache, and the flight recorder — is
exposed as *relations*. Each ``sys.*`` table is a
:class:`~repro.cluster.catalog.CatalogEntry` marked virtual
(non-fragmented, SINGLETON placement), whose provider materializes a
RowBatch from live state when the executor reaches its ``sysscan``
leaf. Everything above the leaf is the ordinary engine: the binder
resolves columns, the optimizer plans filters/joins/aggregates, and

    SELECT locus, qerror FROM sys.query_operators
    WHERE qid = 7 ORDER BY qerror DESC

runs through the exact parse→optimize→execute path a TPC-H query does.

Providers snapshot under the owning subsystem's lock and sort rows by
their natural key, so two materializations of quiescent state are
byte-identical — the property the chaos tests pin (``sys.events``
must match the recorder's JSON dump byte-for-byte).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..common.batch import RowBatch
from ..common.dtypes import DataType
from ..common.schema import Schema
from ..optimizer.feedback import physical_locus, qerror
from ..telemetry.metrics import _fmt_labels
from ..telemetry.profile import operator_spans
from ..telemetry.trace import Span

I64 = DataType.INT64
F64 = DataType.FLOAT64
STR = DataType.STRING

#: name -> relation schema for every sys.* table (column names avoid
#: SQL keywords: ``table_name`` not ``table``, ``rows`` not ``row``)
SYS_SCHEMAS: dict[str, Schema] = {
    "sys.queries": Schema.of(
        ("qid", I64), ("sql", STR), ("status", STR), ("coordinator", I64),
        ("epoch", I64), ("duration_s", F64), ("admission_wait_s", F64),
        ("busy_s", F64), ("rows", I64), ("net_bytes", I64),
        ("restarts", I64), ("trace_retained", I64),
        ("error", STR),
    ),
    "sys.query_operators": Schema.of(
        ("qid", I64), ("op_id", I64), ("op", STR), ("locus", STR),
        ("site", STR), ("est_rows", F64), ("rows", I64), ("qerror", F64),
        ("time_s", F64),
    ),
    "sys.metrics": Schema.of(
        ("name", STR), ("kind", STR), ("labels", STR), ("value", F64),
    ),
    "sys.metrics_history": Schema.of(
        ("sample_id", I64), ("tick", I64), ("name", STR), ("labels", STR),
        ("value", F64),
    ),
    "sys.workers": Schema.of(
        ("worker_id", I64), ("state", STR), ("draining", I64),
        ("failures", I64), ("mem_used", I64), ("mem_peak", I64),
        ("spilled_bytes", I64), ("tables", I64),
        ("in_placement", I64),
    ),
    "sys.fragments": Schema.of(
        ("table_name", STR), ("worker", I64), ("fragment", I64),
        ("rows", I64), ("sets", I64), ("pages_read", I64),
        ("pages_skipped", I64), ("sets_skipped", I64), ("sets_pushed", I64),
        ("rows_out", I64), ("dead_rows", I64), ("merges", I64),
    ),
    "sys.plan_cache": Schema.of(
        ("sql", STR), ("coordinator", I64),
        ("catalog_version", I64), ("stats_version", I64),
    ),
    "sys.events": Schema.of(
        ("shard", I64), ("seq", I64), ("tick", I64), ("ts", F64),
        ("kind", STR), ("qid", I64), ("node", I64), ("detail", STR),
    ),
}


def _batch(schema: Schema, rows: list[tuple]) -> RowBatch:
    """Column-major RowBatch from row tuples aligned with ``schema``."""
    cols = {}
    for i, c in enumerate(schema):
        vals = [r[i] for r in rows]
        if c.dtype == STR:
            arr = ["" if v is None else str(v) for v in vals]
        else:
            arr = np.asarray(vals, dtype=c.dtype.numpy_dtype)
        cols[c.name] = arr
    return RowBatch(schema, cols)


# ---------------------------------------------------------------------------
# query registry (sys.queries / sys.query_operators)
# ---------------------------------------------------------------------------


@dataclass
class QueryRecord:
    """Lifecycle summary of one SELECT, retained after completion."""

    qid: int
    sql: str
    status: str = "running"  # running | done | error
    coordinator: int = 0
    epoch: int = 0
    duration_s: float = 0.0
    admission_wait_s: float = 0.0
    busy_s: float = 0.0
    rows: int = 0
    net_bytes: int = 0
    restarts: int = 0
    error: str = ""
    #: heavy per-operator references; dropped (summary row kept) when
    #: the trace-retention window evicts this query
    trace_retained: bool = True
    physical: object = None
    op_rows: dict = field(default_factory=dict)
    #: the query's root span when it ran under a tracer
    trace: Span | None = None


class QueryRegistry:
    """Bounded, thread-safe per-query lifecycle store behind
    ``sys.queries`` and ``sys.query_operators``."""

    def __init__(self, capacity: int = 256):
        self.capacity = max(1, capacity)
        self._records: OrderedDict[int, QueryRecord] = OrderedDict()
        self._mu = threading.Lock()

    def start(self, qid: int, sql: str, coordinator: int) -> QueryRecord:
        rec = QueryRecord(qid=qid, sql=sql, coordinator=coordinator)
        with self._mu:
            self._records[qid] = rec
            while len(self._records) > self.capacity:
                self._records.popitem(last=False)
        return rec

    def get(self, qid: int) -> QueryRecord | None:
        with self._mu:
            return self._records.get(qid)

    def note_admission(self, qid: int, wait_s: float) -> None:
        rec = self.get(qid)
        if rec is not None:
            rec.admission_wait_s = wait_s

    def finish(self, qid: int, result, duration_s: float) -> None:
        rec = self.get(qid)
        if rec is None:
            return
        stats = result.stats
        rec.status = "done"
        rec.epoch = result.epoch
        rec.duration_s = duration_s
        rec.busy_s = sum(stats.site_busy_s.values()) + stats.coord_busy_s
        rec.rows = stats.rows_returned
        rec.net_bytes = stats.network_bytes
        rec.restarts = stats.restarts
        rec.physical = result.physical
        rec.op_rows = dict(result.op_rows or {})
        rec.trace = result.trace

    def fail(self, qid: int, error: BaseException, duration_s: float) -> None:
        rec = self.get(qid)
        if rec is None:
            return
        rec.status = "error"
        rec.duration_s = duration_s
        rec.error = f"{type(error).__name__}: {error}"

    def evict_trace(self, qid: int) -> None:
        """Trace-retention eviction: keep the summary row, drop the
        heavy per-operator references so nothing dangles."""
        rec = self.get(qid)
        if rec is None:
            return
        rec.trace_retained = False
        rec.physical = None
        rec.op_rows = {}
        rec.trace = None

    def records(self) -> list[QueryRecord]:
        with self._mu:
            return list(self._records.values())


# ---------------------------------------------------------------------------
# providers
# ---------------------------------------------------------------------------


def build_providers(db) -> dict:
    """Provider closures for every sys.* table over live Database state.

    Returned mapping: table name -> () -> RowBatch. Shared by reference
    with every per-query executor clone; each call snapshots fresh."""

    def queries() -> RowBatch:
        rows = [
            (
                r.qid, r.sql, r.status, r.coordinator, r.epoch, r.duration_s,
                r.admission_wait_s, r.busy_s, r.rows, r.net_bytes, r.restarts,
                int(r.trace_retained), r.error,
            )
            for r in db.query_log.records()
        ]
        rows.sort(key=lambda r: r[0])
        return _batch(SYS_SCHEMAS["sys.queries"], rows)

    def query_operators() -> RowBatch:
        rows = []
        for rec in db.query_log.records():
            if rec.physical is None:
                continue
            spans = operator_spans(rec.trace)
            for op in rec.physical.walk():
                actual = rec.op_rows.get(op.id)
                if actual is None:
                    continue
                est = float(op.attrs.get("est_rows", 0.0))
                locus = physical_locus(op)
                sp = spans.get(op.id)
                rows.append(
                    (
                        rec.qid, op.id, op.op,
                        "" if locus is None else f"{locus[0]}:{sorted(locus[1])}",
                        op.site, est, int(actual), qerror(est, actual),
                        sp.dur if sp is not None else 0.0,
                    )
                )
        rows.sort(key=lambda r: (r[0], r[1]))
        return _batch(SYS_SCHEMAS["sys.query_operators"], rows)

    def metrics() -> RowBatch:
        rows = []
        for name, metric in db.metrics.snapshot().items():
            kind = metric["type"]
            for sample in metric["samples"]:
                labels = _fmt_labels(sample["labels"])
                if "buckets" in sample:
                    # histograms flatten to their _count/_sum series
                    rows.append((name + "_count", kind, labels, float(sample["count"])))
                    rows.append((name + "_sum", kind, labels, float(sample["sum"])))
                else:
                    rows.append((name, kind, labels, float(sample["value"])))
        rows.sort(key=lambda r: (r[0], r[2]))
        return _batch(SYS_SCHEMAS["sys.metrics"], rows)

    def metrics_history() -> RowBatch:
        return _batch(SYS_SCHEMAS["sys.metrics_history"], db.sampler.rows())

    def workers() -> RowBatch:
        health = db._executor.health
        placement = set(db.worker_ids)
        rows = []
        for w, wk in sorted(db.workers.items()):
            gov = wk.governor
            rows.append(
                (
                    w, health.state(w), int(health.is_draining(w)),
                    health.failures(w), gov.used, gov.peak, gov.spilled_bytes,
                    len(wk.storage), int(w in placement),
                )
            )
        return _batch(SYS_SCHEMAS["sys.workers"], rows)

    def fragments() -> RowBatch:
        rows = []
        for w, wk in sorted(db.workers.items()):
            for tname in sorted(wk.storage):
                ts = wk.storage[tname]
                for i, frag in enumerate(ts.fragments):
                    with frag._cum_lock:
                        st = frag.cum_stats
                        rows.append(
                            (
                                tname, w, i, frag.row_count, len(frag.sets),
                                st.pages_read, st.pages_skipped, st.sets_skipped,
                                st.sets_pushed, st.rows_out, frag.dead_rows, frag.merges,
                            )
                        )
        return _batch(SYS_SCHEMAS["sys.fragments"], rows)

    def plan_cache() -> RowBatch:
        rows = sorted(db.plan_cache.entries())
        return _batch(SYS_SCHEMAS["sys.plan_cache"], rows)

    def events() -> RowBatch:
        rows = [
            (e.shard, e.seq, e.tick, e.ts, e.kind, e.qid, e.node, e.detail)
            for e in db.recorder.events()
        ]
        return _batch(SYS_SCHEMAS["sys.events"], rows)

    return {
        "sys.queries": queries,
        "sys.query_operators": query_operators,
        "sys.metrics": metrics,
        "sys.metrics_history": metrics_history,
        "sys.workers": workers,
        "sys.fragments": fragments,
        "sys.plan_cache": plan_cache,
        "sys.events": events,
    }
