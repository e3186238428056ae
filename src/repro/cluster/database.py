"""The ``Database`` façade — the library's primary public API.

Builds a simulated HRDBMS cluster (coordinators + workers + network),
owns the catalog/statistics, and drives the full query pipeline:

    SQL text -> parse -> bind (decorrelate) -> Phase 1 global
    optimization -> Phase 3 dataflow optimization -> distributed
    execution over the simulated cluster -> result at the coordinator.

Usage::

    db = Database(ClusterConfig(n_workers=4))
    db.create_table("t", Schema.of(("a", DataType.INT64)), partition=("hash", ("a",)))
    db.load("t", batch)
    result = db.sql("select sum(a) from t")
    print(result.rows())
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..common.batch import RowBatch
from ..common.config import ClusterConfig
from ..common.errors import CatalogError, NetworkError, PlanError, WorkerFailureError
from ..common.schema import Schema
from ..core.executor import DistributedExecutor, ExecStats, WorkerRuntime
from ..core.spill import MemoryGovernor
from ..network.simnet import SimNetwork
from ..network.topology import BinomialGraphTopology, TreeTopology
from ..optimizer.binder import Binder
from ..optimizer.dataflow import DataflowPlanner
from ..optimizer.derive import StatsDeriver
from ..optimizer.feedback import FeedbackStore, score_plan
from ..optimizer.logical import LogicalPlan
from ..optimizer.physical import PhysOp
from ..optimizer.rewrite import optimize_logical, push_filters
from ..optimizer.stats import StatsProvider, TableStats
from ..sql import parse
from ..sql.ast import (
    CreateTable,
    DeleteStmt,
    DropTable,
    InsertValues,
    Literal,
    SelectStmt,
    UpdateStmt,
)
from ..storage.buffer import BufferManager
from ..storage.external import ExternalTableType
from ..storage.partition import Replicated, disk_of_rows
from ..storage.table import TableStorage
from ..telemetry import (
    FlightRecorder,
    MetricsRegistry,
    MetricsSampler,
    Span,
    Tracer,
    render_analyze,
)
from ..txn.manager import TransactionSystem
from ..util.fs import FileSystem, LocalFS, MemFS
from .catalog import CatalogEntry, ClusterCatalog, PlacementMap, scheme_from_clause
from .introspection import SYS_SCHEMAS, QueryRegistry, build_providers
from .plancache import PlanCache
from .resource import AdmissionController, AdmissionTimeout

COORD_BASE = 10_000


@functools.lru_cache(maxsize=512)
def _parse_cached(text: str):
    """Statement ASTs are frozen dataclasses and parsing is a pure
    function of the text, so repeat statements (the warm path the plan
    cache serves) skip the lexer entirely."""
    return parse(text)


@dataclass
class QueryResult:
    batch: RowBatch
    stats: ExecStats
    logical: LogicalPlan | None = None
    physical: PhysOp | None = None
    rowcount: int = 0  # DML-affected rows
    #: the query's root span when it ran under a tracer (its final
    #: attempt's operator spans are the per-operator actuals); None
    #: otherwise
    trace: Span | None = None
    #: query id (tag namespace ``q<id>|``, trace registry key)
    qid: int = 0
    #: placement epoch the query executed under (elastic membership:
    #: in-flight queries finish against the epoch they planned under)
    epoch: int = 0
    #: per-operator output rows (physical-op id -> rows), recorded on
    #: every execution — scored into per-operator Q-error
    op_rows: dict | None = None

    def rows(self) -> list[tuple]:
        return self.batch.rows()

    @property
    def columns(self) -> list[str]:
        return self.batch.schema.names()


#: retry budget per fragment move during a rebalance before the stream is
#: rerouted through the coordinator around the failed endpoint
REBALANCE_SEND_RETRIES = 64


@dataclass
class RebalanceReport:
    """What one membership/placement change did (scale-out, drain, or
    re-replication). Returned by the elastic APIs and retained in
    ``Database.rebalances`` for observability."""

    kind: str  # "add" | "drain" | "replicate"
    workers: tuple[int, ...]  # placement after the change
    epoch: int = 0  # placement epoch published by the change
    added: tuple[int, ...] = ()
    removed: tuple[int, ...] = ()
    #: fragment bytes that actually crossed the wire ("rebalance|" streams)
    bytes_moved: int = 0
    #: fragment streams delivered
    streams: int = 0
    #: stream sends retried after a chaos fault
    retries: int = 0
    #: streams that fell back to the coordinator-mediated route
    reroutes: int = 0
    #: tables whose fragments moved (re-sharded or re-replicated)
    tables_moved: int = 0
    duration_s: float = 0.0


#: stripes (one stripe manager each) in a worker's buffer pool
BUFFER_STRIPES = 8


class Worker:
    """A worker node: local storage, buffer pool, memory governor."""

    def __init__(self, worker_id: int, config: ClusterConfig, fs: FileSystem):
        self.worker_id = worker_id
        self.config = config
        self.fs = fs
        self.bufmgr = BufferManager(
            BUFFER_STRIPES, config.pages_per_pool, config.decoded_cache_mb << 20
        )
        self.governor = MemoryGovernor(config.memory_per_node)
        self.storage: dict[str, TableStorage] = {}
        self.external: dict[str, object] = {}

    def create_table(self, entry: CatalogEntry) -> TableStorage:
        ts = TableStorage(
            self.fs,
            self.bufmgr,
            entry.name,
            entry.schema,
            fmt=entry.fmt,
            n_disks=self.config.disks_per_node,
            page_size=self.config.page_size,
            codec=self.config.compression,
            clustering=entry.clustering,
        )
        self.storage[entry.name] = ts
        return ts

    def drop_table(self, name: str) -> None:
        """Forget a table and delete its files, those of every epoch a
        rebalance left (``<name>@e<epoch>``) too, with their decoded
        columns; each file is first closed, its buffer-pool pages
        dropped and its registration with the buffer manager undone."""
        ts = self.storage.pop(name, None)
        if ts is not None:
            for frag in ts.fragments:
                frag.forget_decoded()
        for prefix in (f"tables/{name}/", f"tables/{name}@e"):
            self._delete_files(prefix)

    def drop_storage(self, ts: TableStorage) -> None:
        """Delete the files of one table storage no query reads any more
        (a rebalance replaced it), with its decoded columns."""
        for frag in ts.fragments:
            frag.forget_decoded()
        self._delete_files(f"tables/{ts.name}/")

    def _delete_files(self, prefix: str) -> None:
        """Close, unregister and delete every file under ``prefix``."""
        for path in self.fs.listdir(prefix):
            self.bufmgr.close_file(path)
            self.fs.delete(path)

    def runtime(self) -> WorkerRuntime:
        return WorkerRuntime(
            worker_id=self.worker_id,
            fs=self.fs,
            storage=self.storage,
            governor=self.governor,
            external=self.external,
        )


class Coordinator:
    """A coordinator node: catalog replica + statistics + planner."""

    def __init__(self, coord_id: int):
        self.coord_id = coord_id
        self.catalog = ClusterCatalog()
        self.stats = StatsProvider()


class Session:
    """One client connection, pinned to a coordinator.

    The paper's coordinators replicate metadata and load-balance client
    connections; :meth:`Database.session` hands sessions out round-robin
    across coordinators. Each call plans on its coordinator's catalog
    replica and executes through the shared admission-controlled
    pipeline, so many threads may each hold a session and issue SQL
    simultaneously.
    """

    def __init__(self, db: "Database", coordinator: int):
        self.db = db
        self.coordinator = coordinator

    def sql(self, text: str, txn=None) -> QueryResult:
        return self.db.sql(text, coordinator=self.coordinator, txn=txn)


class Database:
    def __init__(self, config: ClusterConfig | None = None):
        self.config = config or ClusterConfig()
        n = self.config.n_workers
        self.worker_ids = list(range(n))
        self.coord_ids = [COORD_BASE + i for i in range(self.config.n_coordinators)]
        self.net = SimNetwork(self.worker_ids + self.coord_ids)
        self._fs_root: FileSystem | None = None
        self.workers: dict[int, Worker] = {
            w: Worker(w, self.config, self._make_fs(w)) for w in self.worker_ids
        }
        self.coordinators = [Coordinator(c) for c in self.coord_ids]
        # epoch 0 of the versioned placement map (elastic membership)
        for c in self.coordinators:
            c.catalog.placement = PlacementMap(0, tuple(self.worker_ids))
            c.catalog.placement_history = {0: c.catalog.placement}
        self.txn_system = TransactionSystem(self)
        self._executor = DistributedExecutor(
            {w: wk.runtime() for w, wk in self.workers.items()},
            self.coord_ids[0],
            self.net,
            self.config,
        )
        # -- concurrent serving layer --------------------------------------
        #: coordinator admission gate against the aggregate memory budget
        self.admission = AdmissionController(
            total_budget=self.config.memory_per_node * self.config.n_workers,
            max_concurrent=self.config.max_concurrent_queries,
            default_grant=self.config.query_memory_grant,
            timeout=self.config.admission_timeout,
        )
        #: optimized-plan cache (normalized SQL + catalog/stats versions)
        self.plan_cache = PlanCache(self.config.plan_cache_size)
        #: per-statement worst Q-error, keyed like the plan cache
        #: (optimizer.feedback; observation only)
        self.feedback = FeedbackStore()
        #: planning mutates global fresh-name state; one planner at a time
        self._plan_lock = threading.Lock()
        #: DDL/DML writers serialize against each other
        self._write_lock = threading.RLock()
        #: per executor epoch, the queries running on it; per published
        #: epoch, the (worker, storage) pairs its publish replaced, whose
        #: files go once no query runs on an older epoch
        self._epoch_lock = threading.Lock()
        self._running: dict[int, int] = {}
        self._retired: dict[int, list[tuple[Worker, TableStorage]]] = {}
        self._qid = itertools.count(1)
        self._session_rr = itertools.count()
        self._submit_pool = None
        self._submit_mu = threading.Lock()
        # -- telemetry (DESIGN.md §9) ---------------------------------------
        #: query-lifecycle tracer; None when tracing is off
        self.tracer: Tracer | None = None
        if self.config.tracing:
            self.tracer = Tracer(retention=self.config.trace_retention)
            self._executor.tracer = self.tracer
            self.net.tracer = self.tracer
        #: cluster metrics registry (Prometheus-renderable)
        self.metrics = MetricsRegistry()
        self._m_query_hist = self.metrics.histogram(
            "repro_query_duration_seconds", "end-to-end SELECT latency"
        )
        self._m_query_total = self.metrics.counter(
            "repro_query_total", "SELECT queries executed"
        )
        #: every membership/placement change applied, in order
        self.rebalances: list[RebalanceReport] = []
        self._register_collectors()
        # -- introspection (DESIGN.md §14) ----------------------------------
        #: always-on cluster flight recorder: a bounded ring of structured
        #: operational events (admission, faults, breaker transitions,
        #: epoch publishes, spills) behind sys.events and `repro events`
        self.recorder = FlightRecorder()
        #: metrics time-series sampler (sys.metrics_history)
        self.sampler = MetricsSampler(
            self.metrics,
            window=self.config.metrics_history_window,
            wall_every_s=self.config.metrics_sample_s,
        )
        #: per-query lifecycle summaries (sys.queries/sys.query_operators)
        self.query_log = QueryRegistry(self.config.query_history)
        if self.tracer is not None:
            # retention eviction keeps the summary row, drops heavy refs
            self.tracer.on_evict = self.query_log.evict_trace
        self._executor.recorder = self.recorder
        self._executor.sys_tables = build_providers(self)
        self._executor.health.listener = self._breaker_event
        for w, wk in self.workers.items():
            self._wire_governor(w, wk.governor)
        self._register_sys_tables()

    def chaos(self, schedule=None):
        """Attach a fault injector driven by ``schedule`` to the cluster
        network and return it (pass None for the fault-free baseline with
        canonical delivery order). See :mod:`repro.fault`."""
        from ..fault import FaultInjector

        injector = FaultInjector(schedule)
        self.net.attach(injector)
        if self.tracer is not None:
            # spans carry simulated time off the fault clock, and every
            # chaos event lands inline on the active query's span
            self.tracer.sim_clock = lambda: injector.tick
        # the recorder and sampler follow the fault clock too, so chaos
        # runs replay with deterministic ticks in sys.events/history
        self.recorder.clock = lambda: injector.tick
        self.sampler.clock = lambda: injector.tick
        injector.listener = self._chaos_event
        return injector

    def _chaos_event(self, ev) -> None:
        """Injector listener: every fault lands on the active query's
        trace span AND in the flight recorder."""
        tr = self.tracer
        if tr is not None:
            tr.event(
                "chaos:" + ev.kind,
                node=ev.node,
                src=ev.src,
                dst=ev.dst,
                tag=ev.tag,
                detail=ev.detail,
            )
        self.recorder.record(
            "chaos_" + ev.kind,
            node=-1 if ev.node is None else ev.node,
            src=ev.src,
            dst=ev.dst,
            tag=ev.tag,
            detail=ev.detail,
        )

    # -- introspection wiring (DESIGN.md §14) -------------------------------------
    def _register_sys_tables(self) -> None:
        """Register every sys.* relation as a virtual catalog entry on
        all coordinators, plus live row-count stats for the optimizer."""
        from ..storage.partition import RoundRobin

        for name, schema in SYS_SCHEMAS.items():
            entry = CatalogEntry(name, schema, RoundRobin(), virtual=True)
            for c in self.coordinators:
                c.catalog.add_virtual(entry)
        # cheap live row-count estimates, consulted fresh at plan time
        # (a cache miss only); they never bump the stats version, so
        # drifting counts don't thrash the plan cache
        counts = {
            "sys.queries": lambda: len(self.query_log.records()),
            "sys.query_operators": lambda: sum(
                len(r.op_rows) for r in self.query_log.records()
            ),
            "sys.metrics": lambda: 4 * len(self.metrics.snapshot()),
            "sys.metrics_history": lambda: self.sampler.stats()["points"],
            "sys.workers": lambda: len(self.workers),
            "sys.fragments": lambda: sum(
                len(ts.fragments) for wk in self.workers.values()
                for ts in wk.storage.values()
            ),
            "sys.plan_cache": lambda: len(self.plan_cache),
            "sys.events": lambda: self.recorder.stats()["retained"],
        }
        for c in self.coordinators:
            for name, fn in counts.items():
                c.stats.register_dynamic(
                    name, lambda f=fn: TableStats(float(max(1, f())))
                )

    def _wire_governor(self, worker_id: int, governor: MemoryGovernor) -> None:
        def on_spill(nbytes: int, _w: int = worker_id) -> None:
            self.recorder.record("spill", node=_w, nbytes=nbytes)

        governor.listener = on_spill

    def _breaker_event(self, worker: int, old: str, new: str) -> None:
        """Health-tracker listener: circuit-breaker transitions
        (healthy/blacklisted/probation) land in the flight recorder."""
        self.recorder.record("breaker_" + new, node=worker, prev=old)

    def _record_admission(self, qid: int, wait_s: float, granted: bool = True) -> None:
        self.query_log.note_admission(qid, wait_s)
        self.recorder.record(
            "admission_grant" if granted else "admission_timeout",
            qid=qid,
            wait_s=round(wait_s, 6),
        )

    def _introspection_tick(self) -> None:
        """Per-query-completion cadence check for the metrics sampler."""
        self.sampler.maybe_sample()

    def _make_fs(self, worker_id: int) -> FileSystem:
        if self.config.data_dir:
            return LocalFS(f"{self.config.data_dir}/worker{worker_id}")
        return MemFS()

    # -- concurrent serving -------------------------------------------------------
    def session(self) -> Session:
        """A client connection, load-balanced round-robin across
        coordinators (the paper's client-distribution scheme)."""
        return Session(self, next(self._session_rr) % self.config.n_coordinators)

    def submit(self, text: str):
        """Run ``text`` asynchronously on a fresh session; returns a
        :class:`concurrent.futures.Future` of the :class:`QueryResult`.
        Queries still pass through admission, so at most
        ``max_concurrent_queries`` execute at once."""
        with self._submit_mu:
            if self._submit_pool is None:
                from concurrent.futures import ThreadPoolExecutor

                self._submit_pool = ThreadPoolExecutor(
                    max_workers=max(4, 2 * self.config.max_concurrent_queries),
                    thread_name_prefix="client",
                )
            pool = self._submit_pool
        sess = self.session()
        return pool.submit(sess.sql, text)

    def close(self) -> None:
        """Shut down the client pool and persist every table's predicate
        caches (paper §III: reloaded when the tables are opened again)."""
        with self._submit_mu:
            if self._submit_pool is not None:
                self._submit_pool.shutdown(wait=True)
                self._submit_pool = None
        for worker in self.workers.values():
            for storage in worker.storage.values():
                storage.persist_caches()

    # -- telemetry ----------------------------------------------------------------
    def _register_collectors(self) -> None:
        """Wire every subsystem's existing counters into the registry as
        pull collectors — sampled at snapshot time, zero hot-path cost."""
        m = self.metrics
        workers = self.workers

        def per_worker(fn):
            def collect():
                for w, wk in workers.items():
                    yield {"node": str(w)}, fn(wk)

            return collect

        # buffer manager
        m.register_collector(
            "repro_buffer_hits_total", "counter", "buffer pool page hits",
            per_worker(lambda wk: wk.bufmgr.hits),
        )
        m.register_collector(
            "repro_buffer_misses_total", "counter", "buffer pool page misses",
            per_worker(lambda wk: wk.bufmgr.misses),
        )
        m.register_collector(
            "repro_buffer_evictions_total", "counter", "buffer pool evictions",
            per_worker(lambda wk: wk.bufmgr.evictions),
        )
        m.register_collector(
            "repro_buffer_cached_pages", "gauge", "pages resident in the pool",
            per_worker(lambda wk: wk.bufmgr.cached_pages),
        )

        # near-data storage layer: these reconcile exactly with ScanStats
        # (each fragment folds its per-scan deltas into lifetime counters)
        def storage_total(field_name):
            def fn(wk):
                return sum(
                    getattr(ts.cumulative_stats(), field_name)
                    for ts in wk.storage.values()
                )

            return fn

        m.register_collector(
            "repro_storage_pages_read_total", "counter",
            "column/row pages fetched and decoded by table scans",
            per_worker(storage_total("pages_read")),
        )
        m.register_collector(
            "repro_storage_pages_skipped_total", "counter",
            "pages avoided by zone maps, predicate cache, indexes, or encoded-page pruning",
            per_worker(storage_total("pages_skipped")),
        )
        m.register_collector(
            "repro_storage_pages_pushed_down_total", "counter",
            "pages whose predicate atoms ran over the encoded representation",
            per_worker(storage_total("pages_pushed_down")),
        )
        # decoded caches (one per worker, held by its buffer manager)
        for key, kind in (
            ("hits", "counter"),
            ("misses", "counter"),
            ("evictions", "counter"),
            ("bytes", "gauge"),
        ):
            m.register_collector(
                f"repro_storage_decoded_cache_{key}" + ("_total" if kind == "counter" else ""),
                kind,
                f"decoded-column LRU cache {key}",
                per_worker(lambda wk, k=key: getattr(wk.bufmgr.decoded, k)),
            )
        # lock managers (per worker node)
        nodes = self.txn_system.nodes
        m.register_collector(
            "repro_locks_waits_total", "counter", "lock requests that had to queue",
            lambda: (({"node": str(w)}, n.locks.waits) for w, n in nodes.items()),
        )
        m.register_collector(
            "repro_locks_wait_seconds_total", "counter",
            "simulated seconds spent waiting for locks",
            lambda: (({"node": str(w)}, n.locks.wait_time_s) for w, n in nodes.items()),
        )
        m.register_collector(
            "repro_locks_deadlocks_total", "counter", "deadlocks detected",
            lambda: (({"node": str(w)}, n.locks.deadlocks) for w, n in nodes.items()),
        )
        # write-ahead logs (worker WALs + coordinator XA logs)
        def wal_logs():
            for w, n in nodes.items():
                yield str(w), n.log
            for c, xa in self.txn_system.xa.items():
                yield str(c), xa.xa_log

        m.register_collector(
            "repro_wal_records_total", "counter", "WAL records appended",
            lambda: (({"node": w}, log.records_written) for w, log in wal_logs()),
        )
        m.register_collector(
            "repro_wal_fsync_batches_total", "counter",
            "force() barriers that flushed pending records (group commits)",
            lambda: (({"node": w}, log.fsync_batches) for w, log in wal_logs()),
        )
        # admission controller
        adm = self.admission
        m.register_collector(
            "repro_admission_queue_depth", "gauge", "queries queued for admission",
            lambda: [({}, adm.queue_depth)],
        )
        m.register_collector(
            "repro_admission_admitted_total", "counter", "queries admitted",
            lambda: [({}, adm.admitted_total)],
        )
        m.register_collector(
            "repro_admission_grant_wait_seconds_total", "counter",
            "wall seconds queries queued before their memory grant",
            lambda: [({}, adm.grant_wait_s)],
        )
        m.register_collector(
            "repro_admission_timeouts_total", "counter", "admissions that timed out",
            lambda: [({}, adm.timeouts)],
        )
        # plan cache
        pc = self.plan_cache
        m.register_collector(
            "repro_plancache_hits_total", "counter", "plan cache hits",
            lambda: [({}, pc.hits)],
        )
        m.register_collector(
            "repro_plancache_misses_total", "counter", "plan cache misses",
            lambda: [({}, pc.misses)],
        )
        # optimizer estimate quality (Q-error observation)
        fb = self.feedback
        m.register_collector(
            "repro_optimizer_feedback_runs_total", "counter",
            "executions whose Q-error was recorded",
            lambda: [({}, fb.runs_total)],
        )
        m.register_collector(
            "repro_optimizer_qerror_worst", "gauge",
            "worst per-operator Q-error across live statement records",
            lambda: [({}, fb.worst_q())],
        )
        # network (per-link traffic; links is a plain dict, snapshot under
        # the net lock via list() to stay consistent)
        net = self.net

        def link_samples(attr):
            def collect():
                with net._lock:
                    items = [(k, getattr(s, attr)) for k, s in net.links.items()]
                for (src, dst), v in items:
                    yield {"src": str(src), "dst": str(dst)}, v

            return collect

        m.register_collector(
            "repro_network_link_bytes_total", "counter", "bytes per directed link",
            link_samples("bytes"),
        )
        m.register_collector(
            "repro_network_link_messages_total", "counter", "messages per directed link",
            link_samples("messages"),
        )
        m.register_collector(
            "repro_network_bytes_total", "counter", "total bytes put on the wire",
            lambda: [({}, net.total_bytes)],
        )
        m.register_collector(
            "repro_network_forwarded_bytes_total", "counter",
            "bytes relayed through hub nodes",
            lambda: [({}, net.forwarded_bytes)],
        )
        # elastic membership (DESIGN.md §10)
        m.register_collector(
            "repro_cluster_workers", "gauge", "workers in the current placement",
            lambda: [({}, len(self.worker_ids))],
        )
        m.register_collector(
            "repro_placement_epoch", "gauge", "current placement-map epoch",
            lambda: [({}, self.catalog.placement_epoch)],
        )
        m.register_collector(
            "repro_admission_budget_bytes", "gauge",
            "admission memory budget (follows live membership)",
            lambda: [({}, adm.total_budget)],
        )
        m.register_collector(
            "repro_rebalance_total", "counter", "membership/placement changes applied",
            lambda: [({}, len(self.rebalances))],
        )
        m.register_collector(
            "repro_rebalance_bytes_total", "counter",
            "fragment bytes moved by rebalance streams",
            lambda: [({}, sum(r.bytes_moved for r in self.rebalances))],
        )
        m.register_collector(
            "repro_rebalance_retries_total", "counter",
            "rebalance stream sends retried after chaos faults",
            lambda: [({}, sum(r.retries for r in self.rebalances))],
        )

    def metrics_snapshot(self) -> dict:
        """All cluster metrics as a nested dict (samples labeled by node /
        link / query where applicable)."""
        return self.metrics.snapshot()

    def metrics_prometheus(self) -> str:
        """The metrics snapshot in Prometheus text exposition format."""
        return self.metrics.render_prometheus()

    def export_trace(self, qid: int | None = None, path: str | None = None) -> dict:
        """The Chrome ``trace_event`` JSON of query ``qid`` (default: the
        most recent traced query); load the written file in
        ``chrome://tracing`` or Perfetto. Requires tracing to be enabled
        (``ClusterConfig.tracing``)."""
        if self.tracer is None:
            raise PlanError(
                "tracing is disabled; construct the Database with "
                "ClusterConfig(tracing=True)"
            )
        trace = self.tracer.export(qid)
        if trace is None:
            raise PlanError(f"no trace recorded for qid={qid!r}")
        if path is not None:
            with open(path, "w") as fh:
                json.dump(trace, fh)
        return trace

    # -- catalog views ------------------------------------------------------------
    @property
    def catalog(self) -> ClusterCatalog:
        return self.coordinators[0].catalog

    @property
    def stats(self) -> StatsProvider:
        return self.coordinators[0].stats

    def _replicate_metadata(self, fn) -> None:
        """Apply a metadata mutation on every coordinator replica in turn.

        The replicas are identical in-process copies and every catalog
        mutation validates before it writes, so a mutation that fails
        fails on the first replica, before any replica has changed.
        """
        for c in self.coordinators:
            fn(c)

    # -- DDL ---------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        schema: Schema,
        partition: Optional[tuple[str, tuple[str, ...]]] = None,
        fmt: str = "column",
        clustering: Sequence[str] = (),
    ) -> None:
        if name.startswith("sys."):
            raise CatalogError("the sys schema is reserved for system tables")
        scheme = scheme_from_clause(partition, len(self.worker_ids))
        entry = CatalogEntry(name, schema, scheme, fmt, tuple(clustering))
        with self._write_lock:
            self._replicate_metadata(lambda c: c.catalog.add(entry))
            for w in self.workers.values():
                w.create_table(entry)

    def drop_table(self, name: str) -> None:
        if name.startswith("sys."):
            raise CatalogError("system tables cannot be dropped")
        with self._write_lock:
            self._replicate_metadata(lambda c: c.catalog.drop(name))
            for w in self.workers.values():
                w.drop_table(name)

    def create_index(self, table: str, column: str) -> None:
        """Build the set-granular secondary index on every worker."""
        entry = self.catalog.entry(table)
        entry.schema.resolve(column)  # validate
        for w in self.workers.values():
            w.storage[table].create_index(column)

    def register_external(self, name: str, uet: ExternalTableType) -> None:
        """External table framework: expose a UET's fragments to workers."""
        from ..storage.partition import RoundRobin

        entry = CatalogEntry(name, uet.schema(), RoundRobin(), external=True)
        self._replicate_metadata(lambda c: c.catalog.add(entry))
        frags = uet.fragments(len(self.worker_ids))
        for w, wk in self.workers.items():
            mine = [f for f in frags if (f.preferred_node is None or f.preferred_node == w)]
            wk.external[name] = (uet, mine)

    # -- elastic membership (DESIGN.md §10) ----------------------------------------------
    def add_worker(self) -> RebalanceReport:
        """Scale out by one worker while concurrent sessions keep serving.

        Allocates a fresh worker id (ids are never reused), registers it
        with the network and transaction system, re-shards every table's
        fragments across the grown membership, and publishes the next
        placement epoch. In-flight queries finish against the epoch they
        planned under — their executor clones pin the old worker set and
        the old (never-mutated) storages; queries that start after the
        publish plan and execute against the new epoch.
        """
        with self._write_lock:
            # high-water mark over every epoch ever published, so the id
            # of a drained worker is never handed to a new one
            new_id = 1 + max(
                w
                for pm in self.catalog.placement_history.values()
                for w in pm.workers
            )
            wk = Worker(new_id, self.config, self._make_fs(new_id))
            self.net.add_node(new_id)
            return self._rebalance(
                "add", sorted(self.worker_ids) + [new_id], joining={new_id: wk}
            )

    def drain_worker(self, worker_id: int) -> RebalanceReport:
        """Gracefully remove a worker: drain first, then re-shard.

        The worker is marked draining in the shared health tracker the
        moment the drain starts, so replicated reads route around it
        immediately; partitioned reads keep hitting it until its
        fragments have moved (the data lives nowhere else yet). A
        draining placement epoch is published before the move and the
        final epoch (without the worker) after, so the transition is
        visible in ``placement_history``.
        """
        with self._write_lock:
            if worker_id not in self.worker_ids:
                raise PlanError(f"worker {worker_id} is not in the placement map")
            if len(self.worker_ids) < 2:
                raise PlanError("cannot drain the last worker")
            return self._rebalance(
                "drain",
                [w for w in self.worker_ids if w != worker_id],
                leaving=(worker_id,),
            )

    def replicate_table(self, name: str) -> RebalanceReport:
        """Re-replicate a hot partitioned table to every worker.

        The elasticity policy's answer to broadcast/forwarding-heavy
        traffic on a small dimension table: convert it to ``Replicated``
        so joins against it stop shuffling. Publishes a new placement
        epoch (same membership, new fragment placement)."""
        with self._write_lock:
            entry = self.catalog.entry(name)
            if entry.external:
                raise PlanError(f"external table {name!r} cannot be re-replicated")
            if isinstance(entry.scheme, Replicated):
                raise PlanError(f"table {name!r} is already replicated")
            target = CatalogEntry(
                name, entry.schema, Replicated(), entry.fmt, entry.clustering
            )
            return self._rebalance(
                "replicate", list(self.worker_ids), retable={name: target}
            )

    def _rebalance(
        self,
        kind: str,
        new_ids: list[int],
        joining: dict[int, Worker] | None = None,
        leaving: tuple[int, ...] = (),
        retable: dict[str, CatalogEntry] | None = None,
    ) -> RebalanceReport:
        """Move fragments to the new placement, then publish the epoch.

        Correctness under concurrency comes from publish-by-replacement:
        the move builds *new* ``TableStorage`` objects (on epoch-versioned
        file paths) and new per-worker storage dicts, never mutating
        anything the current epoch's executor — or any in-flight query's
        pinned clone of it — references. The publish step then atomically
        swaps in a new executor, placement map, and worker set. Data moves
        as real ``rebalance|<table>``-tagged network streams so chaos
        faults hit the rebalance itself; a failed stream retries while
        advancing the fault clock (crash windows heal), then falls back to
        a coordinator-mediated route.
        """
        joining = dict(joining or {})
        retable = dict(retable or {})
        old_ids = list(self.worker_ids)
        health = self._executor.health
        t0 = time.perf_counter()
        for w in leaving:
            health.mark_draining(w)
        if leaving:
            # announce the drain: new plans see the transitional epoch
            self._replicate_metadata(
                lambda c: c.catalog.set_placement(tuple(old_ids), draining=tuple(leaving))
            )
        report = RebalanceReport(
            kind=kind,
            workers=tuple(sorted(new_ids)),
            added=tuple(sorted(set(new_ids) - set(old_ids))),
            removed=tuple(sorted(leaving)),
        )
        tr = self.tracer
        qid = next(self._qid)
        root = (
            tr.start_query(qid, f"-- rebalance:{kind} -> {sorted(new_ids)}")
            if tr is not None
            else None
        )
        try:
            coord = self.coord_ids[0]
            all_ids = sorted(set(old_ids) | set(new_ids))
            topo = BinomialGraphTopology(all_ids, self.config.n_max)
            tree = TreeTopology([coord] + all_ids, self.config.n_max, root=coord)
            new_storage = self._move_fragments(
                old_ids, sorted(new_ids), joining, leaving, retable, topo, tree, report
            )
            self._publish_epoch(sorted(new_ids), joining, leaving, retable, new_storage, report)
        finally:
            if root is not None:
                tr.end(root, error=report.epoch == 0)
        report.duration_s = time.perf_counter() - t0
        self.rebalances.append(report)
        return report

    def _move_fragments(
        self, old_ids, new_ids, joining, leaving, retable, topo, tree, report
    ) -> dict[int, dict[str, TableStorage]]:
        """Build each new-epoch worker's storage dict, streaming moved
        fragments over the network as tagged rebalance traffic."""
        epoch = self.catalog.placement_epoch + 1
        survivors = [w for w in old_ids if w not in leaving]
        workers_of = dict(self.workers)
        workers_of.update(joining)
        new_storage: dict[int, dict[str, TableStorage]] = {w: {} for w in new_ids}
        tr = self.tracer
        for name in sorted(self.catalog.tables):
            entry = self.catalog.tables[name]
            if entry.external:
                continue
            target = retable.get(name, entry)
            sp = (
                tr.begin("rebalance.table", cat="rebalance", table=name)
                if tr is not None
                else None
            )
            base_bytes = report.bytes_moved
            try:
                self._reshard_table(
                    name, entry, target, old_ids, new_ids, survivors,
                    workers_of, new_storage, topo, tree, report, epoch,
                )
            finally:
                if sp is not None:
                    tr.end(sp, nbytes=report.bytes_moved - base_bytes)
        self._reassign_external(joining, leaving, survivors)
        return new_storage

    def _reshard_table(
        self, name, entry, target, old_ids, new_ids, survivors,
        workers_of, new_storage, topo, tree, report, epoch,
    ) -> None:
        scheme = target.scheme
        if isinstance(entry.scheme, Replicated) and isinstance(scheme, Replicated):
            # replicated table across a membership change: survivors keep
            # their (immutable) copy; joining workers stream one from a donor
            donor = survivors[0]
            src_ts = self.workers[donor].storage[name]
            moved = False
            for w in new_ids:
                if w in old_ids:
                    new_storage[w][name] = self.workers[w].storage[name]
                    continue
                full = _all_of(src_ts)
                if full.length:
                    self._move_stream(topo, tree, donor, w, full.to_bytes(), name, report)
                ts = self._fresh_storage(workers_of[w], target, epoch)
                if full.length:
                    ts.load(full)
                self._copy_indexes(src_ts, ts)
                new_storage[w][name] = ts
                moved = True
            if moved:
                report.tables_moved += 1
            return
        if isinstance(scheme, Replicated):
            # re-replication of a partitioned table: every worker ends up
            # with the full row set; each foreign part crosses the wire
            parts = {src: _all_of(self.workers[src].storage[name]) for src in old_ids}
            full = RowBatch.concat(entry.schema, [p for p in parts.values()])
            sample_old = self.workers[old_ids[0]].storage[name]
            for dst in new_ids:
                for src in old_ids:
                    p = parts[src]
                    if src != dst and p.length:
                        self._move_stream(topo, tree, src, dst, p.to_bytes(), name, report)
                ts = self._fresh_storage(workers_of[dst], target, epoch)
                if full.length:
                    ts.load(full)
                self._copy_indexes(sample_old, ts)
                new_storage[dst][name] = ts
            report.tables_moved += 1
            return
        # partitioned re-shard: re-run the table's node assignment over
        # the new membership; rows whose worker changes cross the wire
        from ..storage.partition import RangePartition

        n_new = len(new_ids)
        if isinstance(scheme, RangePartition) and len(scheme.bounds) != n_new - 1:
            raise CatalogError(
                f"range-partitioned table {name!r} has {len(scheme.bounds)} split "
                f"points and cannot be re-sharded to {n_new} workers"
            )
        parts_for: dict[int, list[RowBatch]] = {w: [] for w in new_ids}
        for src in old_ids:
            batch = _all_of(self.workers[src].storage[name])
            if batch.length == 0:
                continue
            targets = scheme.assign_nodes(batch, n_new)
            for i, dst in enumerate(new_ids):
                part = batch.filter(targets == i)
                if part.length == 0:
                    continue
                if dst != src:
                    self._move_stream(topo, tree, src, dst, part.to_bytes(), name, report)
                parts_for[dst].append(part)
        sample_old = self.workers[old_ids[0]].storage[name]
        for dst in new_ids:
            ts = self._fresh_storage(workers_of[dst], target, epoch)
            for part in parts_for[dst]:
                ts.load(part, disk_of_rows(part, scheme, self.config.disks_per_node))
            self._copy_indexes(sample_old, ts)
            new_storage[dst][name] = ts
        report.tables_moved += 1

    def _reassign_external(self, joining, leaving, survivors) -> None:
        """External tables: a leaving worker's fragments move to the
        survivors; joining workers start with none. Worker ``external``
        dicts are replaced, never mutated — in-flight queries captured
        the old dict by reference."""
        ext = [n for n, e in self.catalog.tables.items() if e.external]
        for name in ext:
            donor = next(
                (w for w in survivors if name in self.workers[w].external), None
            )
            if donor is None:
                continue
            uet = self.workers[donor].external[name][0]
            for wk in joining.values():
                wk.external = {**wk.external, name: (uet, [])}
            orphans = []
            for w in leaving:
                orphans.extend(self.workers[w].external.get(name, (None, []))[1])
            for i, frag in enumerate(orphans):
                w = survivors[i % len(survivors)]
                wk = self.workers[w]
                cur_uet, cur_frags = wk.external[name]
                wk.external = {
                    **wk.external, name: (cur_uet, list(cur_frags) + [frag])
                }

    def _move_stream(self, topo, tree, src: int, dst: int, payload: bytes,
                     table: str, report: RebalanceReport) -> None:
        """Deliver one fragment stream ``src -> dst`` as tagged rebalance
        traffic, surviving chaos faults injected mid-rebalance.

        Sends retry up to :data:`REBALANCE_SEND_RETRIES` times, advancing the
        fault clock between attempts so crash windows heal; failed
        attempts' partial deliveries are dropped (streams are processed
        one at a time, so only this stream's messages are in flight).
        When the direct binomial-graph route stays broken, the stream is
        rerouted through the coordinator's tree — a different path that
        avoids the failed hub."""
        tag = f"rebalance|{table}"
        inj = self.net.injector
        budget = REBALANCE_SEND_RETRIES
        coord = self.coord_ids[0]

        def direct() -> bool:
            self.net.route_send(topo, src, dst, payload, tag=tag)
            return bool(self.net.recv_all(dst, tag=tag))

        def via_coordinator() -> bool:
            self.net.route_send(tree, src, coord, payload, tag=tag)
            self.net.recv_all(coord, tag=tag)
            self.net.route_send(tree, coord, dst, payload, tag=tag)
            return bool(self.net.recv_all(dst, tag=tag))

        for hop, attempt in (("direct", direct), ("reroute", via_coordinator)):
            for _ in range(budget):
                try:
                    if attempt():
                        report.streams += 1
                        report.bytes_moved += len(payload)
                        if hop == "reroute":
                            report.reroutes += 1
                        return
                except (NetworkError, WorkerFailureError):
                    pass
                report.retries += 1
                self.net.clear_inboxes("rebalance|")
                if inj is not None:
                    inj.record(
                        "rebalance_retry", node=dst, tag=tag,
                        detail=f"{hop} {src}->{dst} retrying",
                    )
                    inj.advance(4)  # crash windows heal on the fault clock
        raise WorkerFailureError(
            dst,
            f"rebalance stream for {table!r} ({src}->{dst}) undeliverable "
            f"after {2 * budget} attempts",
        )

    def _fresh_storage(self, worker: Worker, entry: CatalogEntry, epoch: int) -> TableStorage:
        """A new-epoch TableStorage on epoch-versioned file paths, so the
        old epoch's files — still being scanned by in-flight queries —
        are never touched."""
        return TableStorage(
            worker.fs,
            worker.bufmgr,
            f"{entry.name}@e{epoch}",
            entry.schema,
            fmt=entry.fmt,
            n_disks=self.config.disks_per_node,
            page_size=self.config.page_size,
            codec=self.config.compression,
            clustering=entry.clustering,
        )

    def _copy_indexes(self, old_ts: TableStorage, new_ts: TableStorage) -> None:
        for col in sorted(old_ts.indexed_columns):
            new_ts.create_index(col)

    def _publish_epoch(
        self, new_ids, joining, leaving, retable, new_storage, report
    ) -> None:
        """Atomically switch the cluster to the new placement.

        New queries pick everything up from here; in-flight queries keep
        their pinned clones of the previous executor (old worker set,
        old topologies, old storage dicts) and finish unperturbed."""
        old_exec = self._executor
        for w, wk in joining.items():
            self.workers[w] = wk
            self.txn_system.register_worker(wk)
        # copy-on-rebalance: rebind each worker's storage dict; the old
        # dict (and its TableStorage objects) stays alive for old epochs,
        # and what the new one does not keep is retired
        kept = {id(ts) for tables in new_storage.values() for ts in tables.values()}
        retired = [
            (self.workers[w], ts)
            for w in self.worker_ids
            for ts in self.workers[w].storage.values()
            if id(ts) not in kept
        ]
        for w in new_ids:
            self.workers[w].storage = new_storage[w]
        for w in leaving:
            self.workers.pop(w, None)
            # the drain is over: the worker left the placement entirely
            old_exec.health.clear_draining(w)
        for tname, tentry in retable.items():
            self._replicate_metadata(
                lambda c, tname=tname, tentry=tentry: c.catalog.tables.update(
                    {tname: tentry}
                )
            )
        self.worker_ids = sorted(new_ids)
        published: list[PlacementMap] = []
        self._replicate_metadata(
            lambda c: published.append(c.catalog.set_placement(tuple(self.worker_ids)))
        )
        report.epoch = published[0].epoch
        ex = DistributedExecutor(
            {w: self.workers[w].runtime() for w in self.worker_ids},
            self.coord_ids[0],
            self.net,
            self.config,
        )
        ex.health = old_exec.health  # failure history survives epochs
        ex.tracer = old_exec.tracer
        ex.fault_injector = old_exec.fault_injector
        ex.epoch = report.epoch
        # introspection survives epochs too: providers close over the
        # Database (not a specific executor), the recorder is shared,
        # and joining workers' governors start reporting spills
        ex.sys_tables = old_exec.sys_tables
        ex.recorder = old_exec.recorder
        for wk in joining.values():
            self._wire_governor(wk.worker_id, wk.governor)
        self.recorder.record(
            "epoch_publish",
            epoch=report.epoch,
            change=report.kind,
            workers=sorted(self.worker_ids),
        )
        with self._epoch_lock:
            self._executor = ex
            self._retired[ex.epoch] = retired
        self._reap()
        # membership-aware resource management: the admission budget
        # follows the live aggregate memory
        self.admission.resize(self.config.memory_per_node * len(self.worker_ids))

    def _reap(self) -> None:
        """Delete the storages each publish retired once no query runs on
        an epoch before that publish's."""
        with self._epoch_lock:
            oldest = min(self._running, default=None)
            due = [e for e in self._retired if oldest is None or oldest >= e]
            doomed = [pair for e in due for pair in self._retired.pop(e)]
        for worker, ts in doomed:
            worker.drop_storage(ts)

    # -- loading & statistics ---------------------------------------------------------
    def load(self, name: str, batch: RowBatch) -> None:
        """Bulk-load rows, partitioning across workers per the table scheme."""
        entry = self.catalog.entry(name)
        with self._write_lock:
            n = len(self.worker_ids)
            if isinstance(entry.scheme, Replicated):
                for w in self.workers.values():
                    w.storage[name].load(batch)
            else:
                targets = entry.scheme.assign_nodes(batch, n)
                for i, w in enumerate(self.worker_ids):
                    part = batch.filter(targets == i)
                    if part.length:
                        disks = disk_of_rows(part, entry.scheme, self.config.disks_per_node)
                        self.workers[w].storage[name].load(part, disks)
            self.analyze(name, batch)

    def analyze(self, name: str, sample: RowBatch | None = None) -> None:
        """Refresh optimizer statistics (replicated to all coordinators).
        Without a sample the table is read back whole — one replica of a
        replicated table, every worker's partition otherwise."""
        if sample is None:
            entry = self.catalog.entry(name)
            stores = [w.storage[name] for w in self.workers.values() if name in w.storage]
            if isinstance(entry.scheme, Replicated):
                stores = stores[:1]
            sample = RowBatch.concat(entry.schema, [_all_of(st) for st in stores])
        stats = TableStats.from_batch(sample)
        self._replicate_metadata(lambda c: c.stats.put(name, stats))

    def set_table_stats(self, name: str, stats: TableStats) -> None:
        """Install analytic statistics (used by SF1000 planning harnesses)."""
        self._replicate_metadata(lambda c: c.stats.put(name, stats))

    # -- query pipeline -----------------------------------------------------------------
    def plan_select(
        self, stmt: SelectStmt, coordinator: int = 0
    ) -> tuple[LogicalPlan, PhysOp]:
        from ..optimizer.logical import reset_fresh_names

        with self._plan_lock:  # fresh-name state is global: one planner at a time
            reset_fresh_names()  # deterministic plans per statement
            coord = self.coordinators[coordinator]
            binder = Binder(coord.catalog)
            logical = binder.bind(stmt)
            deriver = StatsDeriver(coord.stats)
            logical = optimize_logical(logical, deriver)
            placement = lambda t: coord.catalog.entry(t).partitioning()
            deriver2 = StatsDeriver(coord.stats)
            physical = DataflowPlanner(placement, deriver2, self.config).plan(logical)
            return logical, physical

    def _plan_select_cached(
        self, text: str, stmt: SelectStmt, coordinator: int
    ) -> tuple[LogicalPlan, PhysOp, tuple]:
        """Plan through the coordinator's plan cache.

        Plans are immutable after optimization, so a cached (logical,
        physical) pair is shared by concurrent executions as-is; only
        per-query executor state is cloned. The key carries the catalog
        and statistics versions, so DDL or ANALYZE invalidates. The key
        is returned too — the statement's Q-error is recorded under it."""
        coord = self.coordinators[coordinator]
        key = PlanCache.key(
            text, coordinator, coord.catalog.version, coord.stats.version
        )
        pair = self.plan_cache.get(key)
        if pair is None:
            pair = self.plan_select(stmt, coordinator)
            self.plan_cache.put(key, pair)
        return pair[0], pair[1], key

    def _run_select(
        self,
        logical,
        physical,
        txn=None,
        coordinator: int = 0,
        qid: int | None = None,
        tracer: Tracer | None = None,
    ) -> QueryResult:
        """Admission-gated distributed execution with restart-on-failure.

        Each run gets a shallow executor clone (fresh counters, a unique
        ``q<id>|`` exchange-tag namespace) so concurrent queries never
        share mutable state or cross-deliver messages; the admission
        grant is held for the query's whole lifetime, restarts included.
        The query executes rooted at the session's coordinator node, so
        round-robined sessions spread gather/merge load across the
        replicated coordinators (paper §II: clients load-balance over
        coordinators). ``tracer`` is the one the query runs under (None:
        untraced), which :meth:`_select` chose.
        """
        qid = qid if qid is not None else next(self._qid)
        # the query pins its epoch's storages until it ends (``_reap``)
        with self._epoch_lock:
            ex = self._executor.for_query(qid, self.coord_ids[coordinator % len(self.coord_ids)])
            self._running[ex.epoch] = self._running.get(ex.epoch, 0) + 1
        try:
            return self._run_pinned(ex, logical, physical, qid, tracer)
        finally:
            with self._epoch_lock:
                self._running[ex.epoch] -= 1
                if not self._running[ex.epoch]:
                    del self._running[ex.epoch]
            self._reap()

    def _run_pinned(self, ex, logical, physical, qid: int, tr: Tracer | None) -> QueryResult:
        """:meth:`_run_select` on the executor clone ``ex``."""
        ex.tracer = tr
        t_adm = time.perf_counter()
        try:
            if tr is not None:
                with tr.span("admit", cat="phase"):
                    admission = self.admission.admit()
            else:
                admission = self.admission.admit()
        except AdmissionTimeout:
            self._record_admission(qid, time.perf_counter() - t_adm, granted=False)
            raise
        self._record_admission(qid, time.perf_counter() - t_adm)
        with admission:
            esp = tr.begin("execute", cat="phase") if tr is not None else None
            try:
                # fault tolerance (paper §I): a mid-query worker failure
                # aborts the query; after the node recovers (ARIES handles
                # its local state) the coordinator simply restarts the
                # query, up to the configured restart budget
                attempts = 0
                carried = ExecStats()
                while True:
                    attempts += 1
                    asp = (
                        tr.begin("attempt", cat="phase", attempt=attempts)
                        if tr is not None
                        else None
                    )
                    try:
                        # solo queries keep the serial per-query peak-memory
                        # semantics; under concurrency governors are shared,
                        # so peak reflects aggregate cluster pressure
                        batch, stats = ex.execute(
                            physical, reset_governors=self.admission.active == 1
                        )
                        if asp is not None:
                            tr.end(asp, rows=stats.rows_returned)
                        break
                    except WorkerFailureError as e:
                        if asp is not None:
                            tr.end(asp, error=True, worker=e.worker_id)
                        carried.merge(
                            ExecStats(
                                retries=ex.retries,
                                backoff_time=ex.backoff_time,
                                failed_workers=tuple(
                                    sorted(ex.failed_workers | {e.worker_id})
                                ),
                            )
                        )
                        # abandon only THIS query's in-flight exchanges —
                        # also when giving up, or they sit in the inboxes
                        self.net.clear_inboxes(ex.qtag)
                        if attempts > self.config.max_query_restarts:
                            raise WorkerFailureError(
                                e.worker_id,
                                f"query restart budget exhausted after {attempts} attempts "
                                f"(max_query_restarts={self.config.max_query_restarts}): {e}",
                            ) from e
                        if self.net.injector is not None:
                            # restarting is not free: failure detection and
                            # requeueing consume fault-clock time, during
                            # which crashed nodes progress toward recovery
                            self.net.injector.advance(8)
            finally:
                if esp is not None:
                    tr.end(esp)
        # fold the failed attempts' fault counters into the final
        # attempt's stats (additive counters sum, rows_returned is the
        # successful attempt's)
        stats = carried.merge(stats)
        stats.restarts = attempts - 1
        result = QueryResult(batch, stats, logical, physical, qid=qid, epoch=ex.epoch)
        result.op_rows = dict(ex.op_rows)
        return result

    def sql(self, text: str, coordinator: int = 0, txn=None) -> QueryResult:
        stmt = _parse_cached(text)
        if isinstance(stmt, SelectStmt):
            return self._select(text, stmt, coordinator, txn)
        if isinstance(stmt, CreateTable):
            schema = Schema.of(*((c.name, c.dtype) for c in stmt.columns))
            self.create_table(stmt.name, schema, stmt.partition, stmt.fmt, stmt.clustering)
            return _empty_result()
        if isinstance(stmt, DropTable):
            self.drop_table(stmt.name)
            return _empty_result()
        from ..sql.ast import CreateIndex

        if isinstance(stmt, CreateIndex):
            self.create_index(stmt.table, stmt.column)
            return _empty_result()
        if isinstance(stmt, InsertValues):
            return self.insert_values(stmt, txn=txn)
        if isinstance(stmt, DeleteStmt):
            return self.delete_where(stmt, txn=txn)
        if isinstance(stmt, UpdateStmt):
            return self.update_where(stmt, txn=txn)
        raise PlanError(f"unsupported statement {type(stmt).__name__}")

    def _select(
        self, text: str, stmt: SelectStmt, coordinator: int, txn,
        tracer: Tracer | None = None,
    ) -> QueryResult:
        """The traced SELECT lifecycle: plan phase, execute phase (with
        per-attempt spans), query log and query metrics. ``tracer``
        overrides the cluster's tracer for this one query — EXPLAIN
        ANALYZE is this lifecycle under a tracer."""
        qid = next(self._qid)
        tr = tracer if tracer is not None else self.tracer
        t0 = time.perf_counter()
        self.query_log.start(qid, text, coordinator)
        root = tr.start_query(qid, text) if tr is not None else None
        try:
            psp = tr.begin("plan", cat="phase") if tr is not None else None
            try:
                logical, physical, key = self._plan_select_cached(text, stmt, coordinator)
            finally:
                if psp is not None:
                    tr.end(psp)
            if txn is not None:
                # serializable reads: SS2PL shared locks on every scanned
                # table, held until the transaction ends (paper §VI);
                # virtual sys.* relations have no storage to lock
                from ..optimizer.logical import Scan, walk

                tables = {
                    n.table
                    for n in walk(logical)
                    if isinstance(n, Scan) and n.table != "__dual"
                    and not self.catalog.entry(n.table).external
                    and not self.catalog.entry(n.table).virtual
                }
                self.txn_system.lock_read(txn, tables)
            result = self._run_select(
                logical, physical, txn=txn, coordinator=coordinator, qid=qid, tracer=tr
            )
        except BaseException as e:
            self.query_log.fail(qid, e, time.perf_counter() - t0)
            raise
        finally:
            if root is not None:
                tr.end(root)
        result.trace = root
        scores = score_plan(result.physical, result.op_rows or {})
        self.feedback.observe(key, max((sc.q for sc in scores), default=1.0))
        duration = time.perf_counter() - t0
        self.query_log.finish(qid, result, duration)
        self._m_query_total.inc()
        self._m_query_hist.observe(duration)
        self._introspection_tick()
        return result

    def feedback_stats(self) -> dict:
        """Estimate-quality observability (runs, worst Q; re-plans is 0)."""
        return self.feedback.stats()

    def explain(self, text: str) -> str:
        stmt = parse(text)
        if not isinstance(stmt, SelectStmt):
            raise PlanError("EXPLAIN supports SELECT only")
        logical, physical = self.plan_select(stmt)
        return f"-- logical --\n{logical.pretty()}\n-- dataflow --\n{physical.pretty()}"

    def explain_analyze(self, text: str) -> str:
        """Execute the query under a tracer — the cluster's, or a
        one-query tracer when tracing is off — and render its operator
        spans over the dataflow: rows vs estimates, batches, inclusive
        and self time, data skipping, pages, network bytes, and spill —
        plus footers reconciling pipeline, scan, restart, and per-prefix
        network totals (untagged traffic attributed explicitly)."""
        stmt = parse(text)
        if not isinstance(stmt, SelectStmt):
            raise PlanError("EXPLAIN ANALYZE supports SELECT only")
        result = self._select(text, stmt, 0, None, tracer=self.tracer or Tracer())
        return render_analyze(
            result.physical,
            result.op_rows,
            result.trace,
            result.stats,
            network=self.net.traffic_by_prefix(),
        )

    def execute_reference(self, text: str) -> RowBatch:
        """Run via the single-node reference executor (oracle for tests).

        The one importer of :mod:`repro.core.reference`, and only when
        called: no query the engine runs loads it."""
        from ..core.reference import execute_logical

        stmt = parse(text)
        if not isinstance(stmt, SelectStmt):
            raise PlanError("reference executor supports SELECT only")
        coord = self.coordinators[0]
        logical = push_filters(Binder(coord.catalog).bind(stmt))

        def source(tname: str) -> RowBatch:
            entry = coord.catalog.entry(tname)
            if entry.external:
                uet, _ = next(iter(self.workers.values())).external[tname]
                parts = []
                for frag in uet.fragments(1):
                    parts.extend(uet.scan_fragment(frag, self.config.batch_size))
                return RowBatch.concat(entry.schema, parts)
            if isinstance(entry.scheme, Replicated):
                return _all_of(self.workers[self.worker_ids[0]].storage[tname])
            parts = [_all_of(w.storage[tname]) for w in self.workers.values()]
            return RowBatch.concat(entry.schema, parts)

        return execute_logical(logical, source)

    # -- DML (transactional paths live in repro.txn) ------------------------------------
    def insert_values(self, stmt: InsertValues, txn=None) -> QueryResult:
        entry = self.catalog.entry(stmt.table)
        if entry.virtual:
            raise PlanError(f"system table {stmt.table!r} is read-only")
        width = len(entry.schema.columns)
        rows = []
        for row in stmt.rows:
            if len(row) != width:
                raise PlanError(f"INSERT row has {len(row)} values, table {stmt.table!r} has {width} columns")
            vals = []
            for e in row:
                if not isinstance(e, Literal):
                    raise PlanError("INSERT VALUES requires literals")
                # tables store no NULLs (UPDATE ... SET c = null is refused too)
                if e.value is None:
                    raise PlanError("INSERT VALUES cannot store NULL")
                vals.append(e.value)
            rows.append(vals)
        cols = {}
        for i, c in enumerate(entry.schema.columns):
            cols[c.name] = np.asarray([r[i] for r in rows], dtype=c.dtype.numpy_dtype)
        batch = RowBatch(entry.schema, cols)
        return self._dml(stmt.table, "insert", batch=batch, txn=txn)

    def delete_where(self, stmt: DeleteStmt, txn=None) -> QueryResult:
        return self._dml(stmt.table, "delete", predicate=stmt.where, txn=txn)

    def update_where(self, stmt: UpdateStmt, txn=None) -> QueryResult:
        return self._dml(stmt.table, "update", predicate=stmt.where, assignments=stmt.assignments, txn=txn)

    def _dml(self, table: str, op: str, batch=None, predicate=None, assignments=None, txn=None) -> QueryResult:
        if self.catalog.has_table(table) and self.catalog.entry(table).virtual:
            raise PlanError(f"system table {table!r} is read-only")
        with self._write_lock:
            n = self.txn_system.run_dml(table, op, batch=batch, predicate=predicate,
                                        assignments=assignments, txn=txn)
        res = _empty_result()
        res.rowcount = n
        return res

    # -- observability --------------------------------------------------------------------
    def table_rows(self, name: str) -> int:
        entry = self.catalog.entry(name)
        if isinstance(entry.scheme, Replicated):
            return self.workers[self.worker_ids[0]].storage[name].row_count
        return sum(w.storage[name].row_count for w in self.workers.values())

    def reorganize(self, name: str) -> None:
        for w in self.workers.values():
            w.storage[name].reorganize()


def _all_of(storage: TableStorage) -> RowBatch:
    parts = [f.all_rows() for f in storage.fragments]
    return RowBatch.concat(storage.schema, parts)


def _empty_result() -> QueryResult:
    from ..common.dtypes import DataType
    from ..common.schema import Column

    schema = Schema([Column("__ok", DataType.INT64)])
    return QueryResult(RowBatch(schema, {"__ok": np.empty(0, dtype=np.int64)}), ExecStats())
