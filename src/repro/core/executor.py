"""Distributed query executor.

Interprets a Phase-3 physical plan over the simulated cluster: every
``workers``-site operator runs SPMD (one instance per worker against
that worker's partition), exchanges move *real serialized batches*
through the simulated network along the paper's topologies —

* **shuffle** re-partitions rows by key hash and routes each batch
  through the binomial-graph n-to-m topology (hub forwarding and the
  ``N_max`` connection bound are therefore real, measurable effects);
* **gather** moves worker outputs up the tree topology to the
  coordinator, combining partial aggregates / merging sorted runs /
  folding top-k heaps *at every internal tree node* (the Dremel-style
  serving-tree generalization the paper describes);
* **broadcast** replicates a relation to all workers.

There is one execution shape: every subtree runs as a *chain*
(:mod:`repro.core.pipeline`) — a source (table-scan morsels, or the
evaluated batches of a blocking operator) followed by filter / project
/ probe steps — and each consumer here is written once, against the
chain's per-site batch stream.

Hash joins take Bloom filters built from the build side and apply them
on the probe side *before* its shuffle routes data, reproducing the
paper's communication-reduction technique. Operator inputs are buffered
in spillable lists governed by the per-worker memory budget.
"""

from __future__ import annotations

import copy
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ..common.batch import RowBatch, hash_value_arrays
from ..common.config import ClusterConfig
from ..common.dtypes import DataType
from ..common.errors import ExecutionError, NetworkError, WorkerFailureError
from ..common.schema import Schema
from ..fault.health import WorkerHealthTracker
from ..network.simnet import SimNetwork
from ..network.topology import BinomialGraphTopology, TreeTopology
from ..optimizer.logical import AggSpec
from ..optimizer.physical import COORD, WORKERS, PhysOp
from ..sql.ast import ColumnRef, Expr
from ..sql.compiler import compile_expr, compile_predicate, to_scan_predicate
from ..storage.table import ScanStats, TableStorage
from .kernels import (
    JoinHashTable,
    bloom_filter_codes,
    bloom_filter_test,
    sort_indices,
    top_k,
)
from .pipeline import (
    FusedChain,
    InflightTracker,
    MorselScheduler,
    PipelineMetrics,
    apply_steps,
    chain_step,
    coalesce_batches,
    fuse_chain,
    morsel_disks,
    run_tasks_ordered,
)
from .reference import _combine, aggregate_batch, distinct_batch, hash_join
from .spill import MemoryGovernor, SpillableList
from ..telemetry.profile import OpProfile
from ..telemetry.trace import Tracer
from ..util.fs import FileSystem


@dataclass
class WorkerRuntime:
    """Per-worker execution context handed to the executor."""

    worker_id: int
    fs: FileSystem
    storage: dict[str, TableStorage]
    governor: MemoryGovernor
    external: dict[str, object] = field(default_factory=dict)
    #: degree of parallelism the worker grants (resource-management L2)
    effective_dop: int = 2
    #: live DOP source (the worker's resource monitor); overrides
    #: ``effective_dop`` when present so throttling reacts to pressure
    dop_source: Optional[Callable[[], int]] = None

    def current_dop(self) -> int:
        return self.dop_source() if self.dop_source is not None else self.effective_dop


@dataclass
class ExecStats:
    rows_scanned: int = 0
    pages_read: int = 0
    sets_skipped: int = 0
    sets_total: int = 0
    #: pages a plain decode scan would have read but skipping avoided
    pages_skipped: int = 0
    #: pages whose predicate atoms ran over the encoded representation
    pages_pushed_down: int = 0
    #: column pages served from a shared-scan leader's published arrays
    pages_shared: int = 0
    #: scans that attached to another query's in-flight page pass
    shared_attaches: int = 0
    #: always 0 since sideways bloom pushdown was removed; benchmarks/e2e
    #: (frozen) still reads the field
    sets_skipped_bloom: int = 0
    shuffle_bytes: int = 0
    network_bytes: int = 0
    network_messages: int = 0
    forwarded_bytes: int = 0
    max_connections: int = 0
    spilled_bytes: int = 0
    peak_memory: int = 0
    rows_returned: int = 0
    #: query restarts after mid-query worker failures
    restarts: int = 0
    #: transient send failures recovered by retry
    retries: int = 0
    #: simulated time spent in exponential backoff between retries, seconds
    backoff_time: float = 0.0
    #: workers that failed (probe or send) at any point during the query
    failed_workers: tuple = ()
    #: fused morsel-driven pipelines built for the query
    pipelines: int = 0
    #: operators folded into those pipelines (scans included)
    fused_ops: int = 0
    #: morsel tasks executed (one per table fragment per site)
    morsels: int = 0
    #: peak batches produced by morsel tasks but not yet consumed
    peak_inflight_batches: int = 0
    #: measured wall-seconds of morsel-task work per serving worker — the
    #: data-parallel portion a real cluster runs on the worker machines
    #: (feeds the concurrency bench's modeled-throughput computation and
    #: exposes worker busy-time skew)
    site_busy_s: dict = field(default_factory=dict)
    #: measured wall-seconds of work only the coordinator can do (final
    #: combines, result decode); the counterpart of ``site_busy_s`` that
    #: the reduce tree is meant to shrink
    coord_busy_s: float = 0.0

    def merge(self, other: "ExecStats") -> "ExecStats":
        """Fold another attempt's (or fragment's) stats into this one.

        Every place that combines stats across query restarts goes
        through here instead of ad-hoc field twiddling: additive
        counters sum, high-water marks take the max, ``failed_workers``
        is the sorted union, and result-shaped fields
        (``rows_returned``) take ``other``'s value — the later attempt
        is the one that produced the answer. Returns ``self``.
        """
        self.rows_scanned += other.rows_scanned
        self.pages_read += other.pages_read
        self.sets_skipped += other.sets_skipped
        self.sets_total += other.sets_total
        self.pages_skipped += other.pages_skipped
        self.pages_pushed_down += other.pages_pushed_down
        self.pages_shared += other.pages_shared
        self.shared_attaches += other.shared_attaches
        self.shuffle_bytes += other.shuffle_bytes
        self.network_bytes += other.network_bytes
        self.network_messages += other.network_messages
        self.forwarded_bytes += other.forwarded_bytes
        self.spilled_bytes += other.spilled_bytes
        self.restarts += other.restarts
        self.retries += other.retries
        self.backoff_time += other.backoff_time
        self.pipelines += other.pipelines
        self.fused_ops += other.fused_ops
        self.morsels += other.morsels
        self.max_connections = max(self.max_connections, other.max_connections)
        self.peak_memory = max(self.peak_memory, other.peak_memory)
        self.peak_inflight_batches = max(
            self.peak_inflight_batches, other.peak_inflight_batches
        )
        self.rows_returned = other.rows_returned
        self.failed_workers = tuple(
            sorted(set(self.failed_workers) | set(other.failed_workers))
        )
        merged = dict(self.site_busy_s)
        for site, s in other.site_busy_s.items():
            merged[site] = merged.get(site, 0.0) + s
        self.site_busy_s = merged
        self.coord_busy_s += other.coord_busy_s
        return self


SiteData = dict[int, list[RowBatch]]


@dataclass
class _ChainRun:
    """Per-execution state of one chain."""

    chain: FusedChain
    #: node ids the chain runs on (every worker, or the coordinator)
    sites: list[int]
    #: per-op output rows of the folded operators
    counts: dict[int, int]
    #: site → probe op id → batch transformer over that site's
    #: build-once hash table
    probes: dict[int, dict[int, Callable[[RowBatch], RowBatch]]]
    #: a blocking source's evaluated batches per site (None: table scan)
    source_data: SiteData | None
    #: the site stream being consumed; closed when the chain closes so an
    #: abandoned stream stops its morsels and its pipeline span
    live: Iterator[RowBatch] | None = None


class DistributedExecutor:
    def __init__(
        self,
        workers: dict[int, WorkerRuntime],
        coord_id: int,
        net: SimNetwork,
        config: ClusterConfig,
    ):
        self.workers = workers
        self.worker_ids = sorted(workers)
        self.coord_id = coord_id
        self.net = net
        self.config = config
        self.ntm = BinomialGraphTopology(self.worker_ids, config.n_max)
        self.tree = TreeTopology([coord_id] + self.worker_ids, config.n_max, root=coord_id)
        self._scan_stats = ScanStats()
        #: test/ops hook: called as fault_injector(worker_id, op) before
        #: each worker-scan; may raise WorkerFailureError to simulate a
        #: mid-query node failure
        self.fault_injector = None
        #: actual output rows per physical-op id, from the last execute()
        self.op_rows: dict[int, int] = {}
        #: per-worker health (blacklist-and-failover for replicated reads);
        #: persists across queries so repeated failures accumulate, and
        #: across membership epochs (the Database re-installs it when it
        #: rebuilds the executor for a new placement)
        self.health = WorkerHealthTracker(
            config.blacklist_threshold, config.probe_after, config.probe_interval
        )
        #: placement epoch this executor serves; queries pin it via
        #: :meth:`for_query` so in-flight work finishes against the
        #: worker set and storages it planned under
        self.epoch = 0
        #: per-execute() fault counters (the database façade accumulates
        #: these across restart attempts)
        self.retries = 0
        self.backoff_time = 0.0
        self.failed_workers: set[int] = set()
        #: per-execute() pipelining observability
        self.pipe = PipelineMetrics()
        self.inflight = InflightTracker()
        #: exchange-tag namespace; "" for the serial/legacy path, set to
        #: "q<id>|" by :meth:`for_query` so concurrent queries' messages
        #: never cross-deliver
        self.qtag = ""
        #: shared cross-query morsel pool (None = private per-chain pool)
        self.scheduler: MorselScheduler | None = None
        #: per-execute() morsel busy time per serving worker, seconds
        self.site_busy_s: dict[int, float] = {}
        #: per-execute() coordinator-only busy time, seconds
        self.coord_busy_s = 0.0
        self._busy_mu = threading.Lock()
        #: query-lifecycle tracer (None = tracing disabled: the only cost
        #: at every instrumentation point is this attribute test)
        self.tracer: Tracer | None = None
        #: per-operator profiles for EXPLAIN ANALYZE ({} when profiling,
        #: None otherwise)
        self.op_prof: dict[int, OpProfile] | None = None
        #: virtual (sys.*) relation providers: table name -> () -> RowBatch,
        #: materialized on demand at the coordinator by ``_eval_sysscan``.
        #: Shared by reference across per-query clones — providers are
        #: read-only closures over cluster state.
        self.sys_tables: dict[str, object] = {}
        #: cluster flight recorder (None = not wired); chaos events land
        #: here even without an injector or tracer attached
        self.recorder = None

    def for_query(
        self, qid: int, coord_id: int | None = None, profiled: bool = False
    ) -> "DistributedExecutor":
        """A shallow per-query clone with isolated mutable state.

        Shared (by reference): workers (and their governors — aggregate
        memory pressure must see every query), the network, topologies,
        the health tracker, and the morsel scheduler. Fresh per clone:
        every counter ``execute`` mutates, plus a unique exchange-tag
        namespace. This is what lets multiple threads run ``execute``
        concurrently against one cluster.

        ``coord_id`` roots the query at a specific coordinator node
        (HRDBMS load-balances clients across replicated coordinators, so
        each session's gathers and final merges land on *its* coordinator,
        not a shared one); the gather tree is rebuilt around that root.
        """
        clone = copy.copy(self)
        clone.qtag = f"q{qid}|"
        if coord_id is not None and coord_id != self.coord_id:
            clone.coord_id = coord_id
            clone.tree = TreeTopology(
                [coord_id] + self.worker_ids, self.config.n_max, root=coord_id
            )
        clone._scan_stats = ScanStats()
        clone.op_rows = {}
        clone.retries = 0
        clone.backoff_time = 0.0
        clone.failed_workers = set()
        clone.pipe = PipelineMetrics()
        clone.inflight = InflightTracker()
        clone.site_busy_s = {}
        clone.coord_busy_s = 0.0
        clone._busy_mu = threading.Lock()
        clone.op_prof = {} if profiled else None
        return clone

    def _note_busy(self, site: int, seconds: float) -> None:
        """Attribute wall time to the node that did the work: worker ids
        accrue to ``site_busy_s``, anything else (the coordinator) to
        ``coord_busy_s`` (morsel threads race under ``parallel_scans``,
        hence the lock)."""
        with self._busy_mu:
            if site in self.workers:
                self.site_busy_s[site] = self.site_busy_s.get(site, 0.0) + seconds
            else:
                self.coord_busy_s += seconds

    # -- entry ---------------------------------------------------------------------
    def execute(self, plan: PhysOp, reset_governors: bool = True) -> tuple[RowBatch, ExecStats]:
        base = self.net.traffic_of(self.qtag)
        self._scan_stats = ScanStats()
        self.op_rows = {}
        if self.op_prof is not None:
            self.op_prof = {}  # a restarted attempt profiles afresh
        self.retries = 0
        self.backoff_time = 0.0
        self.failed_workers = set()
        self.pipe = PipelineMetrics()
        self.inflight = InflightTracker()
        self.site_busy_s = {}
        self.coord_busy_s = 0.0
        # spill is attributed by delta, never by reset — the counters are
        # shared with concurrent queries and must stay monotonic
        base_spill = sum(w.governor.spilled_bytes for w in self.workers.values())
        if reset_governors:
            # solo queries re-baseline peak so it reads per-query; under
            # concurrency peak stays cumulative (aggregate cluster pressure)
            for w in self.workers.values():
                w.governor.peak = w.governor.used
        data = self._eval(plan)
        if plan.site != COORD:
            raise ExecutionError("plan root must be on the coordinator")
        result = RowBatch.concat(plan.schema, data.get(self.coord_id, []))
        end = self.net.traffic_of(self.qtag)
        stats = ExecStats(
            rows_scanned=self._scan_stats.rows_out,
            pages_read=self._scan_stats.pages_read,
            sets_skipped=(
                self._scan_stats.sets_skipped_cache
                + self._scan_stats.sets_skipped_minmax
                + self._scan_stats.sets_skipped_index
                + self._scan_stats.sets_skipped_encoded
            ),
            sets_total=self._scan_stats.sets_total,
            pages_skipped=self._scan_stats.pages_skipped,
            pages_pushed_down=self._scan_stats.pages_pushed_down,
            pages_shared=self._scan_stats.pages_shared,
            shared_attaches=self._scan_stats.shared_attaches,
            network_bytes=end.bytes - base.bytes,
            network_messages=end.messages - base.messages,
            forwarded_bytes=end.forwarded_bytes - base.forwarded_bytes,
            max_connections=self.net.max_connections(),
            spilled_bytes=sum(w.governor.spilled_bytes for w in self.workers.values())
            - base_spill,
            peak_memory=max(w.governor.peak for w in self.workers.values()),
            rows_returned=result.length,
            retries=self.retries,
            backoff_time=self.backoff_time,
            failed_workers=tuple(sorted(self.failed_workers)),
            pipelines=self.pipe.pipelines,
            fused_ops=self.pipe.fused_ops,
            morsels=self.pipe.morsels,
            peak_inflight_batches=self.inflight.peak,
            site_busy_s=dict(self.site_busy_s),
            coord_busy_s=self.coord_busy_s,
        )
        return result, stats

    # -- dispatch ------------------------------------------------------------------
    def _eval(self, op: PhysOp) -> SiteData:
        return self._traced(op, lambda: self._eval_impl(op))

    def _eval_impl(self, op: PhysOp) -> SiteData:
        if op.op == "scan" or chain_step(op):
            return self._collect(op)
        fn = getattr(self, f"_eval_{op.op}", None)
        if fn is None:
            raise ExecutionError(f"no evaluator for physical op {op.op!r}")
        return fn(op)

    #: exchange ops and their tag stems (span correlation across legs)
    _EXCHANGE_STEMS = {"shuffle": "shuf", "broadcast": "bcast", "gather": "gather"}

    def _traced(self, op: PhysOp, thunk: Callable[[], SiteData]) -> SiteData:
        """Run one operator with per-operator observability.

        Fast path (no tracer, no profiling): evaluate and record the row
        count, exactly the pre-telemetry behaviour. Otherwise wrap the
        evaluation in an ``operator`` span and/or fill an
        :class:`OpProfile` from before/after snapshots of the scan,
        traffic, and spill counters (inclusive of children, like every
        EXPLAIN ANALYZE).
        """
        tr = self.tracer
        prof = self.op_prof
        if tr is None and prof is None:
            out = thunk()
            self.op_rows[op.id] = sum(b.length for bs in out.values() for b in bs)
            return out
        sp = None
        if tr is not None:
            stem = self._EXCHANGE_STEMS.get(op.op)
            tag = f"{self.qtag}{stem}{op.id}" if stem else ""
            sp = tr.begin(op.op, cat="operator", tag=tag, op_id=op.id)
        t0 = time.perf_counter()
        base = self._prof_snapshot() if prof is not None else None
        try:
            out = thunk()
        except BaseException:
            if sp is not None:
                tr.end(sp, error=True)
            raise
        rows = sum(b.length for bs in out.values() for b in bs)
        self.op_rows[op.id] = rows
        if prof is not None:
            folded = prof.get(op.id)
            p = OpProfile(
                op_id=op.id,
                rows=rows,
                batches=sum(len(bs) for bs in out.values()),
                time_s=time.perf_counter() - t0,
                # the root of a collected chain was folded like its steps
                fused=folded is not None and folded.fused,
            )
            self._prof_fill(p, base)
            prof[op.id] = p
        if sp is not None:
            tr.end(sp, rows=rows)
        return out

    def _prof_snapshot(self) -> tuple:
        """Counter snapshot for delta-attribution of one operator."""
        st = self._scan_stats
        traffic = self.net.traffic_of(self.qtag)
        spill = sum(w.governor.spilled_bytes for w in self.workers.values())
        skipped = (
            st.sets_skipped_cache
            + st.sets_skipped_minmax
            + st.sets_skipped_index
            + st.sets_skipped_encoded
        )
        return (
            st.rows_out,
            st.pages_read,
            skipped,
            st.sets_total,
            traffic.bytes,
            spill,
            st.pages_skipped,
            st.pages_pushed_down,
            st.pages_shared,
        )

    def _prof_fill(self, p: OpProfile, base: tuple) -> None:
        after = self._prof_snapshot()
        p.scan_rows = after[0] - base[0]
        p.pages = after[1] - base[1]
        p.sets_skipped = after[2] - base[2]
        p.sets_total = after[3] - base[3]
        p.net_bytes = after[4] - base[4]
        p.spilled_bytes = after[5] - base[5]
        p.pages_skipped = after[6] - base[6]
        p.pages_pushed = after[7] - base[7]
        p.pages_shared = after[8] - base[8]

    # -- chains ---------------------------------------------------------------------
    def _open_chain(self, op: PhysOp) -> _ChainRun:
        """Fuse ``op``'s subtree into its chain and prepare one run of it.

        For every hash join folded into the chain, the *build* subtree is
        evaluated here (once per chain run, before any probe-side morsel
        or prefiltered shuffle starts), materialized per site, and turned
        into a per-site probe closure over a build-once
        :class:`JoinHashTable` — probe batches then stream through those
        closures with no per-batch build or key-compile cost. A blocking
        source is evaluated last; when it is the shuffle right under a
        bloom-planned inner/semi join, the build side's Bloom filter
        prefilters its rows before they are routed (paper §V).
        """
        chain = fuse_chain(op)
        self.pipe.pipelines += 1
        self.pipe.fused_ops += chain.n_ops
        source = chain.source
        sites = self._instances(source)
        counts = {t.id: 0 for t in chain.transforms}
        if chain.scans:
            counts[source.id] = 0
        probes: dict[int, dict[int, Callable[[RowBatch], RowBatch]]] = {
            w: {} for w in sites
        }
        prefilter = None
        for jop in chain.probe_ops:
            left_op, right_op = jop.children
            right = self._eval(right_op)
            pairs = jop.attrs["pairs"]
            if (
                left_op is source
                and source.op == "shuffle"
                and jop.attrs.get("bloom")
                and jop.attrs["kind"] in ("inner", "semi")
            ):
                prefilter = self._build_bloom_prefilter(jop, right, right_op, pairs)
            lkey_fns = [compile_expr(le, left_op.schema).fn for le, _ in pairs]
            for w in sites:
                t0 = time.perf_counter()
                rb = self._materialize(w, right_op.schema, right.get(w, []))
                jht = JoinHashTable(
                    [np.asarray(compile_expr(re, right_op.schema).fn(rb)) for _, re in pairs]
                )
                self._note_busy(w, time.perf_counter() - t0)
                probes[w][jop.id] = partial(self._probe_batch, jop, jht, rb, lkey_fns)
        source_data = None
        if prefilter is not None:
            source_data = self._traced(
                source, lambda: self._eval_shuffle(source, prefilter=prefilter)
            )
        elif not chain.scans:
            source_data = self._eval(source)
        return _ChainRun(chain, sites, counts, probes, source_data)

    @contextmanager
    def _chain(self, op: PhysOp) -> Iterator[_ChainRun]:
        """Run ``op``'s subtree as a chain: the body pulls each site's
        batches from :meth:`_site_batches`. However the body exits, the
        stream it was consuming is closed — morsels stopped, the site's
        ``pipeline`` span ended. On success the folded operators' actual
        rows are published for EXPLAIN ANALYZE."""
        run = self._open_chain(op)
        try:
            yield run
        finally:
            if run.live is not None:
                run.live.close()
        for op_id, n in run.counts.items():
            self.op_rows[op_id] = n
            if self.op_prof is not None and op_id not in self.op_prof:
                # operators folded into a pipeline have no standalone
                # timing; their rows still show, flagged as fused
                self.op_prof[op_id] = OpProfile(op_id=op_id, rows=n, fused=True)

    def _collect(self, op: PhysOp) -> SiteData:
        """Evaluate ``op``'s chain to materialized per-site batches (for
        parents that need their whole input: sorts, join build sides)."""
        with self._chain(op) as run:
            return {site: list(self._site_batches(run, site)) for site in run.sites}

    def _coalesce(self, batches, schema: Schema):
        """Regroup streamed batches to full width (4x batch_size rows) so
        per-batch exchange and fold costs stay amortized; memory stays
        bounded by the coalesce window."""
        return coalesce_batches(batches, schema, 4 * self.config.batch_size)

    def _site_batches(self, run: _ChainRun, site: int, fold=None) -> Iterator[RowBatch]:
        """One site's batches out of the chain, wrapped in the site's
        ``pipeline`` span when tracing.

        The span opens when the first batch is pulled and closes when the
        site's stream is exhausted; because sites are consumed one after
        another on the query's driver thread, pipeline spans of the same
        site never overlap — the invariant the trace tests assert. Any
        network send issued while a batch is being consumed (streaming
        shuffle/broadcast/gather) nests inside the producing site's span.
        """
        inner = (
            self._scan_site_batches(run, site, fold)
            if run.chain.scans
            else self._list_site_batches(run, site)
        )
        run.live = self._in_pipeline_span(inner, site, run.chain.source)
        return run.live

    def _in_pipeline_span(self, inner: Iterator[RowBatch], site: int, source: PhysOp):
        tr = self.tracer
        sp = None
        if tr is not None:
            sp = tr.begin(
                "pipeline", cat="pipeline", node=site,
                source=source.attrs.get("table", source.op),
            )
        rows = 0
        try:
            for b in inner:
                rows += b.length
                yield b
        finally:
            inner.close()
            if sp is not None:
                tr.end(sp, rows=rows)

    def _list_site_batches(self, run: _ChainRun, site: int):
        """Stream a blocking source's batches through the chain's steps on
        the driver thread. Inputs are coalesced first so filters and
        probes run at full batch width (grouping depends only on
        deterministic sizes)."""
        steps = run.chain.steps()
        probes = run.probes.get(site)
        batches = run.source_data.get(site, [])
        for b in self._coalesce(batches, run.chain.source.schema):
            t0 = time.perf_counter()
            b = apply_steps(b, steps, run.counts, probes)
            self._note_busy(site, time.perf_counter() - t0)
            if b is not None and b.length:
                yield b

    def _scan_site_batches(self, run: _ChainRun, w: int, fold=None):
        """Stream one site's table through the chain.

        Each table fragment becomes one morsel task that scans and runs
        the full transform chain in its worker thread; the driver thread
        consumes task results in submission order, so every downstream
        send sequence (and the fault injector's clock) stays
        deterministic no matter how threads interleave. Tables below
        :data:`~repro.core.pipeline.MORSEL_MIN_ROWS`, and external
        tables, run as one inline morsel instead.
        """
        op = run.chain.source
        table = op.attrs["table"]
        replicated = op.partitioning.kind == "replicated"
        serving = self._serving_for(op, w, table, replicated)
        rt = self.workers[serving]
        if table in rt.external:
            def scan(ds, st):
                return self._external_batches(rt, op, st)

            def finish(b):
                return b

            parts = [None]
        else:
            storage = rt.storage.get(table)
            if storage is None:
                raise ExecutionError(f"worker {serving} has no table {table!r}")
            needed, pred_fn, scan_pred, finish = self._scan_plan(storage, op)

            def scan(ds, st):
                return storage.scan(
                    needed, pred_fn, scan_pred,
                    skipping=self.config.data_skipping, stats=st, disks=ds,
                    neardata=True, shared=True,
                )

            parts = morsel_disks(len(storage.fragments), storage.row_count)
        steps = run.chain.steps()
        probes = run.probes.get(w)
        counts = run.counts
        scan_id = op.id
        # one scan thread per fragment, throttled by the worker's
        # resource monitor (paper §IV)
        dop = min(rt.current_dop(), len(parts))

        # a probe has fixed NumPy setup cost per call, so probing each
        # page-set-sized scan batch wastes most of the kernel's width.
        # Run the cheap pre-probe steps per batch, then concatenate the
        # survivors and probe once per morsel — the classic one-probe-
        # per-morsel shape. Probe output is probe-major, so probing the
        # concatenation is bit-identical to concatenating per-batch
        # probes; grouping depends only on deterministic batch sizes.
        probe_at = next(
            (i for i, (_i, kind, _p) in enumerate(steps) if kind == "probe"), None
        )
        pre = steps if probe_at is None else steps[:probe_at]
        post = None if probe_at is None else steps[probe_at:]

        # page sets are sized by the table's widest column, so a scan of
        # narrow columns yields batches far below batch_size; coalescing
        # the raw stream first lets finish/filter/probe run at full
        # batch width (grouping depends only on deterministic sizes)
        target = max(1, self.config.batch_size)

        def fold_morsel(ds: list[int] | None) -> tuple[list[RowBatch], dict[int, int], ScanStats]:
            """Near-data aggregation morsel: fold every page set's rows
            into a running partial-aggregate accumulator the moment the
            scan produces them — the pipeline never holds more than one
            set's worth of materialized rows per morsel. Only exactness-
            gated aggregates ride this (COUNT / int SUM / MIN / MAX), so
            the per-set fold order cannot perturb results."""
            f_keys, f_specs, f_schema = fold
            t0 = time.perf_counter()
            st = ScanStats()
            local: dict[int, int] = {}
            acc: RowBatch | None = None
            for raw in scan(ds, st):
                b = finish(raw)
                local[scan_id] = local.get(scan_id, 0) + b.length
                part = _partial_aggregate(b, f_keys, f_specs, f_schema)
                acc = _fold_partial(acc, part, f_keys, f_specs, f_schema)
            outs = [acc] if acc is not None else []
            self.inflight.produced(len(outs))
            self._note_busy(serving, time.perf_counter() - t0)
            return outs, local, st

        def morsel(ds: list[int] | None) -> tuple[list[RowBatch], dict[int, int], ScanStats]:
            t0 = time.perf_counter()
            st = ScanStats()
            local: dict[int, int] = {}
            outs: list[RowBatch] = []
            staged: list[RowBatch] = []
            buf: list[RowBatch] = []
            held = 0

            def step(raws: list[RowBatch]) -> None:
                raw = raws[0] if len(raws) == 1 else RowBatch.concat(raws[0].schema, raws)
                b = finish(raw)
                local[scan_id] = local.get(scan_id, 0) + b.length
                b = apply_steps(b, pre, local, probes)
                if b is not None and b.length:
                    (outs if post is None else staged).append(b)

            for raw in scan(ds, st):
                buf.append(raw)
                held += raw.length
                if held >= target:
                    step(buf)
                    buf, held = [], 0
            if buf:
                step(buf)
            if post is not None and staged:
                merged = (
                    staged[0] if len(staged) == 1
                    else RowBatch.concat(staged[0].schema, staged)
                )
                b = apply_steps(merged, post, local, probes)
                if b is not None and b.length:
                    outs.append(b)
            self.inflight.produced(len(outs))
            self._note_busy(serving, time.perf_counter() - t0)
            return outs, local, st

        body = morsel if fold is None else fold_morsel
        tasks = [partial(body, ds) for ds in parts]
        self.pipe.morsels += len(tasks)
        results = run_tasks_ordered(tasks, dop, self.config.parallel_scans, self.scheduler)
        try:
            for outs, local, st in results:
                self._scan_stats.merge(st)
                for op_id, n in local.items():
                    counts[op_id] = counts.get(op_id, 0) + n
                for b in outs:
                    self.inflight.consumed(1)
                    yield b
        finally:
            # an abandoned stream (failed send, restart) leaves produced
            # batches nobody will consume; closing the task stream first
            # waits its running morsels out, so the count is final
            results.close()
            self.inflight.drain()

    def _instances(self, op: PhysOp) -> list[int]:
        return self.worker_ids if op.site == WORKERS else [self.coord_id]

    # -- failure handling ------------------------------------------------------------
    def _retrying(self, send_fn: Callable[[], object], dest: int):
        """Run a network send with bounded retry and simulated-time
        exponential backoff.

        Transient :class:`NetworkError` (dropped link, partition blip) is
        retried; :class:`WorkerFailureError` (the node itself is down)
        escalates immediately to the query-restart path, as does retry
        exhaustion.
        """
        delay = self.config.backoff_base
        budget = self.config.send_retries
        for attempt in range(budget + 1):
            try:
                return send_fn()
            except WorkerFailureError:
                self.failed_workers.add(dest)
                raise
            except NetworkError as e:
                if attempt == budget:
                    self.failed_workers.add(dest)
                    raise WorkerFailureError(
                        dest, f"send to node {dest} failed after {budget} retries: {e}"
                    ) from e
                self.retries += 1
                self.backoff_time += delay
                self._record_chaos(
                    "retry", node=dest, detail=f"attempt {attempt + 1}, backoff {delay:.4f}s"
                )
                delay *= 2

    def _record_chaos(self, kind: str, **kw) -> None:
        inj = getattr(self.net, "injector", None)
        if inj is not None:
            # the injector's listener (Database wiring) forwards the
            # event into the active trace and the flight recorder, so
            # don't emit twice here
            inj.record(kind, **kw)
            return
        if self.tracer is not None:
            self.tracer.event("chaos:" + kind, **kw)
        if self.recorder is not None:
            node = kw.pop("node", -1)
            self.recorder.record("chaos_" + kind, node=node, **kw)

    def _probe_worker(self, w: int, op: PhysOp) -> None:
        """Raise WorkerFailureError if worker ``w`` cannot serve the op."""
        if self.fault_injector is not None:
            self.fault_injector(w, op)
        inj = getattr(self.net, "injector", None)
        if inj is not None:
            inj.on_op(w, op)

    def _healthy_peer(self, op: PhysOp, table: str, exclude: int) -> int | None:
        """A live worker holding a replica of ``table`` (failover target)."""
        for p in self.worker_ids:
            if p == exclude or self.health.is_blacklisted(p) or self.health.is_draining(p):
                continue
            if table not in self.workers[p].storage:
                continue
            try:
                self._probe_worker(p, op)
            except WorkerFailureError:
                self.health.record_failure(p)
                self.failed_workers.add(p)
                continue
            return p
        return None

    # -- leaves ---------------------------------------------------------------------
    def _eval_dual(self, op: PhysOp) -> SiteData:
        return {self.coord_id: [RowBatch(op.schema, {"__one": np.array([1], dtype=np.int64)})]}

    def _eval_sysscan(self, op: PhysOp) -> SiteData:
        """Materialize a virtual (sys.*) relation at the coordinator.

        The provider snapshots live cluster state into a RowBatch with
        unqualified column names; a fused predicate (``fuse_scans``
        merges the filter down, same as storage scans) is applied here,
        then columns are aligned to the possibly alias-qualified
        physical schema."""
        table = op.attrs["table"]
        provider = self.sys_tables.get(table)
        if provider is None:
            raise ExecutionError(f"unknown system table {table!r}")
        t0 = time.perf_counter()
        batch: RowBatch = provider()
        pred_expr = op.attrs.get("predicate")
        if pred_expr is not None:
            pred_fn = compile_predicate(_strip_qualifiers(pred_expr), batch.schema)
            batch = batch.filter(pred_fn(batch))
        out = RowBatch(op.schema, {c.name: batch.col(c.unqualified) for c in op.schema})
        self._note_busy(self.coord_id, time.perf_counter() - t0)
        return {self.coord_id: [out]}

    def _serving_for(self, op: PhysOp, w: int, table: str, replicated: bool) -> int:
        """The worker that will serve site ``w``'s partition of ``table``:
        ``w`` itself when healthy, otherwise (replicated tables only) a
        live replica after the blacklist/failover dance."""
        serving = w
        if replicated and (
            self.health.is_draining(w)
            or (self.health.is_blacklisted(w) and not self.health.allow_probe(w))
        ):
            # degrade gracefully: skip the draining/known-bad worker.
            # Blacklisted workers get a half-open probe every
            # ``probe_interval`` avoided reads (and every read while in
            # probation) so a recovered node re-earns traffic; draining
            # workers are leaving the placement, never probed back in.
            peer = self._healthy_peer(op, table, exclude=w)
            if peer is not None:
                serving = peer
                self.failed_workers.add(w)
                why = "draining" if self.health.is_draining(w) else "blacklisted"
                self._record_chaos(
                    "failover", node=w,
                    detail=f"{why}; replicated {table!r} served by worker {peer}",
                )
        if serving == w:
            try:
                self._probe_worker(w, op)
                self.health.record_success(w)
            except WorkerFailureError:
                self.health.record_failure(w)
                self.failed_workers.add(w)
                if self.health.is_blacklisted(w):
                    self._record_chaos(
                        "blacklist", node=w,
                        detail=f"{self.health.failures(w)} consecutive failures",
                    )
                peer = self._healthy_peer(op, table, exclude=w) if replicated else None
                if peer is None:
                    raise  # partitioned data only lives on w: restart the query
                serving = peer
                self._record_chaos(
                    "failover", node=w,
                    detail=f"replicated {table!r} served by worker {peer}",
                )
        return serving

    def _scan_plan(self, storage: TableStorage, op: PhysOp):
        """Compile a scan op against a table: (needed columns, batch
        predicate, storage-level scan predicate, schema-align closure)."""
        pred_expr: Expr | None = op.attrs.get("predicate")
        tschema = storage.schema
        out_bases = [c.unqualified for c in op.schema]
        needed = list(dict.fromkeys(out_bases))
        pred_fn = None
        scan_pred = None
        if pred_expr is not None:
            base_pred = _strip_qualifiers(pred_expr)
            from ..sql.ast import column_refs

            for r in column_refs(base_pred):
                base = r.name
                if base not in needed and base in [c.name for c in tschema]:
                    needed.append(base)
            scan_schema = tschema.project([tschema.resolve(n) for n in needed])
            pred_fn = compile_predicate(base_pred, scan_schema)
            scan_pred = to_scan_predicate(base_pred, tschema)
        rename = {}
        for c in op.schema:
            rename[c.unqualified] = c.name

        def finish(batch: RowBatch) -> RowBatch:
            b = batch.project([batch.schema.resolve(n) for n in out_bases])
            if rename and any(k != v for k, v in rename.items()):
                b = b.rename({batch.schema.resolve(k): v for k, v in rename.items()})
            # align column order/names with the physical schema
            return RowBatch(op.schema, {c.name: b.col(c.name) for c in op.schema})

        return needed, pred_fn, scan_pred, finish

    def _external_batches(self, rt: WorkerRuntime, op: PhysOp, st: ScanStats):
        """Stream this worker's fragments of an external table, aligned
        to the scan's schema and filtered by its pushed-down predicate."""
        uet, frags = rt.external[op.attrs["table"]]
        pred_expr = op.attrs.get("predicate")
        pred = None
        if pred_expr is not None:
            pred = compile_predicate(_strip_qualifiers(pred_expr), op.schema)
        for frag in frags:
            for batch in uet.scan_fragment(frag, self.config.batch_size):
                b = RowBatch(
                    op.schema,
                    {c.name: batch.col(batch.schema.resolve(c.unqualified)) for c in op.schema},
                )
                if pred is not None:
                    b = b.filter(pred(b))
                if b.length:
                    st.rows_out += b.length
                    yield b

    # -- row-wise operators -----------------------------------------------------------
    def _eval_limit(self, op: PhysOp) -> SiteData:
        child = self._eval(op.children[0])
        n = op.attrs["n"]
        out: SiteData = {}
        for site, batches in child.items():
            taken: list[RowBatch] = []
            remaining = n
            for b in batches:
                if remaining <= 0:
                    break
                taken.append(b.slice(0, remaining))
                remaining -= min(b.length, remaining)
            out[site] = taken
        return out

    def _eval_sort(self, op: PhysOp) -> SiteData:
        child = self._eval(op.children[0])
        out: SiteData = {}
        for site, batches in child.items():
            t0 = time.perf_counter()
            merged = self._materialize(site, op.schema, batches)
            if merged.length:
                merged = merged.take(sort_indices(merged, op.attrs["keys"]))
            out[site] = [merged]
            self._note_busy(site, time.perf_counter() - t0)
        return out

    def _eval_topk(self, op: PhysOp) -> SiteData:
        """Fold a bounded heap over the child's stream."""
        keys, k = op.attrs["keys"], op.attrs["k"]
        out: SiteData = {}
        with self._chain(op.children[0]) as run:
            for site in run.sites:
                acc = RowBatch.empty(op.schema)
                fold_s = 0.0
                for b in self._coalesce(self._site_batches(run, site), op.schema):
                    t0 = time.perf_counter()
                    acc = top_k(RowBatch.concat(op.schema, [acc, b]), keys, k)
                    fold_s += time.perf_counter() - t0
                out[site] = [acc]
                if fold_s:
                    self._note_busy(site, fold_s)
        return out

    def _eval_distinct(self, op: PhysOp) -> SiteData:
        child = self._eval(op.children[0])
        out: SiteData = {}
        for site, batches in child.items():
            t0 = time.perf_counter()
            merged = self._materialize(site, op.schema, batches)
            out[site] = [distinct_batch(merged)]
            self._note_busy(site, time.perf_counter() - t0)
        return out

    def _eval_union(self, op: PhysOp) -> SiteData:
        datas = [self._eval(c) for c in op.children]
        out: SiteData = {}
        for site in self._instances(op):
            batches: list[RowBatch] = []
            for child_op, d in zip(op.children, datas):
                for b in d.get(site, []):
                    aligned = RowBatch(
                        op.schema,
                        {
                            c.name: b.col(b.schema.names()[i])
                            for i, c in enumerate(op.schema.columns)
                        },
                    )
                    batches.append(aligned)
            out[site] = batches
        return out

    # -- aggregation ---------------------------------------------------------------
    def _eval_agg(self, op: PhysOp) -> SiteData:
        """Aggregate the child's stream, one pass.

        Partial and complete aggregates pre-aggregate each non-empty
        batch to partial form and fold it into a per-site accumulator as
        it leaves the chain, so the operator never materializes its
        input (complete mode finishes the partial/final split locally).
        Final mode and DISTINCT aggregates need their whole input at
        once: they drain the stream and aggregate once.
        """
        mode = op.attrs.get("mode", "complete")
        if mode not in ("partial", "complete", "final"):
            raise ExecutionError(f"unknown agg mode {mode}")
        keys = tuple(op.attrs.get("group_keys", ()))
        specs = op.attrs["aggs"]
        child_op = op.children[0]
        child_schema = child_op.schema
        blocking = mode == "final" or (
            mode == "complete" and any(s.distinct for s in specs)
        )
        final_specs = None
        if mode == "partial":
            partial_schema, partial_specs = op.schema, op.attrs["partial_specs"]
        elif not blocking:
            from types import SimpleNamespace

            from ..optimizer.dataflow import _split_aggs

            node = SimpleNamespace(group_keys=keys, aggs=specs)
            partial_schema, partial_specs, final_specs = _split_aggs(node, child_schema)
        out: SiteData = {}
        with self._chain(child_op) as run:
            # near-data aggregation: a bare-scan chain whose aggregates are
            # all fold-order-insensitive (COUNT, exact int/bool SUM, MIN/MAX
            # — float SUM folds pairwise and would shift last-ulp results)
            # folds partials per page set inside the scan morsels, so rows
            # never accumulate beyond one set per morsel
            fold = None
            if (
                not blocking
                and run.chain.scans
                and not run.chain.transforms
                and _fold_exact(partial_specs, child_schema)
            ):
                fold = (keys, partial_specs, partial_schema)
            for site in run.sites:
                if blocking:
                    batches = list(self._site_batches(run, site))
                    t0 = time.perf_counter()
                    merged = self._materialize(site, child_schema, batches)
                    if mode == "final":
                        res = _final_aggregate(merged, keys, op.attrs["final_specs"], op.schema)
                    else:
                        res = aggregate_batch(merged, keys, specs, op.schema)
                    out[site] = [res]
                    self._note_busy(site, time.perf_counter() - t0)
                    continue
                acc: RowBatch | None = None
                fold_s = 0.0
                stream = self._site_batches(run, site, fold)
                if fold is None:
                    stream = self._coalesce(stream, child_schema)
                for b in stream:
                    t0 = time.perf_counter()
                    part = (
                        b  # already a morsel-level partial in partial_schema
                        if fold is not None
                        else _partial_aggregate(b, keys, partial_specs, partial_schema)
                    )
                    acc = _fold_partial(acc, part, keys, partial_specs, partial_schema)
                    fold_s += time.perf_counter() - t0
                t0 = time.perf_counter()
                if acc is None:
                    # empty site: aggregate the empty input once (keeps the
                    # engine's empty-input semantics — COUNT/SUM partials of
                    # 0 and NULL MIN/MAX partials, which the NaN-skipping
                    # combine then ignores)
                    acc = _partial_aggregate(
                        RowBatch.empty(child_schema), keys, partial_specs, partial_schema
                    )
                if mode == "complete":
                    acc = _final_aggregate(acc, keys, final_specs, op.schema)
                out[site] = [acc]
                self._note_busy(site, fold_s + (time.perf_counter() - t0))
        return out

    # -- joins ------------------------------------------------------------------------
    def _eval_hashjoin(self, op: PhysOp) -> SiteData:
        """Blocking joins — left/single/cross kinds and joins without
        equi pairs need the whole probe side (row order of unmatched
        padding, scalar cardinality checks). The probe-order-preserving
        kinds never get here: they run as probe steps of a chain."""
        left_op, right_op = op.children
        right = self._eval(right_op)
        left = self._eval(left_op)
        out: SiteData = {}
        for site in self._instances(op):
            t0 = time.perf_counter()
            rb = self._materialize(site, right_op.schema, right.get(site, []))
            lb = self._materialize(site, left_op.schema, left.get(site, []))
            out[site] = [
                hash_join(lb, rb, op.attrs["kind"], op.attrs["pairs"], op.attrs["residual"],
                          op.schema, op.attrs.get("match_col"),
                          left_op.schema, right_op.schema)
            ]
            self._note_busy(site, time.perf_counter() - t0)
        return out

    def _probe_batch(
        self, op: PhysOp, jht: JoinHashTable, rb: RowBatch, lkey_fns, lb: RowBatch
    ) -> RowBatch:
        """Probe one left batch against a site's prebuilt join hash table
        (``rb`` is the build side the table indexes)."""
        kind = op.attrs["kind"]
        lkeys = [np.asarray(fn(lb)) for fn in lkey_fns]
        li, ri = jht.match_indices(lkeys)
        residual = op.attrs["residual"]
        if residual and len(li):
            combined = _combine(lb.take(li), rb.take(ri))
            mask = np.ones(len(li), dtype=bool)
            for r in residual:
                mask &= compile_predicate(r, combined.schema)(combined)
            li, ri = li[mask], ri[mask]
        if kind == "inner":
            lt, rt = lb.take(li), rb.take(ri)
            cols = {c.name: lt.col(c.name) for c in op.children[0].schema}
            for c in op.children[1].schema:
                cols[c.name] = rt.col(c.name)
            return RowBatch(op.schema, cols)
        if kind == "semi":
            keep = np.zeros(lb.length, dtype=bool)
            keep[li] = True
            return lb.filter(keep)
        # anti
        keep = np.ones(lb.length, dtype=bool)
        keep[li] = False
        return lb.filter(keep)

    def _build_bloom_prefilter(
        self, op: PhysOp, right: SiteData, right_op: PhysOp, pairs
    ) -> Callable[[RowBatch], RowBatch] | None:
        """Build a Bloom filter over the build side's join keys and ship it
        (accounted through the tree topology) so probe batches are filtered
        before they hit the shuffle.

        For an empty build side the prefilter drops everything outright
        (an inner/semi probe against nothing matches nothing) instead of
        shipping and probing an all-zero filter. Baseline engines
        override this to return None: no Bloom-filtered shuffle at all.
        """
        key_exprs = [re for _, re in pairs]
        bits = None
        for w, batches in right.items():
            merged = self._materialize(w, right_op.schema, batches)
            if merged.length == 0:
                continue
            arrays = [
                np.asarray(compile_expr(e, right_op.schema).fn(merged)) for e in key_exprs
            ]
            codes = _value_hash(arrays)
            local = bloom_filter_codes(codes)
            bits = local if bits is None else (bits | local)
        if bits is None:
            def drop_all(batch: RowBatch) -> RowBatch:
                return batch.filter(np.zeros(batch.length, dtype=bool))

            return drop_all
        # account the filter exchange: every worker receives the merged bits
        payload = bits.tobytes()
        tag = f"{self.qtag}bloom{op.id}"
        for w in self.worker_ids:
            self._retrying(
                lambda w=w: self.net.route_send(
                    self.tree, self.coord_id, w, payload, tag=tag
                ),
                w,
            )
        for w in self.worker_ids:
            self.net.recv_all(w, tag=tag)
        probe_exprs = [le for le, _ in pairs]
        probe_schema = op.children[0].children[0].schema  # shuffle's child

        def prefilter(batch: RowBatch) -> RowBatch:
            arrays = [
                np.asarray(compile_expr(e, probe_schema).fn(batch)) for e in probe_exprs
            ]
            codes = _value_hash(arrays)
            return batch.filter(bloom_filter_test(bits, codes))

        return prefilter

    # -- exchanges ----------------------------------------------------------------------
    def _shuffle_batch(self, src: int, batch: RowBatch, compiled, buffers, tag: str, prefilter) -> None:
        """Partition one batch by key hash and send/buffer each slice."""
        t0 = time.perf_counter()
        n = len(self.worker_ids)
        if prefilter is not None:
            batch = prefilter(batch)
        if batch.length == 0:
            self._note_busy(src, time.perf_counter() - t0)
            return
        arrays = [np.asarray(c.fn(batch)) for c in compiled]
        codes = _value_hash(arrays)
        dest_idx = (codes % np.uint64(n)).astype(np.int64)
        order = np.argsort(dest_idx, kind="stable")
        sorted_dest = dest_idx[order]
        bounds = np.searchsorted(sorted_dest, np.arange(1, n))
        chunks = np.split(order, bounds)
        for d, idx in enumerate(chunks):
            if len(idx) == 0:
                continue
            part = batch.take(idx)
            dest = self.worker_ids[d]
            if dest == src:
                buffers[dest].append(part)  # local partition: no network
            else:
                payload = part.to_bytes()
                self._retrying(
                    lambda: self.net.route_send(self.ntm, src, dest, payload, tag),
                    dest,
                )
        self._note_busy(src, time.perf_counter() - t0)

    def _eval_shuffle(self, op: PhysOp, prefilter=None) -> SiteData:
        """Streaming exchange: each batch is partitioned and routed the
        moment it leaves the child's chain — the producer side never
        materializes its output."""
        child_op = op.children[0]
        tag = f"{self.qtag}shuf{op.id}"
        compiled = [compile_expr(e, child_op.schema) for e in op.attrs["key_exprs"]]
        buffers: dict[int, SpillableList] = {
            w: SpillableList(self.workers[w].fs, self.workers[w].governor, op.schema, tag)
            for w in self.worker_ids
        }
        with self._chain(child_op) as run:
            for src in run.sites:
                for batch in self._coalesce(self._site_batches(run, src), child_op.schema):
                    self._shuffle_batch(src, batch, compiled, buffers, tag, prefilter)
        out: SiteData = {}
        for w in self.worker_ids:
            t0 = time.perf_counter()
            for _, _, payload in self.net.recv_all(w, tag):
                buffers[w].append(RowBatch.from_bytes(payload))
            out[w] = list(buffers[w])
            buffers[w].close()
            self._note_busy(w, time.perf_counter() - t0)
        return out

    def _eval_broadcast(self, op: PhysOp) -> SiteData:
        """Streaming broadcast: replicate each batch as it is produced —
        from the coordinator down the tree, or worker to worker over the
        binomial graph."""
        child_op = op.children[0]
        from_coord = child_op.site == COORD
        if not from_coord and child_op.partitioning.kind == "replicated":
            return self._eval(child_op)  # already everywhere
        tag = f"{self.qtag}bcast{op.id}"
        topology = self.tree if from_coord else self.ntm
        local: SiteData = {w: [] for w in self.worker_ids}
        with self._chain(child_op) as run:
            for src in run.sites:
                for b in self._coalesce(self._site_batches(run, src), child_op.schema):
                    if not from_coord:
                        local[src].append(b)
                    t0 = time.perf_counter()
                    payload = b.to_bytes()
                    self._note_busy(src, time.perf_counter() - t0)
                    for dest in self.worker_ids:
                        if dest != src:
                            self._retrying(
                                lambda dest=dest: self.net.route_send(
                                    topology, src, dest, payload, tag
                                ),
                                dest,
                            )
        out: SiteData = {}
        for w in self.worker_ids:
            t0 = time.perf_counter()
            received = [RowBatch.from_bytes(p) for _, _, p in self.net.recv_all(w, tag)]
            out[w] = local[w] + received
            self._note_busy(w, time.perf_counter() - t0)
        return out

    def _eval_gather(self, op: PhysOp) -> SiteData:
        child_op = op.children[0]
        if child_op.site == COORD:
            return self._eval(child_op)
        mode = op.attrs.get("mode", "concat")
        tag = f"{self.qtag}gather{op.id}"
        sources = self.worker_ids
        if op.attrs.get("replicated_child"):
            sources = self.worker_ids[:1]

        if mode in ("combine", "topk", "merge"):
            child = self._eval(child_op)
            # baseline engines swap in degenerate topologies without a
            # reduce schedule — they keep their flat coordinator merge
            gather = (
                self._reduce_tree_gather
                if len(self.worker_ids) > 1 and hasattr(self.ntm, "reduce_schedule")
                else self._tree_gather
            )
            return {self.coord_id: gather(op, child, sources, tag, mode)}

        # concat: batches climb the tree as they are produced. The chain
        # still runs on every site (a replicated child is scanned
        # everywhere, so probe/failover bookkeeping does not depend on
        # who forwards) but only the designated sources send.
        with self._chain(child_op) as run:
            for w in run.sites:
                forward = w in sources
                for b in self._coalesce(self._site_batches(run, w), child_op.schema):
                    if forward:
                        t0 = time.perf_counter()
                        payload = b.to_bytes()
                        self._note_busy(w, time.perf_counter() - t0)
                        self._retrying(
                            lambda w=w: self.net.route_send(
                                self.tree, w, self.coord_id, payload, tag
                            ),
                            self.coord_id,
                        )
        t0 = time.perf_counter()
        received = [
            RowBatch.from_bytes(p) for _, _, p in self.net.recv_all(self.coord_id, tag)
        ]
        self._note_busy(self.coord_id, time.perf_counter() - t0)
        return {self.coord_id: received}

    def _tree_gather(
        self, op: PhysOp, child: SiteData, sources: Sequence[int], tag: str, mode: str
    ) -> list[RowBatch]:
        """Hierarchical gather: every tree node combines what it holds with
        what its children sent before forwarding one reduced batch upward."""
        buffers: dict[int, list[RowBatch]] = {n: [] for n in self.tree.nodes}
        for w in sources:
            buffers[w].extend(child.get(w, []))
        levels = self.tree.levels()
        for level in reversed(levels[1:]):  # deepest level first
            for node in level:
                t0 = time.perf_counter()
                combined = self._combine_level(op, buffers[node], mode)
                parent = self.tree.parent(node)
                # nodes holding nothing stay silent: an idle (possibly down)
                # node must not force a send on the reduction path
                if combined is not None and combined.length > 0:
                    payload = combined.to_bytes()
                    self._note_busy(node, time.perf_counter() - t0)
                    self._retrying(
                        lambda node=node, parent=parent: self.net.send(
                            node, parent, payload, tag
                        ),
                        parent,
                    )
                buffers[node] = []
            # parents pick up what their children pushed
            for node in {self.tree.parent(n) for n in level}:
                t0 = time.perf_counter()
                for _, _, payload in self.net.recv_all(node, tag):
                    buffers[node].append(RowBatch.from_bytes(payload))
                self._note_busy(node, time.perf_counter() - t0)
        t0 = time.perf_counter()
        final = self._combine_level(op, buffers[self.coord_id], mode)
        self._note_busy(self.coord_id, time.perf_counter() - t0)
        return [final] if final is not None else []

    def _reduce_tree_gather(
        self, op: PhysOp, child: SiteData, sources: Sequence[int], tag: str, mode: str
    ) -> list[RowBatch]:
        """Hierarchical reduce over the workers' binomial graph.

        Workers fold partial states pairwise along
        :meth:`BinomialGraphTopology.reduce_schedule` rounds — every
        combine (``_combine_partials`` fold, top-k heap fold, or sorted
        merge) runs on a *worker*, and the coordinator receives a single
        pre-merged stream from the reduction root instead of one stream
        per worker. This is the paper's generalized binomial graph used
        for reduction rather than shuffle routing; with the serial
        driver it moves the O(n) merge work off the coordinator's
        ledger, and on a real cluster off its CPU.

        Nodes whose state is empty stay silent (idle nodes must not
        force sends), matching :meth:`_tree_gather`. The schedule and
        per-round ``recv_all`` order are deterministic functions of the
        worker list, so results stay byte-identical across fault seeds
        and rebalances for a fixed placement.
        """
        states: dict[int, RowBatch | None] = {}
        for w in self.worker_ids:
            batches = child.get(w, []) if w in sources else []
            t0 = time.perf_counter()
            combined = self._combine_level(op, batches, mode) if batches else None
            if combined is not None:
                self._note_busy(w, time.perf_counter() - t0)
            states[w] = combined if combined is not None and combined.length else None
        root = self.worker_ids[0]
        for rnd in self.ntm.reduce_schedule(root):
            receivers: list[int] = []
            for src, dst in rnd:
                st = states.get(src)
                states[src] = None
                if st is None:
                    continue
                t0 = time.perf_counter()
                payload = st.to_bytes()
                self._note_busy(src, time.perf_counter() - t0)
                self._retrying(
                    lambda src=src, dst=dst, payload=payload: self.net.route_send(
                        self.ntm, src, dst, payload, tag
                    ),
                    dst,
                )
                receivers.append(dst)
            for dst in receivers:
                t0 = time.perf_counter()
                received = [
                    RowBatch.from_bytes(p) for _, _, p in self.net.recv_all(dst, tag)
                ]
                if received:
                    have = states.get(dst)
                    parts = ([have] if have is not None else []) + received
                    states[dst] = self._combine_level(op, parts, mode)
                self._note_busy(dst, time.perf_counter() - t0)
        final_state = states.get(root)
        if final_state is not None and final_state.length:
            t0 = time.perf_counter()
            payload = final_state.to_bytes()
            self._note_busy(root, time.perf_counter() - t0)
            self._retrying(
                lambda: self.net.route_send(
                    self.tree, root, self.coord_id, payload, tag
                ),
                self.coord_id,
            )
        t0 = time.perf_counter()
        received = [
            RowBatch.from_bytes(p)
            for _, _, p in self.net.recv_all(self.coord_id, tag)
        ]
        final = self._combine_level(op, received, mode)
        self._note_busy(self.coord_id, time.perf_counter() - t0)
        return [final] if final is not None else []

    def _combine_level(self, op: PhysOp, batches: list[RowBatch], mode: str) -> RowBatch | None:
        merged = RowBatch.concat(op.schema, batches)
        if mode == "combine":
            specs = op.attrs["combine_specs"]
            keys = tuple(op.attrs.get("group_keys", ()))
            return _combine_partials(merged, keys, specs, op.schema)
        if mode == "topk":
            return top_k(merged, op.attrs["sort_keys"], op.attrs["k"])
        if mode == "merge":
            if merged.length == 0:
                return merged
            return merged.take(sort_indices(merged, op.attrs["sort_keys"]))
        return merged

    # -- helpers --------------------------------------------------------------------------
    def _materialize(self, site: int, schema: Schema, batches: list[RowBatch]) -> RowBatch:
        merged = RowBatch.concat(schema, batches)
        if site in self.workers:
            self.workers[site].governor.acquire(0)  # touch for peak tracking
        return merged


# ---------------------------------------------------------------------------
# aggregate partial/final helpers
# ---------------------------------------------------------------------------


def _fold_exact(partial_specs, child_schema: Schema) -> bool:
    """True when per-page-set partial folding is bit-identical to the
    batch-at-a-time fold regardless of where set boundaries fall.

    COUNT and int/bool SUM are exact integer adds; MIN/MAX are
    associative (the NaN-as-NULL skip included). Float/decimal SUM is
    excluded: the engine's grouped float SUM reduces pairwise, so
    different fold boundaries shift the last ulps. Validity-masked
    COUNTs stay on the generic path too.
    """
    for _col, func, arg, valid in partial_specs:
        if valid is not None:
            return False
        if func in ("COUNT", "MIN", "MAX"):
            continue
        if func == "SUM":
            if arg is None or arg not in child_schema:
                return False
            if child_schema.dtype_of(arg) not in (DataType.INT64, DataType.BOOL):
                return False
            continue
        return False
    return True


def _partial_aggregate(batch: RowBatch, keys, partial_specs, out_schema: Schema) -> RowBatch:
    specs = tuple(
        AggSpec(col, func, arg, False, valid) for col, func, arg, valid in partial_specs
    )
    return aggregate_batch(batch, keys, specs, out_schema)


def _combine_partials(batch: RowBatch, keys, partial_specs, out_schema: Schema) -> RowBatch:
    """Re-combine partial rows into the same partial schema (tree levels)."""
    specs = []
    for col, func, arg, valid in partial_specs:
        comb = "SUM" if func in ("SUM", "COUNT") else func
        specs.append(AggSpec(col, comb, col, False, None))
    return aggregate_batch(batch, keys, tuple(specs), out_schema)


def _fold_partial(
    acc: RowBatch | None, part: RowBatch, keys, partial_specs, schema: Schema
) -> RowBatch:
    """Fold one more partial batch into a running partial accumulator."""
    if acc is None:
        return part
    both = RowBatch.concat(schema, [acc, part])
    return _combine_partials(both, keys, partial_specs, schema)


def _final_aggregate(batch: RowBatch, keys, final_specs, out_schema: Schema) -> RowBatch:
    specs = []
    post_avg: list[tuple[str, str, str]] = []
    for name, func, cols in final_specs:
        if func == "AVG_COMBINE":
            s_col, c_col = cols
            specs.append(AggSpec(name + "__fs", "SUM", s_col, False, None))
            specs.append(AggSpec(name + "__fc", "SUM", c_col, False, None))
            post_avg.append((name, name + "__fs", name + "__fc"))
        else:
            specs.append(AggSpec(name, func, cols[0], False, None))
    mid_cols = [batch.schema.column(k) for k in keys]
    from ..common.dtypes import DataType
    from ..common.schema import Column

    for s in specs:
        if s.func == "COUNT":
            dt = DataType.INT64
        else:
            dt = batch.schema.dtype_of(s.arg) if s.arg else DataType.INT64
        if s.name in out_schema:
            dt = out_schema.dtype_of(s.name)
        mid_cols.append(Column(s.name, dt))
    mid_schema = Schema(mid_cols)
    mid = aggregate_batch(batch, tuple(keys), tuple(specs), mid_schema)
    cols = {}
    for c in out_schema:
        if c.name in mid.schema:
            cols[c.name] = mid.col(c.name)
    for name, s_col, c_col in post_avg:
        c = mid.col(c_col)
        with np.errstate(invalid="ignore"):
            # zero qualifying rows: AVG is NULL (NaN), not 0
            cols[name] = np.where(
                c > 0, mid.col(s_col) / np.maximum(c, 1), np.nan
            )
    return RowBatch(out_schema, cols)


def _value_hash(arrays: list[np.ndarray]) -> np.ndarray:
    """Stable engine-wide hash of key value tuples.

    Delegates to :func:`hash_value_arrays` — the single mix shared with
    ``RowBatch.hash_codes``, so build-side and probe-side key hashes
    always agree.
    """
    return hash_value_arrays(arrays)


def _strip_qualifiers(expr: Expr) -> Expr:
    """Rewrite alias-qualified refs to base names for storage-level scans."""
    from ..optimizer.binder import _map_children

    def fn(e: Expr) -> Expr:
        if isinstance(e, ColumnRef):
            return ColumnRef(e.name.rsplit(".", 1)[-1])
        return _map_children(e, fn)

    return fn(expr)
