"""Distributed query executor.

Interprets a Phase-3 physical plan over the simulated cluster: every
``workers``-site operator runs SPMD (one instance per worker against
that worker's partition), exchanges move *real serialized batches*
through the simulated network along the paper's topologies —

* **shuffle** re-partitions rows by key hash and routes each batch
  through the binomial-graph n-to-m topology (hub forwarding and the
  ``N_max`` connection bound are therefore real, measurable effects);
* **gather** moves worker outputs to the coordinator, combining partial
  aggregates / merging sorted runs / folding top-k heaps pairwise along
  the workers' binomial reduce schedule (the Dremel-style serving-tree
  generalization the paper describes);
* **broadcast** replicates a relation to all workers.

There is one execution shape: every subtree runs as a *chain*
(:mod:`repro.core.pipeline`) — a source (table-scan morsels, or the
evaluated batches of a blocking operator) followed by filter / project
/ probe steps — and each consumer is written once, against the chain's
per-site batch stream.

This module is the driver: per-attempt state and its stats, operator
dispatch and tracing, chains, and the blocking operators (sort, top-k,
distinct, union, aggregate, blocking joins). The seams live beside it:
:mod:`~repro.core.scan_source` (who serves a site's partition, failover,
the scan morsel), :mod:`~repro.core.exchange` (the send/receive
primitives and everything that moves batches between nodes, including
the Bloom-filtered shuffle of paper §V) and :mod:`~repro.core.aggregate`
(partial / combine / final). Operator inputs are buffered in spillable
lists governed by the per-worker memory budget.
"""

from __future__ import annotations

import copy
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace
from typing import Callable, Iterator

import numpy as np

from ..common.batch import RowBatch
from ..common.config import ClusterConfig
from ..common.errors import ExecutionError
from ..common.schema import Schema
from ..fault.health import WorkerHealthTracker
from ..network.simnet import SimNetwork
from ..network.topology import BinomialGraphTopology, TreeTopology
from ..optimizer.dataflow import _split_aggs
from ..optimizer.physical import COORD, WORKERS, PhysOp
from ..sql.compiler import compile_expr, compile_predicate
from ..storage.table import ScanStats, TableStorage
from ..telemetry.trace import Tracer
from ..util.fs import FileSystem
from .aggregate import aggregate_batch, final_aggregate, fold_partial, partial_aggregate
from .exchange import Exchange
from .kernels import (
    JoinHashTable,
    distinct_batch,
    existence_only,
    hash_join,
    join_rows,
    semi_join,
    sort_indices,
    top_k,
)
from .pipeline import (
    FusedChain,
    InflightTracker,
    PipelineMetrics,
    apply_steps,
    chain_step,
    coalesce_batches,
    fuse_chain,
)
from .scan_source import ScanSource, strip_qualifiers
from .spill import MemoryGovernor


@dataclass
class WorkerRuntime:
    """Per-worker execution context handed to the executor."""

    worker_id: int
    fs: FileSystem
    storage: dict[str, TableStorage]
    governor: MemoryGovernor
    external: dict[str, object] = field(default_factory=dict)


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
    #: always 0 since sideways bloom pushdown and shared scans were
    #: removed; benchmarks/e2e (frozen) still reads both fields
    sets_skipped_bloom: int = 0
    pages_shared: int = 0
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
    #: morsels executed (one per site per table scan)
    morsels: int = 0
    #: peak batches produced by morsels but not yet consumed
    peak_inflight_batches: int = 0
    #: measured wall-seconds of morsel work per serving worker — the
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
        for f in _ADDITIVE:
            setattr(self, f, getattr(self, f) + getattr(other, f))
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
        return self

    def since(self, base: "ExecStats") -> "ExecStats":
        """This cumulative snapshot minus an earlier one: the additive
        counters become the work done in between; everything else keeps
        this (the later) snapshot's value. Returns ``self``."""
        for f in _ADDITIVE:
            setattr(self, f, getattr(self, f) - getattr(base, f))
        return self


#: ExecStats counters that sum across attempts and subtract across snapshots
_ADDITIVE = (
    "rows_scanned", "pages_read", "sets_skipped", "sets_total", "pages_skipped",
    "pages_pushed_down", "shuffle_bytes",
    "network_bytes", "network_messages", "forwarded_bytes", "spilled_bytes",
    "restarts", "retries", "backoff_time", "pipelines", "fused_ops", "morsels",
    "coord_busy_s",
)


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
    #: abandoned stream drops its unconsumed batches and ends its
    #: pipeline span
    live: Iterator[RowBatch] | None = None


class DistributedExecutor(ScanSource, Exchange):
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
        #: test/ops hook: called as fault_injector(worker_id, op) before
        #: each worker-scan; may raise WorkerFailureError to simulate a
        #: mid-query node failure
        self.fault_injector = None
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
        #: exchange-tag namespace; "" for the serial/legacy path, set to
        #: "q<id>|" by :meth:`for_query` so concurrent queries' messages
        #: never cross-deliver
        self.qtag = ""
        #: query-lifecycle tracer (None = tracing disabled: the only cost
        #: at every instrumentation point is this attribute test)
        self.tracer: Tracer | None = None
        #: virtual (sys.*) relation providers: table name -> () -> RowBatch,
        #: materialized on demand at the coordinator by ``_eval_sysscan``.
        #: Shared by reference across per-query clones — providers are
        #: read-only closures over cluster state.
        self.sys_tables: dict[str, object] = {}
        #: cluster flight recorder (None = not wired); chaos events land
        #: here even without an injector or tracer attached
        self.recorder = None
        self._begin_attempt()

    def _begin_attempt(self) -> None:
        """Fresh per-attempt state. Construction, every per-query clone and
        every ``execute`` attempt start here, so an attempt never sees a
        predecessor's counters."""
        self._scan_stats = ScanStats()
        #: actual output rows per physical-op id
        self.op_rows: dict[int, int] = {}
        #: fault counters (the database façade accumulates these across
        #: restart attempts)
        self.retries = 0
        self.backoff_time = 0.0
        self.failed_workers: set[int] = set()
        #: pipelining observability
        self.pipe = PipelineMetrics()
        self.inflight = InflightTracker()
        #: morsel busy time per serving worker, seconds
        self.site_busy_s: dict[int, float] = {}
        #: coordinator-only busy time, seconds
        self.coord_busy_s = 0.0
        self._busy_mu = threading.Lock()

    def for_query(self, qid: int, coord_id: int | None = None) -> "DistributedExecutor":
        """A shallow per-query clone with isolated mutable state.

        Shared (by reference): workers (and their governors — aggregate
        memory pressure must see every query), the network, topologies
        and the health tracker. Fresh per clone: every counter ``execute``
        mutates, plus a unique exchange-tag namespace. This is what lets
        multiple threads run ``execute`` concurrently against one cluster.

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
        clone._begin_attempt()
        return clone

    def _note_busy(self, site: int, seconds: float) -> None:
        """Attribute wall time to the node that did the work: worker ids
        accrue to ``site_busy_s``, anything else (the coordinator) to
        ``coord_busy_s``."""
        with self._busy_mu:
            if site in self.workers:
                self.site_busy_s[site] = self.site_busy_s.get(site, 0.0) + seconds
            else:
                self.coord_busy_s += seconds

    def _counters(self) -> ExecStats:
        """Everything countable about the attempt so far, cumulative.
        Subtracting an earlier snapshot (:meth:`ExecStats.since`)
        attributes a span of work: the whole attempt in :meth:`execute`,
        one operator in :meth:`_traced`. Traffic and spill counters are
        shared with concurrent queries and monotonic, so they are only
        ever read as deltas, never reset."""
        st = self._scan_stats
        traffic = self.net.traffic_of(self.qtag)
        governors = [w.governor for w in self.workers.values()]
        return ExecStats(
            rows_scanned=st.rows_out,
            pages_read=st.pages_read,
            sets_skipped=st.sets_skipped,
            sets_total=st.sets_total,
            pages_skipped=st.pages_skipped,
            pages_pushed_down=st.pages_pushed_down,
            network_bytes=traffic.bytes,
            network_messages=traffic.messages,
            forwarded_bytes=traffic.forwarded_bytes,
            max_connections=self.net.max_connections(),
            spilled_bytes=sum(g.spilled_bytes for g in governors),
            peak_memory=max(g.peak for g in governors),
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

    # -- entry ---------------------------------------------------------------------
    def execute(self, plan: PhysOp, reset_governors: bool = True) -> tuple[RowBatch, ExecStats]:
        self._begin_attempt()
        if reset_governors:
            # solo queries re-baseline peak so it reads per-query; under
            # concurrency peak stays cumulative (aggregate cluster pressure)
            for w in self.workers.values():
                w.governor.peak = w.governor.used
        base = self._counters()
        data = self._eval(plan)
        if plan.site != COORD:
            raise ExecutionError("plan root must be on the coordinator")
        # the one string decode of the query: codes -> values, on the clock
        t0 = time.perf_counter()
        result = RowBatch.concat(plan.schema, data.get(self.coord_id, [])).decoded()
        self._note_busy(self.coord_id, time.perf_counter() - t0)
        stats = self._counters().since(base)
        stats.rows_returned = result.length
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

        Fast path (no tracer): evaluate and record the row count. Under a
        tracer the evaluation runs in an ``operator`` span whose args get
        the :meth:`_counters` delta of the evaluation (inclusive of
        children, like every EXPLAIN ANALYZE) — the one per-operator
        record EXPLAIN ANALYZE and ``sys.query_operators`` read.
        """
        tr = self.tracer
        if tr is None:
            out = thunk()
            self.op_rows[op.id] = sum(b.length for bs in out.values() for b in bs)
            return out
        stem = self._EXCHANGE_STEMS.get(op.op)
        tag = f"{self.qtag}{stem}{op.id}" if stem else ""
        sp = tr.begin(op.op, cat="operator", tag=tag, op_id=op.id)
        base = self._counters()
        try:
            out = thunk()
        except BaseException:
            tr.end(sp, error=True)
            raise
        rows = sum(b.length for bs in out.values() for b in bs)
        self.op_rows[op.id] = rows
        d = self._counters().since(base)
        tr.end(
            sp,
            rows=rows,
            batches=sum(len(bs) for bs in out.values()),
            scan_rows=d.rows_scanned,
            pages=d.pages_read,
            sets_skipped=d.sets_skipped,
            sets_total=d.sets_total,
            pages_skipped=d.pages_skipped,
            pages_pushed=d.pages_pushed_down,
            net_bytes=d.network_bytes,
            spilled_bytes=d.spilled_bytes,
        )
        return out

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
                    [compile_expr(re, right_op.schema).fn(rb) for _, re in pairs],
                    exists_only=existence_only(jop.attrs["kind"], jop.attrs["residual"]),
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
        stream it was consuming is closed — unconsumed batches dropped,
        the site's ``pipeline`` span ended. On success the folded operators' actual
        rows are published for EXPLAIN ANALYZE and, under a tracer, they
        are marked fused on the span of the operator that ran the chain
        (they have no span of their own)."""
        run = self._open_chain(op)
        try:
            yield run
        finally:
            if run.live is not None:
                run.live.close()
        self.op_rows.update(run.counts)
        if self.tracer is not None and run.counts:
            self.tracer.current().args.setdefault("fused", []).extend(run.counts)

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

    def _site_batches(self, run: _ChainRun, site: int) -> Iterator[RowBatch]:
        """One site's batches out of the chain, wrapped in the site's
        ``pipeline`` span when tracing.

        The span opens when the first batch is pulled and closes when the
        site's stream is exhausted; because sites are consumed one after
        another on the query's thread, pipeline spans of the same
        site never overlap — the invariant the trace tests assert. Any
        network send issued while a batch is being consumed (streaming
        shuffle/broadcast/gather) nests inside the producing site's span.
        """
        inner = (
            self._scan_site_batches(run, site)
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
        the query's thread. Inputs are coalesced first so filters and
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

    def _instances(self, op: PhysOp) -> list[int]:
        return self.worker_ids if op.site == WORKERS else [self.coord_id]

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
            pred_fn = compile_predicate(strip_qualifiers(pred_expr), batch.schema)
            batch = batch.filter(pred_fn(batch))
        out = RowBatch(op.schema, {c.name: batch.col(c.unqualified) for c in op.schema})
        self._note_busy(self.coord_id, time.perf_counter() - t0)
        return {self.coord_id: [out]}

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
            node = SimpleNamespace(group_keys=keys, aggs=specs)
            partial_schema, partial_specs, final_specs = _split_aggs(node, child_schema)
        out: SiteData = {}
        with self._chain(child_op) as run:
            for site in run.sites:
                if blocking:
                    batches = list(self._site_batches(run, site))
                    t0 = time.perf_counter()
                    merged = self._materialize(site, child_schema, batches)
                    if mode == "final":
                        res = final_aggregate(merged, keys, op.attrs["final_specs"], op.schema)
                    else:
                        res = aggregate_batch(merged, keys, specs, op.schema)
                    out[site] = [res]
                    self._note_busy(site, time.perf_counter() - t0)
                    continue
                acc: RowBatch | None = None
                fold_s = 0.0
                for b in self._coalesce(self._site_batches(run, site), child_schema):
                    t0 = time.perf_counter()
                    part = partial_aggregate(b, keys, partial_specs, partial_schema)
                    acc = fold_partial(acc, part, keys, partial_specs, partial_schema)
                    fold_s += time.perf_counter() - t0
                t0 = time.perf_counter()
                if acc is None:
                    # empty site: aggregate the empty input once (keeps the
                    # engine's empty-input semantics — COUNT/SUM partials of
                    # 0 and NULL MIN/MAX partials, which the NaN-skipping
                    # combine then ignores)
                    acc = partial_aggregate(
                        RowBatch.empty(child_schema), keys, partial_specs, partial_schema
                    )
                if mode == "complete":
                    acc = final_aggregate(acc, keys, final_specs, op.schema)
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
        keys = [fn(lb) for fn in lkey_fns]
        if existence_only(op.attrs["kind"], op.attrs["residual"]):
            return semi_join(lb, jht.contains(keys), op.attrs["kind"])
        li, ri = jht.match_indices(keys)
        left_op, right_op = op.children
        return join_rows(lb, rb, li, ri, op.attrs["kind"], op.attrs["residual"],
                         op.schema, left_op.schema, right_op.schema)

    # -- helpers --------------------------------------------------------------------------
    def _materialize(self, site: int, schema: Schema, batches: list[RowBatch]) -> RowBatch:
        merged = RowBatch.concat(schema, batches)
        if site in self.workers:
            self.workers[site].governor.acquire(0)  # touch for peak tracking
        return merged
