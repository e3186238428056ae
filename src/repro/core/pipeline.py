"""Morsel-driven pipelined execution (paper §III-B, §IV).

HRDBMS's per-node performance claim rests on *pipelining*: the engine
never materializes a full intermediate between operators. This module
supplies the pieces the distributed executor composes into that shape:

* :func:`fuse_chain` packages *every* subtree as a :class:`FusedChain`:
  a source (a table scan, or a blocking operator whose output is
  evaluated first) followed by zero or more filter / project / hash-join
  probe steps — a single-pass batch transformer with per-op row
  accounting (EXPLAIN ANALYZE still sees every fused operator). It is
  the engine's only execution shape.
* :func:`run_tasks_ordered` is the morsel driver: per-fragment scan
  tasks run on a bounded thread pool (generalizing the seed's
  scan-only DOP to the whole fused chain), and results are consumed in
  deterministic submission order so downstream network sends — and
  therefore the fault injector's event clock — are reproducible.
* :class:`InflightTracker` measures the peak number of produced-but-
  unconsumed batches, the observable of how far producers run ahead of
  the consumer.

Exchange streaming (shuffle/broadcast/gather sends issued per morsel
batch) lives in :mod:`repro.core.exchange`, the morsel body and scan
failover in :mod:`repro.core.scan_source`, and the per-site aggregate
fold in :mod:`repro.core.executor`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ..common.batch import RowBatch
from ..common.schema import Schema
from ..optimizer.physical import PhysOp
from ..sql.compiler import compile_expr, compile_predicate
from ..telemetry.metrics import Counter as TelemetryCounter


@dataclass
class PipelineMetrics:
    """Per-query pipelining counters surfaced through ExecStats."""

    #: fused chains built (one per chain per query, executed SPMD)
    pipelines: int = 0
    #: operators folded into those chains (scan included)
    fused_ops: int = 0
    #: morsel tasks executed (one per table fragment per site)
    morsels: int = 0


class InflightTracker:
    """Counts batches produced by morsel tasks but not yet consumed."""

    def __init__(self) -> None:
        self._cur = 0
        self.peak = 0
        self._lock = threading.Lock()

    def produced(self, n: int) -> None:
        with self._lock:
            self._cur += n
            if self._cur > self.peak:
                self.peak = self._cur

    def consumed(self, n: int) -> None:
        with self._lock:
            self._cur -= n

    @property
    def current(self) -> int:
        """Batches produced and not yet consumed; 0 once a query is done."""
        return self._cur

    def drain(self) -> None:
        """Forget batches of an abandoned stream. Call only once its
        morsel tasks have stopped: what is still counted can no longer
        be consumed."""
        with self._lock:
            self._cur = 0


@dataclass
class FusedChain:
    """One subtree as a source followed by single-pass steps.

    ``source`` is either a table ``scan`` (storage or external-table
    fragments, read by morsel tasks) or a blocking operator — an
    aggregate, exchange, sort, non-streamable join — whose already
    evaluated per-site batches feed the steps. ``transforms`` holds the
    filter/project/hash-join ops bottom-up (nearest the source first). A
    ``hashjoin`` transform is a *probe* step: the chain runs down the
    join's probe side, while the build side is a separate subtree the
    executor evaluates once per chain run (a build-once
    :class:`~repro.core.kernels.JoinHashTable` per site) and binds as a
    per-site probe closure. :meth:`steps` compiles the site-independent
    pieces once; :func:`apply_steps` then runs a batch through the whole
    chain in one pass.
    """

    source: PhysOp
    transforms: list[PhysOp]
    _steps: Optional[list] = field(default=None, repr=False)

    @property
    def root(self) -> PhysOp:
        return self.transforms[-1] if self.transforms else self.source

    @property
    def scans(self) -> bool:
        """True when morsel tasks read the source from a table."""
        return self.source.op == "scan"

    @property
    def n_ops(self) -> int:
        """Operators folded into the chain (a blocking source is not)."""
        return len(self.transforms) + int(self.scans)

    @property
    def probe_ops(self) -> list[PhysOp]:
        """Hash-join probes folded into the chain, bottom-up."""
        return [t for t in self.transforms if t.op == "hashjoin"]

    def steps(self) -> list[tuple[int, str, object]]:
        """Compiled (op_id, kind, payload) list; compiled lazily once.

        Call from the driver thread before spawning morsel tasks — the
        compiled closures are pure and safe to share across threads.
        Probe steps carry no payload here: their per-site closures (the
        hash table is per site) are passed to :func:`apply_steps`
        separately.
        """
        if self._steps is None:
            steps: list[tuple[int, str, object]] = []
            for t in self.transforms:
                child_schema = t.children[0].schema
                if t.op == "filter":
                    steps.append((t.id, "filter", compile_predicate(t.attrs["predicate"], child_schema)))
                elif t.op == "hashjoin":
                    steps.append((t.id, "probe", None))
                else:
                    steps.append((t.id, "project", (t.attrs["exprs"], t.schema)))
            self._steps = steps
        return self._steps


def chain_step(op: PhysOp) -> bool:
    """Operators that run as a step inside a chain: filters, projects,
    and probe-order-preserving joins (inner/semi/anti with equi pairs).
    Left/single/cross joins need the whole probe side (unmatched
    padding order, scalar cardinality checks) and are blocking."""
    if op.op == "hashjoin":
        return bool(op.attrs.get("pairs")) and op.attrs.get("kind") in (
            "inner",
            "semi",
            "anti",
        )
    return op.op in ("filter", "project")


def fuse_chain(op: PhysOp) -> FusedChain:
    """The chain for ``op``'s subtree: descend through filter / project
    / streamable-join steps (a join continues down its *probe* side, so
    join-on-join plans such as TPC-H Q10 fold into one single-pass task)
    until the first operator that is not a step — that operator is the
    source. A blocking ``op`` is a chain of its own with no steps."""
    transforms: list[PhysOp] = []
    cur = op
    while chain_step(cur):
        transforms.append(cur)
        cur = cur.children[0]
    return FusedChain(source=cur, transforms=transforms[::-1])


def project_batch(child: RowBatch, exprs, out_schema: Schema) -> RowBatch:
    """Evaluate a projection's ``(name, expr)`` list over one batch."""
    cols = {}
    for (name, e), col in zip(exprs, out_schema.columns):
        cols[name] = compile_expr(e, child.schema).fn(child)
    return RowBatch(out_schema, cols)


def apply_steps(
    batch: RowBatch,
    steps: list[tuple[int, str, object]],
    counts: dict[int, int],
    probes: Optional[dict[int, Callable[[RowBatch], RowBatch]]] = None,
) -> RowBatch | None:
    """Run one batch through a chain's compiled transforms, single pass.

    ``probes`` maps a fused hash join's op id to the current site's probe
    closure (built once per chain run over that site's build data).
    Accumulates each fused operator's output row count into ``counts``
    (EXPLAIN ANALYZE accounting). Returns None as soon as a filter or
    probe leaves zero rows — the rest of the chain is skipped, matching
    the engine's empty-batch dropping.
    """
    for op_id, kind, payload in steps:
        if kind == "filter":
            batch = batch.filter(payload(batch))
            counts[op_id] = counts.get(op_id, 0) + batch.length
            if batch.length == 0:
                return None
        elif kind == "probe":
            batch = probes[op_id](batch)
            counts[op_id] = counts.get(op_id, 0) + batch.length
            if batch.length == 0:
                return None
        else:
            exprs, schema = payload
            batch = project_batch(batch, exprs, schema)
            counts[op_id] = counts.get(op_id, 0) + batch.length
    return batch


def coalesce_batches(
    batches, schema, target_rows: int
) -> Iterator[RowBatch]:
    """Merge consecutive streamed batches until ``target_rows`` is reached.

    Morsel outputs can be small (a scan batch split per destination, a
    filter that drops most rows); per-batch costs downstream — hash
    partitioning, wire encoding, partial-aggregate folds — have fixed
    NumPy setup overhead that small batches amortize badly. Coalescing
    holds at most ``target_rows`` rows, so memory stays bounded while
    downstream work runs at full batch width. Grouping depends only on
    batch sizes, which are deterministic, so exchange ordering (and the
    fault injector's clock) is unaffected by thread scheduling.
    """
    pending: list[RowBatch] = []
    rows = 0
    for b in batches:
        if not b.length:
            continue
        pending.append(b)
        rows += b.length
        if rows >= target_rows:
            yield pending[0] if len(pending) == 1 else RowBatch.concat(schema, pending)
            pending, rows = [], 0
    if pending:
        yield pending[0] if len(pending) == 1 else RowBatch.concat(schema, pending)


#: a site whose table holds fewer rows than this runs its chain inline as
#: a single morsel (no per-fragment split, no pool dispatch) — tiny
#: selective scans stop paying scheduling overhead
MORSEL_MIN_ROWS = 32768


def morsel_disks(n_disks: int, row_count: int) -> list[list[int] | None]:
    """The fragment list of each morsel task of one site's table scan:
    one morsel per fragment, or one inline morsel over all of them
    (``None``) below :data:`MORSEL_MIN_ROWS`."""
    if row_count < MORSEL_MIN_ROWS:
        return [None]
    return [[d] for d in range(n_disks)]


class MorselScheduler:
    """A shared morsel worker pool multiplexed across concurrent queries.

    The seed executor instantiated a fresh thread pool per query (per
    fused chain, even); under concurrent sessions that multiplies OS
    threads by the number of in-flight queries and defeats the morsel
    model's core idea — a fixed worker set pulling tasks from whoever
    has work. This scheduler owns one lazily-started pool sized to the
    machine (cpu count, capped at 32); queries submit task lists through
    :meth:`run_ordered`, which keeps at most ``dop`` of *that query's*
    tasks in flight (preserving each query's intra-query DOP grant)
    while the pool interleaves tasks from all queries.

    Deadlock-free by construction: morsel tasks are leaf closures that
    never submit to the scheduler themselves, so pool threads never
    block on pool work.
    """

    def __init__(self, max_threads: int = 0):
        import os

        self.max_threads = max_threads if max_threads > 0 else min(32, (os.cpu_count() or 4))
        self._pool = None
        self._mu = threading.Lock()
        #: tasks ever submitted (observability)
        self.submitted = 0
        #: wall seconds pool threads spent running tasks; per-thread
        #: sharded, so worker threads record without a lock
        self.busy = TelemetryCounter()

    def _ensure_pool(self):
        with self._mu:
            if self._pool is None:
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_threads, thread_name_prefix="morsel"
                )
            return self._pool

    def run_ordered(self, tasks: list[Callable[[], object]], dop: int) -> Iterator[object]:
        """Run ``tasks`` on the shared pool, at most ``dop`` in flight,
        yielding results in submission order."""
        from collections import deque as _deque
        from concurrent.futures import wait

        pool = self._ensure_pool()
        window = max(1, dop)
        inflight: "_deque" = _deque()
        it = iter(tasks)
        try:
            for t in it:
                inflight.append(pool.submit(self._timed, t))
                self.submitted += 1
                if len(inflight) >= window:
                    yield inflight.popleft().result()
            while inflight:
                yield inflight.popleft().result()
        finally:
            # a consumer bailing early must leave nothing behind: queued
            # futures are cancelled and running ones waited out, so no
            # task of the query still runs once the query has returned
            for f in inflight:
                f.cancel()
            wait(inflight)

    def _timed(self, task: Callable[[], object]) -> object:
        t0 = time.perf_counter()
        try:
            return task()
        finally:
            self.busy.inc(time.perf_counter() - t0)

    def shutdown(self) -> None:
        with self._mu:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


def run_tasks_ordered(
    tasks: list[Callable[[], object]],
    dop: int,
    threaded: bool,
    scheduler: MorselScheduler | None = None,
) -> Iterator[object]:
    """Morsel driver: run tasks with up to ``dop`` threads, yielding
    results in submission order (deterministic regardless of thread
    scheduling). With a :class:`MorselScheduler` the tasks run on the
    shared cross-query pool; otherwise a private pool is spun up, and
    when threading is disabled or pointless execution is inline."""
    if threaded and dop > 1 and len(tasks) > 1:
        if scheduler is not None:
            yield from scheduler.run_ordered(tasks, dop)
            return
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=dop) as pool:
            futures = [pool.submit(t) for t in tasks]
            for f in futures:
                yield f.result()
    else:
        for t in tasks:
            yield t()
