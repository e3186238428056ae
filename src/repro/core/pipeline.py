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
* A site's table scan is one morsel: the query's own thread scans
  the site's fragments and runs the chain's steps over them, then the
  morsel's batches are consumed in order, so downstream network sends —
  and therefore the fault injector's event clock — are reproducible.
  A query runs on one thread.
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
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ..common.batch import RowBatch
from ..common.schema import Schema
from ..optimizer.physical import PhysOp
from ..sql.compiler import compile_expr, compile_predicate


@dataclass
class PipelineMetrics:
    """Per-query pipelining counters surfaced through ExecStats."""

    #: fused chains built (one per chain per query, executed SPMD)
    pipelines: int = 0
    #: operators folded into those chains (scan included)
    fused_ops: int = 0
    #: morsels executed (one per site per table scan)
    morsels: int = 0


class InflightTracker:
    """Counts batches produced by morsels but not yet consumed."""

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
        morsel has stopped: what is still counted can no longer
        be consumed."""
        with self._lock:
            self._cur = 0


@dataclass
class FusedChain:
    """One subtree as a source followed by single-pass steps.

    ``source`` is either a table ``scan`` (storage or external-table
    fragments, read by one morsel per site) or a blocking operator — an
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
        """True when morsels read the source from a table."""
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

        The compiled closures are pure, so every site's morsel shares
        them. Probe steps carry no payload here: their per-site closures (the
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
    fault injector's clock) is reproducible.
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

