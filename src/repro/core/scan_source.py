"""Table-scan chain sources: who serves a site's partition, and the morsel
that scans it.

For each site the executor asks :meth:`ScanSource._serving_for` which
worker will read the partition (the site itself, or — replicated tables
only — a healthy replica after the blacklist / half-open-probe / failover
dance), then :meth:`ScanSource._scan_site_batches` turns that worker's
fragments into the site's one morsel, which scans them and runs the
chain's steps on the query's thread. External tables stream their
fragments through the same morsel body.

:class:`ScanSource` is mixed into
:class:`~repro.core.executor.DistributedExecutor` and uses its cluster
handles (``workers``, ``worker_ids``, ``health``, ``net``, ``config``,
``fault_injector``), its per-attempt state
(``_scan_stats``, ``pipe``, ``inflight``, ``failed_workers``) and
``_note_busy`` / ``_record_chaos``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..common.batch import RowBatch
from ..common.errors import ExecutionError, WorkerFailureError
from ..optimizer.physical import PhysOp
from ..sql.ast import ColumnRef, Expr, column_refs
from ..sql.compiler import compile_predicate, to_scan_predicate
from ..storage.table import ScanStats, TableStorage
from .pipeline import apply_steps

if TYPE_CHECKING:
    from .executor import WorkerRuntime, _ChainRun


class ScanSource:
    # -- serving and failover ----------------------------------------------------------
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

    # -- what one scan reads -----------------------------------------------------------
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
            base_pred = strip_qualifiers(pred_expr)
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
            pred = compile_predicate(strip_qualifiers(pred_expr), op.schema)
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

    # -- the morsel ----------------------------------------------------------------------
    def _scan_site_batches(self, run: _ChainRun, w: int):
        """Stream one site's table through the chain.

        The site's scan is one morsel, run on the query's own thread: it
        reads every fragment (or every external-table fragment) and runs
        the full transform chain, then its batches are yielded in order,
        so every downstream send sequence (and the fault injector's
        clock) is deterministic.
        """
        op = run.chain.source
        table = op.attrs["table"]
        replicated = op.partitioning.kind == "replicated"
        serving = self._serving_for(op, w, table, replicated)
        rt = self.workers[serving]
        st = self._scan_stats
        if table in rt.external:
            scanned = self._external_batches(rt, op, st)

            def finish(b):
                return b
        else:
            storage = rt.storage.get(table)
            if storage is None:
                raise ExecutionError(f"worker {serving} has no table {table!r}")
            needed, pred_fn, scan_pred, finish = self._scan_plan(storage, op)
            scanned = storage.scan(
                needed, pred_fn, scan_pred, skipping=True, stats=st, neardata=True
            )
        steps = run.chain.steps()
        probes = run.probes.get(w)
        counts = run.counts
        scan_id = op.id

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

        # a scan yields one batch per fragment, which a small or highly
        # selective fragment leaves far below batch_size; coalescing
        # the raw stream first lets finish/filter/probe run at full
        # batch width (grouping depends only on deterministic sizes)
        target = max(1, self.config.batch_size)

        t0 = time.perf_counter()
        self.pipe.morsels += 1
        outs: list[RowBatch] = []
        staged: list[RowBatch] = []
        buf: list[RowBatch] = []
        held = 0

        def step(raws: list[RowBatch]) -> None:
            raw = raws[0] if len(raws) == 1 else RowBatch.concat(raws[0].schema, raws)
            b = finish(raw)
            counts[scan_id] = counts.get(scan_id, 0) + b.length
            b = apply_steps(b, pre, counts, probes)
            if b is not None and b.length:
                (outs if post is None else staged).append(b)

        for raw in scanned:
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
            b = apply_steps(merged, post, counts, probes)
            if b is not None and b.length:
                outs.append(b)
        self.inflight.produced(len(outs))
        self._note_busy(serving, time.perf_counter() - t0)
        try:
            for b in outs:
                self.inflight.consumed(1)
                yield b
        finally:
            # an abandoned stream (failed send, restart) leaves produced
            # batches nobody will consume
            self.inflight.drain()


def strip_qualifiers(expr: Expr) -> Expr:
    """Rewrite alias-qualified refs to base names for storage-level scans."""
    from ..optimizer.binder import _map_children

    def fn(e: Expr) -> Expr:
        if isinstance(e, ColumnRef):
            return ColumnRef(e.name.rsplit(".", 1)[-1])
        return _map_children(e, fn)

    return fn(expr)
