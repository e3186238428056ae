"""The exchange: how batches move between nodes.

Every byte a query puts on the simulated network goes through one send
primitive (:meth:`Exchange._send`: serialize on the sender's clock, then
route over a topology with bounded retry) and comes back through one
receive primitive (:meth:`Exchange._recv`: drain the inbox, deserialize
on the receiver's clock). Shuffle, broadcast, gather, the reduce tree and
the Bloom-filter ship are written on top of those two and never touch
the network themselves.

:class:`Exchange` is mixed into :class:`~repro.core.executor.DistributedExecutor`
and uses its cluster handles (``net``, ``workers``, ``worker_ids``,
``coord_id``, ``ntm``, ``tree``, ``qtag``, ``config``), its chain
machinery (``_chain``, ``_site_batches``, ``_coalesce``) and its
bookkeeping (``_note_busy``, ``_record_chaos``, ``_materialize``).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..common.batch import RowBatch, hash_value_arrays
from ..common.errors import NetworkError, WorkerFailureError
from ..optimizer.physical import COORD, PhysOp
from ..sql.compiler import compile_expr
from .aggregate import combine_partials
from .kernels import bloom_filter_codes, bloom_filter_test, merge_sorted, top_k
from .spill import SpillableList

if TYPE_CHECKING:
    from .executor import SiteData


class Exchange:
    # -- the two primitives ----------------------------------------------------------
    def _send(
        self, topology, src: int, dests: Iterable[int], data, tag: str,
        encode: Callable[[object], bytes] = RowBatch.to_bytes,
    ) -> None:
        """Serialize ``data`` once, charged to ``src``, and route a copy to
        every destination over ``topology``.

        A transient :class:`NetworkError` (dropped link, partition blip)
        is retried with simulated-time exponential backoff, up to
        ``send_retries`` times per destination;
        :class:`WorkerFailureError` (the node itself is down) escalates
        immediately to the query-restart path, as does retry exhaustion.
        """
        t0 = time.perf_counter()
        payload = encode(data)
        self._note_busy(src, time.perf_counter() - t0)
        budget = self.config.send_retries
        for dest in dests:
            delay = self.config.backoff_base
            for attempt in range(budget + 1):
                try:
                    self.net.route_send(topology, src, dest, payload, tag)
                    break
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
                        "retry", node=dest,
                        detail=f"attempt {attempt + 1}, backoff {delay:.4f}s",
                    )
                    delay *= 2

    def _recv(
        self, node: int, tag: str, decode: Callable[[bytes], object] = RowBatch.from_bytes
    ) -> list:
        """Everything delivered to ``node`` under ``tag``, deserialized,
        charged to ``node``."""
        t0 = time.perf_counter()
        out = [decode(payload) for _, _, payload in self.net.recv_all(node, tag)]
        self._note_busy(node, time.perf_counter() - t0)
        return out

    # -- shuffle ------------------------------------------------------------------------
    def _shuffle_batch(
        self, src: int, batch: RowBatch, compiled, buffers, tag: str, prefilter
    ) -> None:
        """Partition one batch by key hash and send/buffer each slice."""
        t0 = time.perf_counter()
        if prefilter is not None:
            batch = prefilter(batch)
        parts: list[RowBatch] = []
        if batch.length:
            codes = hash_value_arrays([c.fn(batch) for c in compiled])
            parts = batch.partition_codes(codes, len(self.worker_ids))
        self._note_busy(src, time.perf_counter() - t0)
        for dest, part in zip(self.worker_ids, parts):
            if part.length == 0:
                continue
            if dest == src:
                buffers[dest].append(part)  # local partition: no network
            else:
                self._send(self.ntm, src, (dest,), part, tag)

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
        try:
            with self._chain(child_op) as run:
                for src in run.sites:
                    for batch in self._coalesce(self._site_batches(run, src), child_op.schema):
                        self._shuffle_batch(src, batch, compiled, buffers, tag, prefilter)
            out: SiteData = {}
            for w in self.worker_ids:
                for b in self._recv(w, tag):
                    buffers[w].append(b)
                out[w] = list(buffers[w])
            return out
        finally:
            # on every exit, a failed send included: the buffers' memory
            # goes back to the governors
            for buf in buffers.values():
                buf.close()

    # -- broadcast ------------------------------------------------------------------------
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
                    self._send(topology, src, (w for w in self.worker_ids if w != src), b, tag)
        return {w: local[w] + self._recv(w, tag) for w in self.worker_ids}

    # -- gather ---------------------------------------------------------------------------
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
            return {self.coord_id: self._reduce_tree_gather(op, child, sources, tag, mode)}

        # concat: batches climb the tree as they are produced. The chain
        # still runs on every site (a replicated child is scanned
        # everywhere, so probe/failover bookkeeping does not depend on
        # who forwards) but only the designated sources send.
        with self._chain(child_op) as run:
            for w in run.sites:
                for b in self._coalesce(self._site_batches(run, w), child_op.schema):
                    if w in sources:
                        self._send(self.tree, w, (self.coord_id,), b, tag)
        return {self.coord_id: self._recv(self.coord_id, tag)}

    def _reduce_tree_gather(
        self, op: PhysOp, child: SiteData, sources: Sequence[int], tag: str, mode: str
    ) -> list[RowBatch]:
        """Hierarchical reduce over the workers' binomial graph.

        Workers fold partial states pairwise along
        :meth:`BinomialGraphTopology.reduce_schedule` rounds — every
        combine (``combine_partials`` fold, top-k heap fold, or sorted
        merge) runs on a *worker*, and the coordinator receives a single
        pre-merged stream from the reduction root instead of one stream
        per worker. This is the paper's generalized binomial graph used
        for reduction rather than shuffle routing; with the serial
        driver it moves the O(n) merge work off the coordinator's
        ledger, and on a real cluster off its CPU. A single worker has
        an empty schedule and forwards its own state.

        Nodes whose state is empty stay silent: an idle (possibly down)
        node must not force a send on the reduction path. The schedule
        and per-round receive order are deterministic functions of the
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
                self._send(self.ntm, src, (dst,), st, tag)
                receivers.append(dst)
            for dst in receivers:
                received = self._recv(dst, tag)
                if received:
                    t0 = time.perf_counter()
                    have = states.get(dst)
                    parts = ([have] if have is not None else []) + received
                    states[dst] = self._combine_level(op, parts, mode)
                    self._note_busy(dst, time.perf_counter() - t0)
        final_state = states.get(root)
        if final_state is not None and final_state.length:
            self._send(self.tree, root, (self.coord_id,), final_state, tag)
        received = self._recv(self.coord_id, tag)
        t0 = time.perf_counter()
        final = self._combine_level(op, received, mode)
        self._note_busy(self.coord_id, time.perf_counter() - t0)
        return [final] if final is not None else []

    def _combine_level(self, op: PhysOp, batches: list[RowBatch], mode: str) -> RowBatch | None:
        if mode == "merge":
            return merge_sorted(batches, op.schema, op.attrs["sort_keys"])
        merged = RowBatch.concat(op.schema, batches)
        if mode == "combine":
            specs = op.attrs["combine_specs"]
            keys = tuple(op.attrs.get("group_keys", ()))
            return combine_partials(merged, keys, specs, op.schema)
        if mode == "topk":
            return top_k(merged, op.attrs["sort_keys"], op.attrs["k"])
        return merged

    # -- Bloom-filtered shuffle -------------------------------------------------------------
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
            arrays = [compile_expr(e, right_op.schema).fn(merged) for e in key_exprs]
            local = bloom_filter_codes(hash_value_arrays(arrays))
            bits = local if bits is None else (bits | local)
        if bits is None:
            def drop_all(batch: RowBatch) -> RowBatch:
                return batch.filter(np.zeros(batch.length, dtype=bool))

            return drop_all
        # account the filter exchange: every worker receives the merged
        # bits — raw bytes, not an RB02 batch
        tag = f"{self.qtag}bloom{op.id}"
        self._send(
            self.tree, self.coord_id, self.worker_ids, bits, tag, encode=np.ndarray.tobytes
        )
        for w in self.worker_ids:
            self._recv(w, tag, decode=bytes)
        probe_schema = op.children[0].children[0].schema  # shuffle's child
        probe_fns = [compile_expr(le, probe_schema).fn for le, _ in pairs]

        def prefilter(batch: RowBatch) -> RowBatch:
            arrays = [fn(batch) for fn in probe_fns]
            return batch.filter(bloom_filter_test(bits, hash_value_arrays(arrays)))

        return prefilter
