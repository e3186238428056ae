"""Executable baseline engines over the same cluster substrate.

Each comparator in the paper's evaluation is reproduced as a variant of
the distributed executor that re-introduces exactly the bottleneck the
paper attributes to it — on the *same* storage, data, and network — so
differences in measured behaviour (bytes written to disk, connection
counts, sort work) are caused by the mechanism, not by unrelated code:

* :class:`MapReduceStyleExecutor` (Hive 1.x on MapReduce): the shuffle is
  **blocking and sort-based** — every producer sorts its outgoing
  partition by key and writes it to local disk; consumers read the files
  back before processing. Additionally every stage boundary (gather)
  materializes its input to the distributed-filesystem stand-in.
* :class:`SparkStyleExecutor` (Spark SQL 1.6): pipelined within stages,
  but shuffle data is still **written to shuffle files** (no sort), per
  Spark's default shuffle behaviour the paper calls out.
* :class:`MPPStyleExecutor` (Greenplum 4.3): fully pipelined in-memory
  shuffle like HRDBMS, but over a **direct all-to-all interconnect** —
  every node opens a connection to every other node (no ``N_max`` bound,
  no hub forwarding) — with a flat gather to the master in place of the
  reduce tree, and without Bloom-filtered shuffles.

All three scan with the engine's data skipping.

These run real queries; the analytic performance model
(:mod:`repro.bench.model`) uses the same mechanism switches to project
the paper's cluster sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.batch import RowBatch, hash_value_arrays
from ..core.executor import DistributedExecutor, SiteData
from ..core.kernels import sort_indices
from ..optimizer.physical import PhysOp
from ..sql.ast import ColumnRef
from ..sql.compiler import compile_expr


@dataclass
class BaselineIOStats:
    """Disk traffic the baseline generated that HRDBMS would not."""

    shuffle_bytes_written: int = 0
    shuffle_bytes_read: int = 0
    stage_bytes_written: int = 0
    sort_rows: int = 0


class _DiskShuffleMixin:
    """Shared machinery: write shuffle partitions to worker-local files."""

    sort_before_write = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.io_stats = BaselineIOStats()
        self._file_seq = 0

    def _spill_roundtrip(self, worker_id: int, batch: RowBatch, kind: str) -> RowBatch:
        """Write a batch to the worker's disk and read it back (the
        materialization the paper blames for Hive/Spark per-node cost)."""
        fs = self.workers[worker_id].fs
        self._file_seq += 1
        path = f"temp/{kind}{self._file_seq}.part"
        blob = batch.to_bytes()
        fh = fs.open(path)
        fh.pwrite(0, blob)
        if kind == "shuffle":
            self.io_stats.shuffle_bytes_written += len(blob)
        else:
            self.io_stats.stage_bytes_written += len(blob)
        data = fh.pread(0, fh.size())
        fh.close()
        fs.delete(path)
        if kind == "shuffle":
            self.io_stats.shuffle_bytes_read += len(data)
        return RowBatch.from_bytes(data[: len(blob)])

    def _eval_shuffle(self, op: PhysOp, prefilter=None) -> SiteData:
        # baselines do not use Bloom-filtered shuffles
        child_op = op.children[0]
        child = self._eval(child_op)
        key_exprs = op.attrs["key_exprs"]
        tag = f"shuf{op.id}"
        compiled = [compile_expr(e, child_op.schema) for e in key_exprs]
        outgoing: dict[int, dict[int, list[RowBatch]]] = {
            w: {d: [] for d in self.worker_ids} for w in self.worker_ids
        }
        for src, batches in child.items():
            for batch in batches:
                if batch.length == 0:
                    continue
                codes = hash_value_arrays([c.fn(batch) for c in compiled])
                parts = batch.partition_codes(codes, len(self.worker_ids))
                for dest, part in zip(self.worker_ids, parts):
                    if part.length:
                        outgoing[src][dest].append(part)
        out: SiteData = {w: [] for w in self.worker_ids}
        for src in self.worker_ids:
            for dest, parts in outgoing[src].items():
                if not parts:
                    continue
                merged = RowBatch.concat(op.schema, parts)
                if self.sort_before_write and key_exprs:
                    keys = [
                        (str(e), True)
                        for e in key_exprs
                        if isinstance(e, ColumnRef) and str(e) in merged.schema
                    ]
                    if keys:
                        merged = merged.take(sort_indices(merged, keys))
                        self.io_stats.sort_rows += merged.length
                # blocking, disk-materialized shuffle write on the sender
                merged = self._spill_roundtrip(src, merged, "shuffle")
                if dest == src:
                    out[dest].append(merged)
                else:
                    self._send(self.ntm, src, (dest,), merged, tag)
        for w in self.worker_ids:
            out[w].extend(self._recv(w, tag))
        return out


class MapReduceStyleExecutor(_DiskShuffleMixin, DistributedExecutor):
    """Hive-on-MapReduce behaviour: sorted, materialized, blocking shuffle
    plus per-stage DFS materialization."""

    sort_before_write = True

    def _eval_gather(self, op: PhysOp) -> SiteData:
        result = super()._eval_gather(op)
        # MapReduce writes reducer output to the DFS at every job boundary
        out: SiteData = {}
        for site, batches in result.items():
            out[site] = [
                self._spill_roundtrip(
                    site if site in self.workers else self.worker_ids[0], b, "stage"
                )
                for b in batches
            ]
        return out


class SparkStyleExecutor(_DiskShuffleMixin, DistributedExecutor):
    """Spark SQL 1.6 behaviour: unsorted but disk-materialized shuffle."""

    sort_before_write = False


class MPPStyleExecutor(DistributedExecutor):
    """Greenplum-style MPP: pipelined in-memory shuffle over a direct
    all-to-all interconnect (each node talks to every other node)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # replace topology routing with direct sends: O(n) connections/node
        self.ntm = self.tree = _DirectTopology()

    def _build_bloom_prefilter(self, *a, **kw):  # Greenplum 4.3: no bloom shuffle
        return None

    def _reduce_tree_gather(self, op, child, sources, tag, mode) -> list[RowBatch]:
        """Flat gather motion instead of the reduce tree: every segment
        combines what it holds and sends it straight to the master, which
        merges all ``n`` streams itself. Segments holding nothing stay
        silent."""
        for w in sources:
            state = self._combine_level(op, child.get(w, []), mode)
            if state is not None and state.length:
                self._send(self.tree, w, (self.coord_id,), state, tag)
        final = self._combine_level(op, self._recv(self.coord_id, tag), mode)
        return [final] if final is not None else []


class _DirectTopology:
    """Degenerate topology: every pair is adjacent (for MPP baselines)."""

    def route(self, src: int, dst: int) -> list[int]:
        return [dst]
