"""The paper's comparators (§VII) as ablations of the engine: each is
:class:`DistributedExecutor` plus the mechanism the paper blames for its
gap, through a seam the engine already has, without the Bloom-filtered
shuffle (§V). ``tools/baseline_pairs.py`` measures them.

* Spark SQL 1.6: every worker's memory budget is zero, so each shuffle
  receive buffer goes through the engine's spill file (shuffle files).
* Hive on MapReduce: the same, plus every outgoing shuffle batch sorted
  by its partition hash codes and every gather's output written through
  a spill file (the per-stage materialization).
* Greenplum 4.3: a full mesh of every node (no ``N_max`` bound, no hub
  forwarding) and a flat gather to the master, not the reduce tree.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..common.batch import RowBatch, hash_value_arrays
from ..core.executor import DistributedExecutor, SiteData
from ..core.spill import MemoryGovernor, SpillableList
from ..network.topology import BinomialGraphTopology
from ..optimizer.physical import PhysOp


class _Comparator(DistributedExecutor):
    def _build_bloom_prefilter(self, *args):
        return None


class SparkStyleExecutor(_Comparator):
    #: rows sorted before a shuffle send (the Hive-style subclass only)
    sort_rows = 0

    def __init__(self, workers, coord_id, net, config):
        workers = {w: replace(rt, governor=MemoryGovernor(0)) for w, rt in workers.items()}
        super().__init__(workers, coord_id, net, config)


class MapReduceStyleExecutor(SparkStyleExecutor):
    def _shuffle_batch(self, src, batch, compiled, buffers, tag, prefilter) -> None:
        if batch.length:
            codes = hash_value_arrays([c.fn(batch) for c in compiled])
            batch = batch.take(np.argsort(codes, kind="stable"))
            self.sort_rows += batch.length
        super()._shuffle_batch(src, batch, compiled, buffers, tag, prefilter)

    def _eval_gather(self, op: PhysOp) -> SiteData:
        rt = self.workers[self.worker_ids[0]]
        out: SiteData = {}
        for site, batches in super()._eval_gather(op).items():
            stage = SpillableList(rt.fs, rt.governor, op.schema, f"{self.qtag}stage{op.id}")
            try:
                for b in batches:
                    stage.append(b)
                out[site] = list(stage)
            finally:
                stage.close()
        return out


class MPPStyleExecutor(_Comparator):
    def __init__(self, *args):
        super().__init__(*args)
        self._mesh()

    def _mesh(self) -> None:
        nodes = [self.coord_id, *self.worker_ids]
        self.ntm = self.tree = BinomialGraphTopology(nodes, n_max=len(nodes))

    def for_query(self, qid: int, coord_id: int | None = None) -> "MPPStyleExecutor":
        clone = super().for_query(qid, coord_id)
        clone._mesh()  # over the clone's own coordinator
        return clone

    def _reduce_tree_gather(self, op, child, sources, tag, mode) -> list[RowBatch]:
        """Flat gather motion: each segment's state goes straight to the master."""
        for w in sources:
            state = self._combine_level(op, child.get(w, []), mode)
            if state is not None and state.length:
                self._send(self.tree, w, (self.coord_id,), state, tag)
        final = self._combine_level(op, self._recv(self.coord_id, tag), mode)
        return [final] if final is not None else []
