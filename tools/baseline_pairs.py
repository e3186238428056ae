#!/usr/bin/env python3
"""The engine against its three comparators, in alternating rounds.

    python3 tools/baseline_pairs.py --sf 0.02 --workers 4 --rounds 10

builds the benchmark's cluster shape (``CLUSTER`` of
``benchmarks/e2e/harness.py``, with ``--workers`` workers) over TPC-H at
``--sf`` and plans the 22 fixed texts once. Each plan then runs on the
engine (:class:`DistributedExecutor`) and on each stand-in of
:mod:`repro.baselines`, all over the same storages and network. One
untimed pass checks that every stand-in returns the engine's rows; each
round then times one pass per side (the sum over the 22 queries of each
query's best of 3 executions). The sides take turns on every execution,
and each round starts at the next side.

It prints, per side, the median pass and its inter-quartile range, the
ratio of that median to the engine's, the rounds in which the side was
slower and faster than the engine, and the bytes it spilled and the rows
it sorted a pass. It exits 1 if a stand-in's rows differ from the
engine's; timing never sets the exit status.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from ab_pairs import quartiles  # noqa: E402
from harness import CLUSTER, DATA_SEED, QUERIES  # noqa: E402
from oracle import has_order_by, rows_equal  # noqa: E402

from repro import ClusterConfig, Database  # noqa: E402
from repro.baselines import (  # noqa: E402
    MapReduceStyleExecutor,
    MPPStyleExecutor,
    SparkStyleExecutor,
)
from repro.core.executor import DistributedExecutor  # noqa: E402
from repro.sql import parse  # noqa: E402
from repro.workloads import tpch_dbgen, tpch_queries, tpch_schema  # noqa: E402

SIDES = {
    "engine": DistributedExecutor,
    "hive-style": MapReduceStyleExecutor,
    "spark-style": SparkStyleExecutor,
    "greenplum-style": MPPStyleExecutor,
}
REPEATS = 3


def build(sf: float, workers: int) -> Database:
    data = tpch_dbgen.generate(sf, DATA_SEED)
    db = Database(ClusterConfig(**{**CLUSTER, "n_workers": workers}))
    for name, schema in tpch_schema.SCHEMAS.items():
        db.create_table(name, schema, tpch_schema.PARTITIONING[name])
        db.load(name, data[name])
    return db


def timed_round(executors: dict, plans: dict, first: int) -> dict[str, float]:
    """One pass per side: each query's best of ``REPEATS``, the sides
    taking turns on every execution (starting at side ``first``), so a
    slow spell of the host falls on all of them alike."""
    names = list(executors)
    order = names[first:] + names[:first]
    total = dict.fromkeys(names, 0.0)
    for plan in plans.values():
        best = dict.fromkeys(names, float("inf"))
        for _ in range(REPEATS):
            for side in order:
                t0 = time.perf_counter()
                executors[side].execute(plan)
                best[side] = min(best[side], time.perf_counter() - t0)
        for side in names:
            total[side] += best[side]
    return total


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sf", type=float, default=0.02)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)

    db = build(args.sf, args.workers)
    texts = {q: tpch_queries.query(q, args.sf) for q in QUERIES}
    plans = {q: db.plan_select(parse(text))[1] for q, text in texts.items()}
    runtimes = {w: wk.runtime() for w, wk in db.workers.items()}
    executors = {
        side: cls(runtimes, db.coord_ids[0], db.net, db.config) for side, cls in SIDES.items()
    }

    # the untimed pass: rows, and what each side spills and sorts a pass
    spill_bytes = dict.fromkeys(SIDES, 0)
    wrong = []
    for q, plan in plans.items():
        want = None
        for side, ex in executors.items():
            batch, stats = ex.execute(plan)
            spill_bytes[side] += stats.spilled_bytes
            if want is None:
                want = batch.rows()
            elif not rows_equal(batch.rows(), want, has_order_by(texts[q])):
                wrong.append(f"Q{q} {side}")
    sorted_rows = {side: getattr(ex, "sort_rows", 0) for side, ex in executors.items()}
    if wrong:
        print("rows differ from the engine's: " + ", ".join(wrong))
        return 1
    print(f"rows: every stand-in returns the engine's rows on all {len(plans)} texts")

    names = list(SIDES)
    passes: dict[str, list[float]] = {side: [] for side in names}
    for r in range(args.rounds):
        for side, seconds in timed_round(executors, plans, r % len(names)).items():
            passes[side].append(seconds)

    engine = passes["engine"]
    _, engine_median, _ = quartiles(engine)
    print(f"\nSF {args.sf:g}, {args.workers} workers, {args.rounds} rounds; "
          f"a pass is the sum of each query's best of {REPEATS}")
    print(f"{'side':16} {'median s':>9} {'IQR s':>8} {'ratio':>6} {'slower':>7} {'faster':>7} "
          f"{'spilled MB':>11} {'sorted rows':>12}")
    for side in names:
        q1, median, q3 = quartiles(passes[side])
        slower = sum(s > e for s, e in zip(passes[side], engine))
        faster = sum(s < e for s, e in zip(passes[side], engine))
        counts = "-" if side == "engine" else f"{slower:>7} {faster:>7}"
        print(f"{side:16} {median:9.4f} {q3 - q1:8.4f} {median / engine_median:6.3f} "
              f"{counts:>15} {spill_bytes[side] / 1e6:11.2f} {sorted_rows[side]:12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
