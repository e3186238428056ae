"""Before/after benchmark for the adaptive optimizer loop.

A join whose fact-table statistics lie by orders of magnitude
(installed after load, as a stale ANALYZE would). The first execution
runs the mis-planned shape and its actuals trip the Q-error threshold;
the feedback loop evicts the cached plan and re-optimizes with observed
cardinalities. The gates are structural: exactly one re-plan fires, the
corrected plan moves fewer bytes over the network, and both plans
return identical rows. Wall time is reported, not gated.

Results land in ``BENCH_ADAPTIVE.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_adaptive.py            # full scale
    PYTHONPATH=src python benchmarks/bench_adaptive.py --tiny     # CI smoke
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro import ClusterConfig, Database
from repro.common import DataType, RowBatch, Schema
from repro.optimizer.stats import TableStats

N_DIM = 50
N_FACT = 200_000
REPLAN_SQL = (
    "SELECT d_tag, SUM(f_v) FROM fact JOIN dim ON f_d = d_id GROUP BY d_tag"
)


def replan_db(n_fact: int) -> Database:
    """dim/fact cluster whose fact statistics lie by ~n_fact/5 x."""
    db = Database(ClusterConfig(
        n_workers=4, n_max=4, page_size=16 * 1024,
        replan_qerror_threshold=5.0,
    ))
    db.create_table("dim", Schema.of(("d_id", DataType.INT64), ("d_tag", DataType.STRING)))
    db.create_table("fact", Schema.of(
        ("f_id", DataType.INT64), ("f_d", DataType.INT64), ("f_v", DataType.FLOAT64)))
    db.load("dim", RowBatch.from_pairs(
        ("d_id", DataType.INT64, list(range(N_DIM))),
        ("d_tag", DataType.STRING, [f"t{i % 8}" for i in range(N_DIM)]),
    ))
    db.load("fact", RowBatch.from_pairs(
        ("f_id", DataType.INT64, list(range(n_fact))),
        ("f_d", DataType.INT64, [i % N_DIM for i in range(n_fact)]),
        ("f_v", DataType.FLOAT64, [float(i % 1000) for i in range(n_fact)]),
    ))
    # the mis-estimate: installed AFTER load (load auto-analyzes), the
    # way a stale ANALYZE under churn would look
    db.set_table_stats("fact", TableStats(row_count=5.0))
    return db


def replan_phase(n_fact: int) -> dict:
    db = replan_db(n_fact)
    t0 = time.perf_counter()
    first = db.sql(REPLAN_SQL)
    first_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    second = db.sql(REPLAN_SQL)
    second_s = time.perf_counter() - t0
    fb = db.feedback_stats()
    assert sorted(first.rows()) == sorted(second.rows()), "re-plan changed the result"
    return {
        "fact_rows": n_fact,
        "replans": fb["replans"],
        "feedback_runs": fb["runs"],
        "worst_q_after": round(fb["worst_q"], 2),
        "misplanned_s": round(first_s, 5),
        "replanned_s": round(second_s, 5),
        "speedup": round(first_s / second_s, 2) if second_s else None,
        "network_bytes_before": first.stats.network_bytes,
        "network_bytes_after": second.stats.network_bytes,
        "network_drop": round(
            first.stats.network_bytes / second.stats.network_bytes, 2
        ) if second.stats.network_bytes else None,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fact-rows", type=int, default=N_FACT)
    ap.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_ADAPTIVE.json"),
        help="output JSON path",
    )
    ap.add_argument(
        "--tiny", action="store_true",
        help="CI smoke scale: 20k fact rows, no output file",
    )
    args = ap.parse_args()
    if args.tiny:
        args.fact_rows = 20_000
        args.out = "/dev/null"

    rp = replan_phase(args.fact_rows)
    print(
        f"replan: replans={rp['replans']} q_after={rp['worst_q_after']} "
        f"misplanned={rp['misplanned_s']}s replanned={rp['replanned_s']}s "
        f"net {rp['network_bytes_before']}B -> {rp['network_bytes_after']}B"
    )
    failures = []
    if rp["replans"] != 1:
        failures.append(f"expected exactly one re-plan, got {rp['replans']}")
    if rp["network_bytes_after"] >= rp["network_bytes_before"]:
        failures.append("re-planned query did not reduce network bytes")
    for f in failures:
        print(f"GATE FAILED: {f}")

    report = {
        "before": "static plans (stale stats kept)",
        "after": "Q-error feedback re-planning",
        "replan": rp,
    }
    if args.out != "/dev/null":
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
