"""Telemetry overhead benchmark — the disabled-cost gates.

Disabled telemetry is designed to cost one attribute load and an
``is not None`` test per operator (plus the same per network send).
This benchmark measures that cost directly:

* **baseline** — the instrumentation wrapper is monkeypatched out:
  ``DistributedExecutor._eval`` evaluates the operator and records its
  row count, exactly the pre-telemetry engine shape.
* **disabled** — the shipped default: the wrapper runs but the tracer
  is absent (``None``), so only the one no-op check executes.
* **enabled** — full tracing on (reported for context, not gated).

The flight recorder and metrics sampler get end-to-end legs too:

* **rec_base** — recorder and sampler configured off AND their
  per-query hooks (``_record_admission`` / ``_introspection_tick``)
  monkeypatched out: the pre-introspection engine shape.
* **rec_off** — recorder and sampler configured off; the hooks run but
  hit only ``None`` checks.
* **rec_on** — the shipped default: recorder on, sampler on its
  default cadence, every query recording admission events.

The recorder/sampler *gates* are computed from direct per-hook
microbenchmarks scaled to per-query cost (hook invocations per query
are known exactly: one admission record plus one introspection tick,
and for the enabled leg the measured events-per-query and the
sampler's cadence-amortized snapshot cost). End-to-end wall-clock
deltas of fractions of a percent sit far below scheduler noise on a
shared box, so the e2e legs are reported for context while the gates —
``--max-recorder-disabled`` percent of per-query time when configured
off (default 0.5%), ``--max-recorder-overhead`` percent when on
(default 3%) — come from the deterministic micro measurements.

Baseline/disabled/enabled legs are *interleaved* round by round on the
same loaded clusters and each takes its best-of-``repeat`` minimum, so
slow outliers (GC, scheduler noise) cannot land on one side only. The
tracing gate also carries a 2 ms absolute floor so timer jitter at
tiny scale factors cannot fail it on noise alone. Exit 1 on any gate
failure.

Usage::

    PYTHONPATH=src python benchmarks/bench_telemetry.py --tiny
    PYTHONPATH=src python benchmarks/bench_telemetry.py --sf 0.01 --repeat 7
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro import ClusterConfig, Database
from repro.core.executor import DistributedExecutor
from repro.workloads import tpch_dbgen, tpch_schema
from repro.workloads.tpch_queries import query

#: scan/agg- and join-shaped queries exercise both the fused-pipeline
#: and exchange-heavy instrumentation points
QUERIES = (1, 6, 3)


def _eval_uninstrumented(self, op):
    """The pre-telemetry _eval body: evaluate + record output rows."""
    out = self._eval_impl(op)
    self.op_rows[op.id] = sum(b.length for bs in out.values() for b in bs)
    return out


class uninstrumented:
    """Context manager swapping the telemetry wrapper out of _eval."""

    def __enter__(self):
        self._orig = DistributedExecutor._eval
        DistributedExecutor._eval = _eval_uninstrumented
        return self

    def __exit__(self, *exc):
        DistributedExecutor._eval = self._orig


class introspection_hooks_off:
    """Context manager swapping the recorder/sampler hooks out of the
    query path — the pre-introspection Database shape."""

    def __enter__(self):
        self._adm = Database._record_admission
        self._tick = Database._introspection_tick
        Database._record_admission = lambda self, *a, **kw: None
        Database._introspection_tick = lambda self: None
        return self

    def __exit__(self, *exc):
        Database._record_admission = self._adm
        Database._introspection_tick = self._tick


def build_db(data: dict, tracing: bool = False, **cfg_overrides) -> Database:
    cfg = ClusterConfig(
        n_workers=4, n_max=4, page_size=32 * 1024, batch_size=4096, tracing=tracing,
        **cfg_overrides,
    )
    db = Database(cfg)
    for name, schema in tpch_schema.SCHEMAS.items():
        db.create_table(name, schema, tpch_schema.PARTITIONING[name])
        db.load(name, data[name])
    return db


def time_once(db: Database, sqls: list[str], loops: int = 1) -> float:
    t0 = time.perf_counter()
    for _ in range(loops):
        for sql in sqls:
            db.sql(sql)
    return time.perf_counter() - t0


def hook_cost_s(db: Database, n: int = 20_000) -> float:
    """Per-query cost of the introspection hooks on ``db``: one
    admission record plus one introspection tick, measured directly."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            db._record_admission(-1, 0.0)
            db._introspection_tick()
        best = min(best, (time.perf_counter() - t0) / n)
    return best


def record_cost_s(recorder, n: int = 20_000) -> float:
    """Cost of one FlightRecorder.record call."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            recorder.record("bench_probe", qid=-1, wait_s=0.123)
        best = min(best, (time.perf_counter() - t0) / n)
    recorder.clear()
    return best


def sample_cost_s(sampler, n: int = 20) -> float:
    """Cost of one full sampler pass over the metrics registry."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            sampler.sample()
        best = min(best, (time.perf_counter() - t0) / n)
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=float, default=0.002, help="TPC-H scale factor")
    ap.add_argument("--repeat", type=int, default=5, help="interleaved rounds (best-of)")
    ap.add_argument(
        "--max-overhead", type=float, default=3.0,
        help="gate: max disabled-over-baseline overhead, percent",
    )
    ap.add_argument(
        "--max-recorder-disabled", type=float, default=0.5,
        help="gate: max recorder/sampler disabled overhead, percent",
    )
    ap.add_argument(
        "--max-recorder-overhead", type=float, default=3.0,
        help="gate: max recorder/sampler enabled overhead, percent",
    )
    ap.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_TELEMETRY.json"),
        help="output JSON path ('/dev/null' to skip)",
    )
    ap.add_argument("--tiny", action="store_true", help="CI smoke scale: sf=0.001")
    args = ap.parse_args()
    if args.tiny:
        args.sf = 0.001

    print(f"loading TPC-H sf={args.sf} ...")
    data = tpch_dbgen.generate(sf=args.sf)
    # the recorder/sampler measurements keep the tracing wrapper fixed
    # (off) so they see only the introspection cost, and vice versa
    db = build_db(data, tracing=False)
    db_traced = build_db(data, tracing=True)
    db_rec_off = build_db(data, flight_recorder=False, metrics_history_window=0)
    db_rec_on = build_db(data)  # shipped defaults: recorder + sampler on
    sqls = [query(q, args.sf) for q in QUERIES]

    # warmup every cluster (buffer pools, plan caches, predicate caches)
    with uninstrumented():
        time_once(db, sqls)
    warm = time_once(db, sqls)
    time_once(db_traced, sqls)
    with introspection_hooks_off():
        time_once(db_rec_off, sqls)
    time_once(db_rec_off, sqls)
    time_once(db_rec_on, sqls)

    # size a round to ~150ms so one periodic sampler tick (~ms) cannot
    # dominate the measurement at tiny scale factors
    loops = max(1, round(0.15 / max(warm, 1e-4)))

    base = disabled = enabled = float("inf")
    rec_base = rec_off = rec_on = float("inf")
    for _ in range(max(1, args.repeat)):
        with uninstrumented():
            base = min(base, time_once(db, sqls, loops))
        disabled = min(disabled, time_once(db, sqls, loops))
        enabled = min(enabled, time_once(db_traced, sqls, loops))
        with introspection_hooks_off():
            rec_base = min(rec_base, time_once(db_rec_off, sqls, loops))
        rec_off = min(rec_off, time_once(db_rec_off, sqls, loops))
        rec_on = min(rec_on, time_once(db_rec_on, sqls, loops))

    #: sub-percent gates carry an absolute floor so timer jitter at
    #: tiny scale factors cannot fail a gate on noise alone
    eps_s = 0.002

    # -- recorder/sampler gates: deterministic per-hook micro costs --------
    nqueries = len(sqls) * loops
    per_query_s = rec_base / nqueries
    # disabled: the hooks hit None checks and one registry lookup
    disabled_hook_s = hook_cost_s(db_rec_off)
    rec_off_overhead = disabled_hook_s / per_query_s * 100.0
    # enabled: measured events/query at record cost, plus the sampler's
    # cadence-amortized snapshot cost
    before = db_rec_on.recorder.stats()["recorded"]
    time_once(db_rec_on, sqls, 1)
    events_per_query = (db_rec_on.recorder.stats()["recorded"] - before) / len(sqls)
    enabled_hook_s = (
        hook_cost_s(db_rec_on)
        + events_per_query * record_cost_s(db_rec_on.recorder)
        + sample_cost_s(db_rec_on.sampler)
        * (per_query_s / db_rec_on.sampler.wall_every_s)
    )
    rec_on_overhead = enabled_hook_s / per_query_s * 100.0

    overhead = (disabled - base) / base * 100.0
    traced_overhead = (enabled - base) / base * 100.0
    rec_off_e2e = (rec_off - rec_base) / rec_base * 100.0
    rec_on_e2e = (rec_on - rec_off) / rec_off * 100.0
    report = {
        "sf": args.sf,
        "repeat": args.repeat,
        "loops_per_round": loops,
        "queries": list(QUERIES),
        "baseline_s": round(base, 5),
        "disabled_s": round(disabled, 5),
        "enabled_s": round(enabled, 5),
        "disabled_overhead_pct": round(overhead, 2),
        "enabled_overhead_pct": round(traced_overhead, 2),
        "max_overhead_pct": args.max_overhead,
        "recorder_baseline_s": round(rec_base, 5),
        "recorder_disabled_s": round(rec_off, 5),
        "recorder_enabled_s": round(rec_on, 5),
        "recorder_disabled_e2e_pct": round(rec_off_e2e, 2),
        "recorder_enabled_e2e_pct": round(rec_on_e2e, 2),
        "recorder_events_per_query": round(events_per_query, 2),
        "recorder_disabled_hook_us": round(disabled_hook_s * 1e6, 3),
        "recorder_enabled_hook_us": round(enabled_hook_s * 1e6, 3),
        "recorder_disabled_overhead_pct": round(rec_off_overhead, 4),
        "recorder_enabled_overhead_pct": round(rec_on_overhead, 4),
        "max_recorder_disabled_pct": args.max_recorder_disabled,
        "max_recorder_overhead_pct": args.max_recorder_overhead,
    }
    print(
        f"baseline={base:.4f}s disabled={disabled:.4f}s ({overhead:+.2f}%) "
        f"enabled={enabled:.4f}s ({traced_overhead:+.2f}%)"
    )
    print(
        f"recorder e2e: baseline={rec_base:.4f}s disabled={rec_off:.4f}s "
        f"({rec_off_e2e:+.2f}%) enabled={rec_on:.4f}s ({rec_on_e2e:+.2f}%)"
    )
    print(
        f"recorder gates: disabled {disabled_hook_s * 1e6:.2f}us/query "
        f"({rec_off_overhead:.4f}%), enabled {enabled_hook_s * 1e6:.2f}us/query "
        f"({rec_on_overhead:.4f}%) of {per_query_s * 1e3:.2f}ms/query "
        f"[{events_per_query:.1f} events/query]"
    )
    if args.out != "/dev/null":
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    failed = False
    if overhead > args.max_overhead and disabled - base > eps_s:
        print(
            f"FAIL: telemetry-disabled overhead {overhead:.2f}% exceeds "
            f"{args.max_overhead}%"
        )
        failed = True
    if rec_off_overhead > args.max_recorder_disabled:
        print(
            f"FAIL: recorder/sampler disabled overhead {rec_off_overhead:.4f}% "
            f"exceeds {args.max_recorder_disabled}%"
        )
        failed = True
    if rec_on_overhead > args.max_recorder_overhead:
        print(
            f"FAIL: recorder/sampler enabled overhead {rec_on_overhead:.4f}% "
            f"exceeds {args.max_recorder_overhead}%"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
