#!/usr/bin/env python3
"""The repo's one wall-clock benchmark: TPC-H on a fixed 4-worker
cluster, four closed-loop workloads, end-to-end metrics with regression
bounds and an outside-in ledger of per-layer metrics.

    python3 benchmarks/e2e/run.py --workload power_warm --seed 1 --seconds 14 --trace 0

prints every metric by name with its unit, checks every result, and
ends with one JSON line (``correct``, ``attempted``, ``failed``,
``metrics``). ``--trace 1`` is the separate traced run that yields the
per-layer metrics. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# the engine is built from source in whatever checkout this file sits in
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from repro.storage import col_page  # noqa: E402

import compare  # noqa: E402
import harness  # noqa: E402
import oracle  # noqa: E402
import probes  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from stats import p25, summarize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OUT_DIR = ROOT / ".bench_out"
#: the steps of a refresh, timed apart
TXN_STEPS = ("rf1_dml", "rf1_commit", "rf2_keyscan", "rf2_dml", "rf2_commit")


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def meta(args, sizing) -> dict:
    """What a reader needs to judge whether two outputs are comparable."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_1m": os.getloadavg()[0],
        "seed": args.seed,
        "data_seed": harness.DATA_SEED,
        "seconds": args.seconds,
        "sf": sizing.sf,
        "clients": sizing.clients,
        "setups": sizing.setups,
        "warmup_passes": sizing.warmup,
        "min_passes": sizing.min_passes,
    }


def end_to_end(m, setups_s, stored_ratio, clients, peak_rss_mb) -> dict:
    return {
        "setup_s": statistics.median(setups_s),
        "pass_s": m.pass_s(),
        "geomean_ms": m.geomean_ms(),
        "queries_per_s": m.queries_per_s(clients),
        "peak_rss_mb": peak_rss_mb,
        "stored_bytes_per_user_byte": stored_ratio,
    }


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(m, plain, cluster, traced_cluster, rec, loads, calib_ms) -> dict:
    """The layer ledger from the traced phase ``m`` (``plain`` is the
    same workload's untraced phase in the same process)."""
    db = traced_cluster.db
    st, d, passes = m.stats, m.delta, m.passes
    ops = m.op_p25()
    out = {f"query.q{q:02d}_ms": ops.get(f"q{q:02d}", 0.0) * 1e3 for q in harness.QUERIES}
    for metric, span in (("sql.parse_ms", "bench.parse"), ("optimizer.plan_ms", "bench.plan")):
        by_op: dict[str, list[float]] = {}
        for s in rec.spans:
            if s.name == span:
                by_op.setdefault(s.parent.args["op"], []).append(s.duration)
        out[metric] = sum(p25(xs) for xs in by_op.values()) * 1e3
    fb = db.feedback_stats()
    out["optimizer.qerror_worst"] = fb["worst_q"]
    out["optimizer.replans"] = fb["replans"]
    out["cluster.plan_cache_hit_rate"] = ratio(d["plan_hits"], d["plan_hits"] + d["plan_misses"])
    session = cluster.db.session()
    floor = []
    for _ in range(30):
        t0 = time.perf_counter()
        session.sql("select count(*) from region")
        floor.append(time.perf_counter() - t0)
    out["cluster.query_floor_ms"] = p25(floor) * 1e3
    out["cluster.admission_wait_s"] = d["admission_wait_s"]
    out["cluster.admission_waited"] = d["admission_waited"]
    for phase in harness.ENGINE_PHASES:
        out[f"cluster.{phase}_phase_ms"] = m.phases.get(phase, 0.0) / passes * 1e3
    covered = sum(m.phases.get(p, 0.0) for p in harness.ENGINE_PHASES)
    out["cluster.unattributed_share"] = 1 - ratio(covered, m.phases.get("query", 0.0))
    out["storage.load_rows_per_s"] = statistics.median(loads)
    out["storage.pages_read_per_pass"] = st.pages_read / passes
    out["storage.pages_pushed_down_per_pass"] = st.pages_pushed_down / passes
    out["storage.pages_shared_per_pass"] = st.pages_shared / passes
    out["storage.sets_skipped_share"] = ratio(st.sets_skipped, st.sets_total)
    out["storage.sets_skipped_bloom_per_pass"] = st.sets_skipped_bloom / passes
    out["storage.decoded_cache_hit_rate"] = ratio(
        d["decoded_hits"], d["decoded_hits"] + d["decoded_misses"])
    out["storage.decoded_cache_bytes"] = col_page.decoded_cache_stats()["bytes"]
    out["storage.decoded_cache_evictions"] = d["decoded_evictions"]
    out["storage.buffer_hit_rate"] = ratio(d["buffer_hits"], d["buffer_hits"] + d["buffer_misses"])
    out["core.worker_busy_s_per_pass"] = sum(st.site_busy_s.values()) / passes
    out["core.coord_busy_s_per_pass"] = st.coord_busy_s / passes
    out["core.busy_imbalance"] = statistics.fmean(m.imbalance) if m.imbalance else 0.0
    out["core.morsels_per_pass"] = st.morsels / passes
    out["core.pipelines_per_pass"] = st.pipelines / passes
    out["core.peak_memory_mb"] = st.peak_memory / 2**20
    out["core.spilled_bytes"] = st.spilled_bytes
    out["core.cpu_s_per_query"] = ratio(m.cpu_s, m.queries)
    out["network.bytes_per_pass"] = st.network_bytes / passes
    out["network.messages_per_pass"] = st.network_messages / passes
    out["network.shuffle_bytes_per_pass"] = st.shuffle_bytes / passes
    out["network.forwarded_share"] = ratio(st.forwarded_bytes, st.network_bytes)
    out["network.max_connections"] = st.max_connections
    for op in ("rf1", "rf2"):
        out[f"txn.{op}_s"] = ops.get(op, 0.0)
    for step in TXN_STEPS:
        out[f"txn.{step}_s"] = p25(m.steps[step]) if step in m.steps else 0.0
    out["txn.wal_records_per_cycle"] = d["wal_records"] / passes
    out["txn.lock_waits"] = d["lock_waits"]
    out["telemetry.trace_overhead_share"] = m.pass_s() / plain.pass_s() - 1
    out["host.calib_ms"] = (calib_ms + probes.host_calib_ms()) / 2
    out.update(probes.layer_probes(cluster))
    return out


def run_untraced(name, sizing, seed, seconds):
    """The run the end-to-end metrics come from."""
    setups_s = []
    for i in range(sizing.setups):
        cluster = harness.build_cluster(sizing.sf)
        setups_s.append(cluster.setup_s)
        if i < sizing.setups - 1:
            cluster.db.close()
            del cluster
            gc.collect()  # a cluster is cyclic garbage: free it before the next is built
    # exact only before the workload writes: WAL and refreshes grow it
    stored_ratio = cluster.stored_bytes_per_user_byte()
    work = harness.Workload(name, sizing, cluster, seed)
    work.warm_up()
    m = work.timed(seconds)
    # read before verification: the oracle's footprint is not the engine's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verify_s = work.verify(m)
    cluster.db.close()
    values = end_to_end(m, setups_s, stored_ratio, sizing.clients, peak_rss_mb)
    return m, values, {"verify_s": verify_s}


def run_traced(name, sizing, seed, seconds):
    """The traced run: the same workload on an untraced and on a
    ``tracing=True`` cluster, half the time each. Their difference is
    the tracing overhead; the traced half yields the layer ledger."""
    rec = SpanRecorder()
    calib = probes.host_calib_ms()
    with rec.span("bench.setup"):
        cluster = harness.build_cluster(sizing.sf)
        traced = harness.build_cluster(sizing.sf, tracing=True)
    loads = [c.rows_loaded / c.load_s for c in (cluster, traced)]
    plain_work = harness.Workload(name, sizing, cluster, seed)
    work = harness.Workload(name, sizing, traced, seed)
    with rec.span("bench.warmup"):
        plain_work.warm_up()
        work.warm_up()
    with rec.span("bench.timed", cluster="plain"):
        plain = plain_work.timed(seconds / 2)
    with rec.span("bench.timed", cluster="traced"):
        m = work.timed(seconds / 2, rec=rec)
    with rec.span("bench.verify"):
        verify_s = plain_work.verify(plain) + work.verify(m)
    with rec.span("bench.probes"):
        values = per_layer(m, plain, cluster, traced, rec, loads, calib)
    m.attempted += plain.attempted
    m.failed += plain.failed
    m.errors += plain.errors
    cluster.db.close()
    traced.db.close()
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"{name}-seed{seed}.trace.json"
    rec.write(trace_path)
    return m, values, {"verify_s": verify_s, "chrome_trace": str(trace_path.relative_to(ROOT))}


def run_workload(args) -> tuple[dict, int]:
    """One run of one workload; returns (record, exit code)."""
    name = args.workload
    sizing = harness.SIZING[name]
    if args.smoke:
        sizing = replace(sizing, **harness.SMOKE)
    info = meta(args, sizing)
    if info["loadavg_1m"] > info["nproc"]:
        print(f"warning: 1-minute load average {info['loadavg_1m']:.2f} exceeds "
              f"nproc={info['nproc']}; timings will be inflated", file=sys.stderr)
    seconds = 0.0 if args.smoke else float(args.seconds)
    m, values, extra = (run_traced if args.trace else run_untraced)(
        name, sizing, args.seed, seconds)
    unit_of = units("per_layer" if args.trace else "end_to_end")
    record = {
        "workload": name,
        "trace": args.trace,
        "meta": info,
        **extra,
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "errors": m.errors[:20],
        "passes": m.passes,
        "operations": {op: summarize(xs) for op, xs in
                       [*sorted(m.samples.items()), ("pass", m.pass_walls)]},
        "metrics": {k: {"value": values[k], "unit": unit_of[k]} for k in unit_of},
    }
    return record, 0 if m.failed == 0 else 1


def show(record: dict) -> None:
    """Every metric by name with its unit; latencies with n, p25, median
    and the highest percentile the sample supports."""
    info = record["meta"]
    print(f"# {record['workload']}  trace={record['trace']}  " +
          "  ".join(f"{k}={v}" for k, v in info.items()))
    for op, s in record["operations"].items():
        tail = f"  p{s['tail_p']:g}={s['tail'] * 1e3:9.3f} ms" if "tail" in s else ""
        print(f"  {op:<6s} n={s['n']:<4d} p25={s['p25'] * 1e3:9.3f} ms  "
              f"median={s['median'] * 1e3:9.3f} ms{tail}")
    for name, mv in record["metrics"].items():
        print(f"{name:<40s} {mv['value']:>16.6g} {mv['unit']}")
    share = record["failed"] / record["attempted"]
    print(f"{'failed_share':<40s} {share:>16.6g} ratio  "
          f"({record['failed']} of {record['attempted']}; verify_s={record['verify_s']:.3f})")
    for e in record["errors"]:
        print(f"  ! {e}")


def emit(record: dict, out: str | None) -> None:
    show(record)
    if out:
        with open(out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    final = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final), flush=True)


def run_all(args) -> int:
    """Every workload, each in its own process so that ``peak_rss_mb``
    is that workload's and no cache or counter carries over."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.out:
            cmd += ["--out", args.out]
        code |= subprocess.run(cmd, cwd=ROOT).returncode
    return code


def regen_golden() -> int:
    """Golden result sets for the scale factors of the fixed-text workloads."""
    for sf in sorted({harness.SIZING[w].sf for w in ("power_warm", "throughput_2c")}):
        cluster = harness.build_cluster(sf)
        oracle.write_golden(cluster.db, sf)
        cluster.db.close()
        print(f"wrote {len(harness.QUERIES)} golden result sets for SF {sf:g} "
              f"to {oracle.golden_path(sf, 1).parent}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: all, one process each")
    ap.add_argument("--seed", type=int, default=1,
                    help="query order, parameter draws and refresh stream ids")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 = the traced run that prints the per-layer metrics")
    ap.add_argument("--traced", dest="trace", action="store_const", const=1,
                    help="same as --trace 1")
    ap.add_argument("--out", metavar="FILE", help="append the run's record to a JSON-lines file")
    ap.add_argument("--smoke", action="store_true",
                    help="SF 0.002, one pass; the exit status reports correctness only")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two --out files, one row per (workload, end-to-end metric)")
    ap.add_argument("--regen-golden", action="store_true",
                    help="rewrite golden/ from the reference executor")
    args = ap.parse_args(argv)
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], SPEC)
    if args.regen_golden:
        return regen_golden()
    if args.workload is None:
        return run_all(args)
    record, code = run_workload(args)
    emit(record, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
