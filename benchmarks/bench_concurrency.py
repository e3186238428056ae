"""Concurrent-serving benchmark: throughput under K client threads.

Measures, on an identically loaded TPC-H cluster:

* **serial** — the query mix executed one statement at a time on a
  single session (the pre-PR serving model);
* **concurrent** — the same mix issued from K client threads through
  ``Database.session()``, flowing through the admission controller,
  round-robined coordinators, and the shared morsel scheduler;
* **plan cache** — cold vs warm planning latency for the mix, isolating
  the parse/bind/optimize work the cache skips on repeats.

Every concurrent result is checked byte-identical against its serial
counterpart; the script exits non-zero on crashes or mismatches — never
on timings — so CI can run it at tiny scale (``--tiny``) as a smoke
test. Results land in ``BENCH_CONCURRENCY.json`` at the repo root.

Throughput is reported two ways, both recorded in the JSON:

* ``wall`` — raw wall-clock. The simulation multiplexes every node of
  the cluster (workers *and* coordinators) onto the host's cores, so on
  a small host the wall-clock concurrent/serial ratio is bounded by host
  parallelism (exactly 1.0x on one core, minus switching overhead); the
  measured number and ``host_cpus`` are recorded as-is.
* ``modeled`` — cluster throughput under the same premise as every
  modeled-time bench in this repo (``NetworkCostModel``, the Figure-7
  regenerator): each simulated node owns its CPU. Inputs are all
  *measured in this run*, no fitted constants: per-worker morsel busy
  time comes from ``ExecStats.site_busy_s`` and the serialized
  remainder (planning, exchange driving, joins/merges) is charged to
  the query's session coordinator. Serial latency is
  ``coord(q) + max_w busy_w(q)``; concurrent throughput is bounded by
  the busiest resource (coordinator pool of ``n_coordinators``, or the
  busiest worker) and by Little's law at the admission cap, whichever
  is tighter. The headline ``throughput_speedup`` is the modeled one;
  the wall number sits right next to it.

Usage::

    PYTHONPATH=src python benchmarks/bench_concurrency.py             # default scale
    PYTHONPATH=src python benchmarks/bench_concurrency.py --tiny      # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro import ClusterConfig, Database
from repro.workloads import tpch_dbgen, tpch_schema
from repro.workloads.tpch_queries import query

QUERIES = [1, 3, 6, 12]


def build_db(sf: float, seed: int, threads: int) -> Database:
    cfg = ClusterConfig(
        n_workers=4,
        n_coordinators=2,
        n_max=4,
        page_size=32 * 1024,
        batch_size=4096,
        parallel_scans=True,
        max_concurrent_queries=max(2, threads // 2),
    )
    db = Database(cfg)
    data = tpch_dbgen.generate(sf=sf, seed=seed)
    for name, schema in tpch_schema.SCHEMAS.items():
        db.create_table(name, schema, tpch_schema.PARTITIONING[name])
        db.load(name, data[name])
    return db


def run_serial(
    db: Database, sqls: dict[int, str], rounds: int
) -> tuple[float, dict, dict]:
    """Timed serial pass. Also collects, per query, the measured wall
    time and per-worker morsel busy time that feed the modeled view."""
    results = {}
    profile: dict[int, dict] = {}
    for q, sql in sqls.items():  # warmup: page cache, plan cache, numpy
        results[q] = db.sql(sql).batch.to_bytes()
    t0 = time.perf_counter()
    for r in range(rounds):
        for q, sql in sqls.items():
            q0 = time.perf_counter()
            res = db.sql(sql)
            wall = time.perf_counter() - q0
            results[q] = res.batch.to_bytes()
            if r == 0:
                profile[q] = {
                    "wall_s": wall,
                    "busy_s": dict(res.stats.site_busy_s),
                    "coord_busy_s": res.stats.coord_busy_s,
                }
    return time.perf_counter() - t0, results, profile


def run_concurrent(
    db: Database, sqls: dict[int, str], rounds: int, threads: int, serial: dict
) -> tuple[float, int]:
    mismatches = 0

    def client(tid: int) -> int:
        bad = 0
        sess = db.session()
        for r in range(rounds):
            for i in range(len(QUERIES)):
                q = QUERIES[(tid + i + r) % len(QUERIES)]
                if sess.sql(sqls[q]).batch.to_bytes() != serial[q]:
                    bad += 1
        return bad

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for f in [pool.submit(client, t) for t in range(threads)]:
            mismatches += f.result()
    return time.perf_counter() - t0, mismatches


def modeled_throughput(db: Database, profile: dict[int, dict]) -> dict:
    """Cluster throughput with each simulated node on its own CPU.

    All inputs are measured: ``busy_w(q)`` is morsel-task time attributed
    to worker ``w`` (ExecStats.site_busy_s); ``coord(q)`` is the rest of
    the query's wall time — planning, exchange driving, joins and final
    merges — which runs serialized on the session's coordinator.

    serial latency   L(q)  = coord(q) + max_w busy_w(q)
    concurrent time / mix  = max( sum coord / n_coordinators,   # coord pool
                                  max_w sum_q busy_w(q),        # busiest worker
                                  sum L / max_concurrent )      # Little's law
    """
    n_coord = len(db.coord_ids)
    cap = db.admission.max_concurrent
    sum_coord = 0.0
    sum_latency = 0.0
    worker_totals: dict[int, float] = {}
    per_query = {}
    for q, p in profile.items():
        busy = p["busy_s"]
        total_busy = sum(busy.values())
        coord = max(p["wall_s"] - total_busy, 0.0)
        latency = coord + (max(busy.values()) if busy else 0.0)
        sum_coord += coord
        sum_latency += latency
        for w, s in busy.items():
            worker_totals[w] = worker_totals.get(w, 0.0) + s
        per_query[q] = {
            "wall_ms": round(p["wall_s"] * 1e3, 2),
            "coord_ms": round(coord * 1e3, 2),
            # directly measured coordinator-only work (final combines,
            # result decode) — the part the reduce tree moves to workers
            "coord_measured_ms": round(p.get("coord_busy_s", 0.0) * 1e3, 2),
            "max_worker_ms": round(max(busy.values(), default=0.0) * 1e3, 2),
        }
    n_mix = len(profile)
    bounds = {
        "coordinators": sum_coord / n_coord,
        "workers": max(worker_totals.values(), default=0.0),
        "little": sum_latency / cap,
    }
    binding = max(bounds, key=bounds.get)
    conc_time = bounds[binding]
    serial_qps = n_mix / sum_latency if sum_latency else 0.0
    conc_qps = n_mix / conc_time if conc_time else 0.0
    return {
        "serial_qps": round(serial_qps, 2),
        "concurrent_qps": round(conc_qps, 2),
        "speedup": round(conc_qps / serial_qps, 2) if serial_qps else 0.0,
        "binding_resource": binding,
        "n_coordinators": n_coord,
        "max_concurrent": cap,
        "per_query": per_query,
        "basis": (
            "measured per-worker morsel busy time + serialized coordinator "
            "remainder; each simulated node owns its CPU (same premise as "
            "the repo's NetworkCostModel / Figure-7 modeled-time benches)"
        ),
    }


def plan_cache_timing(db: Database, sqls: dict[int, str]) -> dict:
    """Cold vs warm planning latency (the work the cache skips)."""
    from repro.sql import parse

    db.plan_cache.clear()
    stmts = {q: parse(sql) for q, sql in sqls.items()}
    t0 = time.perf_counter()
    for q, sql in sqls.items():
        db._plan_select_cached(sql, stmts[q], 0)
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    for q, sql in sqls.items():
        db._plan_select_cached(sql, stmts[q], 0)
    warm = time.perf_counter() - t0
    return {
        "cold_plan_s": round(cold, 6),
        "warm_plan_s": round(warm, 6),
        "speedup": round(cold / max(warm, 1e-9), 2),
        "cache": db.plan_cache.stats(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=0.01)
    ap.add_argument("--seed", type=int, default=19940401)
    ap.add_argument("--threads", type=int, default=8)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--tiny", action="store_true", help="CI smoke scale")
    ap.add_argument(
        "--assert-not-coordinators", action="store_true",
        help="fail if the modeled binding resource is the coordinator pool "
        "(CI guard that final merges stay off the coordinator)",
    )
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent.parent / "BENCH_CONCURRENCY.json"))
    args = ap.parse_args()
    if args.tiny:
        args.sf, args.rounds, args.threads = 0.002, 1, 4

    db = build_db(args.sf, args.seed, args.threads)
    sqls = {q: query(q, args.sf) for q in QUERIES}

    serial_s, serial_results, profile = run_serial(db, sqls, args.rounds)
    conc_s, mismatches = run_concurrent(
        db, sqls, args.rounds, args.threads, serial_results
    )
    # per-client work scales with thread count; normalize to throughput
    serial_qps = (args.rounds * len(QUERIES)) / serial_s
    conc_qps = (args.rounds * len(QUERIES) * args.threads) / conc_s
    modeled = modeled_throughput(db, profile)
    cache = plan_cache_timing(db, sqls)

    entry = {
        "sf": args.sf,
        "threads": args.threads,
        "rounds": args.rounds,
        "queries": QUERIES,
        "throughput_speedup": modeled["speedup"],
        "throughput_basis": "modeled",
        "mismatches": mismatches,
        "wall": {
            "serial_s": round(serial_s, 4),
            "concurrent_s": round(conc_s, 4),
            "serial_qps": round(serial_qps, 2),
            "concurrent_qps": round(conc_qps, 2),
            "speedup": round(conc_qps / serial_qps, 2),
            "host_cpus": os.cpu_count(),
            "note": (
                "the host multiplexes all simulated nodes onto host_cpus "
                "cores, so wall-clock concurrent/serial is bounded by host "
                "parallelism, not by the engine"
            ),
        },
        "modeled": modeled,
        "plan_cache": cache,
        "admission": db.admission.stats(),
        "concurrency": db.concurrency_stats(),
    }
    db.close()

    print(
        f"wall: serial {serial_qps:.1f} q/s, concurrent({args.threads} threads) "
        f"{conc_qps:.1f} q/s ({entry['wall']['speedup']}x on "
        f"{entry['wall']['host_cpus']} host cpus)"
    )
    print(
        f"modeled cluster: serial {modeled['serial_qps']:.1f} q/s, concurrent "
        f"{modeled['concurrent_qps']:.1f} q/s ({modeled['speedup']}x, "
        f"bound by {modeled['binding_resource']})"
    )
    print(
        f"plan-cache warm speedup={cache['speedup']}x  mismatches={mismatches}"
    )
    if args.out != "/dev/null":
        Path(args.out).write_text(json.dumps(entry, indent=2) + "\n")
        print(f"wrote {args.out}")
    if mismatches:
        print("FAIL: concurrent results diverged from serial", file=sys.stderr)
        return 1
    if args.assert_not_coordinators and modeled["binding_resource"] == "coordinators":
        print(
            "FAIL: modeled binding resource is still the coordinator pool",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
