"""Interactive SQL shell — and telemetry subcommands — over a fresh
simulated cluster.

Usage::

    python -m repro [--workers N] [--tpch SF]                 # REPL
    python -m repro [--tpch SF] trace "SELECT ..." [--out f]  # traced run
    python -m repro [--tpch SF] metrics ["SELECT ..." ...]    # Prometheus dump
    python -m repro [--tpch SF] events ["SELECT ..." ...]     # flight-recorder dump

``trace`` runs one query with tracing on, prints the span tree, and
writes Chrome ``trace_event`` JSON (load it in ``chrome://tracing`` or
Perfetto). ``metrics`` runs the given queries (if any) and prints the
cluster metrics registry in Prometheus text format (or JSON).
``events`` runs the given queries (if any) and dumps the cluster
flight recorder as JSON — the post-incident artifact for
reconstructing what a chaos run or elastic event actually did.

REPL commands: any SQL statement ending in ``;``, plus
``\\explain <select>``, ``\\analyze <select>`` (EXPLAIN ANALYZE: the operator spans),
``\\tables``, ``\\quit``.
"""

from __future__ import annotations

import argparse
import json

from . import ClusterConfig, Database


def _load_tpch(db: Database, sf: float) -> None:
    from .workloads import tpch_dbgen, tpch_schema

    print(f"generating TPC-H SF={sf} ...", flush=True)
    data = tpch_dbgen.generate(sf=sf)
    for name, schema in tpch_schema.SCHEMAS.items():
        db.create_table(
            name, schema, tpch_schema.PARTITIONING[name],
            clustering=tpch_schema.CLUSTERING.get(name, ()),
        )
        db.load(name, data[name])
        print(f"  {name}: {db.table_rows(name)} rows")


def repl(db: Database) -> None:  # pragma: no cover - interactive
    buffer = ""
    while True:
        try:
            prompt = "repro> " if not buffer else "   ...> "
            line = input(prompt)
        except (EOFError, KeyboardInterrupt):
            print()
            return
        stripped = line.strip()
        if not buffer and stripped.startswith("\\"):
            cmd, _, rest = stripped.partition(" ")
            if cmd in ("\\quit", "\\q"):
                return
            if cmd == "\\tables":
                for name in sorted(db.catalog.tables):
                    print(" ", name)
                continue
            if cmd == "\\explain":
                print(db.explain(rest.rstrip(";")))
                continue
            if cmd == "\\analyze":
                print(db.explain_analyze(rest.rstrip(";")))
                continue
            print(f"unknown command {cmd}")
            continue
        buffer += (" " if buffer else "") + line
        if not buffer.rstrip().endswith(";"):
            continue
        sql, buffer = buffer.rstrip().rstrip(";"), ""
        if not sql.strip():
            continue
        try:
            result = db.sql(sql)
        except Exception as e:
            print(f"error: {type(e).__name__}: {e}")
            continue
        rows = result.rows()
        if rows:
            print(" | ".join(result.columns))
            for r in rows[:50]:
                print(" | ".join(str(v) for v in r))
            if len(rows) > 50:
                print(f"... ({len(rows)} rows)")
        s = result.stats
        print(
            f"-- {len(rows)} rows; scanned={s.rows_scanned} "
            f"net={s.network_bytes}B skipped={s.sets_skipped}/{s.sets_total}"
        )


def cmd_trace(db: Database, args) -> None:
    """Run one query traced; print the span tree and write Chrome JSON."""
    result = db.sql(args.sql.rstrip(";"))
    db.export_trace(result.qid, path=args.out)
    root = db.tracer.root(result.qid)
    if root is not None:
        print(root.pretty())
    print(
        f"-- {len(result.rows())} rows; trace written to {args.out} "
        f"(load in chrome://tracing or https://ui.perfetto.dev)"
    )


def cmd_metrics(db: Database, args) -> None:
    """Run the given queries (if any) and dump the metrics registry."""
    for q in args.sql:
        db.sql(q.rstrip(";"))
    if args.format == "json":
        print(json.dumps(db.metrics_snapshot(), indent=2, default=str))
    else:
        print(db.metrics_prometheus(), end="")


def cmd_events(db: Database, args) -> None:
    """Run the given queries (if any) and dump the flight recorder."""
    for q in args.sql:
        db.sql(q.rstrip(";"))
    if db.recorder is None:
        raise SystemExit("flight recorder is disabled (ClusterConfig.flight_recorder)")
    dump = db.recorder.dump_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dump)
        print(f"-- {db.recorder.stats()['retained']} events written to {args.out}")
    else:
        print(dump)


def main(argv: list[str] | None = None) -> None:  # pragma: no cover
    ap = argparse.ArgumentParser(prog="python -m repro")
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--nmax", type=int, default=8)
    ap.add_argument("--tpch", type=float, default=None, metavar="SF",
                    help="preload a TPC-H instance at this scale factor")
    sub = ap.add_subparsers(dest="cmd")
    tp = sub.add_parser("trace", help="run a query traced; write Chrome trace JSON")
    tp.add_argument("sql", help="the SELECT to trace")
    tp.add_argument("--out", default="trace.json", help="output path (default: trace.json)")
    mp = sub.add_parser("metrics", help="print the cluster metrics registry")
    mp.add_argument("sql", nargs="*", help="queries to run before the dump")
    mp.add_argument("--format", choices=("prom", "json"), default="prom")
    ep = sub.add_parser("events", help="dump the cluster flight recorder as JSON")
    ep.add_argument("sql", nargs="*", help="queries to run before the dump")
    ep.add_argument("--out", default=None, help="write to a file instead of stdout")
    args = ap.parse_args(argv)
    cfg = ClusterConfig(
        n_workers=args.workers, n_max=args.nmax, tracing=args.cmd == "trace"
    )
    db = Database(cfg)
    if args.tpch:
        _load_tpch(db, args.tpch)
    if args.cmd == "trace":
        cmd_trace(db, args)
        return
    if args.cmd == "metrics":
        cmd_metrics(db, args)
        return
    if args.cmd == "events":
        cmd_events(db, args)
        return
    print(f"repro shell — {args.workers} workers, N_max={args.nmax}. \\q to quit.")
    repl(db)


if __name__ == "__main__":  # pragma: no cover
    main()
