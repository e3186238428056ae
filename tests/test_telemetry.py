"""Telemetry: tracing, metrics registry, EXPLAIN ANALYZE over spans.

Covers the observability acceptance criteria:

* trace correctness on a deterministic TPC-H Q3 — span-tree shape,
  per-site nesting that never overlaps, and network-byte reconciliation
  against SimNetwork's per-link accounting;
* Chrome trace_event schema validity, including a concurrent 4-query
  run (one pid per query, one tid per cluster node);
* ExecStats.merge as the single restart-combination path;
* untagged-traffic attribution in EXPLAIN ANALYZE;
* metrics registry coverage (>= 7 subsystems) and Prometheus rendering;
* the operator span as the one per-operator record: EXPLAIN ANALYZE and
  ``sys.query_operators`` read it, traced or not, restarted or not;
* the slow-query view — ``sys.queries`` plus the query's trace — with
  and without chaos restarts.
"""

from __future__ import annotations

import json
import re
import sys
import threading
from collections import defaultdict

import pytest

from tests.conftest import TPCH_SF, analyzed, load_tpch, simple_db
from repro import ClusterConfig, Database
from repro.core.executor import DistributedExecutor, ExecStats
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    fused_ops,
    operator_spans,
    render_analyze,
    validate_trace,
)
from repro.telemetry.trace import Span
from repro.workloads import tpch_schema
from repro.workloads.tpch_queries import query

Q3 = query(3, TPCH_SF)


@pytest.fixture(scope="module")
def traced_db(tpch_data):
    """A 4-worker TPC-H cluster with tracing enabled."""
    cfg = ClusterConfig(
        n_workers=4,
        n_max=4,
        page_size=32 * 1024,
        batch_size=4096,
        tracing=True,
    )
    db = Database(cfg)
    for name, schema in tpch_schema.SCHEMAS.items():
        db.create_table(name, schema, tpch_schema.PARTITIONING[name])
        db.load(name, tpch_data[name])
    return db


def _x_events(trace):
    return [e for e in trace["traceEvents"] if e.get("ph") == "X"]


def _assert_no_overlap_per_track(trace):
    """Within one (pid, tid) track, complete events must nest or be
    disjoint — Perfetto renders overlap as a broken track."""
    tracks = defaultdict(list)
    for ev in _x_events(trace):
        tracks[(ev["pid"], ev["tid"])].append((ev["ts"], ev["ts"] + ev["dur"]))
    eps = 1e-3  # export rounds to 3 decimals of a microsecond
    for track, spans in tracks.items():
        spans.sort()
        stack: list[float] = []
        for start, end in spans:
            while stack and start >= stack[-1] - eps:
                stack.pop()
            if stack:
                assert end <= stack[-1] + eps, f"overlapping spans on track {track}"
            stack.append(end)


# -- primitives ---------------------------------------------------------------------


def test_counter_shards_across_threads():
    c = Counter()
    threads = [
        threading.Thread(target=lambda: [c.inc() for _ in range(1000)])
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value == 8000


def test_gauge_and_histogram():
    g = Gauge()
    g.set(5)
    g.inc(2)
    g.dec()
    assert g.value == 6
    h = Histogram(buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 0.7, 5.0):
        h.observe(v)
    cumulative, count, total = h.merged()
    assert cumulative == [1, 3]  # <=0.1: 1, <=1.0: 3
    assert count == 4
    assert total == pytest.approx(6.25)


def test_registry_snapshot_and_prometheus():
    reg = MetricsRegistry()
    c = reg.counter("repro_foo_total", "help text", labelnames=("node",))
    c.labels(node=1).inc(3)
    reg.register_collector(
        "repro_bar_depth", "gauge", "a pull source", lambda: [({}, 7.0)]
    )
    snap = reg.snapshot()
    assert snap["repro_foo_total"]["samples"][0] == {"labels": {"node": "1"}, "value": 3}
    assert snap["repro_bar_depth"]["samples"][0]["value"] == 7.0
    text = reg.render_prometheus()
    assert '# TYPE repro_foo_total counter' in text
    assert 'repro_foo_total{node="1"} 3' in text
    assert "repro_bar_depth 7" in text
    # "telemetry" is the registry's own self-monitoring family
    # (repro_telemetry_collector_errors_total), present from birth.
    assert reg.subsystems() == {"foo", "bar", "telemetry"}


def test_histogram_prometheus_buckets():
    reg = MetricsRegistry()
    h = reg.histogram("repro_q_seconds", "latency", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    text = reg.render_prometheus()
    assert 'repro_q_seconds_bucket{le="0.1"} 1' in text
    assert 'repro_q_seconds_bucket{le="1.0"} 2' in text
    assert 'repro_q_seconds_bucket{le="+Inf"} 2' in text
    assert "repro_q_seconds_count 2" in text


# -- ExecStats.merge (the single restart-combination path) --------------------------


def test_execstats_merge():
    a = ExecStats(
        rows_scanned=10, retries=2, backoff_time=0.5, failed_workers=(1,),
        peak_memory=100, rows_returned=0, site_busy_s={0: 1.0},
    )
    b = ExecStats(
        rows_scanned=5, retries=1, backoff_time=0.25, failed_workers=(2, 1),
        peak_memory=50, rows_returned=42, restarts=1, site_busy_s={0: 0.5, 1: 2.0},
    )
    merged = a.merge(b)
    assert merged is a
    assert a.rows_scanned == 15
    assert a.retries == 3
    assert a.backoff_time == pytest.approx(0.75)
    assert a.failed_workers == (1, 2)
    assert a.peak_memory == 100  # high-water mark: max, not sum
    assert a.rows_returned == 42  # result-shaped: the later attempt's
    assert a.restarts == 1
    assert a.site_busy_s == {0: 1.5, 1: 2.0}


# -- tracer unit behavior -----------------------------------------------------------


def test_tracer_span_nesting_and_orphans():
    tr = Tracer()
    root = tr.start_query(1, "select 1")
    with tr.span("plan", cat="phase"):
        tr.event("note", detail="x")
    sp = tr.begin("execute", cat="phase")
    child = tr.begin("scan", cat="operator", node=0)
    tr.end(child, rows=10)
    tr.end(sp)
    tr.end(root)
    assert [c.name for c in root.children] == ["plan", "execute"]
    assert root.children[1].children[0].rows == 10
    assert root.children[0].events[0][0] == "note"
    # an orphan span (no registered root on this thread) traces nothing
    orphan = tr.begin("stray")
    tr.end(orphan)
    assert all("stray" not in [s.name for s in r.walk()] for r in [tr.root(1)])


def test_tracer_retention_evicts_oldest():
    tr = Tracer(retention=2)
    for qid in (1, 2, 3):
        root = tr.start_query(qid, "q")
        tr.end(root)
    assert tr.qids() == [2, 3]
    assert tr.root(1) is None


def test_validate_trace_catches_malformed():
    assert validate_trace([]) != []
    assert validate_trace({"traceEvents": []}) != []
    bad = {"traceEvents": [{"name": "x", "ph": "X", "ts": -1, "pid": 1, "tid": 1}]}
    errs = validate_trace(bad)
    assert any("ts" in e for e in errs)
    assert any("dur" in e for e in errs)


# -- trace correctness on TPC-H Q3 (deterministic) ----------------------------------


def test_q3_span_tree_shape(traced_db):
    result = traced_db.sql(Q3)
    root = traced_db.tracer.root(result.qid)
    assert root is not None and root.name == "query"
    phases = [c.name for c in root.children if c.cat == "phase"]
    assert phases[0] == "plan" and "execute" in phases
    execute = next(c for c in root.children if c.name == "execute")
    attempts = [c for c in execute.children if c.name == "attempt"]
    assert len(attempts) == 1  # no chaos: exactly one attempt
    # per-site pipelines: the fused lineitem scan runs SPMD on all 4 sites
    pipelines = root.find("pipeline")
    assert {p.node for p in pipelines} >= set(range(4))
    assert all(p.rows is not None for p in pipelines)
    # operator spans cover the plan's exchanges, tagged for correlation
    ops = [s for s in root.walk() if s.cat == "operator"]
    tags = {s.tag for s in ops if s.tag}
    prefix = f"q{result.qid}|"
    assert tags and all(t.startswith(prefix) for t in tags)


def test_q3_trace_bytes_reconcile_with_network(traced_db):
    result = traced_db.sql(Q3)
    root = traced_db.tracer.root(result.qid)
    prefix = f"q{result.qid}|"
    sends = root.find("net.send")
    assert sends, "expected network sends in the Q3 trace"
    assert all(s.tag.startswith(prefix) for s in sends)
    # per-hop wire bytes recorded on spans == SimNetwork link accounting
    assert sum(s.bytes for s in sends) == traced_db.net.traffic_of(prefix).bytes


def test_q3_export_is_valid_and_nested(traced_db, tmp_path):
    result = traced_db.sql(Q3)
    path = tmp_path / "q3.json"
    trace = traced_db.export_trace(result.qid, path=str(path))
    assert validate_trace(trace) == []
    _assert_no_overlap_per_track(trace)
    on_disk = json.loads(path.read_text())
    assert validate_trace(on_disk) == []
    # pid identifies the query; node tids carry thread_name metadata
    assert {e["pid"] for e in _x_events(trace)} == {result.qid}
    names = {
        e["tid"]: e["args"]["name"]
        for e in trace["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "thread_name"
    }
    assert any(n.startswith("node ") for n in names.values())


def test_concurrent_queries_trace_independently(traced_db):
    sqls = [Q3, query(1, TPCH_SF), query(6, TPCH_SF), query(12, TPCH_SF)]
    futures = [traced_db.submit(s) for s in sqls]
    results = [f.result() for f in futures]
    qids = [r.qid for r in results]
    assert len(set(qids)) == 4
    for qid in qids:
        trace = traced_db.export_trace(qid)
        assert validate_trace(trace) == []
        _assert_no_overlap_per_track(trace)
        assert {e["pid"] for e in _x_events(trace)} == {qid}


# -- EXPLAIN ANALYZE ----------------------------------------------------------------


def test_explain_analyze_profiles(traced_db):
    text = traced_db.explain_analyze(Q3)
    assert "rows=" in text and "time=" in text and "est=" in text
    assert "fused" in text  # the lineitem chain runs pipelined
    assert "-- network" in text and "cluster_total=" in text
    # every query prefix is attributed in the reconciliation footer
    for prefix in traced_db.net.traffic_by_prefix():
        assert (prefix if prefix else "(untagged)") in text


def test_untagged_traffic_attributed():
    db = simple_db(n_workers=2)
    db.sql("create table t (a int, b int) partition by hash(a)")
    db.sql("insert into t values (1, 2), (3, 4)")  # 2PC traffic is untagged
    db.sql("select sum(a) from t")
    by_prefix = db.net.traffic_by_prefix()
    assert "" in by_prefix and by_prefix[""].bytes > 0
    # per-prefix sums reconcile exactly with the cluster-wide totals
    assert sum(t.bytes for t in by_prefix.values()) == db.net.total_bytes
    assert sum(t.messages for t in by_prefix.values()) == db.net.total_messages
    text = db.explain_analyze("select sum(a) from t")
    assert "(untagged)" in text


# -- the operator span is the one per-operator record ------------------------------

#: wall-clock values in EXPLAIN ANALYZE text (inclusive / self time, busy ms)
_TIMES = re.compile(r"(time|self|coord_busy|site_busy|w\d+)=[0-9.]+ms")


def _masked_analyze(db, qnos):
    return [_TIMES.sub(r"\1=<ms>", db.explain_analyze(query(q, TPCH_SF))) for q in qnos]


def test_explain_analyze_same_traced_or_not(tpch_data):
    qnos = (1, 3, 6, 13, 18, 21)
    plain = _masked_analyze(load_tpch(tpch_data), qnos)
    traced = _masked_analyze(load_tpch(tpch_data, tracing=True), qnos)
    assert plain == traced
    assert all("time=<ms>" in text and re.search(r"\bfused\b", text) for text in plain)


def _tree_rows(text):
    """(operator, rows, fused) per plan line of EXPLAIN ANALYZE text."""
    out = []
    for line in text.splitlines():
        if not line.startswith("--"):
            head, bits = line.rsplit("  [", 1)
            out.append((head, re.search(r"rows=(\S+?)[ \]]", bits).group(1), "fused" in bits))
    return out


def test_restarted_query_renders_its_final_attempt():
    from repro.fault import CrashWindow, FaultSchedule

    def build():
        db = simple_db(n_workers=2)
        db.sql("create table t (a int, b int) partition by hash(a)")
        rows = ", ".join(f"({i}, {i % 5})" for i in range(200))
        db.sql(f"insert into t values {rows}")
        return db

    sql = "select b, sum(a) from t group by b order by b"
    clean = build().explain_analyze(sql)
    db = build()
    db.chaos(FaultSchedule(crashes=(CrashWindow(node=1, at=4, duration=25),)))
    res = analyzed(db, sql)
    assert res.stats.restarts > 0
    attempts = res.trace.find("attempt")
    assert len(attempts) == res.stats.restarts + 1
    spans = operator_spans(res.trace)
    assert spans and set(spans.values()) <= set(attempts[-1].walk())
    assert not any(sp.args.get("error") for sp in spans.values())
    text = render_analyze(res.physical, res.op_rows, res.trace, res.stats)
    assert _tree_rows(text) == _tree_rows(clean)


def _operator_times(db, qid):
    return dict(
        db.sql(f"select op_id, time_s from sys.query_operators where qid = {qid}").rows()
    )


def test_query_operators_time_reads_operator_spans():
    sql = "select b, count(*), sum(a) from t where a < 150 group by b order by b"

    def build(**cfg):
        db = simple_db(n_workers=2, **cfg)
        db.sql("create table t (a int, b int) partition by hash(a)")
        db.sql("insert into t values " + ", ".join(f"({i}, {i % 7})" for i in range(300)))
        return db

    untraced = build()
    times = _operator_times(untraced, untraced.sql(sql).qid)
    assert times and all(t == 0.0 for t in times.values())
    untraced.explain_analyze(sql)
    explained = untraced.query_log.records()[-1]
    traced = build(tracing=True)
    for db, qid in ((untraced, explained.qid), (traced, traced.sql(sql).qid)):
        times = _operator_times(db, qid)
        fused = fused_ops(operator_spans(db.query_log.get(qid).trace))
        assert times and any(t > 0 for t in times.values())
        for op_id, t in times.items():
            assert t > 0 or op_id in fused, (op_id, t)


def test_untraced_query_takes_only_the_attempt_snapshots(monkeypatch):
    callers = []
    counters = DistributedExecutor._counters

    def spy(self):
        callers.append(sys._getframe(1).f_code.co_name)
        return counters(self)

    db = simple_db(n_workers=2)
    db.sql("create table t (a int, b int) partition by hash(a)")
    db.sql("insert into t values (1, 2), (3, 4), (5, 6)")
    monkeypatch.setattr(DistributedExecutor, "_counters", spy)
    db.sql("select b, sum(a) from t where a > 1 group by b order by b")
    assert callers == ["execute", "execute"]


def test_untraced_query_constructs_no_spans(tpch_db, monkeypatch):
    """Tracing off costs nothing: with the tracer absent, the scan/agg
    and join-shaped TPC-H queries build no span at all."""
    built = []
    init = Span.__init__

    def spy(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["name"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Span, "__init__", spy)
    for q in (1, 3, 6):
        tpch_db.sql(query(q, TPCH_SF))
    assert built == []
    analyzed(tpch_db, Q3)  # the same query under a tracer does build them
    assert "query" in built and "gather" in built


def test_introspection_hooks_run_once_per_query(monkeypatch):
    """Each query pays one admission record and one sampler cadence
    check, and even a sampler due on every check snapshots the registry
    at most once per query. Fault-free, the flight recorder gains exactly
    one event per query: its admission grant."""
    db = simple_db(n_workers=2, metrics_sample_s=1e-9)
    db.sql("create table t (a int, b int) partition by hash(a)")
    db.sql("insert into t values (1, 2), (3, 4), (5, 6)")
    calls: dict[str, int] = defaultdict(int)

    def counting(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    for name in ("_record_admission", "_introspection_tick"):
        monkeypatch.setattr(Database, name, counting(name, getattr(Database, name)))
    monkeypatch.setattr(db.sampler, "sample", counting("sample", db.sampler.sample))
    db.recorder.clear()
    sqls = [
        "select b, sum(a) from t where a > 1 group by b order by b",
        "select count(*) from t",
        "select a from t order by a desc limit 2",
    ]
    for sql in sqls:
        db.sql(sql)
    n = len(sqls)
    assert calls["_record_admission"] == n
    assert calls["_introspection_tick"] == n
    assert 0 < calls["sample"] <= n
    assert [e.kind for e in db.recorder.events()] == ["admission_grant"] * n


# -- metrics over a live cluster ----------------------------------------------------


def test_metrics_cover_subsystems(traced_db):
    traced_db.sql(Q3)
    subs = traced_db.metrics.subsystems()
    assert {
        "buffer", "locks", "wal", "admission", "scheduler", "plancache",
        "network", "query",
    } <= subs
    assert len(subs) >= 7
    snap = traced_db.metrics_snapshot()
    hits = {
        s["labels"]["node"]: s["value"]
        for s in snap["repro_buffer_hits_total"]["samples"]
    }
    assert len(hits) == 4
    prom = traced_db.metrics_prometheus()
    assert "# TYPE repro_buffer_hits_total counter" in prom
    assert "repro_query_duration_seconds_bucket" in prom
    assert "repro_network_link_bytes_total{" in prom


def test_wal_and_lock_metrics_move():
    db = simple_db(n_workers=2)
    db.sql("create table t (a int, b int) partition by hash(a)")
    db.sql("insert into t values (1, 2), (3, 4)")
    snap = db.metrics_snapshot()
    wal = sum(s["value"] for s in snap["repro_wal_records_total"]["samples"])
    fsyncs = sum(s["value"] for s in snap["repro_wal_fsync_batches_total"]["samples"])
    assert wal > 0 and fsyncs > 0


# -- the slow-query view: sys.queries + export_trace ---------------------------------


def test_sys_queries_names_queries_whose_traces_export():
    db = simple_db(n_workers=2, tracing=True)
    db.sql("create table t (a int) partition by hash(a)")
    db.sql("insert into t values (1), (2), (3)")
    qid = db.sql("select sum(a) from t").qid
    # every query beats a 1ns threshold
    rows = db.sql(
        "select qid, sql from sys.queries where duration_s > 0.000000001 or restarts > 0"
    ).rows()
    assert (qid, "select sum(a) from t") in rows
    assert validate_trace(db.export_trace(qid)) == []


def test_disabled_telemetry_has_no_tracer():
    db = simple_db(n_workers=2)
    assert db.tracer is None
    db.sql("create table t (a int) partition by hash(a)")
    db.sql("insert into t values (1), (2)")
    assert db.sql("select sum(a) from t").rows() == [(3,)]
    with pytest.raises(Exception):
        db.export_trace()


# -- chaos integration --------------------------------------------------------------


def test_restarted_query_lands_in_slow_log_with_chaos_events():
    """What a slow-log entry of a restarted query held — restarts,
    duration, attempt spans, chaos events — is in ``sys.queries`` and
    the query's trace."""
    from repro.fault import CrashWindow, FaultSchedule

    db = simple_db(n_workers=2, tracing=True)
    db.sql("create table t (a int, b int) partition by hash(a)")
    rows = ", ".join(f"({i}, {i % 5})" for i in range(200))
    db.sql(f"insert into t values {rows}")
    injector = db.chaos(
        FaultSchedule(crashes=(CrashWindow(node=1, at=4, duration=25),))
    )
    result = db.sql("select b, sum(a) from t group by b order by b")
    assert result.stats.restarts > 0
    restarts, duration = db.sql(
        f"select restarts, duration_s from sys.queries where qid = {result.qid}"
    ).rows()[0]
    assert restarts == result.stats.restarts and duration > 0
    root = db.tracer.root(result.qid)
    execute = next(c for c in root.children if c.name == "execute")
    assert len([c for c in execute.children if c.name == "attempt"]) >= 2
    # injector events surfaced as span events inline on the trace
    chaos_events = [
        name for s in root.walk() for name, _, _ in s.events
        if name.startswith("chaos:")
    ]
    assert chaos_events, "chaos events should land on the query's spans"
    assert injector.events, "the injector log itself still records"
    # spans carry simulated (fault-clock) time alongside wall time
    assert root.sim_dur > 0


# -- exposition determinism and conformance (the scrape contract) -------------------


def _build_sharded_registry(order):
    """A registry whose labeled children are touched from several
    threads in the given order — the worst case for render stability."""
    reg = MetricsRegistry()
    c = reg.counter("repro_demo_ops_total", "ops", labelnames=("node", "disk"))
    reg.gauge("repro_demo_depth", "queue depth")
    h = reg.histogram("repro_demo_wait_seconds", "wait", buckets=(0.1, 1.0))
    h.observe(0.05)

    def touch(node, disk, amount):
        c.labels(node=node, disk=disk).inc(amount)

    threads = [
        threading.Thread(target=touch, args=(n, d, n * 10 + d + 1))
        for n, d in order
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return reg


def test_render_prometheus_is_deterministic_across_label_orders():
    order_a = [(0, 0), (0, 1), (1, 0), (2, 1)]
    text_a = _build_sharded_registry(order_a).render_prometheus()
    text_b = _build_sharded_registry(list(reversed(order_a))).render_prometheus()
    assert text_a == text_b
    # and two renders of the same registry are byte-identical
    reg = _build_sharded_registry(order_a)
    assert reg.render_prometheus() == reg.render_prometheus()


def test_render_prometheus_families_and_labels_sorted():
    reg = _build_sharded_registry([(2, 1), (0, 0), (1, 0)])
    text = reg.render_prometheus()
    typed = [l.split()[2] for l in text.splitlines() if l.startswith("# TYPE")]
    assert typed == sorted(typed)
    demo = [
        l for l in text.splitlines()
        if l.startswith("repro_demo_ops_total{")
    ]
    assert demo == sorted(demo)  # label-set order is the sort order
    assert 'disk="0",node="0"' in demo[0]  # label names sorted within a set


def test_render_prometheus_exposition_conformance():
    import re

    reg = _build_sharded_registry([(0, 0), (1, 1)])
    text = reg.render_prometheus()
    assert text.endswith("\n") and "\n\n" not in text
    name_re = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
    sample_re = re.compile(
        r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'
        r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
        r" (-?[0-9.e+-]+|\+Inf|NaN)$"
    )
    seen_type: dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            assert name_re.fullmatch(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            _, _, fam, kind = line.split()
            assert kind in ("counter", "gauge", "histogram")
            assert fam not in seen_type, "TYPE line repeated for a family"
            seen_type[fam] = kind
            continue
        m = sample_re.match(line)
        assert m, f"malformed sample line: {line!r}"
        base = m.group(1)
        fam = re.sub(r"_(bucket|sum|count)$", "", base)
        assert base in seen_type or fam in seen_type, f"sample before TYPE: {line!r}"
    # histogram series complete: buckets (with +Inf), sum and count
    assert 'repro_demo_wait_seconds_bucket{le="+Inf"} 1' in text
    assert "repro_demo_wait_seconds_sum" in text
    assert "repro_demo_wait_seconds_count 1" in text


# -- collector failure isolation (skip-and-count) -----------------------------------


def test_broken_collector_skipped_and_counted():
    reg = MetricsRegistry()
    reg.counter("repro_good_total", "fine").inc(5)
    reg.register_collector("repro_ok_depth", "gauge", "works", lambda: [({}, 1.0)])
    boom = {"on": False}

    def flaky():
        if boom["on"]:
            raise RuntimeError("subsystem died mid-scrape")
        return [({}, 2.0)]

    reg.register_collector("repro_flaky_depth", "gauge", "breaks", flaky)
    snap = reg.snapshot()
    assert snap["repro_flaky_depth"]["samples"][0]["value"] == 2.0

    boom["on"] = True
    snap = reg.snapshot()
    # the broken source is skipped, every other family survives
    assert "repro_flaky_depth" not in snap
    assert snap["repro_good_total"]["samples"][0]["value"] == 5
    assert snap["repro_ok_depth"]["samples"][0]["value"] == 1.0
    errs = snap["repro_telemetry_collector_errors_total"]["samples"]
    assert errs == [{"labels": {"collector": "repro_flaky_depth"}, "value": 1}]

    reg.snapshot()
    errs = reg.snapshot()["repro_telemetry_collector_errors_total"]["samples"]
    assert errs[0]["value"] == 3  # one increment per failed scrape

    boom["on"] = False
    snap = reg.snapshot()
    assert snap["repro_flaky_depth"]["samples"][0]["value"] == 2.0  # recovers
    text = reg.render_prometheus()
    assert 'repro_telemetry_collector_errors_total{collector="repro_flaky_depth"} 3' in text
