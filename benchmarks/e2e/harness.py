"""Cluster set-up and the four closed-loop workloads.

Everything here drives the engine from outside, through its public
calls, and reads only the counters it already returns; nothing under
``src/`` knows the benchmark exists.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro import ClusterConfig, Database
from repro.common.batch import RowBatch
from repro.core.executor import ExecStats
from repro.sql import parse, parse_expr
from repro.storage import col_page
from repro.workloads import tpch_dbgen, tpch_queries, tpch_schema

from oracle import Oracle
from params import ParamStream
from spans import SpanRecorder
from stats import geomean, p25

#: the dataset seed is part of the workload; ``--seed`` drives only
#: query order, parameter draws and refresh stream ids
DATA_SEED = 19940401
#: the fixed cluster; every other ClusterConfig field stays at its default
CLUSTER = dict(n_workers=4, n_coordinators=2, n_max=4, page_size=32 * 1024, batch_size=4096)
QUERIES = tpch_queries.ALL_QUERIES
REFRESH_READS = (1, 3, 6, 12, 14)
#: ``adhoc_small`` executions checked against the reference executor
ADHOC_VERIFIED = 8
ENGINE_PHASES = ("plan", "admit", "execute")


@dataclass(frozen=True)
class Sizing:
    """How one workload is sized. The timed phase lasts ``--seconds``
    (and at least ``min_passes``); everything else is fixed here, fitted
    to the driver's time cap of about 37 s a run."""

    sf: float
    clients: int = 1
    #: set-ups per run; ``setup_s`` is their median
    setups: int = 3
    #: untimed passes (cycles) before the clock starts
    warmup: int = 2
    min_passes: int = 3


SIZING = {
    "power_warm": Sizing(sf=0.02),
    "adhoc_small": Sizing(sf=0.01, warmup=1),
    "throughput_2c": Sizing(sf=0.01, clients=2),
    "refresh_mix": Sizing(sf=0.02, warmup=1),
}
SMOKE = dict(sf=0.002, setups=1, warmup=1, min_passes=1)


# -- set-up ------------------------------------------------------------------------


@dataclass
class Cluster:
    db: Database
    data: dict[str, RowBatch]
    sf: float
    dbgen_s: float
    load_s: float

    @property
    def setup_s(self) -> float:
        return self.dbgen_s + self.load_s

    @property
    def rows_loaded(self) -> int:
        return sum(b.length for b in self.data.values())

    def stored_bytes_per_user_byte(self) -> float:
        stored = sum(w.fs.total_allocated() for w in self.db.workers.values())
        return stored / sum(b.nbytes for b in self.data.values())


def build_cluster(sf: float, tracing: bool = False) -> Cluster:
    """dbgen + create_table + load + write-back on a fresh cluster over MemFS."""
    t0 = time.perf_counter()
    data = tpch_dbgen.generate(sf, DATA_SEED)
    t1 = time.perf_counter()
    db = Database(ClusterConfig(**CLUSTER, tracing=tracing))
    for name, schema in tpch_schema.SCHEMAS.items():
        db.create_table(name, schema, tpch_schema.PARTITIONING[name])
        db.load(name, data[name])
    # loaded pages sit dirty in the buffer pools until written back; a
    # load is done, and its stored size exact, once they are on the MemFS
    for worker in db.workers.values():
        worker.bufmgr.flush()
    t2 = time.perf_counter()
    return Cluster(db, data, sf, t1 - t0, t2 - t1)


# -- what one phase measures -----------------------------------------------------------


@dataclass
class Measured:
    #: operation ("q01".."q22", "rf1", "rf2") -> latencies, seconds
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: refresh step -> durations, seconds
    steps: dict[str, list[float]] = field(default_factory=dict)
    #: the engine's own counters, summed over the phase's queries
    stats: ExecStats = field(default_factory=ExecStats)
    #: per query, slowest worker's busy time over the mean worker's
    imbalance: list[float] = field(default_factory=list)
    #: engine phase span -> seconds, summed (traced clusters only)
    phases: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: (text, result) pairs to verify once the clock has stopped
    results: list[tuple[str, RowBatch]] = field(default_factory=list)
    #: SELECTs of the workload that completed
    queries: int = 0
    cycles: int = 0
    #: wall seconds of each complete pass (cycle) of one client
    pass_walls: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    #: engine counters after the phase minus before it
    delta: dict[str, float] = field(default_factory=dict)

    def add(self, op: str, seconds: float) -> None:
        self.samples.setdefault(op, []).append(seconds)

    def step(self, name: str, seconds: float) -> None:
        self.steps.setdefault(name, []).append(seconds)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)

    def merge(self, other: "Measured") -> None:
        """Fold in what another client of the same phase measured."""
        for op, xs in other.samples.items():
            self.samples.setdefault(op, []).extend(xs)
        self.pass_walls += other.pass_walls
        self.stats.merge(other.stats)
        self.imbalance += other.imbalance
        for k, v in other.phases.items():
            self.phases[k] = self.phases.get(k, 0.0) + v
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors
        self.results += other.results
        self.queries += other.queries

    @property
    def passes(self) -> float:
        """Passes over the 22 queries (fractional when clients stop at a
        query boundary); refresh cycles on ``refresh_mix``."""
        return self.cycles or self.queries / len(QUERIES)

    def op_p25(self) -> dict[str, float]:
        return {op: p25(xs) for op, xs in sorted(self.samples.items())}

    def pass_s(self) -> float:
        return sum(self.op_p25().values())

    def geomean_ms(self) -> float:
        return geomean(v * 1e3 for v in self.op_p25().values())

    def queries_per_s(self, clients: int) -> float:
        """What the clients sustain on a quiet host: the SELECTs of one
        pass over the lower-quartile wall seconds of a pass (the p25 rule
        again), times the clients running passes at once."""
        return clients * self.queries / self.passes / p25(self.pass_walls)


def metric_total(snapshot: dict, name: str) -> float:
    """One metric family of ``Database.metrics_snapshot()``, summed over labels."""
    return sum(s["value"] for s in snapshot.get(name, {"samples": []})["samples"])


def engine_counters(db: Database) -> dict[str, float]:
    """The cumulative counters whose change over a phase is reported."""
    cache, adm, dec = db.plan_cache.stats(), db.admission.stats(), col_page.decoded_cache_stats()
    snap = db.metrics_snapshot()
    return {
        "plan_hits": cache["hits"],
        "plan_misses": cache["misses"],
        "admission_wait_s": adm["grant_wait_s"],
        "admission_waited": adm["waited"],
        "decoded_hits": dec["hits"],
        "decoded_misses": dec["misses"],
        "decoded_evictions": dec["evictions"],
        "buffer_hits": metric_total(snap, "repro_buffer_hits_total"),
        "buffer_misses": metric_total(snap, "repro_buffer_misses_total"),
        "wal_records": metric_total(snap, "repro_wal_records_total"),
        "lock_waits": metric_total(snap, "repro_locks_waits_total"),
    }


# -- one query ---------------------------------------------------------------------


def timed_query(
    cluster: Cluster, session, op: str, text: str, m: Measured, rec: SpanRecorder | None
) -> RowBatch | None:
    """Issue one SELECT, record its latency under ``op`` and harvest the
    engine's counters. With a recorder the query is replayed in stages
    (parse, plan, then the real call), each under its own span."""
    db = cluster.db
    m.attempted += 1
    try:
        if rec is None:
            t0 = time.perf_counter()
            res = session.sql(text)
            seconds = time.perf_counter() - t0
        else:
            qid = rec.next_qid()
            with rec.span("bench.query", qid, op=op):
                with rec.span("bench.parse", qid):
                    stmt = parse(text)
                with rec.span("bench.plan", qid):
                    db.plan_select(stmt, coordinator=session.coordinator)
                with rec.span("bench.sql", qid) as sp:
                    res = session.sql(text)
            seconds = sp.duration
    except Exception as e:  # a failed query is a result, not a crash
        m.fail(f"{op}: {type(e).__name__}: {e}")
        return None
    m.add(op, seconds)
    m.queries += 1
    m.stats.merge(res.stats)
    busy = list(res.stats.site_busy_s.values())
    if busy and sum(busy) > 0:
        m.imbalance.append(max(busy) / (sum(busy) / len(busy)))
    if db.tracer is not None:
        m.phases["query"] = m.phases.get("query", 0.0) + seconds
        for ev in db.export_trace(res.qid)["traceEvents"]:
            if ev.get("cat") == "phase" and ev["name"] in ENGINE_PHASES:
                m.phases[ev["name"]] = m.phases.get(ev["name"], 0.0) + ev["dur"] / 1e6
    return res.batch


# -- read-only workloads -------------------------------------------------------------


def _read_client(cluster, session, text_of, rng, deadline, min_passes, whole_passes, keep, rec):
    """One closed-loop client: passes over the 22 queries in seeded-
    shuffled order until the deadline (and the minimum) is reached."""
    m = Measured()
    pass_idx = 0
    while True:
        order = list(QUERIES)
        rng.shuffle(order)
        t0 = time.perf_counter()
        for qno in order:
            text = text_of(qno)
            batch = timed_query(cluster, session, f"q{qno:02d}", text, m, rec)
            if batch is not None and keep(pass_idx, qno):
                m.results.append((text, batch))
            if not whole_passes and pass_idx >= min_passes and time.perf_counter() >= deadline:
                return m
        m.pass_walls.append(time.perf_counter() - t0)
        pass_idx += 1
        if pass_idx >= min_passes and time.perf_counter() >= deadline:
            return m


def run_reads(cluster, sessions, text_of, keep, seed, label, seconds, min_passes, rec=None):
    """The timed (or warm-up) phase of a read-only workload, one client
    per session.

    One client stops at a pass boundary, so its per-pass counts are
    whole; several clients stop at the first query boundary after the
    deadline, so that none of them runs alone for long."""
    rngs = [random.Random(f"order:{seed}:{label}:{c}") for c in range(len(sessions))]
    if len(sessions) == 1:
        parts = [_read_client(cluster, sessions[0], text_of, rngs[0],
                              time.perf_counter() + seconds, min_passes, True, keep, rec)]
    else:
        deadline = time.perf_counter() + seconds
        with ThreadPoolExecutor(len(sessions), thread_name_prefix="bench-client") as pool:
            futures = [pool.submit(_read_client, cluster, session, text_of, rng,
                                   deadline, min_passes, False, keep, rec)
                       for session, rng in zip(sessions, rngs)]
            parts = [f.result() for f in futures]
    m = Measured()
    for part in parts:
        m.merge(part)
    return m


# -- refresh_mix ---------------------------------------------------------------------


class RefreshState:
    """What the harness knows about the data while refreshes run: the
    pool RF1 batches are cut from, and the exact row counts to expect."""

    def __init__(self, cluster: Cluster, seed: int):
        orders, lineitem = cluster.data["orders"], cluster.data["lineitem"]
        self.sf = cluster.sf
        self.seed = seed
        #: TPC-H sizes one refresh at SF * 1500 orders
        self.n = max(1, int(round(cluster.sf * 1500)))
        self.pool = tpch_dbgen.gen_orders(cluster.sf, DATA_SEED + 1000 + seed)
        self.cycle = 0
        self.next_key = int(orders.col("o_orderkey").max()) + 1
        #: RF2 always deletes the smallest keys, which are dbgen's
        self.oldest = np.sort(orders.col("o_orderkey"))
        keys, counts = np.unique(lineitem.col("l_orderkey"), return_counts=True)
        self.lines_of = dict(zip(keys.tolist(), counts.tolist()))
        self.orders_rows = orders.length
        self.lineitem_rows = lineitem.length

    def insert_batches(self) -> tuple[RowBatch, RowBatch]:
        """The next RF1 batch: new orders keyed above every existing key."""
        at = (self.cycle * self.n) % max(1, self.pool.length - self.n)
        chunk = self.pool.slice(at, at + self.n)
        cols = dict(chunk.columns)
        cols["o_orderkey"] = np.arange(self.next_key, self.next_key + chunk.length, dtype=np.int64)
        new_orders = RowBatch(chunk.schema, cols)
        lines = tpch_dbgen.gen_lineitem(
            self.sf, DATA_SEED + 2000 + 7919 * self.seed + self.cycle, orders=new_orders
        )
        self.next_key += chunk.length
        return new_orders, lines

    def expect_delete(self) -> int:
        """Line items the next RF2 must remove (it removes ``n`` orders)."""
        doomed = self.oldest[: self.n]
        self.oldest = self.oldest[self.n:]
        return sum(self.lines_of[k] for k in doomed.tolist())


def _check_refresh(cluster, state, m, what, ok, n_orders, n_lines, want_orders, want_lines):
    db = cluster.db
    state.orders_rows += want_orders
    state.lineitem_rows += want_lines
    good = (
        ok
        and (abs(want_orders), abs(want_lines)) == (n_orders, n_lines)
        and db.table_rows("orders") == state.orders_rows
        and db.table_rows("lineitem") == state.lineitem_rows
    )
    if not good:
        m.fail(f"{what}: committed={ok} affected=({n_orders}, {n_lines}) "
               f"wanted=({want_orders}, {want_lines})")


def _rf1(cluster, state, m):
    """RF1 as one transaction, begin to commit, its steps timed apart."""
    ts = cluster.db.txn_system
    new_orders, lines = state.insert_batches()
    m.attempted += 1
    t0 = time.perf_counter()
    txn = ts.begin()
    try:
        n_o = ts.run_dml("orders", "insert", batch=new_orders, txn=txn)
        n_l = ts.run_dml("lineitem", "insert", batch=lines, txn=txn)
        t1 = time.perf_counter()
        ok = ts.commit(txn)
    except Exception as e:
        if txn.state == "active":
            ts.rollback(txn)
        m.fail(f"rf1: {type(e).__name__}: {e}")
        return
    t2 = time.perf_counter()
    m.add("rf1", t2 - t0)
    m.step("rf1_dml", t1 - t0)
    m.step("rf1_commit", t2 - t1)
    _check_refresh(cluster, state, m, "rf1", ok, n_o, n_l, new_orders.length, lines.length)


def _rf2(cluster, state, session, m):
    """RF2: find the oldest keys, then delete them and their line items
    as one transaction (timed begin to commit; the key scan apart)."""
    ts = cluster.db.txn_system
    want_lines = state.expect_delete()
    m.attempted += 1
    t0 = time.perf_counter()
    try:
        keys = [r[0] for r in session.sql(
            f"select o_orderkey from orders order by o_orderkey limit {state.n}"
        ).rows()]
    except Exception as e:
        m.fail(f"rf2 key scan: {type(e).__name__}: {e}")
        return
    t1 = time.perf_counter()
    txn = ts.begin()
    try:
        lo, hi = min(keys), max(keys)
        n_l = ts.run_dml("lineitem", "delete", txn=txn,
                         predicate=parse_expr(f"l_orderkey >= {lo} and l_orderkey <= {hi}"))
        n_o = ts.run_dml("orders", "delete", txn=txn,
                         predicate=parse_expr(f"o_orderkey >= {lo} and o_orderkey <= {hi}"))
        t2 = time.perf_counter()
        ok = ts.commit(txn)
    except Exception as e:
        if txn.state == "active":
            ts.rollback(txn)
        m.fail(f"rf2: {type(e).__name__}: {e}")
        return
    t3 = time.perf_counter()
    m.add("rf2", t3 - t1)
    m.step("rf2_keyscan", t1 - t0)
    m.step("rf2_dml", t2 - t1)
    m.step("rf2_commit", t3 - t2)
    _check_refresh(cluster, state, m, "rf2", ok, n_o, n_l, -state.n, -want_lines)


def run_refresh(cluster, session, state, seconds, min_cycles, rec=None):
    """Cycles of RF1 -> reads -> RF2 -> the same reads, one client."""
    texts = {q: tpch_queries.query(q, cluster.sf) for q in REFRESH_READS}
    m = Measured()
    deadline = time.perf_counter() + seconds
    while m.cycles < min_cycles or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        _rf1(cluster, state, m)
        for q, text in texts.items():
            timed_query(cluster, session, f"q{q:02d}", text, m, rec)
        _rf2(cluster, state, session, m)
        for q, text in texts.items():
            timed_query(cluster, session, f"q{q:02d}", text, m, rec)
        state.cycle += 1
        m.cycles += 1
        m.pass_walls.append(time.perf_counter() - t0)
    return m


# -- a workload, start to finish ----------------------------------------------------------


class Workload:
    """One named workload on one cluster: warm-up, timed phase, and the
    untimed verification of what the timed phase returned."""

    def __init__(self, name: str, sizing: Sizing, cluster: Cluster, seed: int):
        self.name = name
        self.sizing = sizing
        self.cluster = cluster
        self.seed = seed
        # one session a client for the whole run: sessions are handed out
        # round-robin over coordinators, and each coordinator has its own
        # plan cache to warm
        self.sessions = [cluster.db.session() for _ in range(sizing.clients)]
        self.fixed = {q: tpch_queries.query(q, cluster.sf) for q in QUERIES}
        self.params = ParamStream(seed, cluster.sf) if name == "adhoc_small" else None
        self.refresh = RefreshState(cluster, seed) if name == "refresh_mix" else None
        # after a refresh the data no longer is what the golden files describe
        self.oracle = Oracle(cluster.db, cluster.sf, use_golden=self.refresh is None)

    def _phase(self, label: str, seconds: float, min_passes: int, keep, rec) -> Measured:
        before = engine_counters(self.cluster.db)
        cpu0 = time.process_time()
        if self.refresh is not None:
            m = run_refresh(self.cluster, self.sessions[0], self.refresh, seconds,
                            min_passes, rec)
        else:
            text_of = self.params.text if self.params is not None else self.fixed.__getitem__
            m = run_reads(self.cluster, self.sessions, text_of, keep, self.seed,
                          f"{self.name}:{label}", seconds, min_passes, rec)
        m.cpu_s = time.process_time() - cpu0
        after = engine_counters(self.cluster.db)
        m.delta = {k: after[k] - before[k] for k in after}
        return m

    def warm_up(self) -> None:
        if self.sizing.warmup:
            self._phase("warmup", 0.0, self.sizing.warmup, lambda p, q: False, None)

    def timed(self, seconds: float, rec: SpanRecorder | None = None) -> Measured:
        if self.params is not None:
            # a seeded sample of executions, all inside the minimum passes
            rng = random.Random(f"verify:{self.seed}")
            cells = [(p, q) for p in range(self.sizing.min_passes) for q in QUERIES]
            chosen = set(rng.sample(cells, min(ADHOC_VERIFIED, len(cells))))
            keep = lambda p, q: (p, q) in chosen
        else:
            keep = lambda p, q: True
        return self._phase("timed", seconds, self.sizing.min_passes, keep, rec)

    def verify(self, m: Measured) -> float:
        """Check every kept result (and, after refreshes, the reads on the
        final state); wrong results count as failed. Returns ``verify_s``."""
        t0 = time.perf_counter()
        if self.refresh is not None:
            session = self.sessions[0]
            for q in REFRESH_READS:
                m.attempted += 1
                try:
                    m.results.append((self.fixed[q], session.sql(self.fixed[q]).batch))
                except Exception as e:
                    m.fail(f"verify q{q:02d}: {type(e).__name__}: {e}")
        for text, batch in m.results:
            if not self.oracle.check(text, batch):
                m.fail(f"wrong result: {' '.join(text.split())[:80]}")
        m.results = []
        return time.perf_counter() - t0
