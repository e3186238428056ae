"""Elastic membership: online scale-out/in with live-traffic rebalancing.

The acceptance bar (ISSUE: elasticity): a scale event —
``Database.add_worker()`` / ``Database.drain_worker()`` — fired while
concurrent sessions execute must be *invisible* in query results. The
in-flight query finishes against the placement epoch it planned under
(its executor clone pins the old worker set and the old, never-mutated
storages); queries started after the publish plan against the new
epoch; and both return byte-identical rows. That must hold under
chaos-seeded fault schedules, including a worker crash *during* the
rebalance itself (fragment streams retry on the fault clock, then fall
back to a coordinator-mediated route).

Both sides of every row comparison attach a fault injector (the
baseline uses the empty schedule) so message delivery order is
canonical in each run.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import ClusterConfig, Database
from repro.cluster import PlacementMap
from repro.cluster.catalog import ClusterCatalog
from repro.cluster.database import REBALANCE_SEND_RETRIES, _all_of
from repro.cluster.resource import AdmissionController
from repro.common import DataType, RowBatch
from repro.common.errors import PlanError
from repro.fault import FaultSchedule, NetworkPartition, WorkerHealthTracker
from repro.storage.partition import Replicated
from repro.workloads import tpch_schema
from repro.workloads.tpch_queries import query as tpch_query

CHAOS_SEEDS = [11, 23, 37, 41, 59, 67]

QUERIES = [
    "select v, count(*), sum(k) from t group by v order by v",
    "select count(*) from t where k < 17",
    "select d.grp, sum(t.k) from t, dim d where t.v = d.id group by d.grp order by d.grp",
]


def build_db(**cfg_overrides) -> Database:
    cfg = dict(
        n_workers=4, n_max=4, page_size=16 * 1024,
        send_retries=6, max_query_restarts=16,
    )
    cfg.update(cfg_overrides)
    db = Database(ClusterConfig(**cfg))
    db.sql("create table t (k integer, v integer) partition by hash (k)")
    db.sql("create table dim (id integer, grp integer) partition by replicated")
    rng = np.random.default_rng(7)
    db.load(
        "t",
        RowBatch.from_pairs(
            ("k", DataType.INT64, rng.integers(0, 40, 3000)),
            ("v", DataType.INT64, rng.integers(0, 8, 3000)),
        ),
    )
    db.load(
        "dim",
        RowBatch.from_pairs(
            ("id", DataType.INT64, np.arange(8)),
            ("grp", DataType.INT64, np.arange(8) % 3),
        ),
    )
    return db


def baseline_rows(queries=QUERIES) -> list[list[tuple]]:
    db = build_db()
    db.chaos(FaultSchedule.none())  # canonical delivery order, zero faults
    return [db.sql(q).rows() for q in queries]


def arm_scale_event(db: Database, action, after: int = 3) -> dict:
    """One-shot mid-query trigger: the executor's ``fault_injector`` hook
    fires before every worker scan; on the ``after``-th probe it runs
    ``action`` (e.g. ``db.add_worker``) from inside the running query.
    The hook survives the executor rebuild the rebalance performs, so the
    one-shot flag is what stops it refiring on the new epoch."""
    state = {"probes": 0, "fired": False}

    def hook(worker, op):
        state["probes"] += 1
        if not state["fired"] and state["probes"] >= after:
            state["fired"] = True
            action()

    db._executor.fault_injector = hook
    return state


# ---------------------------------------------------------------------------
# placement epochs: the versioned membership map
# ---------------------------------------------------------------------------


class TestPlacementEpochs:
    def test_set_placement_bumps_epoch_and_version(self):
        cat = ClusterCatalog()
        assert cat.placement == PlacementMap(0, (), ())
        v0 = cat.version
        pm = cat.set_placement((0, 1, 2))
        assert pm.epoch == 1 and pm.workers == (0, 1, 2) and pm.draining == ()
        assert cat.placement_epoch == 1
        # the version bump is what invalidates cached plans
        assert cat.version == v0 + 1

    def test_history_retains_every_epoch(self):
        cat = ClusterCatalog()
        cat.set_placement((0, 1, 2, 3))
        cat.set_placement((0, 1, 2, 3), draining=(3,))
        cat.set_placement((0, 1, 2))
        assert sorted(cat.placement_history) == [0, 1, 2, 3]
        assert cat.placement_history[2].draining == (3,)
        assert cat.placement_history[3].workers == (0, 1, 2)

    def test_database_starts_at_epoch_zero(self):
        db = build_db()
        assert db.catalog.placement == PlacementMap(0, tuple(db.worker_ids))
        # every coordinator replica agrees
        for c in db.coordinators:
            assert c.catalog.placement.epoch == 0

    def test_queries_carry_their_planning_epoch(self):
        db = build_db()
        assert db.sql(QUERIES[1]).epoch == 0
        db.add_worker()
        assert db.sql(QUERIES[1]).epoch == 1


# ---------------------------------------------------------------------------
# health: blacklist -> half-open probe -> probation -> healthy (or re-blacklist)
# ---------------------------------------------------------------------------


class TestHealthFlap:
    def test_flap_sequence_keeps_tripping_the_breaker(self):
        """A flapping worker: fail -> blacklist -> probe succeeds ->
        probation -> fails again -> straight back to the blacklist; only
        probe_after *consecutive* successes re-earn traffic."""
        h = WorkerHealthTracker(blacklist_after=2, probe_after=2, probe_interval=3)
        h.record_failure(1)
        h.record_failure(1)
        assert h.state(1) == "blacklisted"
        # half-open gate: only every probe_interval-th avoided read probes
        assert [h.allow_probe(1) for _ in range(6)] == [
            False, False, True, False, False, True,
        ]
        h.record_success(1)  # probe succeeded -> probation
        assert h.state(1) == "probation" and h.is_blacklisted(1)
        assert h.allow_probe(1)  # probation keeps probing every read
        h.record_failure(1)  # flap! probation progress resets
        assert h.state(1) == "blacklisted"
        assert not h.allow_probe(1)  # breaker tripped again
        # a genuinely recovered worker climbs back out
        h.record_success(1)
        h.record_success(1)
        assert h.state(1) == "healthy" and not h.is_blacklisted(1)
        assert h.allow_probe(1)

    def test_healthy_success_clears_transient_noise(self):
        h = WorkerHealthTracker(blacklist_after=3)
        h.record_failure(2)
        h.record_failure(2)
        h.record_success(2)  # below the threshold: noise forgiven
        assert h.failures(2) == 0 and h.state(2) == "healthy"

    def test_draining_is_not_sickness(self):
        h = WorkerHealthTracker()
        h.mark_draining(3)
        assert h.is_draining(3) and h.draining() == {3}
        assert not h.is_blacklisted(3) and h.state(3) == "healthy"
        h.clear_draining(3)
        assert not h.is_draining(3)


# ---------------------------------------------------------------------------
# live-membership resource management
# ---------------------------------------------------------------------------


class TestLiveMembershipResources:
    def test_resize_recomputes_auto_grant(self):
        adm = AdmissionController(total_budget=1000, max_concurrent=4)
        assert adm.default_grant == 250
        adm.resize(2000)
        assert adm.total_budget == 2000 and adm.default_grant == 500
        adm.resize(400)
        assert adm.default_grant == 100
        assert adm.resizes == 2

    def test_resize_keeps_explicit_grant(self):
        adm = AdmissionController(total_budget=1000, max_concurrent=4, default_grant=64)
        adm.resize(4000)
        assert adm.default_grant == 64

    def test_resize_admits_a_queued_waiter(self):
        """Scale-out mid-wait: a query queued against the old budget is
        admitted the moment the grown budget can hold its grant."""
        adm = AdmissionController(total_budget=100, max_concurrent=4, timeout=5.0)
        first = adm.admit(grant=80)
        admitted = threading.Event()

        def wait_then_run():
            with adm.admit(grant=80):
                admitted.set()

        t = threading.Thread(target=wait_then_run)
        t.start()
        try:
            assert not admitted.wait(0.15)  # 160 > 100: must queue
            adm.resize(200)  # scale-out grows the budget
            assert admitted.wait(5.0)
        finally:
            first.release()
            t.join()

    def test_database_budget_tracks_membership(self):
        db = build_db()
        per_node = db.config.memory_per_node
        assert db.admission.total_budget == per_node * 4
        db.add_worker()
        assert db.admission.total_budget == per_node * 5
        db.drain_worker(4)
        db.drain_worker(3)
        assert db.admission.total_budget == per_node * 3
        assert db.admission.resizes == 3


# ---------------------------------------------------------------------------
# the elastic membership APIs: results invisible across scale events
# ---------------------------------------------------------------------------


class TestElasticMembership:
    @pytest.fixture(scope="class")
    def baseline(self):
        return baseline_rows()

    def test_add_worker_preserves_results(self, baseline):
        db = build_db()
        db.chaos(FaultSchedule.none())
        rep = db.add_worker()
        assert db.worker_ids == [0, 1, 2, 3, 4]
        assert rep.kind == "add" and rep.added == (4,) and rep.epoch == 1
        assert rep.streams > 0 and rep.bytes_moved > 0 and rep.tables_moved == 2
        assert db.catalog.placement.workers == (0, 1, 2, 3, 4)
        for want, q in zip(baseline, QUERIES):
            assert db.sql(q).rows() == want

    def test_drain_worker_two_phase_epoch(self, baseline):
        db = build_db()
        db.chaos(FaultSchedule.none())
        rep = db.drain_worker(2)
        assert db.worker_ids == [0, 1, 3]
        assert rep.kind == "drain" and rep.removed == (2,) and rep.epoch == 2
        # the transitional draining epoch is visible in history
        hist = db.catalog.placement_history
        assert hist[1].draining == (2,) and hist[1].workers == (0, 1, 2, 3)
        assert hist[2].draining == () and hist[2].workers == (0, 1, 3)
        # drained worker is no longer marked draining after the publish
        assert db.sql("select worker_id from sys.workers where draining = 1").rows() == []
        for want, q in zip(baseline, QUERIES):
            assert db.sql(q).rows() == want

    def test_replicate_table_preserves_results(self, baseline):
        db = build_db()
        db.chaos(FaultSchedule.none())
        rep = db.replicate_table("t")
        assert rep.kind == "replicate" and rep.bytes_moved > 0
        assert isinstance(db.catalog.entry("t").scheme, Replicated)
        for want, q in zip(baseline, QUERIES):
            assert db.sql(q).rows() == want

    def test_dml_lands_on_the_new_epoch(self, baseline):
        db = build_db()
        db.chaos(FaultSchedule.none())
        db.add_worker()
        db.sql("insert into t values (17, 99)")
        got = db.sql("select count(*) from t").rows()
        assert got[0][0] == 3001
        assert db.sql("select count(*) from t where v = 99").rows() == [(1,)]

    def test_scale_out_then_drain_back_roundtrip(self, baseline):
        db = build_db()
        db.chaos(FaultSchedule.none())
        db.add_worker()
        db.add_worker()
        assert db.worker_ids == [0, 1, 2, 3, 4, 5]
        db.drain_worker(4)
        db.drain_worker(5)
        assert db.worker_ids == [0, 1, 2, 3]
        # drain publishes two epochs each: 1,2 (adds) + 3,4 + 5,6 (drains)
        assert db.catalog.placement_epoch == 6
        for want, q in zip(baseline, QUERIES):
            assert db.sql(q).rows() == want

    def test_worker_ids_never_reused(self):
        db = build_db()
        db.add_worker()
        db.drain_worker(4)
        rep = db.add_worker()
        assert rep.added == (5,) and 4 not in db.worker_ids

    def test_drain_validation(self):
        db = build_db(n_workers=2)
        with pytest.raises(PlanError, match="not in the placement"):
            db.drain_worker(99)
        db.drain_worker(1)
        with pytest.raises(PlanError, match="last worker"):
            db.drain_worker(0)

    def test_replicate_validation(self):
        db = build_db()
        with pytest.raises(PlanError, match="already replicated"):
            db.replicate_table("dim")

    def test_metrics_track_membership(self):
        db = build_db()
        db.add_worker()
        db.drain_worker(0)
        snap = db.metrics.snapshot()

        def value(name):
            return snap[name]["samples"][0]["value"]

        assert value("repro_cluster_workers") == 4
        assert value("repro_placement_epoch") == 3
        assert value("repro_rebalance_total") == 2
        assert value("repro_rebalance_bytes_total") > 0
        assert value("repro_admission_budget_bytes") == (
            db.config.memory_per_node * 4
        )
        assert len(db.rebalances) == 2
        assert all(r.bytes_moved > 0 and r.streams > 0 for r in db.rebalances)

    def test_rebalance_traces_exported(self):
        db = build_db(tracing=True)
        db.add_worker()
        roots = [db.tracer.root(q) for q in db.tracer.qids()]
        reb = [r for r in roots if "rebalance:add" in r.args.get("sql", "")]
        assert reb, "rebalance must leave an exportable trace"
        spans = [s.name for s in reb[0].walk()]
        assert "rebalance.table" in spans


# ---------------------------------------------------------------------------
# chaos acceptance: scale events mid-query, crashes mid-rebalance
# ---------------------------------------------------------------------------


class TestScaleEventMidQuery:
    @pytest.fixture(scope="class")
    def baseline(self):
        return baseline_rows()

    def test_add_worker_fires_mid_query(self, baseline):
        db = build_db()
        db.chaos(FaultSchedule.none())
        state = arm_scale_event(db, db.add_worker, after=2)
        res = db.sql(QUERIES[0])
        assert state["fired"], "the scale event must fire inside the query"
        assert res.rows() == baseline[0]
        assert res.epoch == 0  # the in-flight query finished on its epoch
        assert db.catalog.placement_epoch == 1
        later = db.sql(QUERIES[0])
        assert later.epoch == 1 and later.rows() == baseline[0]

    def test_drain_worker_fires_mid_query(self, baseline):
        db = build_db()
        db.chaos(FaultSchedule.none())
        state = arm_scale_event(db, lambda: db.drain_worker(1), after=2)
        res = db.sql(QUERIES[2])
        assert state["fired"]
        assert res.rows() == baseline[2] and res.epoch == 0
        assert db.worker_ids == [0, 2, 3]
        for want, q in zip(baseline, QUERIES):
            assert db.sql(q).rows() == want

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_scale_event_mid_query_under_chaos(self, baseline, seed):
        """Chaos + a scale event injected mid-query: results stay
        byte-identical to the fault-free, event-free baseline."""
        db = build_db()
        schedule = FaultSchedule.chaos(seed, db.worker_ids)
        inj = db.chaos(schedule)
        event = db.add_worker if seed % 2 else (lambda: db.drain_worker(2))
        state = arm_scale_event(db, event, after=3)
        for want, q in zip(baseline, QUERIES):
            assert db.sql(q).rows() == want, (
                f"divergence under {schedule.describe()} + scale event"
            )
        assert state["fired"] and db.catalog.placement_epoch >= 1
        assert inj.tick > 0

    def test_crash_during_rebalance_retries_and_recovers(self, baseline):
        """A worker crashes while its fragments are being streamed: the
        rebalance retries on the fault clock (the crash heals) and the
        published epoch serves identical rows."""
        db = build_db()
        inj = db.chaos(FaultSchedule.none())
        inj.crash_now(1, duration=8)
        rep = db.add_worker()
        assert rep.retries > 0, "the crash must have hit rebalance streams"
        assert inj.events_of("crash") and inj.events_of("recover")
        assert inj.events_of("rebalance_retry")
        assert db.worker_ids == [0, 1, 2, 3, 4]
        for want, q in zip(baseline, QUERIES):
            assert db.sql(q).rows() == want

    def test_unreachable_peer_reroutes_via_coordinator(self, baseline):
        """Worker 0 and the joining worker cannot reach each other for the
        whole rebalance: every 0 -> 4 stream runs out its direct-route
        budget and is delivered through the coordinator's tree instead,
        and the new epoch holds exactly what a fault-free rebalance would."""
        ref = build_db()
        ref.chaos(FaultSchedule.none())
        ref.add_worker()

        db = build_db()
        cut = NetworkPartition(frozenset({0}), frozenset({4}), at=0, duration=10**6)
        inj = db.chaos(FaultSchedule(partitions=(cut,)))
        rep = db.add_worker()
        assert rep.reroutes >= 1
        assert rep.retries >= REBALANCE_SEND_RETRIES * rep.reroutes
        assert rep.streams == ref.rebalances[-1].streams
        assert len(inj.events_of("partition_drop")) == rep.retries
        for w in db.worker_ids:
            for name, ts in db.workers[w].storage.items():
                want = _all_of(ref.workers[w].storage[name])
                assert _all_of(ts).to_bytes() == want.to_bytes(), (w, name)
        left = [tag for box in db.net._inbox.values() for _src, tag, *_ in box]
        assert not any(tag.startswith("rebalance|") for tag in left)
        db.chaos(FaultSchedule.none())  # the partition is over
        for want, q in zip(baseline, QUERIES):
            assert db.sql(q).rows() == want

    @pytest.mark.parametrize("seed", CHAOS_SEEDS[:3])
    def test_chaos_crash_during_drain(self, baseline, seed):
        """Chaos schedule active while a drain rebalance runs: the drain
        completes and every query matches the fault-free baseline."""
        db = build_db()
        schedule = FaultSchedule.chaos(seed, db.worker_ids)
        db.chaos(schedule)
        rep = db.drain_worker(3)
        assert db.worker_ids == [0, 1, 2]
        assert rep.epoch == 2  # draining epoch + final epoch
        for want, q in zip(baseline, QUERIES):
            assert db.sql(q).rows() == want, (
                f"divergence after drain under {schedule.describe()}"
            )

    def test_concurrent_sessions_across_scale_events(self, baseline):
        """Constant session load across a scale-out 4 -> 6 (two
        ``add_worker`` calls) and a drain 6 -> 4 (two ``drain_worker``
        calls): zero failed queries, zero mismatched results."""
        db = build_db()
        want = {q: rows for q, rows in zip(QUERIES, baseline)}
        futures = [db.submit(QUERIES[i % len(QUERIES)]) for i in range(6)]
        for event in (db.add_worker, db.add_worker,
                      lambda: db.drain_worker(4), lambda: db.drain_worker(5)):
            event()
            futures += [db.submit(QUERIES[i % len(QUERIES)]) for i in range(6)]
        failed, mismatched = 0, 0
        for i, fut in enumerate(futures):
            q = QUERIES[i % len(QUERIES)]
            try:
                if fut.result(timeout=120).rows() != want[q]:
                    mismatched += 1
            except Exception:
                failed += 1
        db.close()
        assert failed == 0 and mismatched == 0
        assert db.worker_ids == [0, 1, 2, 3]
        assert db.catalog.placement_epoch == 6  # one per add, two per drain


def _table_files(db: Database) -> dict[int, tuple[set[str], set[str]]]:
    """Per worker: the table files it lists, and those of the storages
    its current epoch reads."""
    out = {}
    for wid, w in db.workers.items():
        owned = {p for ts in w.storage.values() for p in w.fs.listdir(f"tables/{ts.name}/")}
        out[wid] = (set(w.fs.listdir("tables/")), owned)
    return out


class TestSupersededEpochFiles:
    """A rebalance's replaced storages are deleted, closed and forgotten
    once no query runs on the epoch that read them."""

    def test_a_query_begun_before_the_publish_keeps_them_until_it_ends(self):
        db = build_db(n_workers=2)
        db.chaos(FaultSchedule.none())
        want = db.sql(QUERIES[0]).rows()
        seen = {}

        def add_worker():
            db.add_worker()
            seen.update(_table_files(db))

        state = arm_scale_event(db, add_worker, after=1)
        res = db.sql(QUERIES[0])
        assert state["fired"] and res.epoch == 0 and res.rows() == want
        # while the query ran, the partitioned table's old files stayed
        assert any(p.startswith("tables/t/") for listed, _ in seen.values() for p in listed)
        for wid, (listed, owned) in _table_files(db).items():
            assert listed == owned, wid
            assert not any(p.startswith("tables/t/") for p in listed)
            registered = set(db.workers[wid].bufmgr._files)
            assert registered <= owned
        assert db.sql(QUERIES[0]).rows() == want

    def test_with_no_query_running_they_go_at_the_publish(self):
        db = build_db(n_workers=2)
        db.sql(QUERIES[0])  # decodes the old storages' columns
        before = {wid: set(w.fs.listdir("tables/t/")) for wid, w in db.workers.items()}
        generations = {
            wid: {f.layout.generation for f in w.storage["t"].fragments} for wid, w in db.workers.items()
        }
        assert all(before.values())
        db.add_worker()
        for wid, (listed, owned) in _table_files(db).items():
            assert listed == owned
            assert not listed & before.get(wid, set())
        for wid, gens in generations.items():
            keys = list(db.workers[wid].bufmgr.decoded._d)
            assert not [k for k in keys if isinstance(k, tuple) and k[0] in gens]
        # the replicated table was kept, not rewritten: its files stay
        assert all(db.workers[w].fs.listdir("tables/dim/") for w in (0, 1))


class TestTPCHScaleEvents:
    """TPC-H byte-identical across scale events under chaos (acceptance)."""

    TPCH_QUERIES = [1, 3, 6, 12]

    def _db(self, data) -> Database:
        cfg = ClusterConfig(
            n_workers=4, n_max=4, page_size=32 * 1024, batch_size=4096,
            send_retries=6, max_query_restarts=16,
        )
        db = Database(cfg)
        for name, schema in tpch_schema.SCHEMAS.items():
            db.create_table(name, schema, tpch_schema.PARTITIONING[name])
            db.load(name, data[name])
        return db

    def _event(self, db: Database, kind: str):
        return db.add_worker if kind == "add" else (lambda: db.drain_worker(1))

    def _run(self, data, kind: str, schedule=None):
        """One full run: the scale event fires mid-Q1, Q3/Q6/Q12 run on
        the published epoch. Returns (per-query rows, db, hook state)."""
        db = self._db(data)
        db.chaos(schedule or FaultSchedule.none())
        state = arm_scale_event(db, self._event(db, kind), after=3)
        rows = {q: db.sql(tpch_query(q, sf=0.002)).rows() for q in self.TPCH_QUERIES}
        return rows, db, state

    @pytest.fixture(scope="class")
    def baseline(self, tpch_data):
        """Fault-free, event-free reference rows."""
        db = self._db(tpch_data)
        db.chaos(FaultSchedule.none())
        return {q: db.sql(tpch_query(q, sf=0.002)).rows() for q in self.TPCH_QUERIES}

    @pytest.fixture(scope="class")
    def event_baseline(self, tpch_data, baseline):
        """Fault-free rows with the scale event fired mid-Q1, per event
        kind. A rebalance changes the partition layout, so partial float
        aggregates may round differently on the *new* epoch (legal plan
        change) — but Q1, pinned to the epoch it planned under, must stay
        byte-identical to the event-free baseline."""
        out = {}
        for kind in ("add", "drain"):
            rows, db, state = self._run(tpch_data, kind)
            assert state["fired"] and db.catalog.placement_epoch >= 1
            assert rows[1] == baseline[1], "pinned-epoch Q1 must not see the event"
            out[kind] = rows
        return out

    @pytest.mark.parametrize("seed", CHAOS_SEEDS[:5])
    def test_tpch_byte_identical_across_scale_event(self, tpch_data, event_baseline, seed):
        """add_worker/drain_worker fired mid-Q1 under a chaos schedule:
        every query matches the fault-free run of the same scale event
        byte for byte — the chaos is invisible."""
        kind = "add" if seed % 2 else "drain"
        schedule = FaultSchedule.chaos(seed, [0, 1, 2, 3])
        rows, db, state = self._run(tpch_data, kind, schedule)
        for q in self.TPCH_QUERIES:
            assert rows[q] == event_baseline[kind][q], (
                f"TPC-H Q{q} diverged under {schedule.describe()} + {kind} event"
            )
        assert state["fired"], "the scale event must fire mid-query"
        assert db.catalog.placement_epoch >= 1

    def test_tpch_crash_during_rebalance(self, tpch_data):
        """The acceptance criterion's hardest case: a worker crashes
        *during* the rebalance itself. The streams retry on the fault
        clock and the published epoch serves the same rows as a
        crash-free rebalance."""
        ref = self._db(tpch_data)
        ref.chaos(FaultSchedule.none())
        ref.add_worker()
        want = {q: ref.sql(tpch_query(q, sf=0.002)).rows() for q in self.TPCH_QUERIES}

        db = self._db(tpch_data)
        inj = db.chaos(FaultSchedule.none())
        inj.crash_now(2, duration=10)
        rep = db.add_worker()  # rebalance runs into the crashed worker
        assert rep.retries > 0
        assert inj.events_of("recover")
        for q in self.TPCH_QUERIES:
            assert db.sql(tpch_query(q, sf=0.002)).rows() == want[q]
