"""Q-error observation (optimizer.feedback) and the plan cache.

A mis-estimated statement's worst per-operator Q-error is reported
(``feedback_stats``, EXPLAIN ANALYZE ``q=``) and its cached plan is
kept: observation never re-plans. Plus regression tests for the bloom
kernel guards, quote-aware SQL normalization and int ``est_rows``
rendering in EXPLAIN ANALYZE.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, Database
from repro.common import DataType, RowBatch
from repro.common.bloom import bloom_filter_codes, bloom_filter_test
from repro.common.schema import Schema
from repro.cluster.plancache import PlanCache, normalize_sql
from repro.fault import FaultSchedule
from repro.optimizer.feedback import qerror
from repro.optimizer.stats import TableStats
from repro.telemetry import render_analyze

from tests.conftest import profiled


# ---------------------------------------------------------------------------
# satellite: quote-aware SQL normalization
# ---------------------------------------------------------------------------


class TestNormalizeSQL:
    def test_outside_whitespace_collapses(self):
        assert normalize_sql("SELECT   1  FROM   t") == normalize_sql("SELECT 1 FROM t")

    def test_literal_whitespace_preserved(self):
        # 'a  b' and 'a b' are different literals — collapsing inside
        # quotes made the cache alias them to one plan (the bug)
        a = normalize_sql("SELECT * FROM t WHERE c = 'a  b'")
        b = normalize_sql("SELECT * FROM t WHERE c = 'a b'")
        assert a != b
        assert "'a  b'" in a

    def test_escaped_quote_stays_inside_literal(self):
        s = normalize_sql("SELECT 'it''s  fine'   ,  2")
        assert "'it''s  fine'" in s
        assert s.endswith(", 2")

    def test_cache_keys_distinguish_literals(self):
        k1 = PlanCache.key("SELECT 'x  y'", "opt", 0, 1, 1)
        k2 = PlanCache.key("SELECT 'x y'", "opt", 0, 1, 1)
        assert k1 != k2

    def test_formatting_only_same_key(self):
        k1 = PlanCache.key("SELECT  *  FROM t", "opt", 0, 1, 1)
        k2 = PlanCache.key("SELECT * FROM t", "opt", 0, 1, 1)
        assert k1 == k2


# ---------------------------------------------------------------------------
# Q-error edges
# ---------------------------------------------------------------------------


class TestQError:
    def test_both_zero_is_one(self):
        assert qerror(0, 0) == 1.0  # a correct "nothing"

    def test_zero_estimate(self):
        assert qerror(0, 50) == 50.0

    def test_zero_actual(self):
        assert qerror(1000, 0) == 1000.0

    def test_symmetry(self):
        assert qerror(10, 250) == qerror(250, 10) == 25.0

    def test_exact_is_one(self):
        assert qerror(42, 42) == 1.0

    def test_finite_for_extremes(self):
        assert np.isfinite(qerror(1e18, 0))


# ---------------------------------------------------------------------------
# satellite: bloom kernel guards
# ---------------------------------------------------------------------------


class TestBloomKernel:
    def test_zero_length_bits_rejects_all(self):
        codes = np.arange(16, dtype=np.uint64)
        mask = bloom_filter_test(np.zeros(0, dtype=np.uint8), codes)
        assert mask.shape == (16,) and not mask.any()

    def test_membership(self):
        build = np.arange(100, dtype=np.uint64) * np.uint64(2654435761)
        bits = bloom_filter_codes(build)
        assert bloom_filter_test(bits, build).all()
        probe = (np.arange(100_000, 100_050, dtype=np.uint64)
                 * np.uint64(2654435761))
        # false-positive rate of a 1M-bit filter over 100 keys ~ 0
        assert bloom_filter_test(bits, probe).sum() <= 2


# ---------------------------------------------------------------------------
# Q-error observation on a mis-estimated join
# ---------------------------------------------------------------------------

N_DIM, N_FACT = 20, 5000
JOIN_SQL = "SELECT d_tag, SUM(f_v) FROM fact JOIN dim ON f_d = d_id GROUP BY d_tag"


def feedback_db(**cfg_overrides) -> Database:
    """dim/fact cluster where ``fact``'s statistics lie by 1000x."""
    cfg = dict(n_workers=2, n_max=4, page_size=16 * 1024)
    cfg.update(cfg_overrides)
    db = Database(ClusterConfig(**cfg))
    db.create_table("dim", Schema.of(("d_id", DataType.INT64), ("d_tag", DataType.STRING)))
    db.create_table("fact", Schema.of(
        ("f_id", DataType.INT64), ("f_d", DataType.INT64), ("f_v", DataType.FLOAT64)))
    db.load("dim", RowBatch.from_pairs(
        ("d_id", DataType.INT64, list(range(N_DIM))),
        ("d_tag", DataType.STRING, [f"t{i % 4}" for i in range(N_DIM)]),
    ))
    db.load("fact", RowBatch.from_pairs(
        ("f_id", DataType.INT64, list(range(N_FACT))),
        ("f_d", DataType.INT64, [i % N_DIM for i in range(N_FACT)]),
        ("f_v", DataType.FLOAT64, [float(i) for i in range(N_FACT)]),
    ))
    # install the mis-estimate AFTER load (load auto-analyzes)
    db.set_table_stats("fact", TableStats(row_count=5.0))
    return db


class TestAdaptiveReplan:
    def test_misestimate_keeps_its_cached_plan(self):
        db = feedback_db()
        results = [db.sql(JOIN_SQL) for _ in range(4)]
        rows = [sorted(r.rows()) for r in results]
        assert all(r == rows[0] for r in rows)
        # the lie is reported, never acted on: one plan serves every run
        assert all(r.physical is results[0].physical for r in results)
        assert db.plan_cache.stats()["hits"] >= 3
        st = db.feedback_stats()
        assert st["runs"] == 4 and st["replans"] == 0
        assert st["worst_q"] > 100

    def test_restart_merged_stats_feedback(self):
        """A chaos-restarted query feeds the successful attempt's
        actuals — not counters doubled across attempts — so its worst
        Q-error matches the fault-free run's."""
        calm = feedback_db()
        calm.chaos(FaultSchedule.none())
        calm.sql(JOIN_SQL)
        want_q = calm.feedback_stats()["worst_q"]
        for seed in (11, 23, 37):
            db = feedback_db(send_retries=6, max_query_restarts=16)
            db.chaos(FaultSchedule.chaos(seed, [0, 1]))
            r = db.sql(JOIN_SQL)
            st = db.feedback_stats()
            assert st["runs"] == 1
            assert st["worst_q"] == pytest.approx(want_q), (seed, r.stats.restarts)


# ---------------------------------------------------------------------------
# satellite: est= rendering accepts int and float
# ---------------------------------------------------------------------------


class TestEstRendering:
    def test_explain_analyze_renders_est_and_q(self):
        db = feedback_db()
        out = db.explain_analyze(JOIN_SQL)
        assert "est=" in out and "q=" in out

    def test_int_est_rows_renders(self):
        # older plans (and raw Scan row counts) carry int est_rows;
        # the renderer must not silently drop them (the bug)
        db = feedback_db()
        res = profiled(db, JOIN_SQL)
        for op in res.physical.walk():
            est = op.attrs.get("est_rows")
            if isinstance(est, float):
                op.attrs["est_rows"] = int(est)
        out = render_analyze(res.physical, res.profiles or {}, res.stats)
        assert "est=" in out and "q=" in out
