"""Tests of the benchmark harness itself.

Not collected by tier-1 (``testpaths = ["tests"]``); run them with

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
import oracle  # noqa: E402
import params  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from repro.sql import parse  # noqa: E402
from repro.telemetry.trace import validate_trace  # noqa: E402
from repro.workloads import tpch_queries  # noqa: E402
from spans import SpanRecorder  # noqa: E402


# -- the comparator ------------------------------------------------------------------


def test_comparator_exact_on_ints_and_strings():
    assert oracle.rows_equal([(1, "a")], [(1, "a")], ordered=True)
    assert not oracle.rows_equal([(1, "a")], [(2, "a")], ordered=True)
    assert not oracle.rows_equal([(1, "a")], [(1, "b")], ordered=True)
    assert not oracle.rows_equal([(1, "a")], [(1, "a"), (1, "a")], ordered=True)
    assert not oracle.rows_equal([(1, "1")], [(1, 1)], ordered=True)


def test_comparator_float_tolerance_and_nulls():
    assert oracle.rows_equal([(1.0 + 1e-12,)], [(1.0,)], ordered=True)
    assert not oracle.rows_equal([(1.0 + 1e-6,)], [(1.0,)], ordered=True)
    assert oracle.rows_equal([(None, 2.5)], [(None, 2.5)], ordered=True)
    assert not oracle.rows_equal([(None,)], [(0.0,)], ordered=True)


def test_comparator_order_matters_only_with_order_by():
    a, b = [(1, 2.0), (2, 3.0)], [(2, 3.0 * (1 + 1e-12)), (1, 2.0)]
    assert oracle.rows_equal(a, b, ordered=False)
    assert not oracle.rows_equal(a, b, ordered=True)
    assert oracle.has_order_by(tpch_queries.query(1))
    assert not oracle.has_order_by(tpch_queries.query(6))


# -- the p25 / percentile rule ---------------------------------------------------------


def test_p25_and_tail_rule():
    assert stats.p25([5, 1, 4, 2, 3]) == 2.0
    assert stats.p25([1.0, 2.0]) == 1.25
    # the highest percentile with at least ten samples beyond it
    assert stats.tail_percentile(39) is None
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10000) == 99.9
    s = stats.summarize(list(range(1, 201)))
    assert s["n"] == 200 and s["tail_p"] == 95.0 and s["p25"] < s["median"] < s["tail"]
    assert "tail" not in stats.summarize([1.0, 2.0, 3.0])


def test_spread_is_the_drivers():
    vals = [3.1, 2.9, 3.0, 3.4, 2.8, 3.05, 3.2, 2.95, 3.3, 3.0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    assert stats.spread(vals) == pytest.approx((q3 - q1) / statistics.median(vals))
    assert stats.spread([1.0]) == 0.0


# -- substitution parameters ---------------------------------------------------------


def test_parameters_are_a_function_of_the_seed():
    def texts(seed):
        stream = params.ParamStream(seed, 0.01)
        return [stream.text(q) for _ in range(3) for q in tpch_queries.ALL_QUERIES]

    assert texts(1) == texts(1)
    assert texts(1) != texts(2)


def test_every_template_takes_parameters_and_still_parses():
    stream = params.ParamStream(7, 0.01)
    for q in tpch_queries.ALL_QUERIES:
        drawn = {stream.text(q) for _ in range(4)}
        assert len(drawn) == 4, f"Q{q} repeated a text within its domain"
        assert drawn - {tpch_queries.query(q, 0.01)}
        for text in drawn:
            parse(text)


def test_a_vanished_literal_is_an_error():
    with pytest.raises(ValueError, match="not found"):
        params.substitute(3, "select 1 from customer", {"'BUILDING'": "'MACHINERY'"})
    with pytest.raises(ValueError, match="Q18"):
        params._draw(18, random.Random(0), "select 1")


# -- compare ---------------------------------------------------------------------


def test_verdicts():
    base = [1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(base, [1.02, 1.03, 1.02, 1.02], "lower", 0.10)[1] == "same"
    assert compare.verdict(base, [1.2, 1.21, 1.2, 1.2], "lower", 0.10)[1] == "regressed"
    assert compare.verdict(base, [0.8, 0.81, 0.8, 0.8], "lower", 0.10)[1] == "improved"
    assert compare.verdict(base, [1.2, 1.21, 1.2, 1.2], "higher", 0.10)[1] == "improved"
    noisy = [0.7, 1.0, 1.3, 1.6]
    assert compare.verdict(base, noisy, "lower", 0.10)[1] == "unresolved"


def _record(workload, pass_s, failed=0):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in run.SPEC["end_to_end"]}
    metrics["pass_s"]["value"] = pass_s
    return {"workload": workload, "trace": 0, "attempted": 100, "failed": failed,
            "metrics": metrics}


def test_compare_exit_status(tmp_path, capsys):
    def write(name, records):
        path = tmp_path / name
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return str(path)

    a = write("a.jsonl", [_record("power_warm", 1.0), _record("power_warm", 1.01)])
    same = write("b.jsonl", [_record("power_warm", 1.02)])
    slower = write("c.jsonl", [_record("power_warm", 1.5)])
    wrong = write("d.jsonl", [_record("power_warm", 1.0, failed=1)])
    assert compare.main(a, same, run.SPEC) == 0
    assert compare.main(a, slower, run.SPEC) == 1
    assert compare.main(a, wrong, run.SPEC) == 1
    assert "regressed" in capsys.readouterr().out


# -- spans -----------------------------------------------------------------------


def test_self_time_and_loadable_trace():
    rec = SpanRecorder()
    with rec.span("bench.query", 1, op="q01") as outer:
        with rec.span("bench.parse", 1) as a:
            pass
        with rec.span("bench.sql", 1) as b:
            pass
    assert a.parent is outer and b.parent is outer
    assert outer.self_time == pytest.approx(outer.duration - a.duration - b.duration)
    assert validate_trace(rec.chrome_trace()) == []


# -- the harness end to end -----------------------------------------------------------


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_corrupted_golden_row_fails_the_run(tmp_path, monkeypatch, capsys):
    sf = harness.SMOKE["sf"]
    monkeypatch.setattr(oracle, "GOLDEN_DIR", tmp_path)
    cluster = harness.build_cluster(sf)
    oracle.write_golden(cluster.db, sf)
    cluster.db.close()

    argv = ["--workload", "power_warm", "--smoke"]
    assert run.main(argv) == 0
    ok = _last_json(capsys)
    assert ok["correct"] and ok["failed"] == 0
    assert set(ok) == {"correct", "attempted", "failed", "metrics"}
    assert set(ok["metrics"]) == {m["name"] for m in run.SPEC["end_to_end"]}

    path = oracle.golden_path(sf, 6)
    doc = json.loads(path.read_text())
    doc["rows"][0][0] *= 1.001
    path.write_text(json.dumps(doc))
    assert run.main(argv) == 1
    bad = _last_json(capsys)
    assert not bad["correct"] and bad["failed"] >= 1
