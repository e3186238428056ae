"""The verdicts ``tools/ab_pairs.py`` prints, on hand-made samples: its
own section-8 verdict, and the benchmark pipeline's beside it."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

#: ten runs with a narrow spread (inter-quartile range 0.045)
STEADY = [10.0 + 0.01 * i for i in range(10)]
#: ten runs split between two levels (inter-quartile range 10, 67 % of the median)
BIMODAL = [10.0] * 5 + [20.0] * 5


@pytest.mark.parametrize(
    "parent, change, better, want",
    [
        # every pair won, medians 1.0 apart against a 0.045 spread
        (STEADY, [x - 1.0 for x in STEADY], "lower", (10, 0, "gain")),
        (STEADY, [x + 1.0 for x in STEADY], "higher", (10, 0, "gain")),
        # median 30 % worse against a 20 % bound
        (STEADY, [x * 1.3 for x in STEADY], "lower", (0, 10, "worse")),
        (STEADY, [x * 0.7 for x in STEADY], "higher", (0, 10, "worse")),
        # spread wider than the bound, the sides overlap
        (BIMODAL, [10.5] * 5 + [19.0] * 5, "lower", (5, 5, "unresolved")),
        # just as wide, but every change run beats every parent run
        (BIMODAL, [9.0] * 10, "lower", (10, 0, "same")),
        # within noise: alternate pairs won
        (STEADY, [x + (0.001 if i % 2 else -0.001) for i, x in enumerate(STEADY)],
         "lower", (5, 5, "same")),
    ],
)
def test_verdict(parent, change, better, want):
    assert ab_pairs.verdict(parent, change, better, 0.2) == want


@pytest.mark.parametrize(
    "parent, change, want",
    [
        # a clean gain on narrow runs: both call it
        (STEADY, [x - 3.0 for x in STEADY], ("gain", "improved")),
        # a clean sweep on wide runs is "same" for section 8, but the
        # pipeline cannot resolve it: either side's spread exceeds the bound
        (BIMODAL, [9.0] * 10, ("same", "unresolved")),
        # 30 % worse on narrow runs
        (STEADY, [x * 1.3 for x in STEADY], ("worse", "regressed")),
    ],
)
def test_pipeline_verdict_printed_beside_section_8(parent, change, want, capsys):
    runs = [
        [{"failed": 0, "attempted": 1, "correct": True,
          "metrics": {"pass_s": {"value": v}}} for v in side]
        for side in (parent, change)
    ]
    spec = {"end_to_end": [{"name": "pass_s", "better": "lower", "bound": 0.2}]}
    ab_pairs.report("w", spec, *runs)
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("pass_s"))
    assert row.split()[-2:] == list(want)
    assert ab_pairs.pipeline_verdict(parent, change, "lower", 0.2)[1] == want[1]


def _op_runs(side: list[dict[str, float]]) -> list[dict]:
    return [{"operations": {op: {"p25": v} for op, v in ops.items()}} for ops in side]


def test_ops_report_medians_and_pairs_won(capsys):
    parent = _op_runs([{"rf1": 0.010, "rf2": 0.018, "q01": 0.011}] * 3)
    change = _op_runs([
        {"rf1": 0.008, "rf2": 0.004, "q01": 0.012},
        {"rf1": 0.011, "rf2": 0.005, "q01": 0.010},
        {"rf1": 0.007, "rf2": 0.003, "q01": 0.011},
    ])
    ab_pairs.report_ops("refresh_mix", parent, change)
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()[2:]}
    assert rows["rf2"] == ["18", "4", "-77.8%", "3/3"]
    assert rows["rf1"] == ["10", "8", "-20.0%", "2/3"]
    # ties count for neither side
    assert rows["q01"] == ["11", "11", "+0.0%", "1/3"]


def test_run_once_reads_the_operations_of_the_record_it_asked_for(tmp_path):
    """``--ops`` runs pass ``--out`` and take the operations from there."""
    import sys

    fake = tmp_path / "run.py"
    fake.write_text(
        "import json, sys\n"
        "out = sys.argv[sys.argv.index('--out') + 1]\n"
        "open(out, 'a').write(json.dumps({'operations': {'rf2': {'p25': 0.004}}}) + '\\n')\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, 'metrics': {}}))\n"
    )
    record = tmp_path / "side.record.jsonl"
    record.write_text("stale\n")  # a previous run's record is not read
    got = ab_pairs.run_once([sys.executable, str(fake)], tmp_path, "refresh_mix", 1, 1, 0, record)
    assert got["operations"] == {"rf2": {"p25": 0.004}} and got["correct"]
