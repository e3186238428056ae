#!/usr/bin/env python3
"""Alternating parent/change pairs of the repo's benchmark.

    python3 tools/ab_pairs.py --parent HEAD --pairs 10 --out /tmp/ab

exports the parent commit into a scratch directory (``git archive``, so
the checkout's own ``.git`` is never touched; ``OUT/parent.sha`` records
the exported commit, and a reused ``--out`` is exported again whenever
``--parent`` resolves to a different one), then for every workload of
``BENCHMARK.json`` runs N pairs of its command — once in the parent
directory, once in this working tree, same seed, alternating which side
goes first — and prints, per workload and end-to-end metric, both
medians, both inter-quartile ranges, the pairs the change won and the
verdict of the choosing-metrics guide, section 8:

* ``gain``: the change wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the parent's
  inter-quartile range;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved``: either side's runs spread wider than the bound, so
  "no worse" cannot be told from noise — unless every run of the change
  reads better than every run of the parent;
* ``same``: none of the above.

Next to it stands the verdict of ``benchmarks/e2e/compare.py`` (imported,
not copied), the rule the benchmark pipeline applies to the same runs:
``unresolved`` whenever either side's spread (inter-quartile distance
over the median) exceeds the bound, else ``regressed`` / ``improved`` when
the medians differ by more than the bound, else ``same``. A claim states
what the pipeline will decide, not only the section-8 verdict.

``--ops`` passes ``--out`` to every run and prints, after the end-to-end
table, each operation's (``rf1``, ``rf2``, ``q01``, ..., ``pass``) median
over the runs of its p25 latency on both sides and the pairs the change
won, so a claim shows where the time went. ``--traced`` adds one pair
with ``--trace 1`` per workload and prints the per-layer metrics of both
sides next to each other. Every run's JSON line is appended to
``OUT/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from compare import verdict as pipeline_verdict  # noqa: E402


def export_commit(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, unpacked into ``dest``."""
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=tar, check=True)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(dest, filter="data")


def parent_export(rev: str, out: Path) -> Path:
    """``out/parent`` holding the committed files of ``rev``; reused only
    when ``out/parent.sha`` names the commit ``rev`` resolves to now."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    dest, stamp = out / "parent", out / "parent.sha"
    if dest.exists() and stamp.exists() and stamp.read_text() == sha:
        return dest
    stamp.unlink(missing_ok=True)  # an interrupted export must not look current
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    export_commit(sha, dest)
    stamp.write_text(sha)
    return dest


def run_once(command: list[str], cwd: Path, workload: str, seed: int, seconds: int, trace: int,
             record: Path | None = None) -> dict:
    """One run of the benchmark; its last stdout line is the result. With
    ``record`` the run also writes its full record there (``--out``), and
    the result gains that record's per-operation latencies."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    if record is not None:
        record.unlink(missing_ok=True)
        argv += ["--out", str(record)]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} failed in {cwd}:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if record is not None:
        result["operations"] = json.loads(record.read_text().splitlines()[-1])["operations"]
    return result


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[int, int, str]:
    """(pairs the change won, pairs the parent won, section-8 verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * c < sign * p for p, c in zip(parent, change))
    lost = sum(sign * c > sign * p for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    base = abs(pm) or 1.0
    if won >= 0.9 * len(parent) and sign * (pm - cm) > (p3 - p1):
        return won, lost, "gain"
    if sign * (cm - pm) / base > bound:
        return won, lost, "worse"
    spread = max(p3 - p1, c3 - c1) / base
    clean_sweep = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound and not clean_sweep:
        return won, lost, "unresolved"
    return won, lost, "same"


def fmt(x: float) -> str:
    return f"{x:.4g}"


def report(workload: str, spec: dict, parent_runs: list[dict], change_runs: list[dict]) -> None:
    print(f"\n## {workload}: {len(parent_runs)} pairs")
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        wrong = sum(not r["correct"] for r in runs)
        print(f"{side}: failed {failed} of {attempted}, incorrect runs {wrong}")
    print(f"{'metric':28} {'parent median [q1-q3]':32} {'change median [q1-q3]':32} "
          f"{'delta':>8} {'won':>5} {'verdict':10} pipeline")
    for m in spec["end_to_end"]:
        name = m["name"]
        p = [r["metrics"][name]["value"] for r in parent_runs]
        c = [r["metrics"][name]["value"] for r in change_runs]
        won, lost, v = verdict(p, c, m["better"], m["bound"])
        _, pipeline = pipeline_verdict(p, c, m["better"], m["bound"])
        p1, pm, p3 = quartiles(p)
        c1, cm, c3 = quartiles(c)
        delta = (cm - pm) / pm * 100 if pm else 0.0
        print(f"{name:28} {f'{fmt(pm)} [{fmt(p1)}-{fmt(p3)}]':32} {f'{fmt(cm)} [{fmt(c1)}-{fmt(c3)}]':32} "
              f"{delta:+7.1f}% {won:>2}/{len(p):<2} {v:10} {pipeline}")


def report_ops(workload: str, parent_runs: list[dict], change_runs: list[dict]) -> None:
    """Per operation: the median over the runs of its p25 latency on each
    side, and the pairs in which the change's was lower."""
    print(f"\n## {workload}: per-operation p25, median over the runs (ms)")
    print(f"{'operation':10} {'parent':>10} {'change':>10} {'delta':>8} {'won':>5}")
    ops = sorted({op for r in parent_runs + change_runs for op in r["operations"]})
    for op in ops:
        pairs = [(p["operations"][op]["p25"], c["operations"][op]["p25"])
                 for p, c in zip(parent_runs, change_runs)
                 if op in p["operations"] and op in c["operations"]]
        if not pairs:
            continue
        pm = statistics.median(p for p, _ in pairs) * 1e3
        cm = statistics.median(c for _, c in pairs) * 1e3
        won = sum(c < p for p, c in pairs)
        delta = (cm - pm) / pm * 100 if pm else 0.0
        print(f"{op:10} {fmt(pm):>10} {fmt(cm):>10} {delta:+7.1f}% {won:>2}/{len(pairs):<2}")


def report_layers(workload: str, parent: dict, change: dict) -> None:
    print(f"\n## {workload}: per-layer metrics of one traced pair (parent -> change)")
    for name, cell in parent["metrics"].items():
        other = change["metrics"].get(name)
        if other is None or cell["value"] == other["value"]:
            continue
        print(f"{name:40} {fmt(cell['value']):>12} -> {fmt(other['value']):>12} {cell['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="commit the working tree is compared with")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true", help="one more pair per workload with --trace 1")
    ap.add_argument("--ops", action="store_true",
                    help="also report per-operation p25 medians and pairs won")
    ap.add_argument("--out", type=Path, required=True, help="scratch directory (parent export, runs.jsonl)")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    chosen = [w for w in args.workloads.split(",") if w] or names
    unknown = set(chosen) - set(names)
    if unknown:
        raise SystemExit(f"unknown workloads: {sorted(unknown)}")

    args.out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": parent_export(args.parent, args.out), "change": ROOT}
    log = (args.out / "runs.jsonl").open("a")

    def run(side: str, workload: str, seed: int, trace: int) -> dict:
        record = (args.out / f"{side}.record.jsonl").resolve() if args.ops and not trace else None
        result = run_once(spec["command"], sides[side], workload, seed, spec["run_seconds"], trace,
                          record)
        log.write(json.dumps({"side": side, "workload": workload, "seed": seed,
                              "trace": trace, **result}) + "\n")
        log.flush()
        return result

    for workload in chosen:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run(side, workload, args.first_seed + i, 0))
            print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
        report(workload, spec, runs["parent"], runs["change"])
        if args.ops:
            report_ops(workload, runs["parent"], runs["change"])
        if args.traced:
            report_layers(workload, run("parent", workload, args.first_seed, 1),
                          run("change", workload, args.first_seed, 1))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
