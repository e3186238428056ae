"""``run.py --compare A B``: two sets of runs (the JSON-lines files that
``--out`` appends to) side by side, one row per (workload, end-to-end
metric), judged against the bounds fixed in BENCHMARK.json."""

from __future__ import annotations

import json
import statistics

from stats import spread


def load(path: str) -> dict[str, list[dict]]:
    """workload -> its untraced run records, in file order."""
    runs: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, str]:
    """(relative change of B's median over A's, same / improved /
    regressed / unresolved). A change is unresolved when either input's
    own run-to-run spread is wider than the bound."""
    ma, mb = statistics.median(a), statistics.median(b)
    change = mb / ma - 1
    worse = change if better == "lower" else -change
    if max(spread(a), spread(b)) > bound:
        return change, "unresolved"
    if worse > bound:
        return change, "regressed"
    if worse < -bound:
        return change, "improved"
    return change, "same"


def main(path_a: str, path_b: str, spec: dict) -> int:
    a_runs, b_runs = load(path_a), load(path_b)
    code = 0
    print(f"{'workload':<14s} {'metric':<27s} {'A':>12s} {'B':>12s} {'change':>8s} "
          f"{'bound':>6s} {'spread A/B':>13s}  verdict")
    for w in (w["name"] for w in spec["workloads"]):
        if w not in a_runs or w not in b_runs:
            continue
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in a_runs[w]]
            b = [r["metrics"][m["name"]]["value"] for r in b_runs[w]]
            change, status = verdict(a, b, m["better"], m["bound"])
            code |= status == "regressed"
            print(f"{w:<14s} {m['name']:<27s} {statistics.median(a):>12.5g} "
                  f"{statistics.median(b):>12.5g} {change:>+8.1%} {m['bound']:>6.2f} "
                  f"{spread(a):>6.1%}/{spread(b):<6.1%}  {status}  "
                  f"(n={len(a)}/{len(b)} {m['unit']})")
        fa, fb = failed_share(a_runs[w]), failed_share(b_runs[w])
        status = "regressed" if fb > fa else "same"
        code |= fb > fa
        print(f"{w:<14s} {'failed_share':<27s} {fa:>12.5g} {fb:>12.5g} {'':>8s} "
              f"{0:>6.2f} {'':>13s}  {status}")
    return code
