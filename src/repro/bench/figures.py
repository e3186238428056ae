"""Regenerators for every table and figure in the paper's §VII.

Each function returns structured rows and can print the same table the
paper reports; ``python -m repro.bench.figures`` regenerates everything.
EXPERIMENTS.md records paper-vs-reproduced values side by side.

Figure index (see DESIGN.md §3):

* :func:`fig7_scaleout` — total TPC-H runtime / speedup vs 8 nodes /
  step-wise speedup for all four systems at 8-96 nodes, SF1000, 24 GB.
* :func:`fig8_per_query` — per-query HRDBMS vs Greenplum comparison.
* :func:`fig9_q18` — Q18 runtime and speedup relative to 16 nodes.
* :func:`tab_3tb` — the 3 TB / 8 node experiment.
* :func:`tab_newver` — the current-systems rerun at 384 GB per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..workloads.tpch_queries import PAPER_QUERY_SET
from .model import model_query, model_total

NODE_COUNTS = (8, 16, 32, 64, 96)
SYSTEMS = ("hive", "sparksql", "greenplum", "hrdbms")

#: the 19 queries that completed at 8 nodes on Greenplum; the paper uses
#: this common subset when computing Figure 7 speedups
COMMON_19 = tuple(q for q in PAPER_QUERY_SET if q not in (9, 18))


@dataclass
class ScaleoutSeries:
    system: str
    nodes: list[int] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    speedup: list[float] = field(default_factory=list)  # vs 8 nodes
    stepwise: list[float] = field(default_factory=list)  # vs previous size
    failed_at_8: list[int] = field(default_factory=list)


def fig7_scaleout(sf: float = 1000.0, mem_gb: float = 24.0) -> list[ScaleoutSeries]:
    out = []
    for system in SYSTEMS:
        at8 = model_total(system, sf, 8, mem_gb)
        series = ScaleoutSeries(system, failed_at_8=list(at8.failed))
        prev = None
        base = None
        for n in NODE_COUNTS:
            r = model_total(system, sf, n, mem_gb, queries=COMMON_19)
            series.nodes.append(n)
            series.seconds.append(r.seconds)
            if base is None:
                base = r.seconds
            series.speedup.append(base / r.seconds)
            series.stepwise.append(prev / r.seconds if prev else 1.0)
            prev = r.seconds
        out.append(series)
    return out


def print_fig7(series: list[ScaleoutSeries] | None = None) -> None:
    series = series or fig7_scaleout()
    print("Figure 7 — TPC-H total runtime (s), 19-query common set, SF1000, 24 GB/node")
    header = f"{'system':>10s} " + " ".join(f"{n:>9d}" for n in NODE_COUNTS)
    print(header)
    for s in series:
        print(f"{s.system:>10s} " + " ".join(f"{t:9.0f}" for t in s.seconds))
    print("\nSpeedup relative to 8 nodes")
    print(header)
    for s in series:
        print(f"{s.system:>10s} " + " ".join(f"{v:9.2f}" for v in s.speedup))
    print("\nStep-wise speedup (vs previous cluster size)")
    print(header)
    for s in series:
        print(f"{s.system:>10s} " + " ".join(f"{v:9.2f}" for v in s.stepwise))
    for s in series:
        if s.failed_at_8:
            print(f"\nNote: {s.system} failed at 8 nodes on queries {s.failed_at_8} (OOM)")


@dataclass
class PerQueryRow:
    query: int
    hrdbms: float
    greenplum: float | None  # None = OOM
    ratio: float | None  # greenplum / hrdbms


def fig8_per_query(
    sf: float = 1000.0, n_nodes: int = 8, mem_gb: float = 24.0
) -> list[PerQueryRow]:
    rows = []
    for q in PAPER_QUERY_SET:
        h = model_query("hrdbms", q, sf, n_nodes, mem_gb)
        g = model_query("greenplum", q, sf, n_nodes, mem_gb)
        rows.append(
            PerQueryRow(
                q,
                h.seconds,
                None if g.oom else g.seconds,
                None if g.oom else g.seconds / h.seconds,
            )
        )
    return rows


def print_fig8(n_nodes: int = 8) -> None:
    rows = fig8_per_query(n_nodes=n_nodes)
    print(f"Figure 8 — per-query runtime (s), HRDBMS vs Greenplum, {n_nodes} nodes, SF1000")
    print(f"{'Q':>3s} {'HRDBMS':>9s} {'Greenplum':>10s} {'GP/HR':>6s}  winner")
    for r in rows:
        if r.greenplum is None:
            print(f"{r.query:3d} {r.hrdbms:9.0f} {'OOM':>10s} {'-':>6s}  hrdbms (GP failed)")
        else:
            winner = "greenplum" if r.ratio < 1.0 else "hrdbms"
            print(f"{r.query:3d} {r.hrdbms:9.0f} {r.greenplum:10.0f} {r.ratio:6.2f}  {winner}")


@dataclass
class Q18Row:
    nodes: int
    greenplum: float | None
    gp_speedup: float | None
    hrdbms: float
    hr_speedup: float


def fig9_q18(sf: float = 1000.0, mem_gb: float = 24.0) -> list[Q18Row]:
    rows = []
    gp16 = hr16 = None
    for n in (16, 32, 64, 96):
        g = model_query("greenplum", 18, sf, n, mem_gb)
        h = model_query("hrdbms", 18, sf, n, mem_gb)
        if gp16 is None and not g.oom:
            gp16 = g.seconds
        if hr16 is None:
            hr16 = h.seconds
        rows.append(
            Q18Row(
                n,
                None if g.oom else g.seconds,
                None if g.oom else gp16 / g.seconds,
                h.seconds,
                hr16 / h.seconds,
            )
        )
    return rows


def print_fig9() -> None:
    rows = fig9_q18()
    print("Figure 9 — TPC-H Q18 runtime (s) and speedup vs 16 nodes")
    print(f"{'nodes':>6s} {'Greenplum':>10s} {'(spdup)':>8s} {'HRDBMS':>8s} {'(spdup)':>8s}")
    for r in rows:
        g = f"{r.greenplum:10.0f}" if r.greenplum is not None else f"{'OOM':>10s}"
        gs = f"({r.gp_speedup:5.2f})" if r.gp_speedup is not None else "     -"
        print(f"{r.nodes:6d} {g} {gs:>8s} {r.hrdbms:8.0f} ({r.hr_speedup:5.2f})")


@dataclass
class Tab3TBRow:
    system: str
    seconds: float
    completed: int
    failed: list[int]
    ratio_vs_1tb: float


def tab_3tb(mem_gb: float = 24.0, n_nodes: int = 8) -> list[Tab3TBRow]:
    rows = []
    for system in SYSTEMS:
        r3 = model_total(system, 3000.0, n_nodes, mem_gb)
        r1 = model_total(system, 1000.0, n_nodes, mem_gb)
        rows.append(
            Tab3TBRow(system, r3.seconds, len(r3.completed), r3.failed, r3.seconds / r1.seconds)
        )
    return rows


def print_tab_3tb() -> None:
    rows = tab_3tb()
    print("3 TB experiment — 8 nodes, 24 GB/node")
    print(f"{'system':>10s} {'runtime (s)':>12s} {'done':>5s} {'x vs 1TB':>9s}  failed")
    for r in rows:
        print(
            f"{r.system:>10s} {r.seconds:12.0f} {r.completed:5d} {r.ratio_vs_1tb:9.2f}  {r.failed or '-'}"
        )


def tab_newver(mem_gb: float = 384.0, n_nodes: int = 8) -> dict[str, float]:
    out = {}
    for system in ("hive_tez", "spark2", "greenplum", "hrdbms_v2"):
        out[system] = model_total(system, 1000.0, n_nodes, mem_gb).seconds
    return out


def print_tab_newver() -> None:
    totals = tab_newver()
    print("Current system versions — 8 nodes, full 384 GB memory, SF1000")
    print(f"{'system':>10s} {'runtime (s)':>12s}")
    names = {"hive_tez": "Hive/Tez", "spark2": "Spark SQL", "greenplum": "Greenplum", "hrdbms_v2": "HRDBMS"}
    for k, v in totals.items():
        print(f"{names[k]:>10s} {v:12.0f}")
    print(
        f"\nHRDBMS vs Hive-on-Tez factor: {totals['hive_tez'] / totals['hrdbms_v2']:.2f}"
        " (paper: 2.9)"
    )


def main() -> None:  # pragma: no cover - exercised via examples/paper_figures.py
    print_fig7()
    print()
    print_fig8(8)
    print()
    print_fig8(96)
    print()
    print_fig9()
    print()
    print_tab_3tb()
    print()
    print_tab_newver()


if __name__ == "__main__":  # pragma: no cover
    main()
