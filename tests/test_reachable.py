"""Code hygiene: every definition in ``src/repro`` has a caller outside tests.

A function, class or method that only tests call documents a mechanism
the engine does not have: no SQL statement, workload, CLI command or
example runs it. The scan is syntactic and goes by name. A definition
counts as reached when a module under ``src/``, ``benchmarks/``,
``tools/`` or ``examples/`` names it, as a bare name (``decode_page(…)``)
or as an attribute (``db.sql``), outside the body of a definition of the
same name (so recursion does not reach itself). A method the engine
dispatches to by a computed name, ``getattr(self, f"_eval_{op.op}")``,
is reached through the string's constant prefix. Dunder methods are
reached by the interpreter.

What stays although only tests reach it is listed in ``ALLOWED`` with
its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLERS = ("src", "benchmarks", "tools", "examples")

#: ``path::Qualified.name`` (path relative to src/repro) -> why it stays
ALLOWED = {
    # README-documented public API
    "cluster/database.py::Database.add_worker": "README: online scale-out",
    "cluster/database.py::Database.drain_worker": "README: graceful scale-in",
    "cluster/database.py::Database.replicate_table": "README: replicate a hot dimension",
    "cluster/database.py::Database.chaos": "README: attach a fault schedule",
    "fault/schedule.py::FaultSchedule.chaos": "README: the randomized fault schedule",
    # references the tests compare against
    "optimizer/dataflow.py::convert_naive": "the reference plan the dataflow tests compare against",
    # ROADMAP item 18 decides their fate
    "baselines/engines.py::MapReduceStyleExecutor": "Hive stand-in; ROADMAP item 18",
    "baselines/engines.py::SparkStyleExecutor": "Spark SQL stand-in; ROADMAP item 18",
    "baselines/engines.py::MPPStyleExecutor": "Greenplum stand-in; ROADMAP item 18",
    # test fakes and workload generators the tests drive
    "storage/external.py::InMemoryCsvTable": "in-memory fake of the UET framework",
    "workloads/skew.py::SkewedWorkload": "skewed range-query generator of the skipping tests",
    "workloads/skew.py::RangeQuery.sql_where": "SQL form of a SkewedWorkload query",
    "workloads/tpch_refresh.py::rf1_insert": "TPC-H RF1 generator of the refresh tests",
    "workloads/tpch_refresh.py::rf2_delete": "TPC-H RF2 generator of the refresh tests",
    # Python API with no SQL statement yet
    "cluster/database.py::Database.set_table_stats": "plants statistics without rows (adaptive tests)",
    "cluster/database.py::Database.reorganize": "restores clustering after DML (DESIGN.md §3)",
    "storage/table.py::TableStorage.reorganize": "restores clustering after DML (DESIGN.md §3)",
    "storage/table.py::_Fragment.reorganize": "restores clustering after DML (DESIGN.md §3)",
    "txn/manager.py::TransactionSystem.resolve_in_doubt": "2PC termination over every worker",
    "fault/injector.py::FaultInjector.crash_now": "fault-injection control of the chaos tests",
    "fault/injector.py::FaultInjector.recover_now": "fault-injection control of the chaos tests",
    # state and shape the tests assert on
    "network/topology.py::Topology.max_degree": "paper §IV: the N_max degree bound",
    "network/topology.py::Topology.diameter": "paper §IV: logarithmic routing distance",
    "network/topology.py::TreeTopology.height": "paper §IV: logarithmic tree depth",
    "network/simnet.py::SimNetwork.reset_stats": "zeroes traffic counters between test phases",
    "common/batch.py::RowBatch.from_pairs": "the constructor test fixtures are built with",
    "common/dates.py::days_to_date": "inverse of date_to_days the date tests check against",
    "core/spill.py::SpillableList.spilled": "spill state the executor tests assert",
    "fault/health.py::WorkerHealthTracker.blacklisted": "breaker state the chaos tests assert",
    "fault/injector.py::FaultInjector.summary": "event counts the chaos tests assert",
    "fault/injector.py::FaultInjector.events_of": "event log the chaos tests assert",
    "optimizer/physical.py::PhysOp.count_ops": "plan shape the model and figure tests assert",
    "storage/btree.py::BPlusTree.height": "tree shape the split tests assert",
    "storage/predicate_cache.py::PredicateCache.n_entries": "cache size the skipping tests assert",
    "optimizer/stats.py::StatsProvider.has": "table coverage the workload tests assert",
    "storage/row_page.py::RowPage.mark_deleted": "tombstone flag of the slotted-page format",
    "storage/row_page.py::RowPage.is_deleted": "tombstone flag of the slotted-page format",
    "telemetry/metrics.py::MetricsRegistry.subsystems": "metrics coverage the telemetry tests assert",
    "telemetry/trace.py::Tracer.qids": "retained traces the tracer tests assert",
    "txn/locks.py::LockManager.holds": "lock state the txn tests assert",
    "txn/locks.py::LockManager.held_resources": "lock state the txn tests assert",
}


def _definitions() -> list[tuple[str, str]]:
    """``(key, name)`` of every top-level function and class, and every
    method (of nested classes too), under src/repro."""
    out = []

    def walk(rel: str, body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((f"{rel}::{prefix}{node.name}", node.name))
                if isinstance(node, ast.ClassDef):
                    walk(rel, node.body, f"{prefix}{node.name}.")

    for path in sorted(SRC.rglob("*.py")):
        walk(path.relative_to(SRC).as_posix(), ast.parse(path.read_text()).body, "")
    return out


class _References(ast.NodeVisitor):
    def __init__(self) -> None:
        self.names: set[str] = set()
        self.prefixes: set[str] = set()
        self._enclosing: list[str] = []

    def _definition(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _definition

    def _name(self, name: str) -> None:
        if name not in self._enclosing:
            self.names.add(name)

    def visit_Name(self, node: ast.Name) -> None:
        self._name(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._name(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Name) and node.func.id == "getattr"
                and len(node.args) >= 2 and isinstance(node.args[1], ast.JoinedStr)):
            head = node.args[1].values[0]
            if isinstance(head, ast.Constant):
                self.prefixes.add(head.value)
        self.generic_visit(node)


def _references(dirs) -> _References:
    refs = _References()
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            refs.visit(ast.parse(path.read_text(), filename=str(path)))
    return refs


def _unreached() -> dict[str, str]:
    """key -> name of every definition no caller outside tests names."""
    refs = _references(CALLERS)
    return {
        key: name for key, name in _definitions()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in refs.names
        and not any(name.startswith(p) for p in refs.prefixes)
    }


def test_every_definition_has_a_caller_outside_tests():
    unreached = _unreached()
    tested = _references(["tests"]).names
    bad = sorted(
        f"{key} ({'only tests call it' if name in tested else 'nothing calls it'})"
        for key, name in unreached.items() if key not in ALLOWED
    )
    assert not bad, "definitions only tests reach (delete, or allow with a reason):\n" + "\n".join(bad)


def test_every_allowed_definition_exists_and_is_unreached():
    unreached = _unreached()
    stale = sorted(key for key in ALLOWED if key not in unreached)
    assert not stale, f"allowlist entries that are gone or now have a caller: {stale}"
    assert all(reason.strip() for reason in ALLOWED.values())
