"""Batch-operator edge cases (join kinds, fills, aggregates, distinct),
stats derivation, and the reference evaluator's place in the package."""

import ast
import sqlite3
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import ClusterConfig, Database
from repro.common import DataType, RowBatch, Schema
from repro.common.errors import ExecutionError
from repro.core.aggregate import aggregate_batch
from repro.core.kernels import distinct_batch, hash_join
from repro.optimizer.logical import AggSpec, split_equi_condition
from repro.optimizer.stats import ColumnStats, predicate_selectivity
from repro.sql import parse_expr

L = Schema.of(("lk", DataType.INT64), ("lv", DataType.STRING))
R = Schema.of(("rk", DataType.INT64), ("rv", DataType.FLOAT64))


def lb(ks, vs):
    return RowBatch(L, {"lk": np.array(ks, np.int64), "lv": np.asarray(vs, object)})


def rb(ks, vs):
    return RowBatch(R, {"rk": np.array(ks, np.int64), "rv": np.array(vs, np.float64)})


def pairs():
    e = parse_expr("lk = rk")
    return [(e.left, e.right)]


class TestHashJoin:
    def test_inner(self):
        out = hash_join(lb([1, 2], ["a", "b"]), rb([2, 2, 3], [9, 8, 7]),
                        "inner", pairs(), [], L.concat(R), None, L, R)
        assert sorted(out.col("rv").tolist()) == [8.0, 9.0]

    def test_inner_empty_build(self):
        out = hash_join(lb([1], ["a"]), rb([], []),
                        "inner", pairs(), [], L.concat(R), None, L, R)
        assert out.length == 0

    def test_semi_dedupes(self):
        out = hash_join(lb([1, 2, 2], ["a", "b", "c"]), rb([2, 2], [0, 0]),
                        "semi", pairs(), [], L, None, L, R)
        assert out.col("lv").tolist() == ["b", "c"]

    def test_anti(self):
        out = hash_join(lb([1, 2], ["a", "b"]), rb([2], [0]),
                        "anti", pairs(), [], L, None, L, R)
        assert out.col("lv").tolist() == ["a"]

    def test_left_outer_fill_and_match_col(self):
        from repro.common.schema import Column

        schema = Schema(list(L.columns) + list(R.columns) + [Column("__m", DataType.BOOL)])
        out = hash_join(lb([1, 2], ["a", "b"]), rb([2], [9.5]),
                        "left", pairs(), [], schema, "__m", L, R)
        rows = {r[0]: r for r in out.rows()}
        assert rows[2][3] == 9.5 and rows[2][4] is True
        assert rows[1][3] == 0.0 and rows[1][4] is False  # type-default fill

    def test_single_zero_rows_yields_empty(self):
        out = hash_join(lb([1, 2], ["a", "b"]), rb([], []),
                        "single", [], [], L.concat(R), None, L, R)
        assert out.length == 0

    def test_single_multi_row_errors(self):
        with pytest.raises(ExecutionError):
            hash_join(lb([1], ["a"]), rb([1, 2], [0, 0]),
                      "single", [], [], L.concat(R), None, L, R)

    def test_single_broadcasts_value(self):
        out = hash_join(lb([1, 2], ["a", "b"]), rb([7], [3.5]),
                        "single", [], [], L.concat(R), None, L, R)
        assert out.col("rv").tolist() == [3.5, 3.5]

    def test_residual_filters_pairs(self):
        resid = [parse_expr("rv > 5")]
        out = hash_join(lb([2, 2], ["a", "b"]), rb([2, 2], [1.0, 9.0]),
                        "inner", pairs(), resid, L.concat(R), None, L, R)
        assert set(out.col("rv").tolist()) == {9.0}

    def test_semi_with_residual(self):
        resid = [parse_expr("rv > 5")]
        out = hash_join(lb([1, 2], ["a", "b"]), rb([1, 2], [1.0, 9.0]),
                        "semi", pairs(), resid, L, None, L, R)
        assert out.col("lv").tolist() == ["b"]

    def test_cross_guard(self):
        big_l = lb(range(20_000), ["x"] * 20_000)
        big_r = rb(range(20_000), [0.0] * 20_000)
        with pytest.raises(ExecutionError):
            hash_join(big_l, big_r, "cross", [], [], L.concat(R), None, L, R)


class TestSplitEquiCondition:
    def test_plain(self):
        eq, resid = split_equi_condition(parse_expr("lk = rk"), L, R)
        assert len(eq) == 1 and not resid

    def test_reversed_sides(self):
        eq, resid = split_equi_condition(parse_expr("rk = lk"), L, R)
        assert len(eq) == 1
        assert str(eq[0][0]) == "lk"

    def test_expression_keys(self):
        eq, resid = split_equi_condition(parse_expr("lk + 1 = rk"), L, R)
        assert len(eq) == 1

    def test_residual_split(self):
        eq, resid = split_equi_condition(parse_expr("lk = rk and lv <> 'x'"), L, R)
        assert len(eq) == 1 and len(resid) == 1

    def test_non_equi_all_residual(self):
        eq, resid = split_equi_condition(parse_expr("lk < rk"), L, R)
        assert not eq and len(resid) == 1


class TestAggregates:
    def schema(self, *cols):
        return Schema.of(*cols)

    def test_global_empty_input(self):
        child = RowBatch.empty(self.schema(("v", DataType.FLOAT64)))
        out_schema = self.schema(("c", DataType.INT64), ("s", DataType.DECIMAL))
        out = aggregate_batch(
            child, (), (AggSpec("c", "COUNT", None), AggSpec("s", "SUM", "v")), out_schema
        )
        assert out.rows() == [(0, 0.0)]

    def test_grouped_empty_input(self):
        child = RowBatch.empty(self.schema(("g", DataType.INT64), ("v", DataType.FLOAT64)))
        out_schema = self.schema(("g", DataType.INT64), ("s", DataType.DECIMAL))
        out = aggregate_batch(child, ("g",), (AggSpec("s", "SUM", "v"),), out_schema)
        assert out.length == 0

    def test_avg(self):
        child = RowBatch.from_pairs(("v", DataType.INT64, [1, 2, 3]))
        out_schema = self.schema(("a", DataType.FLOAT64))
        out = aggregate_batch(child, (), (AggSpec("a", "AVG", "v"),), out_schema)
        assert out.rows() == [(2.0,)]

    def test_count_distinct_global(self):
        child = RowBatch.from_pairs(("v", DataType.INT64, [1, 1, 2]))
        out_schema = self.schema(("c", DataType.INT64))
        out = aggregate_batch(child, (), (AggSpec("c", "COUNT", "v", True),), out_schema)
        assert out.rows() == [(2,)]

    def test_min_max_strings_grouped(self):
        child = RowBatch.from_pairs(
            ("g", DataType.INT64, [0, 0, 1]),
            ("s", DataType.STRING, ["b", "a", "z"]),
        )
        out_schema = self.schema(("g", DataType.INT64), ("lo", DataType.STRING), ("hi", DataType.STRING))
        out = aggregate_batch(
            child, ("g",), (AggSpec("lo", "MIN", "s"), AggSpec("hi", "MAX", "s")), out_schema
        )
        assert sorted(out.rows()) == [(0, "a", "b"), (1, "z", "z")]

    def test_count_with_validity(self):
        child = RowBatch.from_pairs(
            ("g", DataType.INT64, [0, 0, 1]),
            ("x", DataType.INT64, [5, 6, 7]),
            ("m", DataType.BOOL, [True, False, True]),
        )
        out_schema = self.schema(("g", DataType.INT64), ("c", DataType.INT64))
        out = aggregate_batch(child, ("g",), (AggSpec("c", "COUNT", "x", False, "m"),), out_schema)
        assert sorted(out.rows()) == [(0, 1), (1, 1)]


class TestDistinct:
    def test_dedupe_preserves_first(self):
        b = RowBatch.from_pairs(("a", DataType.INT64, [3, 1, 3, 1, 2]))
        assert distinct_batch(b).col("a").tolist() == [3, 1, 2]

    def test_multi_column(self):
        b = RowBatch.from_pairs(
            ("a", DataType.INT64, [1, 1, 1]),
            ("b", DataType.STRING, ["x", "x", "y"]),
        )
        assert len(distinct_batch(b)) == 2


class TestSelectivity:
    def cs(self):
        return {
            "a": ColumnStats(100, 0, 1000, 8),
            "s": ColumnStats(10, "aaa", "zzz", 8),
        }

    def of(self, key):
        return self.cs().get(key.rsplit(".", 1)[-1])

    def test_equality(self):
        sel = predicate_selectivity(parse_expr("a = 5"), self.of, None)
        assert sel == pytest.approx(0.01)

    def test_range_interpolation(self):
        sel = predicate_selectivity(parse_expr("a < 500"), self.of, None)
        assert 0.4 < sel < 0.6

    def test_conjunction_multiplies(self):
        sel = predicate_selectivity(parse_expr("a = 5 and a = 7"), self.of, None)
        assert sel == pytest.approx(0.0001)

    def test_disjunction_inclusion_exclusion(self):
        sel = predicate_selectivity(parse_expr("a = 5 or a = 7"), self.of, None)
        assert sel == pytest.approx(0.01 + 0.01 - 0.0001)

    def test_negation(self):
        sel = predicate_selectivity(parse_expr("not a = 5"), self.of, None)
        assert sel == pytest.approx(0.99)

    def test_between(self):
        sel = predicate_selectivity(parse_expr("a between 0 and 100"), self.of, None)
        assert 0.05 < sel < 0.2

    def test_in_list(self):
        sel = predicate_selectivity(parse_expr("a in (1, 2, 3)"), self.of, None)
        assert sel == pytest.approx(0.03)

    def test_like_prefix_more_selective_than_contains(self):
        p = predicate_selectivity(parse_expr("s like 'abc%'"), self.of, None)
        c = predicate_selectivity(parse_expr("s like '%abc%'"), self.of, None)
        assert p < c

    def test_string_range(self):
        sel = predicate_selectivity(parse_expr("s < 'mmm'"), self.of, None)
        assert 0.2 < sel < 0.8


NULL_JOINS = [
    "select count(*) from (select max(a) m from t where a<0) x, "
    "(select max(b) m2 from t where b<0) y where x.m = y.m2",
    "select sum(case when y.k = 7 then 1 else 0 end) from "
    "(select max(a) m from t where a<0) x left join "
    "(select max(b) m2, sum(b)+7 k from t where b<0) y on x.m = y.m2",
]


@pytest.mark.parametrize("text", NULL_JOINS, ids=["inner", "left"])
def test_null_join_keys_match_nothing(text):
    """MAX over no rows is NULL, and NULL = NULL is not true: the engine,
    the reference evaluator and SQLite all find no match."""
    db = Database(ClusterConfig(n_workers=2, n_max=4, page_size=16 * 1024))
    lite = sqlite3.connect(":memory:")
    for stmt in ("create table t (a integer, b integer)", "insert into t values (1, 2), (3, 4)"):
        db.sql(stmt)
        lite.execute(stmt)
    want = lite.execute(text).fetchall()
    assert want == [(0,)]
    assert db.sql(text).rows() == want
    assert db.execute_reference(text).rows() == want


SRC = Path(repro.__file__).parent
REFERENCE = "repro.core.reference"


def _reference_imports(path: Path) -> set[tuple[str, str | None]]:
    """(module path, enclosing function or None) of every import of
    ``repro.core.reference`` in one source file."""
    package = ("repro",) + path.relative_to(SRC).parent.parts
    rel = str(path.relative_to(SRC))
    found: set[tuple[str, str | None]] = set()

    def visit(node: ast.AST, fn: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom):
                base = package[: len(package) - child.level + 1] if child.level else ()
                mod = ".".join(base + ((child.module,) if child.module else ()))
                names = {mod} | {f"{mod}.{a.name}" for a in child.names}
            elif isinstance(child, ast.Import):
                names = {a.name for a in child.names}
            else:
                names = set()
            if any(n == REFERENCE or n.startswith(REFERENCE + ".") for n in names):
                found.add((rel, fn))
            visit(child, fn)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_engine_does_not_import_the_reference_evaluator():
    """Nothing the engine runs loads ``core/reference.py``: its one
    importer is ``Database.execute_reference``, the oracle's entry point,
    and only when that is called."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        if path != SRC / "core" / "reference.py":
            found |= _reference_imports(path)
    assert found == {("cluster/database.py", "execute_reference")}
