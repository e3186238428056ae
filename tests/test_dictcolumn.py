"""The one string-column representation: codes + a shared dictionary.

Whatever the dictionary looks like — the rows themselves (a wrapped
array), shuffled entries with duplicates, two dictionaries glued by
``concat`` — every ``RowBatch`` operation and kernel must give the rows,
the order and the hashes a plain list of Python strings gives, checked
here against pure-Python references. Plus the wire format (fixtures
written by the commit before this representation existed), dictionary
sharing, and a counting test that the engine never sorts, hashes or
UTF-8-encodes more strings than a column's dictionary holds.
"""

from __future__ import annotations

import struct
import threading
from collections import defaultdict
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.common import DataType, RowBatch, Schema
from repro.common import batch as batch_mod
from repro.common.batch import DictColumn, StringDictionary, hash_value_arrays
from repro.core.kernels import (
    JoinHashTable,
    factorize,
    group_aggregate,
    group_count_distinct,
    sort_indices,
    top_k,
)
from repro.sql import parse
from repro.sql.compiler import compile_expr
from repro.storage import col_page
from repro.workloads import tpch_queries

from tests.conftest import TPCH_SF, load_tpch, rows_match_unordered

SCHEMA = Schema.of(("k", DataType.INT64), ("s", DataType.STRING))

WORDS = ["pear", "", "Apple", "apple", "zèbre", "日本語", "fig\x00", "a b", "fig", "Zed"]


def strings(n: int, seed: int, pool=WORDS) -> list[str]:
    rng = np.random.default_rng(seed)
    return [pool[i] for i in rng.integers(0, len(pool), n)]


def messy_column(values: list, seed: int) -> DictColumn:
    """The same rows over an unsorted dictionary with duplicate entries
    and one entry nothing references."""
    rng = np.random.default_rng(seed)
    entries = list(dict.fromkeys(values)) * 2 + ["never referenced"]
    order = rng.permutation(len(entries))
    entries = [entries[i] for i in order]
    slots = defaultdict(list)
    for i, e in enumerate(entries):
        slots[e].append(i)
    codes = np.array([slots[v][rng.integers(0, 2)] for v in values], dtype=np.uint32)
    return DictColumn(codes, StringDictionary(entries))


def layouts(values: list, seed: int = 0) -> dict[str, RowBatch]:
    """One logical batch, in every physical layout of its string column."""
    n = len(values)
    keys = np.arange(n, dtype=np.int64)
    plain = np.empty(n, dtype=object)
    plain[:] = values
    out = {
        "wrapped": RowBatch(SCHEMA, {"k": keys, "s": plain}),
        "messy": RowBatch(SCHEMA, {"k": keys, "s": messy_column(values, seed)}),
    }
    if n >= 2:
        h = n // 2
        first = RowBatch(SCHEMA, {"k": keys[:h], "s": messy_column(values[:h], seed + 1)})
        second = RowBatch(SCHEMA, {"k": keys[h:], "s": plain[h:]})
        out["two dictionaries"] = RowBatch.concat(SCHEMA, [first, second])
    return out


CASES = {
    "mixed": strings(300, 1),
    "low cardinality": strings(500, 2, ["N", "A", "R"]),
    "all distinct": [f"c{i:05d}" for i in np.random.default_rng(3).permutation(400)],
    "empty batch": [],
    "one row": ["solo"],
    "non-ascii": strings(200, 4, ["é", "e", "ß", "ss", "日本", "日本語", ""]),
    "nul-terminated": strings(120, 5, ["x\x00", "x", "x\x00\x00", "\x00"]),
}


def ref_hash(values: list[str]) -> list[int]:
    """hash_codes(["s"]) from the scalar FNV reference."""
    fnv = np.array([batch_mod._fnv1a(s) for s in values], dtype=np.uint64)
    return hash_value_arrays([fnv.view(np.int64)], len(values)).tolist()


@pytest.mark.parametrize("name", CASES)
class TestSameAsPlainStrings:
    def test_rows_and_row_preserving_ops(self, name):
        values = CASES[name]
        n = len(values)
        rng = np.random.default_rng(7)
        mask = rng.random(n) < 0.4
        idx = rng.integers(0, n, 2 * n) if n else np.zeros(0, dtype=np.int64)
        for layout, b in layouts(values).items():
            assert b.col("s").tolist() == values, layout
            assert [r[1] for r in b.rows()] == values, layout
            assert b.filter(mask).col("s").tolist() == [v for v, m in zip(values, mask) if m]
            assert b.take(idx).col("s").tolist() == [values[i] for i in idx]
            assert b.slice(3, 50).col("s").tolist() == values[3:50]
            # slices share the dictionary by identity
            assert b.take(idx).col("s").dictionary is b.col("s").dictionary
            both = RowBatch.concat(SCHEMA, [b, b.slice(0, 10)])
            assert both.col("s").tolist() == values + values[:10]

    def test_hash_and_partition(self, name):
        values = CASES[name]
        want = ref_hash(values)
        for layout, b in layouts(values).items():
            assert b.hash_codes(["s"]).tolist() == want, layout
            parts = b.partition(["s"], 3)
            for p, part in enumerate(parts):
                got = list(zip(part.col("k").tolist(), part.col("s").tolist()))
                assert got == [(i, v) for i, v in enumerate(values) if want[i] % 3 == p]

    def test_factorize_and_sort(self, name):
        values = CASES[name]
        ranks = {v: r for r, v in enumerate(sorted(set(values)))}
        for layout, b in layouts(values).items():
            codes, n_groups = factorize([b.col("s")])
            assert n_groups == len(ranks), layout
            assert codes.tolist() == [ranks[v] for v in values], layout
            # composite with an integer key: (s, k % 3) in tuple order
            pairs = sorted({(v, i % 3) for i, v in enumerate(values)})
            codes2, n2 = factorize([b.col("s"), b.col("k") % 3])
            assert n2 == len(pairs)
            assert codes2.tolist() == [pairs.index((v, i % 3)) for i, v in enumerate(values)]
            for asc in (True, False):
                order = sort_indices(b, [("s", asc), ("k", True)])
                want = sorted(
                    range(len(values)),
                    key=lambda i: (ranks[values[i]] * (1 if asc else -1), i),
                )
                assert order.tolist() == want, (layout, asc)
            top = top_k(b, [("s", False), ("k", True)], 5)
            assert top.col("s").tolist() == sorted(values, reverse=True)[:5]

    def test_joins(self, name):
        left = CASES[name]
        right = strings(40, 11, WORDS + ["only right"]) + left[:7]
        want = [(i, j) for i, lv in enumerate(left) for j, rv in enumerate(right) if lv == rv]
        for llay, lb in layouts(left, 20).items():
            for rlay, rb in layouts(right, 21).items():
                pi, bi = JoinHashTable([rb.col("s")]).match_indices([lb.col("s")])
                assert list(zip(pi.tolist(), bi.tolist())) == want, (llay, rlay)
        # a probe column sharing the build column's dictionary
        shared = layouts(right, 22)["messy"]
        probe = shared.take(np.arange(shared.length)[::-1])
        pi, bi = JoinHashTable([shared.col("s")]).match_indices([probe.col("s")])
        rev = right[::-1]
        assert list(zip(pi.tolist(), bi.tolist())) == [
            (i, j) for i, lv in enumerate(rev) for j, rv in enumerate(right) if lv == rv
        ]

    def test_aggregates(self, name):
        values = CASES[name]
        n = len(values)
        groups = np.arange(n, dtype=np.int64) % 4
        by_group = defaultdict(list)
        for g, v in zip(groups.tolist(), values):
            by_group[g].append(v)
        for layout, b in layouts(values).items():
            col = b.col("s")
            got_min = group_aggregate(groups, 5, "MIN", col).tolist()
            got_max = group_aggregate(groups, 5, "MAX", col).tolist()
            assert got_min == [min(by_group[g]) if by_group[g] else None for g in range(5)]
            assert got_max == [max(by_group[g]) if by_group[g] else None for g in range(5)]
            distinct = group_count_distinct(groups, 5, col).tolist()
            assert distinct == [len(set(by_group[g])) for g in range(5)], layout

    def test_compiled_string_expressions(self, name):
        values = CASES[name]
        checks = {
            "s = 'apple'": lambda v: v == "apple",
            "s <> 'fig'": lambda v: v != "fig",
            "s >= 'b'": lambda v: v >= "b",
            "'b' > s": lambda v: "b" > v,
            "s between 'A' and 'f'": lambda v: "A" <= v <= "f",
            "s in ('fig', 'N', 'zèbre')": lambda v: v in ("fig", "N", "zèbre"),
            "s like 'a%'": lambda v: v.startswith("a") and "\n" not in v,
            "s not like '%e'": lambda v: not (v.endswith("e") and "\n" not in v),
            "substring(s from 1 for 2) = 'fi'": lambda v: v[:2] == "fi",
        }
        for layout, b in layouts(values).items():
            for text, ref in checks.items():
                fn = compile_expr(parse(f"select 1 from t where {text}").where, SCHEMA).fn
                assert np.asarray(fn(b)).tolist() == [ref(v) for v in values], (layout, text)
            sub = compile_expr(parse("select substring(s from 2 for 3) from t").items[0].expr, SCHEMA)
            assert sub.fn(b).tolist() == [v[1:4] for v in values], layout
            case = compile_expr(
                parse("select case when k % 2 = 0 then s else 'odd' end from t").items[0].expr, SCHEMA
            )
            assert case.fn(b).tolist() == [v if i % 2 == 0 else "odd" for i, v in enumerate(values)]

    def test_wire_round_trip(self, name):
        values = CASES[name]
        for layout, b in layouts(values).items():
            back = RowBatch.from_bytes(b.to_bytes())
            assert back.col("s").tolist() == values, layout
            assert back.col("k").tolist() == b.col("k").tolist()
            assert isinstance(back.col("s"), DictColumn)


class TestColumnComparisons:
    def test_column_against_column(self):
        left, right = strings(200, 30), strings(200, 31)
        for lb in layouts(left, 32).values():
            for rb in layouts(right, 33).values():
                assert (lb.col("s") == rb.col("s")).tolist() == [a == b for a, b in zip(left, right)]
                assert (lb.col("s") < rb.col("s")).tolist() == [a < b for a, b in zip(left, right)]
        plain = np.empty(200, dtype=object)
        plain[:] = right
        col = layouts(left, 34)["messy"].col("s")
        assert (col >= plain).tolist() == [a >= b for a, b in zip(left, right)]
        assert (plain == col).tolist() == [a == b for a, b in zip(left, right)]


class TestNullEntries:
    """None is the NULL a string MIN/MAX yields over no rows."""

    VALUES = ["b", None, "a", None, "c", "a"]

    def batch(self) -> RowBatch:
        return RowBatch(SCHEMA, {"k": np.arange(6), "s": messy_column(self.VALUES, 40)})

    def test_rows_sort_group_and_wire(self):
        b = self.batch()
        assert b.col("s").tolist() == self.VALUES
        # NULL sorts first ascending, last descending
        assert b.take(sort_indices(b, [("s", True)])).col("s").tolist() == [None, None, "a", "a", "b", "c"]
        assert b.take(sort_indices(b, [("s", False)])).col("s").tolist() == ["c", "b", "a", "a", None, None]
        codes, n = factorize([b.col("s")])
        assert n == 4 and codes.tolist() == [2, 0, 1, 0, 3, 1]
        wire = b.to_bytes()
        assert RowBatch.from_bytes(wire).col("s").tolist() == self.VALUES

    def test_null_never_wins_min_max_nor_joins(self):
        col = self.batch().col("s")
        groups = np.array([0, 0, 0, 1, 2, 2])
        assert group_aggregate(groups, 4, "MIN", col).tolist() == ["a", None, "a", None]
        assert group_aggregate(groups, 4, "MAX", col).tolist() == ["b", None, "c", None]
        pi, bi = JoinHashTable([col]).match_indices([messy_column(["a", None, "zz"], 41)])
        assert list(zip(pi.tolist(), bi.tolist())) == [(0, 2), (0, 5)]


class TestMinMaxResultIsAnOrdinaryColumn:
    """A string MIN/MAX over many groups of few distinct values goes on
    into whatever the query does next: hashed for a shuffle, filtered,
    grouped again, joined."""

    VALUES = strings(600, 42, ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"])

    def result(self, n_groups: int, func: str = "MIN") -> tuple[RowBatch, list]:
        groups = np.arange(600, dtype=np.int64) % 150
        col = group_aggregate(groups, n_groups, func, layouts(self.VALUES, 43)["messy"].col("s"))
        pick = min if func == "MIN" else max
        want = [pick(self.VALUES[g::150]) if g < 150 else None for g in range(n_groups)]
        return RowBatch(SCHEMA, {"k": np.arange(n_groups), "s": col}), want

    def check_as_strings(self, b: RowBatch, want: list[str]):
        assert b.col("s").tolist() == want
        assert b.hash_codes(["s"]).tolist() == ref_hash(want)
        assert sum(p.length for p in b.partition(["s"], 3)) == len(want)
        checks = {
            "s like '1%'": lambda v: v.startswith("1"),
            "s < '3'": lambda v: v < "3",
            "s in ('2-HIGH', 'x')": lambda v: v == "2-HIGH",
            "substring(s from 3 for 2) = 'HI'": lambda v: v[2:4] == "HI",
        }
        for text, ref in checks.items():
            fn = compile_expr(parse(f"select 1 from t where {text}").where, SCHEMA).fn
            assert np.asarray(fn(b)).tolist() == [ref(v) for v in want], text
        ranks = {v: r for r, v in enumerate(sorted(set(want)))}
        codes, n = factorize([b.col("s")])
        assert n == len(ranks) and codes.tolist() == [ranks[v] for v in want]
        pi, bi = JoinHashTable([b.col("s")]).match_indices([np.array(["2-HIGH"], dtype=object)])
        assert bi.tolist() == [i for i, v in enumerate(want) if v == "2-HIGH"]
        assert RowBatch.from_bytes(b.to_bytes()).col("s").tolist() == want

    @pytest.mark.parametrize("func", ["MIN", "MAX"])
    def test_every_group_has_rows(self, func):
        b, want = self.result(150, func)
        assert len(b.col("s")) > len(b.col("s").dictionary)  # more groups than values
        assert not b.col("s").dictionary.has_null
        self.check_as_strings(b, want)

    def test_null_groups_filtered_out_leave_an_unreferenced_null_entry(self):
        b, want = self.result(160)
        assert want[150:] == [None] * 10 and b.col("s").tolist() == want
        assert b.col("s").dictionary.has_null
        kept = b.filter(np.arange(160) < 150)
        assert kept.col("s").dictionary is b.col("s").dictionary
        self.check_as_strings(kept, want[:150])


class TestWideIntegerKeys:
    def test_composite_of_keys_spanning_2_to_the_61_does_not_wrap(self):
        n = 1 << 12
        rng = np.random.default_rng(70)
        step = (1 << 61) // n
        wide = [rng.permutation(n).astype(np.int64) * step - (1 << 60) for _ in range(3)]
        keys = [wide[0], np.arange(n, dtype=np.int64) % 7, wide[1], wide[2]]
        codes, groups = factorize(keys)
        assert groups == n
        # codes are the rank of each key tuple in tuple order
        assert np.array_equal(np.argsort(codes), np.lexsort(keys[::-1]))


class TestDecodedPageCache:
    """A fragment scan hands out the cached column's codes + dictionary;
    the cache holds, and is charged for, those only."""

    @staticmethod
    def scan_twice(values: list[str]):
        """Load ``values`` as a one-page string column and scan it twice,
        memoising the first scan's row strings: (page, first, second,
        the worker's decoded cache)."""
        from repro.storage.buffer import BufferManager
        from repro.storage.table import TableStorage
        from repro.util.fs import MemFS

        schema = Schema.of(("s", DataType.STRING))
        t = TableStorage(MemFS(), BufferManager(4, 64), "t", schema, page_size=64 * 1024)
        t.load(RowBatch(schema, {"s": values}))
        [frag] = t.fragments
        assert len(frag.sets) == 1
        [first] = [b.col("s") for b in t.scan(["s"])]
        first.tolist()
        [second] = [b.col("s") for b in t.scan(["s"])]
        return frag.bufmgr.get(frag.path, 0), first, second, frag.bufmgr.decoded

    def test_row_strings_are_memoised_on_the_scan_s_column_not_the_cache_s(self):
        values = strings(400, 80, ["N", "A", "R"])
        page, first, second, _ = self.scan_twice(values)
        assert col_page.is_dict_page(page)
        assert second is not first and second._decoded is None
        assert second.codes is first.codes and second.dictionary is first.dictionary
        assert second.tolist() == values

    def test_a_plain_page_is_charged_once(self):
        values = [f"name#{i:05d}" for i in range(300)]
        page, _, second, cache = self.scan_twice(values)
        assert not col_page.is_dict_page(page)
        assert second.tolist() == values
        # one entry, the fragment column, holds the cache's every byte:
        # no dictionary entry (keyed by its blob) beside it
        [key] = cache._d
        fc = cache.lookup(key)
        assert not isinstance(key, bytes)
        assert cache.bytes == col_page.decoded_nbytes(fc.values) + fc.encoded.nbytes > 0
        # the page's values are its dictionary: decoding it gathers nothing
        col = col_page.decode_page(page, DataType.STRING, len(values))
        assert col.decode() is col.dictionary.values


class TestBigDictionary:
    def test_more_than_65535_entries(self):
        n = 70_000
        values = [f"v{i:06d}" for i in np.random.default_rng(50).permutation(n)]
        b = layouts(values, 51)["messy"]
        assert len(b.col("s").dictionary) > 0xFFFF
        codes, groups = factorize([b.col("s")])
        assert groups == n and codes[:100].tolist() == [int(v[1:]) for v in values[:100]]
        assert b.hash_codes(["s"])[:50].tolist() == ref_hash(values[:50])
        back = RowBatch.from_bytes(b.slice(0, 66_000).to_bytes())
        assert back.col("s").tolist() == values[:66_000]


class TestDictionarySharing:
    def test_concat_of_gathered_slices_keeps_one_dictionary(self):
        source = layouts(strings(4096, 60), 61)["messy"]
        rng = np.random.default_rng(62)
        pieces = [source.take(np.sort(rng.integers(0, 4096, 64))) for _ in range(64)]
        merged = RowBatch.concat(SCHEMA, pieces)
        assert merged.col("s").dictionary is source.col("s").dictionary
        assert merged.col("s").tolist() == [v for p in pieces for v in p.col("s").tolist()]

    def test_concat_compacts_an_outgrown_dictionary(self):
        wide = layouts([f"w{i}" for i in range(5000)], 63)["wrapped"]
        other = layouts(strings(10, 64), 65)["wrapped"]
        merged = RowBatch.concat(SCHEMA, [wide.slice(100, 104), other])
        assert len(merged.col("s").dictionary) == 4 + 10
        assert merged.col("s").tolist() == [f"w{i}" for i in range(100, 104)] + other.col("s").tolist()

    def test_canonical_form_is_memoised_on_the_dictionary(self):
        b = layouts(strings(1000, 66), 67)["messy"]
        d = b.col("s").dictionary
        factorize([b.filter(np.arange(1000) % 2 == 0).col("s")])
        canon = d.canon()
        sort_indices(b.slice(10, 500), [("s", True)])
        assert d.canon() is canon


#: RowBatch.to_bytes() of the commit before DictColumn, one per string encoding
FIXTURES = {
    "_ENC_RAW": (
        "52423032030000000200010000006b180000000100000000000000020000000000000003000000"
        "00000000010004007317000000000000000100000007000000070000006268c3a96c6c6f",
        [(1, "b"), (2, "héllo"), (3, "")],
    ),
    "_ENC_DICT": (
        "524230324000000001000100040173170100000300000000000000010000000200000003000000"
        "414e52" + "01000000000000000200000000000000" * 16,
        [(v,) for v in ["N", "A", "R", "A"] * 16],
    ),
    "_ENC_NULLS": (
        "5242303203000000010001000402731600000000010000000000010000000100000003000000787a7a",
        [("x",), (None,), ("zz",)],
    ),
}


@pytest.mark.parametrize("enc", FIXTURES)
def test_frames_written_before_this_representation_still_decode(enc):
    blob, rows = FIXTURES[enc]
    batch = RowBatch.from_bytes(bytes.fromhex(blob))
    assert batch.rows() == rows
    s = batch.col("s")
    assert isinstance(s, DictColumn) and s.codes.dtype == np.uint32
    # and what we write for the same rows reads back the same
    assert RowBatch.from_bytes(batch.to_bytes()).rows() == rows


# ---------------------------------------------------------------------------
# nothing between scan and final gather works on row-count-many strings
# ---------------------------------------------------------------------------


class _StringWork:
    """Wraps the primitives that touch Python strings one by one (object
    sorts, the bulk FNV, the UTF-8 matrix encoder, ``decode``) and the
    entry-level operations that may call them. Every primitive call must
    happen inside such an operation, on no more strings than that
    operation's dictionary holds."""

    def __init__(self):
        self.local = threading.local()
        self.calls: list[tuple[str, int, int | None]] = []
        self.patches = [
            mock.patch.object(np, "unique", self.primitive("np.unique", np.unique)),
            mock.patch.object(np, "argsort", self.primitive("np.argsort", np.argsort)),
            mock.patch.object(batch_mod, "_fnv1a_bulk", self.primitive("_fnv1a_bulk", batch_mod._fnv1a_bulk)),
            mock.patch.object(batch_mod, "_utf8_matrix", self.primitive("_utf8_matrix", batch_mod._utf8_matrix)),
            mock.patch.object(DictColumn, "decode", self.decode(DictColumn.decode)),
            mock.patch.object(RowBatch, "decoded", self.scope(RowBatch.decoded, lambda b: b.length)),
            mock.patch.object(
                batch_mod, "_encode_string_column",
                self.scope(batch_mod._encode_string_column, lambda c: len(c.dictionary)),
            ),
        ]
        for cls, method in (
            (StringDictionary, "canon"), (StringDictionary, "fnv"), (StringDictionary, "utf8"),
            (DictColumn, "hashes"),
            (DictColumn, "map_entries"), (DictColumn, "map_values"),
        ):
            size = len if cls is StringDictionary else (lambda c: len(c.dictionary))
            self.patches.append(mock.patch.object(cls, method, self.scope(getattr(cls, method), size)))

    def bound(self) -> int | None:
        stack = getattr(self.local, "stack", None)
        return stack[-1] if stack else None

    def scope(self, fn, size_of):
        def wrapper(obj, *args, **kwargs):
            stack = self.local.__dict__.setdefault("stack", [])
            stack.append(size_of(obj))
            try:
                return fn(obj, *args, **kwargs)
            finally:
                stack.pop()

        return wrapper

    def primitive(self, name, fn):
        def wrapper(arr, *args, **kwargs):
            if getattr(arr, "dtype", None) == object:
                self.calls.append((name, len(arr), self.bound()))
            return fn(arr, *args, **kwargs)

        return wrapper

    def decode(self, fn):
        def wrapper(col):
            if col._decoded is None:
                self.calls.append(("decode", len(col), self.bound()))
            return fn(col)

        return wrapper

    @contextmanager
    def watching(self):
        for p in self.patches:
            p.start()
        try:
            yield self
        finally:
            for p in reversed(self.patches):
                p.stop()


@pytest.fixture(scope="module")
def counting_db(tpch_data):
    return load_tpch(tpch_data)


@pytest.mark.parametrize("q", [1, 10, 16, 18])
def test_no_operator_touches_more_strings_than_the_dictionary_holds(counting_db, q):
    text = tpch_queries.query(q, TPCH_SF)
    want = counting_db.execute_reference(text).rows()
    with _StringWork().watching() as work:
        result = counting_db.sql(text)
        # the one decode ran before sql() returned
        decoded_before = len(work.calls)
        got = result.rows()
        assert len(work.calls) == decoded_before
    assert rows_match_unordered(got, want)
    assert any(name == "decode" for name, _, _ in work.calls) or not result.batch.length
    for name, n_strings, bound in work.calls:
        assert bound is not None, f"{name} on {n_strings} strings outside any per-entry operation"
        assert n_strings <= bound, f"{name} on {n_strings} strings, dictionary holds {bound}"


@pytest.mark.parametrize(
    "text",
    [
        "select o_custkey, min(o_orderpriority) as m from orders group by o_custkey "
        "having min(o_orderpriority) like '1%' order by o_custkey",
        "select m, count(*) from (select o_custkey as k, min(o_orderpriority) as m "
        "from orders group by o_custkey) as t group by m order by m",
        "select o_custkey, max(o_clerk) as m from orders group by o_custkey "
        "having max(o_clerk) > 'Clerk#000000010' and substring(max(o_clerk) from 1 for 5) = 'Clerk' "
        "order by o_custkey",
    ],
)
def test_a_string_min_max_is_filtered_and_regrouped(counting_db, text):
    """More groups than distinct values: per-entry evaluation runs over
    the MIN/MAX output's dictionary, and the shuffle hashes it."""
    got = counting_db.sql(text).rows()
    assert got and got == counting_db.execute_reference(text).rows()


# ---------------------------------------------------------------------------
# the wire's UTF-8 face
# ---------------------------------------------------------------------------


def _column(values) -> DictColumn:
    return layouts(list(values))["wrapped"].col("s")


def _utf8_len(values) -> int:
    return sum(len(v.encode()) for v in values)


class TestUtf8Face:
    RAW = [f"日本{i}\x00x" for i in range(40)] + ["", "é"]
    FRAME = ["é", "", "a\x00b", "zz"] * 60

    @pytest.mark.parametrize(
        "values, enc",
        [(RAW, batch_mod._ENC_RAW), (FRAME, batch_mod._ENC_DICT)],
        ids=["raw", "frame"],
    )
    def test_raw_and_frame_round_trip(self, values, enc):
        col = _column(values)
        got_enc, payload = batch_mod._encode_string_column(col)
        assert got_enc == enc
        back = batch_mod._decode_string_column(payload, len(values), got_enc)
        assert back.tolist() == values

    def test_null_mask_frame_round_trips(self):
        d = StringDictionary(["x\x00", None, "", "日本"])
        col = DictColumn(np.array([0, 1, 2, 3, 1, 0], dtype=np.uint32), d)
        enc, payload = batch_mod._encode_string_column(col)
        assert enc == batch_mod._ENC_NULLS
        back = batch_mod._decode_string_column(payload, 6, enc)
        assert back.tolist() == ["x\x00", None, "", "日本", None, "x\x00"]

    @pytest.mark.parametrize("built", ["none", "part", "appended"])
    def test_a_null_appended_to_received_bytes_stays_null(self, built):
        """A NULL-bearing dictionary (a string MIN/MAX over no rows)
        appended to one received off the wire keeps its NULL through
        ``take``, ``unify``'s compaction and the encoder, whether or not
        a UTF-8 face (which writes the NULL as empty) was built first, on
        the part or on the appended dictionary."""
        nulls = StringDictionary(["a", None])
        if built == "part":
            nulls.utf8()
        sent = DictColumn(np.array([0, 1, 1, 0], dtype=np.uint32), StringDictionary(["p", "q"]))
        enc, payload = batch_mod._encode_string_column(sent)
        received = batch_mod._decode_string_column(payload, 4, enc)
        assert received.dictionary._values is None
        merged = StringDictionary.concat([nulls, received.dictionary])
        if built == "appended":
            merged.utf8()
        assert merged.has_null
        taken = merged.take(np.array([1, 2, 0]))
        assert taken.has_null and list(taken.values) == [None, "p", "a"]
        # a big dictionary under few rows: unify keeps only referenced entries
        wide = DictColumn(np.array([1, 2], dtype=np.uint32), StringDictionary.concat([merged] * 20))
        (one, _) = DictColumn.unify([wide, received])
        assert len(one.dictionary) < len(wide.dictionary)
        assert one.tolist() == [None, "p"]
        # under a quarter of the entries referenced and no UTF-8 face
        col = DictColumn(np.array([1, 1], dtype=np.uint32), StringDictionary.concat([merged] * 20))
        enc, payload = batch_mod._encode_string_column(col)
        assert enc == batch_mod._ENC_NULLS
        assert batch_mod._decode_string_column(payload, 2, enc).tolist() == [None, None]

    @pytest.mark.parametrize("values", [RAW, FRAME], ids=["raw", "frame"])
    def test_a_received_dictionary_goes_onward_as_bytes(self, values):
        """Decoding keeps the bytes; hashing, appending and re-encoding a
        received column never build its strings."""
        sent = layouts(list(values))["wrapped"]
        one, two = RowBatch.from_bytes(sent.to_bytes()), RowBatch.from_bytes(sent.to_bytes())
        merged = RowBatch.concat(SCHEMA, [one, two.filter(np.arange(len(values)) % 3 == 0)])
        want = values + [v for i, v in enumerate(values) if i % 3 == 0]
        hashes = merged.hash_codes(["s"]).tolist()
        again = RowBatch.from_bytes(merged.to_bytes())
        for d in (one.col("s").dictionary, two.col("s").dictionary, merged.col("s").dictionary):
            assert d._values is None
        assert hashes == ref_hash(want)
        assert again.col("s").tolist() == want

    @pytest.mark.parametrize("name", CASES)
    def test_fnv_from_bytes_equals_fnv_from_strings(self, name):
        values = list(dict.fromkeys(CASES[name]))
        from_str = StringDictionary(values)
        from_bytes = StringDictionary(utf8=batch_mod._utf8_face(np.array(values + [""], dtype=object)[:-1]))
        ref = [batch_mod._fnv1a(s) for s in values]
        assert from_bytes.fnv().tolist() == ref
        assert from_str.fnv().tolist() == ref
        assert from_bytes._values is None

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 16, 64])
    @pytest.mark.parametrize("width", [0, 1, 2, 4, 8, 30])
    @pytest.mark.parametrize("distinct", [1, 2, 8])
    def test_a_frame_is_chosen_exactly_when_it_is_smaller(self, n, width, distinct):
        """Over a dictionary of distinct entries (plus one no row uses), the
        frame holds the referenced entries and one uint32 code a row."""
        entries = [chr(ord("a") + i) * width + f"{i}" * (width > 0) for i in range(distinct)]
        codes = np.arange(n, dtype=np.uint32) % distinct
        values = [entries[i] for i in codes]
        used = list(dict.fromkeys(values))
        raw = 4 * (n + 1) + _utf8_len(values)
        frame = 4 + 4 * (len(used) + 1) + _utf8_len(used) + 4 * n
        col = DictColumn(codes, StringDictionary(entries + ["unused"]))
        enc, payload = batch_mod._encode_string_column(col)
        assert enc == (batch_mod._ENC_DICT if frame < raw else batch_mod._ENC_RAW)
        assert len(payload) == min(frame, raw)

    def test_repeated_appended_entries_merge_into_one_frame(self):
        """Page dictionaries appended repeat their entries; the encoder
        merges equal entries (by bytes) before it sizes the frame."""
        pages = [StringDictionary(["PROMO BRUSHED", "STANDARD", "é"]) for _ in range(40)]
        d = StringDictionary.concat(pages)
        col = DictColumn(np.arange(len(d), dtype=np.uint32), d)
        enc, payload = batch_mod._encode_string_column(col)
        assert enc == batch_mod._ENC_DICT
        assert struct.unpack_from("<I", payload)[0] == 3
        assert batch_mod._decode_string_column(payload, len(d), enc).tolist() == list(d.values)


def test_like_runs_once_per_dictionary_entry():
    """A LIKE mask is memoised on the dictionary: evaluating the pattern
    on several batches over one dictionary matches each entry once."""
    import re

    from repro.sql import compiler as compiler_mod
    from repro.sql.parser import parse_expr

    real_compile = re.compile
    calls = []

    class Counting:
        def __init__(self, rx):
            self.rx, self.pattern = rx, rx.pattern

        def match(self, s):
            calls.append(s)
            return self.rx.match(s)

    entries = [f"w{i} special x requests" if i % 3 else f"w{i}" for i in range(50)]
    d = StringDictionary(entries)
    rng = np.random.default_rng(7)
    with mock.patch.object(compiler_mod.re, "compile", lambda p: Counting(real_compile(p))):
        pred = compile_expr(parse_expr("s not like '%special%requests%'"), SCHEMA)
    want = np.array([not ("special" in e) for e in entries])
    for _ in range(3):
        codes = rng.integers(0, 50, 400).astype(np.uint32)
        batch = RowBatch(SCHEMA, {"k": np.arange(400), "s": DictColumn(codes, d)})
        assert (pred.fn(batch) == want[codes]).all()
    # fewer rows than entries read the memo too
    few = RowBatch(SCHEMA, {"k": np.arange(3), "s": DictColumn(np.array([4, 0, 4], np.uint32), d)})
    assert pred.fn(few).tolist() == want[[4, 0, 4]].tolist()
    assert len(calls) == len(entries)
