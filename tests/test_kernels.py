"""Vectorized kernel tests with brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import DataType, RowBatch, Schema
from repro.common.batch import DictColumn
from repro.core.aggregate import aggregate_batch
from repro.core.kernels import (
    JoinHashTable,
    bloom_filter_codes,
    bloom_filter_test,
    factorize,
    first_occurrence,
    group_aggregate,
    group_count_distinct,
    group_sum_distinct,
    hash_join,
    join_rows,
    merge_sorted,
    sort_indices,
    top_k,
)
from repro.optimizer.logical import AggSpec
from repro.sql.ast import BinaryOp, ColumnRef


def nested_loop(probe, build):
    """Every (probe row, build row) pair with equal key tuples, in
    probe-major order with build rows in their original order."""
    return [
        (i, j)
        for i, p in enumerate(zip(*[c.tolist() for c in probe]))
        for j, b in enumerate(zip(*[c.tolist() for c in build]))
        if p == b
    ]


def matched(build, probe):
    pi, bi = JoinHashTable(build).match_indices(probe)
    return list(zip(pi.tolist(), bi.tolist()))


class TestFactorize:
    def test_exact_codes(self):
        codes, n = factorize([np.array([5, 3, 5, 7])])
        assert n == 3
        assert codes[0] == codes[2] and len(set(codes.tolist())) == 3

    def test_composite(self):
        codes, n = factorize([np.array([1, 1, 2]), np.array(["a", "b", "a"], object)])
        assert n == 3

    def test_pair_shared_dictionary(self):
        # a value on both sides matches; one on a single side matches nothing
        assert matched([np.array([3, 4])], [np.array([1, 2, 3])]) == [(2, 0)]

    def test_pair_strings(self):
        build, probe = [np.array(["y", "z"], object)], [np.array(["x", "y"], object)]
        assert matched(build, probe) == [(1, 0)]

    def test_empty(self):
        codes, n = factorize([np.array([], dtype=np.int64)])
        assert n == 0 and len(codes) == 0


class TestJoinIndices:
    def test_all_pairs(self):
        build, probe = [np.array([2, 2, 3])], [np.array([1, 2, 2])]
        assert matched(build, probe) == [(1, 0), (1, 1), (2, 0), (2, 1)]

    def test_no_matches(self):
        assert matched([np.array([2])], [np.array([1])]) == []


@settings(max_examples=60, deadline=None)
@given(
    left=st.lists(st.integers(0, 8), min_size=0, max_size=30),
    right=st.lists(st.integers(0, 8), min_size=0, max_size=30),
)
def test_join_matches_bruteforce(left, right):
    probe, build = [np.array(left, np.int64)], [np.array(right, np.int64)]
    assert matched(build, probe) == nested_loop(probe, build)


class TestGroupAggregate:
    def test_sum_count(self):
        codes = np.array([0, 1, 0, 1, 1])
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert group_aggregate(codes, 2, "SUM", vals).tolist() == [4.0, 11.0]
        assert group_aggregate(codes, 2, "COUNT", None).tolist() == [2, 3]

    def test_count_with_validity(self):
        codes = np.array([0, 0, 1])
        valid = np.array([True, False, True])
        assert group_aggregate(codes, 2, "COUNT", None, valid).tolist() == [1, 1]

    def test_min_max(self):
        codes = np.array([1, 0, 1, 0])
        vals = np.array([5.0, 2.0, -1.0, 8.0])
        assert group_aggregate(codes, 2, "MIN", vals).tolist() == [2.0, -1.0]
        assert group_aggregate(codes, 2, "MAX", vals).tolist() == [8.0, 5.0]

    def test_min_max_strings(self):
        codes = np.array([0, 0, 1])
        vals = np.array(["b", "a", "z"], object)
        assert group_aggregate(codes, 2, "MIN", vals).tolist() == ["a", "z"]

    def test_avg(self):
        codes = np.array([0, 0])
        vals = np.array([1.0, 3.0])
        assert group_aggregate(codes, 1, "AVG", vals).tolist() == [2.0]

    def test_int_sum_stays_int(self):
        codes = np.array([0])
        out = group_aggregate(codes, 1, "SUM", np.array([5], np.int64))
        assert out.dtype == np.int64

    def test_int_sum_exact_beyond_2_53(self):
        """float64 has 53 mantissa bits; the old bincount(weights=...)
        path silently rounded int64 sums past 2**53."""
        codes = np.array([0, 0, 1, 1])
        big = 2**53
        vals = np.array([big, 1, big, 3], np.int64)
        out = group_aggregate(codes, 2, "SUM", vals)
        assert out.dtype == np.int64
        assert out.tolist() == [big + 1, big + 3]

    def test_sum_distinct_int_exact(self):
        codes = np.array([0, 0, 0])
        vals = np.array([2**53, 2**53, 1], np.int64)
        out = group_sum_distinct(codes, 1, vals)
        assert out.tolist() == [2**53 + 1]

    def test_avg_empty_group_is_null(self):
        """A group with no qualifying rows yields NULL (NaN), not 0."""
        codes = np.array([0, 0])
        vals = np.array([1.0, 3.0])
        valid = np.array([False, False])
        out = group_aggregate(codes, 2, "AVG", vals, valid)
        assert np.isnan(out).all()

    def test_min_max_empty_group_is_null(self):
        codes = np.array([0], np.int64)
        vals = np.array([7], np.int64)
        for func in ("MIN", "MAX"):
            out = group_aggregate(codes, 2, func, vals)
            assert out[0] == 7
            assert np.isnan(out[1])  # group 1 has no rows -> NULL
        # all groups present: integer dtype is preserved exactly
        out = group_aggregate(codes, 1, "MAX", np.array([2**53 + 1], np.int64))
        assert out.dtype == np.int64 and out[0] == 2**53 + 1

    def test_min_max_string_empty_group_is_null(self):
        codes = np.array([0], np.int64)
        vals = np.array(["x"], object)
        out = group_aggregate(codes, 2, "MIN", vals)
        assert out[0] == "x" and out[1] is None

    def test_min_max_combine_skips_null_partials(self):
        """An empty site's NULL partial must not corrupt a real extremum."""
        codes = np.array([0, 0], np.int64)
        partials = np.array([np.nan, 5.0])
        assert group_aggregate(codes, 1, "MIN", partials).tolist() == [5.0]
        assert group_aggregate(codes, 1, "MAX", partials).tolist() == [5.0]

    def test_valid_mask_applies_to_all_funcs(self):
        codes = np.array([0, 0, 0])
        vals = np.array([10, 2, 4], np.int64)
        valid = np.array([False, True, True])
        assert group_aggregate(codes, 1, "SUM", vals, valid).tolist() == [6]
        assert group_aggregate(codes, 1, "MAX", vals, valid).tolist() == [4]
        assert group_aggregate(codes, 1, "AVG", vals, valid).tolist() == [3.0]

    def test_distinct_high_cardinality_no_overflow(self):
        """The old ``codes * k + vcodes`` pair encoding overflowed int64
        when n_groups * n_values exceeded 2**63."""
        n = 1000
        rng = np.random.default_rng(7)
        codes = np.arange(n, dtype=np.int64)
        # huge spread of values so the old k multiplier explodes
        vals = rng.integers(-(2**62), 2**62, size=n, dtype=np.int64)
        out = group_count_distinct(codes, n, vals)
        assert out.tolist() == [1] * n
        sums = group_sum_distinct(codes, n, vals)
        assert sums.tolist() == vals.tolist()

    def test_count_distinct(self):
        codes = np.array([0, 0, 0, 1])
        vals = np.array([7, 7, 8, 7], np.int64)
        assert group_count_distinct(codes, 2, vals).tolist() == [2, 1]

    def test_sum_distinct(self):
        codes = np.array([0, 0, 0])
        vals = np.array([5.0, 5.0, 3.0])
        assert group_sum_distinct(codes, 1, vals).tolist() == [8.0]


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 4), st.integers(-100, 100)), min_size=1, max_size=50
    ),
    func=st.sampled_from(["SUM", "COUNT", "MIN", "MAX", "AVG"]),
)
def test_group_aggregate_bruteforce(data, func):
    codes = np.array([g for g, _ in data])
    vals = np.array([v for _, v in data], dtype=np.float64)
    n = int(codes.max()) + 1
    out = group_aggregate(codes, n, func, None if func == "COUNT" else vals)
    for g in range(n):
        members = [v for gg, v in data if gg == g]
        if not members:
            continue
        want = {
            "SUM": sum(members),
            "COUNT": len(members),
            "MIN": min(members),
            "MAX": max(members),
            "AVG": sum(members) / len(members),
        }[func]
        assert out[g] == pytest.approx(want)


class TestSort:
    def batch(self):
        return RowBatch.from_pairs(
            ("k", DataType.INT64, [3, 1, 2, 1]),
            ("s", DataType.STRING, ["c", "b", "a", "a"]),
        )

    def test_single_key_asc(self):
        b = self.batch()
        out = b.take(sort_indices(b, [("k", True)]))
        assert out.col("k").tolist() == [1, 1, 2, 3]

    def test_desc_numeric(self):
        b = self.batch()
        out = b.take(sort_indices(b, [("k", False)]))
        assert out.col("k").tolist() == [3, 2, 1, 1]

    def test_desc_string(self):
        b = self.batch()
        out = b.take(sort_indices(b, [("s", False)]))
        assert out.col("s").tolist() == ["c", "b", "a", "a"]

    def test_multi_key(self):
        b = self.batch()
        out = b.take(sort_indices(b, [("k", True), ("s", False)]))
        assert out.rows() == [(1, "b"), (1, "a"), (2, "a"), (3, "c")]

    def test_stability(self):
        b = RowBatch.from_pairs(
            ("k", DataType.INT64, [1, 1, 1]),
            ("i", DataType.INT64, [0, 1, 2]),
        )
        out = b.take(sort_indices(b, [("k", True)]))
        assert out.col("i").tolist() == [0, 1, 2]

    def test_desc_large_int64_exact(self):
        """DESC used to negate a float64 cast, which collapses int64
        keys differing only below the 2**53 mantissa limit."""
        vals = [2**53, 2**53 + 1, -(2**63), 2**63 - 1, 0]
        b = RowBatch.from_pairs(("k", DataType.INT64, vals))
        out = b.take(sort_indices(b, [("k", False)]))
        assert out.col("k").tolist() == sorted(vals, reverse=True)
        out = b.take(sort_indices(b, [("k", True)]))
        assert out.col("k").tolist() == sorted(vals)


class TestTopK:
    def test_top_k_returns_sorted_head(self):
        b = RowBatch.from_pairs(("v", DataType.INT64, [5, 1, 9, 3, 7]))
        out = top_k(b, [("v", False)], 2)
        assert out.col("v").tolist() == [9, 7]

    def test_top_k_small_input(self):
        b = RowBatch.from_pairs(("v", DataType.INT64, [2, 1]))
        out = top_k(b, [("v", True)], 10)
        assert out.col("v").tolist() == [1, 2]

    def test_incremental_fold_equals_global(self):
        """The streaming heap fold (per-worker top-k) matches a global sort."""
        rng = np.random.default_rng(0)
        vals = rng.integers(0, 1000, 500)
        b = RowBatch.from_pairs(("v", DataType.INT64, vals))
        acc = RowBatch.empty(b.schema)
        for i in range(0, 500, 64):
            chunk = b.slice(i, i + 64)
            acc = top_k(RowBatch.concat(b.schema, [acc, chunk]), [("v", False)], 10)
        want = sorted(vals.tolist(), reverse=True)[:10]
        assert acc.col("v").tolist() == want


    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 7, 40, 199, 200, 250])
    def test_ties_equal_the_full_sort(self, seed, k):
        """The candidates ``np.partition`` keeps (every row tied with the
        k-th included) give exactly the rows and order of a full stable
        sort's first k, across key types, directions and NULLs."""
        rng = np.random.default_rng(seed)
        n = 200
        f = rng.integers(0, 5, n).astype(np.float64)
        f[rng.random(n) < 0.2] = np.nan
        strings = np.empty(n, dtype=object)
        strings[:] = [f"s{i}" for i in rng.integers(0, 4, n)]
        b = RowBatch.from_pairs(
            ("a", DataType.INT64, rng.integers(0, 6, n)),
            ("f", DataType.FLOAT64, f),
            ("s", DataType.STRING, strings),
            ("row", DataType.INT64, np.arange(n)),
        )
        for keys in (
            [("a", True), ("s", False)],
            [("a", False)],
            [("f", True), ("a", True)],
            [("f", False)],
            [("s", True), ("f", False)],
        ):
            want = b.take(sort_indices(b, keys)[:k]).col("row").tolist()
            assert top_k(b, keys, k).col("row").tolist() == want, keys


class TestEdgeCases:
    """Degenerate inputs the streaming engine can produce: empty morsels,
    filters that drop every row, single-value group keys."""

    def _kv(self, ks, vs):
        return RowBatch.from_pairs(
            ("k", DataType.INT64, ks), ("v", DataType.FLOAT64, vs)
        )

    def test_merge_sorted_all_empty(self):
        b = self._kv([], [])
        out = merge_sorted([b, b.slice(0, 0)], b.schema, [("k", True)])
        assert out.length == 0 and out.schema == b.schema

    def test_merge_sorted_some_empty(self):
        full = self._kv([3, 1], [0.3, 0.1])
        out = merge_sorted(
            [full.slice(0, 0), full.take(sort_indices(full, [("k", True)]))],
            full.schema,
            [("k", True)],
        )
        assert out.col("k").tolist() == [1, 3]

    def test_top_k_empty_batch(self):
        b = self._kv([], [])
        out = top_k(b, [("k", False)], 5)
        assert out.length == 0

    def test_top_k_zero_k(self):
        b = self._kv([2, 1], [0.2, 0.1])
        assert top_k(b, [("k", True)], 0).length == 0

    def test_group_aggregate_zero_groups(self):
        codes = np.array([], dtype=np.int64)
        for func, vals in [
            ("SUM", np.array([], np.float64)),
            ("COUNT", None),
            ("MIN", np.array([], np.float64)),
        ]:
            out = group_aggregate(codes, 0, func, vals)
            assert len(out) == 0

    def test_factorize_all_identical(self):
        codes, n = factorize([np.array([7] * 64, np.int64)])
        assert n == 1 and set(codes.tolist()) == {0}

    def test_factorize_all_distinct(self):
        vals = np.arange(64, dtype=np.int64)
        codes, n = factorize([vals])
        assert n == 64 and len(set(codes.tolist())) == 64

    def test_factorize_all_identical_strings(self):
        arr = np.empty(32, dtype=object)
        arr[:] = ["same"] * 32
        codes, n = factorize([arr])
        assert n == 1 and set(codes.tolist()) == {0}


class TestJoinHashTable:
    """The build-once/probe-many table yields exactly a nested loop's
    pairs, in its order, including per-batch probing."""

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        build = [rng.integers(0, 20, 100)]
        probe = [rng.integers(0, 25, 300)]
        assert matched(build, probe) == nested_loop(probe, build)

    def test_batched_probe_equals_whole(self):
        rng = np.random.default_rng(4)
        build = [rng.integers(0, 10, 50), rng.integers(0, 3, 50)]
        probe = [rng.integers(0, 12, 200), rng.integers(0, 4, 200)]
        jt = JoinHashTable(build)
        whole = list(zip(*[a.tolist() for a in jt.match_indices(probe)]))
        chunked = []
        for s in range(0, 200, 64):
            pi, bi = jt.match_indices([c[s : s + 64] for c in probe])
            chunked.extend((int(p) + s, int(b)) for p, b in zip(pi, bi))
        assert chunked == whole

    def test_empty_build_side(self):
        jt = JoinHashTable([np.array([], np.int64)])
        pi, bi = jt.match_indices([np.array([1, 2, 3], np.int64)])
        assert len(pi) == 0 and len(bi) == 0

    def test_empty_probe_batch(self):
        jt = JoinHashTable([np.array([1, 2], np.int64)])
        pi, bi = jt.match_indices([np.array([], np.int64)])
        assert len(pi) == 0 and len(bi) == 0

    def test_string_keys(self):
        b = np.empty(3, dtype=object)
        b[:] = ["a", "b", "a"]
        p = np.empty(2, dtype=object)
        p[:] = ["a", "c"]
        jt = JoinHashTable([b])
        pi, bi = jt.match_indices([p])
        assert sorted(zip(pi.tolist(), bi.tolist())) == [(0, 0), (0, 2)]

    def test_wide_composite_key_does_not_wrap(self):
        # 4 columns of 70 000 distinct values: build row 0's composite code
        # 53778*70001**3 + 20310*70001**2 + 56752*70001 + 776 is 2**64, so
        # an unguarded int64 code wraps to 0, the all-zeros key's code
        rng = np.random.default_rng(0)
        build = []
        for v in (53778, 20310, 56752, 776):
            col = rng.permutation(70_000).astype(np.int64)
            j = int(np.flatnonzero(col == v)[0])
            col[[0, j]] = col[[j, 0]]
            build.append(col)
        assert not (np.stack(build) == 0).all(axis=0).any()
        probe = [np.array([0, c[0], c[5], 70_000], np.int64) for c in build]
        assert matched(build, probe) == [(1, 0), (2, 5)]


class TestNullKeysNeverMatch:
    """NaN and a NULL (None) dictionary entry are SQL NULL: a NULL key
    equals nothing, not even another NULL, in every join kind."""

    L = Schema.of(("lk", DataType.FLOAT64), ("ls", DataType.STRING))
    R = Schema.of(("rk", DataType.FLOAT64), ("rs", DataType.STRING))

    def sides(self):
        # row 0 is NULL in both key columns on both sides; row 1 matches
        strs = DictColumn.wrap(np.array([None, "a"], object))
        left = RowBatch(self.L, {"lk": np.array([np.nan, 1.0]), "ls": strs})
        right = RowBatch(self.R, {"rk": np.array([np.nan, 1.0]), "rs": strs})
        return left, right

    def test_streaming_probe(self):
        left, right = self.sides()
        for lk, rk in (("lk", "rk"), ("ls", "rs")):
            assert matched([right.col(rk)], [left.col(lk)]) == [(1, 1)]
        # an unshared dictionary with a NULL entry
        other = DictColumn.wrap(np.array(["a", None, None], object))
        assert matched([right.col("rs")], [other]) == [(0, 1)]

    @pytest.mark.parametrize("key", ["k", "s"])
    def test_hash_join_kinds(self, key):
        left, right = self.sides()
        e = BinaryOp("=", ColumnRef("l" + key), ColumnRef("r" + key))
        pairs = [(e.left, e.right)]
        out = self.L.concat(self.R)
        inner = hash_join(left, right, "inner", pairs, [], out, None)
        assert inner.col("lk").tolist() == [1.0]
        assert hash_join(left, right, "semi", pairs, [], self.L, None).col("lk").tolist() == [1.0]
        anti = hash_join(left, right, "anti", pairs, [], self.L, None).col("lk")
        assert len(anti) == 1 and np.isnan(anti[0])
        with_m = out.concat(Schema.of(("m", DataType.BOOL)))
        outer = hash_join(left, right, "left", pairs, [], with_m, "m")
        assert outer.col("m").tolist() == [True, False]
        assert outer.col("rk").tolist() == [1.0, 0.0]


class TestBloom:
    def test_no_false_negatives(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 1 << 40, 5000).astype(np.uint64)
        bits = bloom_filter_codes(keys)
        assert bloom_filter_test(bits, keys).all()

    def test_filters_most_nonmembers(self):
        rng = np.random.default_rng(2)
        members = rng.integers(0, 1 << 30, 1000).astype(np.uint64)
        others = (rng.integers(0, 1 << 30, 10_000) + (1 << 40)).astype(np.uint64)
        bits = bloom_filter_codes(members)
        fp = bloom_filter_test(bits, others).mean()
        assert fp < 0.05


#: an injective map that spreads keys far past any slot budget: the same
#: equalities, answered by the sorted table instead of the direct one
SPREAD = 1_000_003


def _join_cases():
    rng = np.random.default_rng(11)
    return {
        "dense": ([rng.integers(0, 300, 200)], [rng.integers(0, 300, 400)]),
        "unique": ([rng.permutation(300)], [rng.integers(-20, 320, 400)]),
        "sparse_16x": ([rng.choice(16 * 200, 200, replace=False)],
                       [rng.integers(0, 16 * 200, 400)]),
        "duplicate_heavy": ([rng.integers(0, 6, 200)], [rng.integers(0, 8, 400)]),
        "negative": ([rng.integers(-500, -300, 200)], [rng.integers(-600, -200, 400)]),
        "out_of_range_probes": ([rng.integers(100, 200, 200)],
                                [rng.integers(-100_000, 100_000, 400)]),
        "composite": ([rng.integers(0, 15, 200), rng.integers(-5, 5, 200)],
                      [rng.integers(0, 16, 400), rng.integers(-6, 6, 400)]),
        "empty_build": ([np.zeros(0, np.int64)], [rng.integers(0, 9, 50)]),
        "empty_probe": ([rng.integers(0, 9, 50)], [np.zeros(0, np.int64)]),
        "both_empty": ([np.zeros(0, np.int64)] * 2, [np.zeros(0, np.int64)] * 2),
    }


JOIN_CASES = _join_cases()


def _is_direct(jt: JoinHashTable) -> bool:
    return jt.distinct is None and all(k.lo is not None for k in jt.keys)


class TestDirectTableEquivalence:
    """Integer keys inside the slot budget get a direct-addressed table;
    its pairs are exactly the sorted table's, in the same order."""

    @pytest.mark.parametrize("case", JOIN_CASES)
    def test_direct_equals_sorted(self, case):
        build, probe = JOIN_CASES[case]
        direct = JoinHashTable(build)
        spread = JoinHashTable([c * SPREAD for c in build])
        if len(build[0]):
            assert _is_direct(direct) and not _is_direct(spread)
        got = direct.match_indices(probe)
        want = spread.match_indices([c * SPREAD for c in probe])
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert list(zip(*[a.tolist() for a in got])) == nested_loop(probe, build)

    def test_direct_probe_calls_no_searchsorted(self, monkeypatch):
        probe = JOIN_CASES["out_of_range_probes"][1]
        tables = [JoinHashTable(JOIN_CASES[c][0]) for c in ("unique", "duplicate_heavy")]

        def refuse(*args, **kwargs):
            raise AssertionError("searchsorted on the direct path")

        monkeypatch.setattr(np, "searchsorted", refuse)
        for jt in tables:
            jt.match_indices(probe)
            jt.contains(probe)

    def test_floats_take_the_sorted_table(self):
        build, probe = JOIN_CASES["duplicate_heavy"]
        floats = JoinHashTable([build[0] + 0.5])
        assert not _is_direct(floats)
        got = floats.match_indices([probe[0] + 0.5])
        want = JoinHashTable(build).match_indices(probe)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_extreme_probes_never_wrap_into_range(self):
        ext = np.iinfo(np.int64)
        probe = [np.array([ext.min, ext.min + 150, ext.max, ext.max - 150, 150], np.int64)]
        for build in ([np.arange(100, 200)], [np.arange(-200, -100)]):
            assert matched(build, probe) == nested_loop(probe, build)

    @pytest.mark.parametrize("case", JOIN_CASES)
    def test_existence_only_equals_pairs(self, case):
        build, probe = JOIN_CASES[case]
        pi, _ = JoinHashTable(build).match_indices(probe)
        want = np.zeros(len(probe[0]), dtype=bool)
        want[pi] = True
        exists = JoinHashTable(build, exists_only=True)
        assert exists.order is None and exists.slots is None
        assert np.array_equal(exists.contains(probe), want)
        assert np.array_equal(JoinHashTable(build).contains(probe), want)

    @pytest.mark.parametrize("kind", ["semi", "anti"])
    def test_semi_anti_join_rows_unchanged(self, kind):
        build, probe = JOIN_CASES["duplicate_heavy"]
        L, R = Schema.of(("a", DataType.INT64)), Schema.of(("b", DataType.INT64))
        left, right = RowBatch(L, {"a": probe[0]}), RowBatch(R, {"b": build[0]})
        pairs = [(ColumnRef("a"), ColumnRef("b"))]
        li, ri = JoinHashTable(build).match_indices(probe)
        want = join_rows(left, right, li, ri, kind, [], L, L, R)
        got = hash_join(left, right, kind, pairs, [], L, None)
        assert got.col("a").tolist() == want.col("a").tolist()


def _stable_sort_pick(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The representatives a stable argsort picks: per group, in code
    order, its first row (and the groups' codes)."""
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    first = np.concatenate([[0], np.flatnonzero(np.diff(ordered)) + 1]).astype(np.int64)
    return order[first], ordered[first]


class TestScatterAggregation:
    """Group representatives and MIN/MAX come from scatters over the dense
    codes; they equal what sorting the codes gave."""

    @pytest.mark.parametrize("k", [1, 7, 500, 40_000])
    def test_first_occurrence_is_the_stable_sort_pick(self, k):
        rng = np.random.default_rng(k)
        codes, n = factorize([rng.integers(0, k, 5000) * 3])
        rep, rep_codes = _stable_sort_pick(codes)
        assert np.array_equal(rep_codes, np.arange(n))
        assert np.array_equal(first_occurrence(codes, n), rep)

    def test_aggregate_batch_representatives_and_group_order(self):
        # -0.0 and 0.0 are one group; the sign shows which row stood for it
        rng = np.random.default_rng(5)
        k = rng.choice(np.array([0.0, -0.0, 1.5, -2.0]), 300)
        x = rng.integers(0, 10, 300)
        schema = Schema.of(("k", DataType.FLOAT64), ("x", DataType.INT64))
        out_schema = Schema.of(("k", DataType.FLOAT64), ("s", DataType.INT64))
        out = aggregate_batch(
            RowBatch(schema, {"k": k, "x": x}), ("k",),
            (AggSpec("s", "SUM", "x", False, None),), out_schema,
        )
        codes, n = factorize([k])
        rep, _ = _stable_sort_pick(codes)
        assert out.col("k").tobytes() == k[rep].tobytes()
        assert out.col("s").tolist() == [int(x[codes == g].sum()) for g in range(n)]

    @pytest.mark.parametrize("func", ["MIN", "MAX"])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_min_max_equal_the_sorted_reduce(self, func, dtype):
        rng = np.random.default_rng(3)
        n_groups = 60  # some groups get no rows: NULL
        codes = rng.integers(0, 50, 2000)
        values = rng.integers(-1000, 1000, 2000).astype(dtype)
        if dtype == np.float64:
            values[rng.random(2000) < 0.3] = np.nan  # NULL inputs are skipped
            values[codes == 7] = np.nan  # a group of NULLs stays NULL
        got = group_aggregate(codes, n_groups, func, values)
        rep, present = _stable_sort_pick(codes)
        order = np.argsort(codes, kind="stable")
        starts = np.searchsorted(codes[order], present)
        ufunc = {("MIN", True): np.fmin, ("MAX", True): np.fmax,
                 ("MIN", False): np.minimum, ("MAX", False): np.maximum}[
                     func, dtype == np.float64]
        want = np.full(n_groups, np.nan)
        want[present] = ufunc.reduceat(values[order], starts)
        assert got.dtype == np.float64
        assert np.array_equal(got, want, equal_nan=True)
        full = group_aggregate(codes, 50, func, values)
        assert full.dtype == values.dtype
