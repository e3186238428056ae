"""Unit + property tests for RowBatch (the columnar dataflow unit)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import DataType, RowBatch, Schema
from repro.common.batch import stable_order
from repro.common.errors import ExecutionError


def sample() -> RowBatch:
    return RowBatch.from_pairs(
        ("a", DataType.INT64, [1, 2, 3, 4]),
        ("b", DataType.STRING, ["x", "y", "x", "z"]),
        ("c", DataType.FLOAT64, [0.5, 1.5, 2.5, 3.5]),
    )


class TestBasics:
    def test_len_and_cols(self):
        b = sample()
        assert len(b) == 4
        assert b.col("a").tolist() == [1, 2, 3, 4]

    def test_ragged_rejected(self):
        schema = Schema.of(("a", DataType.INT64), ("b", DataType.INT64))
        with pytest.raises(ExecutionError):
            RowBatch(schema, {"a": np.array([1]), "b": np.array([1, 2])})

    def test_missing_column_rejected(self):
        schema = Schema.of(("a", DataType.INT64))
        with pytest.raises(ExecutionError):
            RowBatch(schema, {})

    def test_filter(self):
        b = sample().filter(np.array([True, False, True, False]))
        assert b.col("a").tolist() == [1, 3]

    def test_filter_all_true_is_identity(self):
        b = sample()
        assert b.filter(np.ones(4, dtype=bool)) is b

    def test_take(self):
        b = sample().take(np.array([3, 0]))
        assert b.col("b").tolist() == ["z", "x"]

    def test_slice(self):
        assert sample().slice(1, 3).col("a").tolist() == [2, 3]

    def test_project(self):
        b = sample().project(["c", "a"])
        assert b.schema.names() == ["c", "a"]

    def test_rename(self):
        b = sample().rename({"a": "alpha"})
        assert "alpha" in b.schema
        assert b.col("alpha").tolist() == [1, 2, 3, 4]

    def test_rows(self):
        assert sample().rows()[0] == (1, "x", 0.5)

    def test_concat(self):
        b = sample()
        c = RowBatch.concat(b.schema, [b, b.slice(0, 2)])
        assert len(c) == 6

    def test_concat_empty(self):
        b = sample()
        assert len(RowBatch.concat(b.schema, [])) == 0

    def test_empty(self):
        e = RowBatch.empty(sample().schema)
        assert len(e) == 0 and e.schema == sample().schema


class TestSerialization:
    def test_roundtrip(self):
        b = sample()
        back = RowBatch.from_bytes(b.to_bytes())
        assert back.schema == b.schema
        for c in b.schema:
            assert back.col(c.name).tolist() == b.col(c.name).tolist()

    def test_roundtrip_empty(self):
        e = RowBatch.empty(sample().schema)
        assert len(RowBatch.from_bytes(e.to_bytes())) == 0

    def test_roundtrip_all_types(self):
        b = RowBatch.from_pairs(
            ("i", DataType.INT64, [-(2**60), 0, 2**60]),
            ("f", DataType.FLOAT64, [1e-300, 0.0, 1e300]),
            ("d", DataType.DATE, [0, 10_000, -1]),
            ("s", DataType.STRING, ["", "héllo", "x" * 1000]),
            ("t", DataType.BOOL, [True, False, True]),
        )
        back = RowBatch.from_bytes(b.to_bytes())
        assert back.rows() == b.rows()

    def test_bad_magic(self):
        with pytest.raises(ExecutionError):
            RowBatch.from_bytes(b"XXXX....")

    def test_nbytes_positive(self):
        assert sample().nbytes > 0


class TestHashPartition:
    def test_partition_covers_all_rows(self):
        b = sample()
        parts = b.partition(["a"], 3)
        assert sum(len(p) for p in parts) == len(b)

    def test_partition_deterministic_on_key(self):
        """Equal keys land in the same partition (shuffle correctness)."""
        b = RowBatch.from_pairs(("k", DataType.INT64, [7, 7, 7, 8, 8]))
        parts = b.partition(["k"], 4)
        for p in parts:
            assert len(set(p.col("k").tolist())) <= 2

    def test_hash_stable_across_batches(self):
        b1 = RowBatch.from_pairs(("k", DataType.INT64, [42]))
        b2 = RowBatch.from_pairs(("k", DataType.INT64, [42, 1]))
        assert b1.hash_codes(["k"])[0] == b2.hash_codes(["k"])[0]

    def test_hash_string_matches_int_semantics(self):
        b = RowBatch.from_pairs(("s", DataType.STRING, ["a", "b", "a"]))
        h = b.hash_codes(["s"])
        assert h[0] == h[2] and h[0] != h[1]

    def test_date_and_int_same_value_hash_equal(self):
        """A DATE column and an INT64 column with equal values co-locate."""
        d = RowBatch.from_pairs(("k", DataType.DATE, [1000, 2000]))
        i = RowBatch.from_pairs(("k", DataType.INT64, [1000, 2000]))
        assert d.hash_codes(["k"]).tolist() == i.hash_codes(["k"]).tolist()


class TestCountingPartition:
    """``partition_codes`` is a counting partition: the part sizes from a
    ``bincount``, rows placed by a radix-stable order."""

    @pytest.mark.parametrize("n_parts", [1, 3, 4, 16, 300])
    def test_row_order_within_a_part_is_kept(self, n_parts):
        rng = np.random.default_rng(n_parts)
        codes = rng.integers(0, 2**63, 5000).astype(np.uint64)
        b = RowBatch.from_pairs(("i", DataType.INT64, np.arange(5000)))
        parts = b.partition_codes(codes, n_parts)
        assert len(parts) == n_parts
        for p, part in enumerate(parts):
            want = np.flatnonzero(codes % np.uint64(n_parts) == p)
            assert part.col("i").tolist() == want.tolist()

    @pytest.mark.parametrize("space", [1, 2**8, 2**16, 2**20, 2**40])
    def test_stable_order_is_the_stable_argsort(self, space):
        rng = np.random.default_rng(7)
        codes = rng.integers(0, space, 20_000)
        want = np.argsort(codes, kind="stable")
        assert np.array_equal(stable_order(codes, space), want)


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=0, max_size=200),
    n_parts=st.integers(min_value=1, max_value=7),
)
def test_partition_property(values, n_parts):
    """Partitioning is a lossless disjoint cover with key-locality."""
    b = RowBatch.from_pairs(("k", DataType.INT64, values))
    parts = b.partition(["k"], n_parts)
    assert len(parts) <= n_parts
    collected = sorted(v for p in parts for v in p.col("k").tolist())
    assert collected == sorted(values)
    seen: dict[int, int] = {}
    for i, p in enumerate(parts):
        for v in p.col("k").tolist():
            assert seen.setdefault(v, i) == i


@settings(max_examples=50, deadline=None)
@given(
    strings=st.lists(
        st.text(alphabet=st.characters(codec="utf-8"), max_size=30), min_size=0, max_size=50
    )
)
def test_serialization_property_strings(strings):
    b = RowBatch.from_pairs(("s", DataType.STRING, strings))
    assert RowBatch.from_bytes(b.to_bytes()).col("s").tolist() == strings


def _string_sources(strings: list) -> dict[str, object]:
    """The same rows in each form a string column reaches the wire in."""
    from repro.common.batch import DictColumn, StringDictionary

    n = len(strings)
    # a slice of a pool-sized dictionary (RF1's orders batches carry the
    # 30 000 strings of the pool they are cut from)
    pool = np.empty(30_000, dtype=object)
    pool[:] = [f"pool-{i}" for i in range(30_000)]
    pool[7 : 7 + n] = strings
    out = {
        "wrapped": DictColumn.wrap(np.array(strings, dtype=object)),
        "pool_slice": DictColumn(np.arange(7, 7 + n, dtype=np.uint32), StringDictionary(pool)),
    }
    if None not in strings:  # a received frame holds bytes only, and no NULL
        big = RowBatch.from_pairs(("s", DataType.STRING, list(strings) + [f"x{i}" for i in range(200)]))
        received = RowBatch.from_bytes(big.to_bytes()).col("s")[np.arange(n)]
        out["received_slice"] = received
        # an appended dictionary that has built neither face yet
        head = DictColumn.wrap(np.array(["head"], dtype=object))
        out["appended_parts"] = DictColumn.concat([head, received])[np.arange(1, n + 1)]
    return out


class TestSmallStringFrames:
    """String columns of a few rows are encoded row by row; whatever the
    bytes, every row decodes back, off the wire and out of the WAL."""

    CONTENT = ["plain", "héllo wörld", "日本語", "nul\x00inside", "\x00", "", "plain", "repeat", "repeat"]

    @staticmethod
    def _rows(n: int, with_null: bool) -> list:
        rows = [TestSmallStringFrames.CONTENT[i % len(TestSmallStringFrames.CONTENT)] for i in range(n)]
        if with_null:
            rows[n // 2] = None
        return rows

    @pytest.mark.parametrize("n", [1, 8, 33, 63, 64])
    @pytest.mark.parametrize("with_null", [False, True])
    def test_rows_decode_identically(self, n, with_null):
        from repro.txn.wal import LogManager, UPDATE
        from repro.util.fs import MemFS

        strings = self._rows(n, with_null)
        for name, col in _string_sources(strings).items():
            batch = RowBatch(Schema.of(("k", DataType.INT64), ("s", DataType.STRING)),
                             {"k": np.arange(n), "s": col})
            want = [(k, s) for k, s in zip(range(n), strings)]
            assert batch.rows() == want, name
            blob = batch.to_bytes()
            assert RowBatch.from_bytes(blob).rows() == want, name
            # through the WAL, read back as recovery reads it
            fs = MemFS()
            log = LogManager(fs)
            log.append(txn=1, kind=UPDATE, page=("logical", "t", 0), after=blob)
            log.force()
            (rec,) = LogManager(fs).records()
            assert RowBatch.from_bytes(rec.after).rows() == want, name

    @pytest.mark.parametrize("n", [1, 8, 33, 63])
    def test_small_frames_match_the_general_encoder(self, n, monkeypatch):
        from repro.common import batch as batch_mod

        strings = self._rows(n, with_null=False)
        for name, col in _string_sources(strings).items():
            small = batch_mod._encode_string_column(col)
            monkeypatch.setattr(batch_mod, "_SMALL_FRAME", 0)
            general = batch_mod._encode_string_column(col)
            monkeypatch.undo()
            decoded = [batch_mod._decode_string_column(p, n, enc).tolist() for enc, p in (small, general)]
            assert decoded[0] == decoded[1] == strings, name
            assert len(small[1]) <= len(general[1]) + 4 * n, name

    def test_a_pool_slice_leaves_the_pool_alone(self):
        """A few rows over a big dictionary never convert it: the pool
        builds no UTF-8 face to ship 30 rows."""
        col = _string_sources(self._rows(30, with_null=False))["pool_slice"]
        RowBatch(Schema.of(("s", DataType.STRING)), {"s": col}).to_bytes()
        assert col.dictionary._utf8 is None
