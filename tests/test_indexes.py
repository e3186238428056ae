"""B+-tree tests (unit + hypothesis vs oracle)."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.storage.btree import BPlusTree
from repro.storage.buffer import BufferManager
from repro.util.fs import MemFS


def _bt(memfs=None, bufmgr=None, order=16):
    memfs = memfs or MemFS()
    bufmgr = bufmgr or BufferManager(2, 128)
    return BPlusTree(memfs, bufmgr, "idx.bt", page_size=8192, order=order), memfs, bufmgr


class TestBPlusTree:
    def test_insert_search(self):
        t, _, _ = _bt()
        for k in [5, 1, 9, 3]:
            t.insert(k, k * 10)
        assert t.search(9) == [90]
        assert t.search(7) == []

    def test_duplicates(self):
        t, _, _ = _bt()
        t.insert(4, "a")
        t.insert(4, "b")
        assert sorted(t.search(4)) == ["a", "b"]

    def test_range_scan_inclusive(self):
        t, _, _ = _bt()
        for k in range(100):
            t.insert(k, k)
        assert [k for k, _ in t.range_scan(10, 15)] == [10, 11, 12, 13, 14, 15]
        assert [k for k, _ in t.range_scan(10, 15, lo_inclusive=False)] == [11, 12, 13, 14, 15]
        assert [k for k, _ in t.range_scan(None, 2)] == [0, 1, 2]
        assert [k for k, _ in t.range_scan(97, None)] == [97, 98, 99]

    def test_splits_grow_height(self):
        t, _, _ = _bt(order=8)
        for k in range(500):
            t.insert(k, k)
        assert t.height() >= 2
        assert [k for k, _ in t.items()] == list(range(500))

    def test_random_order_inserts_sorted_scan(self):
        t, _, _ = _bt(order=8)
        keys = list(range(300))
        random.seed(42)
        random.shuffle(keys)
        for k in keys:
            t.insert(k, k)
        assert [k for k, _ in t.items()] == list(range(300))

    def test_delete_logical(self):
        t, _, _ = _bt()
        for k in range(20):
            t.insert(k, k)
        assert t.delete(7) == 1
        assert t.search(7) == []
        assert t.delete(7) == 0
        assert [k for k, _ in t.range_scan(5, 9)] == [5, 6, 8, 9]

    def test_delete_duplicates_spanning_leaves(self):
        """Regression (hypothesis-discovered): 9x insert(0) splits the
        root leaf with sep=0, leaving duplicates in BOTH halves; the old
        delete descended past the left half and removed only some."""
        t, _, _ = _bt(order=8)
        for _ in range(9):
            t.insert(0, 0)
        assert t.delete(0) == 9
        assert t.search(0) == []
        assert list(t.items()) == []

    def test_search_duplicates_spanning_leaves(self):
        """Same split shape as above must also be visible to range_scan
        and search (their descent shared the delete bug)."""
        t, _, _ = _bt(order=8)
        for i in range(9):
            t.insert(0, i)
        assert sorted(t.search(0)) == list(range(9))
        assert len(list(t.range_scan(0, 0))) == 9

    def test_delete_specific_value(self):
        t, _, _ = _bt()
        t.insert(1, "a")
        t.insert(1, "b")
        assert t.delete(1, "a") == 1
        assert t.search(1) == ["b"]

    def test_persistence_reopen(self):
        t, fs, bm = _bt()
        for k in range(50):
            t.insert(k, k * 2)
        bm.flush()
        bm2 = BufferManager(2, 128)
        t2 = BPlusTree(fs, bm2, "idx.bt", page_size=8192)
        assert t2.search(30) == [60]

    def test_composite_keys(self):
        t, _, _ = _bt()
        t.insert((1, "b"), "x")
        t.insert((1, "a"), "y")
        t.insert((2, "a"), "z")
        assert [k for k, _ in t.items()] == [(1, "a"), (1, "b"), (2, "a")]


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 30)),
        min_size=1,
        max_size=60,
    )
)
@example(ops=[("insert", 0)] * 9 + [("delete", 0)]).via("discovered failure")
def test_btree_matches_oracle(ops):
    t, _, _ = _bt(order=8)
    oracle: list[tuple[int, int]] = []
    for op, k in ops:
        if op == "insert":
            t.insert(k, k)
            oracle.append((k, k))
        else:
            removed = t.delete(k)
            present = [p for p in oracle if p[0] == k]
            assert removed == len(present)
            oracle = [p for p in oracle if p[0] != k]
    assert [k for k, _ in t.items()] == sorted(k for k, _ in oracle)
