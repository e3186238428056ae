"""Topology + simulated network tests — the N_max bound is the paper's
central communication claim, so it gets property coverage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import NetworkError, TopologyError
from repro.network import (
    BinomialGraphTopology,
    SimNetwork,
    TreeTopology,
)


class TestTreeTopology:
    def test_root_and_children(self):
        t = TreeTopology(range(7), n_max=3)  # fan-out 2
        assert t.root == 0
        assert t.children(0) == [1, 2]
        assert t.children(1) == [3, 4]
        assert t.parent(3) == 1
        assert t.parent(0) is None

    def test_custom_root(self):
        t = TreeTopology([10, 20, 30], n_max=3, root=20)
        assert t.root == 20

    def test_degree_bound(self):
        for n in (1, 2, 5, 33, 97):
            t = TreeTopology(range(n), n_max=5)
            assert t.max_degree <= 5

    def test_height_logarithmic(self):
        t = TreeTopology(range(100), n_max=11)  # fan-out 10
        assert t.height == 2
        assert TreeTopology(range(96), n_max=8).height <= 3  # fan-out 7

    def test_route_through_common_ancestor(self):
        t = TreeTopology(range(7), n_max=3)
        path = t.route(3, 5)  # 3 -> 1 -> 0 -> 2 -> 5
        assert path == [1, 0, 2, 5]
        assert t.route(0, 3) == [1, 3]
        assert t.route(3, 3) == []

    def test_invalid(self):
        with pytest.raises(TopologyError):
            TreeTopology([], 3)
        with pytest.raises(TopologyError):
            TreeTopology([1], 1)
        with pytest.raises(TopologyError):
            TreeTopology([1, 2], 3, root=9)


class TestBinomialGraph:
    def test_small_cluster_full_mesh(self):
        t = BinomialGraphTopology(range(4), n_max=8)
        assert t.route(0, 3) == [3]

    def test_degree_bound_large(self):
        for n in (16, 96, 200, 1024):
            t = BinomialGraphTopology(range(n), n_max=8)
            assert t.max_degree <= 8, n

    def test_degree_bound_tight_nmax(self):
        t = BinomialGraphTopology(range(64), n_max=4)
        assert t.max_degree <= 4

    def test_routes_terminate(self):
        t = BinomialGraphTopology(range(96), n_max=8)
        for dst in range(1, 96, 7):
            path = t.route(0, dst)
            assert path[-1] == dst
            assert len(path) <= 12

    def test_routes_use_neighbors_only(self):
        t = BinomialGraphTopology(range(50), n_max=6)
        cur = 13
        for hop in t.route(13, 37):
            assert hop in t.neighbors(cur)
            cur = hop

    def test_diameter_logarithmic(self):
        t = BinomialGraphTopology(range(256), n_max=8)
        assert t.diameter <= 12

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_route_length_scales_as_root_of_n(self, n):
        """Routes stay within 4 * n^(1/(N_max/2)) hops out to 1024 nodes."""
        t = BinomialGraphTopology(range(n), n_max=8)
        longest = max(len(t.route(0, d)) for d in range(1, n, max(1, n // 32)))
        assert longest <= 4 * n ** (1 / 4)

    def test_reduce_schedule_folds_to_root(self):
        t = BinomialGraphTopology(range(8), n_max=4)
        rounds = t.reduce_schedule(0)
        assert len(rounds) == 3  # ceil(log2 8)
        senders = [src for rnd in rounds for src, _ in rnd]
        # every non-root sends exactly once; the root never sends
        assert sorted(senders) == list(range(1, 8))
        # once a node has sent its state away it never reappears
        seen_senders: set[int] = set()
        for rnd in rounds:
            for src, dst in rnd:
                assert src not in seen_senders
                assert dst not in seen_senders
            seen_senders.update(src for src, _ in rnd)

    def test_reduce_schedule_one_incoming_per_round(self):
        """Deterministic fold order needs <=1 received stream per node
        per round."""
        for n in (1, 2, 3, 5, 7, 16, 33):
            t = BinomialGraphTopology(range(n), n_max=4)
            for root in (0, n - 1, n // 2):
                rounds = t.reduce_schedule(root)
                assert len(rounds) <= max(1, n - 1).bit_length()
                for rnd in rounds:
                    dsts = [dst for _, dst in rnd]
                    assert len(dsts) == len(set(dsts))
                senders = [s for rnd in rounds for s, _ in rnd]
                assert sorted(senders) == sorted(set(t.nodes) - {root})

    def test_reduce_schedule_arbitrary_root_and_ids(self):
        t = BinomialGraphTopology([10, 20, 30, 40, 50], n_max=3)
        rounds = t.reduce_schedule(30)
        senders = [s for rnd in rounds for s, _ in rnd]
        assert sorted(senders) == [10, 20, 40, 50]
        assert all(30 != s for s in senders)

    def test_reduce_schedule_singleton_and_bad_root(self):
        t = BinomialGraphTopology([7], n_max=4)
        assert t.reduce_schedule(7) == []
        with pytest.raises(TopologyError):
            t.reduce_schedule(99)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=160),
    n_max=st.integers(min_value=2, max_value=12),
    src=st.integers(min_value=0, max_value=10_000),
    dst=st.integers(min_value=0, max_value=10_000),
)
def test_topology_properties(n, n_max, src, dst):
    """Degree bound holds and greedy routing always reaches, any (n, N_max)."""
    t = BinomialGraphTopology(range(n), n_max)
    assert t.max_degree <= max(n_max, n - 1 if n <= n_max else n_max)
    s, d = src % n, dst % n
    path = t.route(s, d)
    if s == d:
        assert path == []
    else:
        assert path[-1] == d


class TestSimNetwork:
    def test_send_recv(self):
        net = SimNetwork(range(3))
        net.send(0, 1, b"hi", tag="t")
        net.send(2, 1, b"yo", tag="u")
        assert net.recv_all(1, tag="t") == [(0, "t", b"hi")]
        assert net.recv_all(1) == [(2, "u", b"yo")]
        assert net.recv_all(1) == []

    def test_unknown_node(self):
        net = SimNetwork(range(2))
        with pytest.raises(NetworkError):
            net.send(0, 9, b"x")

    def test_accounting(self):
        net = SimNetwork(range(4))
        net.send(0, 1, b"12345")
        assert net.total_bytes == 5
        assert net.total_messages == 1
        assert net.max_connections() == 1

    def test_route_send_counts_hops(self):
        net = SimNetwork(range(16))
        topo = BinomialGraphTopology(range(16), n_max=4)
        hops = net.route_send(topo, 0, 9, b"abcd")
        assert hops >= 1
        # every hop charged as link traffic; forwarded bytes counted
        assert net.total_bytes == 4 * hops
        if hops > 1:
            assert net.forwarded_bytes == 4 * (hops - 1)
        msgs = net.recv_all(9)
        assert msgs == [(0, "", b"abcd")]

    def test_route_send_self(self):
        net = SimNetwork(range(2))
        topo = BinomialGraphTopology(range(2), n_max=4)
        assert net.route_send(topo, 1, 1, b"x") == 0
        assert net.recv_all(1) == [(1, "", b"x")]

    def test_nmax_respected_under_all_to_all(self):
        """The paper's claim: full shuffle traffic, bounded connections."""
        net = SimNetwork(range(32))
        topo = BinomialGraphTopology(range(32), n_max=6)
        for i in range(32):
            for j in range(32):
                if i != j:
                    net.route_send(topo, i, j, b"payload")
        assert net.max_connections() <= 6

    def test_hub_topology_at_96_nodes(self):
        """The §IV trade-off at n=96, N_max=8: an all-to-all shuffle keeps
        every node within N_max connections, where the direct mesh needs
        95, for less than 4.5x the bytes of hub forwarding."""
        n, n_max = 96, 8
        topo = BinomialGraphTopology(range(n), n_max)
        hub, direct = SimNetwork(range(n)), SimNetwork(range(n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    hub.route_send(topo, i, j, b"payload")
                    direct.send(i, j, b"payload")
        assert hub.max_connections() <= n_max
        assert direct.max_connections() == n - 1
        assert hub.total_bytes / direct.total_bytes < 4.5

    def test_direct_all_to_all_needs_n_connections(self):
        net = SimNetwork(range(32))
        for i in range(32):
            for j in range(32):
                if i != j:
                    net.send(i, j, b"p")
        assert net.max_connections() == 31

    def test_reset_stats(self):
        net = SimNetwork(range(2))
        net.send(0, 1, b"x")
        net.reset_stats()
        assert net.total_bytes == 0 and net.max_connections() == 0
