"""Communication topologies enforcing the ``N_max`` neighbor limit.

A key scalability bottleneck the paper identifies is that shuffle-style
operations naively require every node to open O(n) connections. HRDBMS
enforces a configurable limit ``N_max`` on the number of neighbors a node
directly communicates with, using two strategies (paper §IV):

* :class:`TreeTopology` — hierarchical operations (merge sort, global
  aggregation, 2PC broadcast/gather) run over a tree with fan-out
  ``N_max - 1``; every node only talks to its parent and children.
* :class:`BinomialGraphTopology` — n-to-m operations (shuffle) run over a
  generalized binomial graph: nodes on a ring with links at distances
  ``b^0, b^1, b^2, ...`` where the base is derived from ``n`` and
  ``N_max`` (paper: ``b = n^(1/N_max)``). Non-neighbors are reached by
  greedy forwarding through intermediate hub nodes. Diameter and degree
  are logarithmic.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..common.errors import TopologyError


class Topology:
    """Common interface: neighbor sets and hop-by-hop routes."""

    nodes: tuple[int, ...]

    def neighbors(self, node: int) -> set[int]:
        raise NotImplementedError

    def route(self, src: int, dst: int) -> list[int]:
        """Nodes visited from ``src`` to ``dst``, excluding ``src``."""
        raise NotImplementedError

    def degree(self, node: int) -> int:
        return len(self.neighbors(node))

    @property
    def max_degree(self) -> int:
        return max(self.degree(n) for n in self.nodes)

    @property
    def diameter(self) -> int:
        return max(
            len(self.route(a, b)) for a in self.nodes for b in self.nodes if a != b
        ) if len(self.nodes) > 1 else 0


class TreeTopology(Topology):
    """Rooted tree with fan-out ``N_max - 1`` over an ordered node list.

    Children of position ``i`` are positions ``i*f + 1 .. i*f + f`` where
    ``f`` is the fan-out — a complete f-ary tree, which balances load
    across levels (paper: "more evenly balanced load").
    """

    def __init__(self, nodes: Sequence[int], n_max: int, root: int | None = None):
        if not nodes:
            raise TopologyError("tree topology needs at least one node")
        if n_max < 2:
            raise TopologyError("N_max must be >= 2")
        ordered = list(nodes)
        if root is not None:
            if root not in ordered:
                raise TopologyError(f"root {root} not among nodes")
            ordered.remove(root)
            ordered.insert(0, root)
        self.nodes = tuple(ordered)
        self.fanout = n_max - 1
        self._pos = {n: i for i, n in enumerate(self.nodes)}

    @property
    def root(self) -> int:
        return self.nodes[0]

    def parent(self, node: int) -> int | None:
        i = self._pos[node]
        if i == 0:
            return None
        return self.nodes[(i - 1) // self.fanout]

    def children(self, node: int) -> list[int]:
        i = self._pos[node]
        lo = i * self.fanout + 1
        return [self.nodes[j] for j in range(lo, min(lo + self.fanout, len(self.nodes)))]

    def neighbors(self, node: int) -> set[int]:
        out = set(self.children(node))
        p = self.parent(node)
        if p is not None:
            out.add(p)
        return out

    def depth(self, node: int) -> int:
        d = 0
        while (node_p := self.parent(node)) is not None:
            node = node_p
            d += 1
        return d

    @property
    def height(self) -> int:
        return max(self.depth(n) for n in self.nodes)

    def route(self, src: int, dst: int) -> list[int]:
        if src not in self._pos or dst not in self._pos:
            raise TopologyError("node not in topology")
        if src == dst:
            return []
        up_src = self._ancestors(src)
        up_dst = self._ancestors(dst)
        common = next(a for a in up_src if a in set(up_dst))
        path_up = up_src[: up_src.index(common) + 1]
        path_down = list(reversed(up_dst[: up_dst.index(common)]))
        return path_up[1:] + path_down  # exclude src itself

    def _ancestors(self, node: int) -> list[int]:
        chain = [node]
        while (p := self.parent(chain[-1])) is not None:
            chain.append(p)
        return chain


class BinomialGraphTopology(Topology):
    """Generalized binomial graph on a ring.

    Outgoing links at ring distances ``b^0, b^1, ...`` (< n). The base is
    chosen so the per-direction jump count is at most ``N_max // 2``,
    bounding the undirected degree by ``N_max`` (paper: base derived from
    ``b = n^(1/N_max)``; we use the undirected-degree-safe variant).
    Routing is greedy largest-jump-first, giving logarithmic path length.
    """

    def __init__(self, nodes: Sequence[int], n_max: int):
        if not nodes:
            raise TopologyError("n-to-m topology needs at least one node")
        if n_max < 2:
            raise TopologyError("N_max must be >= 2")
        self.nodes = tuple(nodes)
        self.n_max = n_max
        n = len(self.nodes)
        self._pos = {node: i for i, node in enumerate(self.nodes)}
        k = max(1, n_max // 2)  # jumps per direction
        if n <= n_max:
            # small clusters: full mesh is within budget
            self.base = n
            self.distances = tuple(range(1, n))
        else:
            b = max(2, math.ceil(n ** (1.0 / k)))
            dists: list[int] = []
            d = 1
            while d < n:
                dists.append(d)
                d *= b
            # the cap must hold even with ceil-rounding
            while len(dists) > k:
                dists.pop()
            self.base = b
            self.distances = tuple(dists)

    def neighbors(self, node: int) -> set[int]:
        i = self._pos[node]
        n = len(self.nodes)
        out: set[int] = set()
        for d in self.distances:
            out.add(self.nodes[(i + d) % n])
            out.add(self.nodes[(i - d) % n])
        out.discard(node)
        return out

    def reduce_schedule(self, root: int) -> list[list[tuple[int, int]]]:
        """Rounds of ``(src, dst)`` transfers folding every node's state
        into ``root`` — the binomial graph used for *reduction*, not just
        shuffle routing (paper §IV generalized).

        Round ``r`` pairs survivors ``2^r`` ring positions apart: a node
        whose offset from the root has lowest set bit ``2^r`` sends its
        (already locally reduced) state to the survivor ``2^r`` below it.
        Every non-root node sends exactly once, the root never sends, no
        node receives more than one stream per round, and the schedule is
        ``ceil(log2 n)`` rounds deep. Transfers follow ring offsets, so
        hop-by-hop delivery stays inside the graph's jump distances (the
        ``N_max`` connection bound holds; non-edge offsets are forwarded
        greedily like any other n-to-m traffic).
        """
        if root not in self._pos:
            raise TopologyError("node not in topology")
        n = len(self.nodes)
        ri = self._pos[root]

        def at(offset: int) -> int:
            return self.nodes[(ri + offset) % n]

        rounds: list[list[tuple[int, int]]] = []
        step = 1
        while step < n:
            pairs = [
                (at(off), at(off - step)) for off in range(step, n, 2 * step)
            ]
            rounds.append(pairs)
            step *= 2
        return rounds

    def route(self, src: int, dst: int) -> list[int]:
        if src not in self._pos or dst not in self._pos:
            raise TopologyError("node not in topology")
        n = len(self.nodes)
        path: list[int] = []
        cur = self._pos[src]
        target = self._pos[dst]
        guard = 0
        while cur != target:
            fwd = (target - cur) % n
            # greedy: largest jump not overshooting, in the shorter direction
            bwd = (cur - target) % n
            if fwd <= bwd:
                jump = max((d for d in self.distances if d <= fwd), default=None)
                if jump is None:
                    raise TopologyError("no usable jump; distances must include 1")
                cur = (cur + jump) % n
            else:
                jump = max((d for d in self.distances if d <= bwd), default=None)
                if jump is None:
                    raise TopologyError("no usable jump; distances must include 1")
                cur = (cur - jump) % n
            path.append(self.nodes[cur])
            guard += 1
            if guard > 4 * n:  # pragma: no cover - safety net
                raise TopologyError("routing failed to converge")
        return path
