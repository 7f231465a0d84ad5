"""Integer maximum flow (Edmonds-Karp) on small networks.

Two exact computations rest on it, and they ask different things of it:

- `polytope.hall_violator` decides Hall's condition on a skeleton's double
  cover and reads a violating block set off a minimum cut.  It needs only
  the flow value and the residual reachability, which every maximum flow
  shares, so it seeds the network with a greedy flow (`push`) and lets
  `run` augment the remainder.
- `construct.matrix_round` routes the rounding deficits of a fractional
  matrix through its fractional cells and reads *which* cells carry flow.
  Another maximum flow rounds other cells, so it must not seed: it runs the
  plain shortest-augmenting-path order from the zero flow, which fixes
  the tally and every output byte downstream of it.

Capacities are Python ints, so every flow value is exact.
"""

from __future__ import annotations

from collections import deque


class MaxFlow:
    """A flow network on nodes 0..n-1; arcs are added with `add`."""

    def __init__(self, n: int):
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []  # residual capacities; arc k's reverse is k ^ 1

    def add(self, u: int, v: int, c: int) -> int:
        """Add an arc u -> v of capacity c; returns its index into `cap`."""
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(c)
        self.adj[u].append(idx)
        self.to.append(u)
        self.cap.append(0)
        self.adj[v].append(idx + 1)
        return idx

    def _bfs(self, src: int) -> list[int]:
        """Residual BFS from src: the arc each node was first reached by, -2
        at src and -1 where not reached."""
        parent = [-1] * len(self.adj)
        parent[src] = -2
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for ei in self.adj[u]:
                v = self.to[ei]
                if parent[v] == -1 and self.cap[ei] > 0:
                    parent[v] = ei
                    queue.append(v)
        return parent

    def run(self, src: int, dst: int) -> int:
        """Augment the present flow (zero, unless seeded by `push`) to a
        maximum one from src to dst along shortest augmenting paths; returns
        the value added."""
        flow = 0
        while True:
            parent = self._bfs(src)
            if parent[dst] == -1:
                return flow
            path = []
            v = dst
            while v != src:
                path.append(parent[v])
                v = self.to[parent[v] ^ 1]
            aug = min(self.cap[ei] for ei in path)
            self.push(path, aug)
            flow += aug

    def push(self, path, amount: int) -> None:
        """Send `amount` along the arcs `path` (indices from `add`); the
        caller keeps it within every arc's residual capacity."""
        for ei in path:
            self.cap[ei] -= amount
            self.cap[ei ^ 1] += amount

    def source_side(self, src: int) -> list[bool]:
        """The nodes reachable from src in the residual network.

        After `run`, they are the source side of a minimum cut: every arc
        leaving them is saturated, so the cut's capacity is the flow value.
        """
        return [p != -1 for p in self._bfs(src)]
