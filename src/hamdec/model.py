"""Step-graphons and the combinatorial objects they induce.

A step-graphon is a symmetric [0,1]-valued function that is constant on the
rectangles of a grid partition of the unit square.  From it we derive the
concentration vector (block interval lengths), the skeleton graph (support
pattern, with self-loops), and the incidence matrix whose columns generate
the edge polytope.  `SkeletonGraph.supports` is the one test of whether a
block pair is in the skeleton; one BFS 2-coloring of the pair edges gives
both the connected components and the odd-cycle test.  Z is laid out here
alone: an `IncidenceMatrix` holds only its skeleton, and Z c and the
integer rows of 2Z are read off the edge order, never stored.

All breakpoint and block-value arithmetic is exact (`fractions.Fraction`):
whether a vector sits on the boundary of a polytope is a measure-zero
distinction that floats would destroy.  Floats appear only in sampling
(see `sampling`).  Blocks and skeleton nodes are 0-indexed.

Per-call tuples are built from lists: CPython resizes a generator-built
tuple, and its free lists then keep up to 2000 freed tuples of each size
up to 20 until a full garbage collection, which integer code seldom runs.

Edge ordering convention, used everywhere a coefficient vector refers to
edges: self-loops first in ascending node order, then distinct-node pairs
(i, j) with i < j in lexicographic order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class DisconnectedSkeletonError(ValueError):
    """Raised when an analysis step requires a connected skeleton."""

    def __init__(self, components: Sequence[frozenset[int]]):
        self.components = tuple(components)
        parts = ", ".join("{" + ",".join(map(str, sorted(c))) + "}" for c in self.components)
        super().__init__(f"skeleton graph is disconnected; components: {parts}")


def _as_fraction(value) -> Fraction:
    """The exact rational of a Fraction, an int, a float (its exact binary
    value) or a decimal or "p/q" string.  Any other type, bool included,
    raises TypeError; a string that is no rational, a zero denominator or a
    non-finite float raises ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str, float)):
        raise TypeError(f"cannot interpret {value!r} as an exact rational")
    try:
        return Fraction(value)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{value!r} is not a finite rational") from exc


@dataclass(frozen=True)
class Partition:
    """Strictly increasing breakpoints 0 = s_0 < s_1 < ... < s_q = 1."""

    breakpoints: tuple[Fraction, ...]

    def __post_init__(self):
        bps = tuple(_as_fraction(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if len(bps) < 2:
            raise ValueError("a partition needs at least two breakpoints")
        if bps[0] != 0 or bps[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def q(self) -> int:
        return len(self.breakpoints) - 1

    def interval(self, block: int) -> tuple[Fraction, Fraction]:
        return self.breakpoints[block], self.breakpoints[block + 1]

    def block_of(self, point) -> int:
        """Block whose half-open interval [s_i, s_{i+1}) contains the point."""
        p = _as_fraction(point)
        if not 0 <= p < 1:
            raise ValueError("point must lie in [0, 1)")
        return bisect_right(self.breakpoints, p) - 1


@dataclass(frozen=True)
class StepGraphon:
    """A partition plus the symmetric q x q matrix of block values."""

    partition: Partition
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        q = self.partition.q
        vals = tuple(tuple(_as_fraction(v) for v in row) for row in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != q or any(len(row) != q for row in vals):
            raise ValueError(f"values must be a {q}x{q} matrix")
        for i in range(q):
            for j in range(q):
                if not 0 <= vals[i][j] <= 1:
                    raise ValueError(f"values[{i}][{j}] outside [0, 1]")
                if vals[i][j] != vals[j][i]:
                    raise ValueError("values matrix must be symmetric")

    @property
    def q(self) -> int:
        return self.partition.q

    def value_at(self, u, v) -> Fraction:
        """Function value at a point of [0,1) x [0,1)."""
        return self.values[self.partition.block_of(u)][self.partition.block_of(v)]


def step_graphon(breakpoints: Iterable, values: Iterable[Iterable]) -> StepGraphon:
    """Convenience constructor accepting ints, strings, and Fractions."""
    return StepGraphon(Partition(tuple(breakpoints)), tuple(tuple(row) for row in values))


@dataclass(frozen=True)
class SkeletonGraph:
    """Support graph of a step-graphon: loops F0 plus distinct-pair edges F1."""

    node_count: int
    loops: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "loops", frozenset(self.loops))
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        if self.node_count < 1:
            raise ValueError("skeleton needs at least one node")
        for i in self.loops:
            if not 0 <= i < self.node_count:
                raise ValueError(f"loop node {i} out of range")
        for i, j in self.edges:
            if not (0 <= i < j < self.node_count):
                raise ValueError(f"edge ({i},{j}) must satisfy 0 <= i < j < q")

    @property
    def f2_edges(self) -> frozenset[tuple[int, int]]:
        """Edges not joining two looped nodes (the extremal pair edges)."""
        return frozenset(
            (i, j) for i, j in self.edges if not (i in self.loops and j in self.loops)
        )

    @property
    def edge_count(self) -> int:
        return len(self.loops) + len(self.edges)

    def supports(self, a: int, b: int) -> bool:
        """Whether block pair (a, b) is in the skeleton (a loop when a == b)."""
        return a in self.loops if a == b else (min(a, b), max(a, b)) in self.edges


@dataclass(frozen=True)
class IncidenceMatrix:
    """q x |F| matrix whose columns are probability vectors, one per edge.

    A loop column is the indicator of its node; a distinct-pair column puts
    1/2 on each endpoint.  `edge_order` fixes the column index set: entry
    (i, i) denotes the loop at i, entry (i, j) with i < j the pair edge.
    Only the skeleton is held: Z is read off the edge order, never stored.
    """

    skeleton: SkeletonGraph

    @property
    def edge_order(self) -> tuple[tuple[int, int], ...]:
        return edge_order(self.skeleton)

    @property
    def shape(self) -> tuple[int, int]:
        return self.skeleton.node_count, self.skeleton.edge_count

    def apply(self, c) -> tuple[Fraction, ...]:
        """Z c, exactly; c has one coefficient per column."""
        return edge_sum(self.skeleton.node_count, self.edge_order, c)

    def doubled_rows(self) -> list[list[int]]:
        """The integer rows of 2Z: a loop puts 2 in its block's row, a pair
        edge 1 in each end's row."""
        rows = [[0] * self.shape[1] for _ in range(self.shape[0])]
        for k, (i, j) in enumerate(self.edge_order):  # a loop takes both ones
            rows[i][k] += 1
            rows[j][k] += 1
        return rows


def edge_sum(q: int, order, c) -> tuple[Fraction, ...]:
    """Z c on q blocks with edge order `order`, over one common denominator:
    a loop adds its coefficient to its block, a pair edge half of it to each
    end.  A c of the wrong length raises ValueError."""
    c = [v if isinstance(v, Fraction) else Fraction(v) for v in c]
    if len(c) != len(order):
        raise ValueError(f"{len(c)} coefficients for {len(order)} edges")
    lcm = math.lcm(*[v.denominator for v in c])
    sums = doubled_edge_sum(q, order, [v.numerator * (lcm // v.denominator) for v in c])
    return tuple([Fraction(t, 2 * lcm) for t in sums])


def doubled_edge_sum(q: int, order, c) -> list[int]:
    """2Z c for integer c on q blocks with edge order `order`: a loop adds
    twice its coefficient to its block, a pair edge its coefficient to each
    end."""
    sums = [0] * q
    for (i, j), v in zip(order, c):  # a loop takes both
        sums[i] += v
        sums[j] += v
    return sums


def edge_order(s: SkeletonGraph) -> tuple[tuple[int, int], ...]:
    """Canonical edge index set: loops first, then pairs, lexicographic."""
    return tuple([(i, i) for i in sorted(s.loops)] + sorted(s.edges))


def concentration(partition: Partition) -> tuple[Fraction, ...]:
    """Interval lengths s_i - s_{i-1}; the expected block proportions."""
    bps = partition.breakpoints
    return tuple([bps[i + 1] - bps[i] for i in range(partition.q)])


def skeleton(graphon: StepGraphon) -> SkeletonGraph:
    """Support graph: loop at i iff the diagonal block is nonzero, edge
    (i, j) iff the off-diagonal block is."""
    q = graphon.q
    vals = graphon.values
    # values are Fractions in [0, 1] (`StepGraphon` checks), so truth is sign
    loops = frozenset(i for i in range(q) if vals[i][i])
    edges = frozenset((i, j) for i in range(q) for j in range(i + 1, q) if vals[i][j])
    return SkeletonGraph(q, loops, edges)


def saturate(graphon: StepGraphon) -> StepGraphon:
    """Binary step-graphon with the same support."""
    vals = tuple(
        tuple(Fraction(1) if v else Fraction(0) for v in row) for row in graphon.values
    )
    return StepGraphon(graphon.partition, vals)


def incidence(s: SkeletonGraph) -> IncidenceMatrix:
    return IncidenceMatrix(s)


def loopless(s: SkeletonGraph) -> SkeletonGraph:
    """The subgraph keeping only distinct-pair edges."""
    return SkeletonGraph(s.node_count, frozenset(), s.edges)


def _traverse(s: SkeletonGraph) -> tuple[list[frozenset[int]], bool]:
    """BFS 2-coloring of the pair edges: the components, ordered by smallest
    member, and whether some edge joins two nodes of one color (an odd
    cycle among the pair edges; loops neither connect nor count)."""
    adj: list[list[int]] = [[] for _ in range(s.node_count)]
    for i, j in s.edges:
        adj[i].append(j)
        adj[j].append(i)
    color = [-1] * s.node_count
    comps, odd = [], False
    for start in range(s.node_count):
        if color[start] == -1:
            color[start] = 0
            comp = [start]
            for u in comp:  # the component list is the BFS queue
                for v in adj[u]:
                    if color[v] == -1:
                        color[v] = color[u] ^ 1
                        comp.append(v)
                    odd = odd or color[v] == color[u]
            comps.append(frozenset(comp))
    return comps, odd


def has_odd_cycle(s: SkeletonGraph) -> bool:
    """True iff the graph has a self-loop or a non-bipartite pair-edge part."""
    return bool(s.loops) or _traverse(s)[1]


def connected_components(s: SkeletonGraph) -> list[frozenset[int]]:
    """Maximal connected node sets under pair edges (loops do not connect),
    ordered by smallest member."""
    return _traverse(s)[0]


def is_connected(s: SkeletonGraph) -> bool:
    return len(connected_components(s)) == 1
