"""Sampling graphs from step-graphons, and block-level edge tallies.

The sampling procedure: draw n coordinates uniformly on [0,1), assign each
node the block whose partition interval contains its coordinate, then
include each unordered node pair independently with the block-pair value
as probability.

Determinism contract: identical (graphon, n, seed) produce identical graphs
on every platform.  The master seed is split into a "coords" stream and an
"edges" stream (see `_seeds`), both PCG64; coordinates are drawn first,
then one uniform per pair in lexicographic pair order.  Breakpoints are
converted once to floats (correctly rounded); a coordinate exactly equal
to a breakpoint float goes to the right block.  Coordinates live in [0,1)
by generator convention, so the last breakpoint is never an issue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels
from ._seeds import derive, generator
from .model import SkeletonGraph, StepGraphon

COORDS_STREAM = "coords"
EDGES_STREAM = "edges"


def build_csr(nrows: int, ncols: int, rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays (indptr, indices) of the distinct (row, col) pairs, with
    each row's columns in ascending order."""
    keys = np.sort(np.asarray(rows, np.int64) * ncols + np.asarray(cols, np.int64))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // ncols, minlength=nrows), out=indptr[1:])
    return indptr, keys % ncols


@dataclass(eq=False)
class SampledGraph:
    """An undirected sampled graph with its block assignment.

    `edges` is an (m, 2) int array with rows (i, j), i < j, sorted
    lexicographically.  The adjacency is a symmetric CSR built lazily from
    it, each node's neighbours in ascending order.
    """

    n: int
    coords: np.ndarray
    blocks: np.ndarray
    edges: np.ndarray
    _csr: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.blocks = np.asarray(self.blocks, dtype=np.int64)
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if self.coords.shape != (self.n,) or self.blocks.shape != (self.n,):
            raise ValueError("coords and blocks must have length n")
        if self.edges.size and (
            self.edges.min() < 0
            or self.edges.max() >= self.n
            or np.any(self.edges[:, 0] == self.edges[:, 1])
        ):
            raise ValueError("edge endpoints must be distinct nodes in range")

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """The symmetric CSR (indptr, indices) of the graph."""
        if self._csr is None:
            i, j = self.edges[:, 0], self.edges[:, 1]
            self._csr = build_csr(
                self.n, self.n, np.concatenate([i, j]), np.concatenate([j, i])
            )
        return self._csr

    def neighbors(self, v: int) -> np.ndarray:
        indptr, indices = self.adjacency()
        return indices[indptr[v]:indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        k = int(np.searchsorted(row, v))
        return k < row.size and int(row[k]) == v

    def pair_set(self) -> set[tuple[int, int]]:
        return {(int(i), int(j)) for i, j in self.edges}


@dataclass(frozen=True)
class BalancedMatrix:
    """Nonnegative integer block-pair tallies, balanced and of fixed total.

    Represents the rational matrix counts/scale: row sums equal column sums
    entrywise and the grand total equals the scale, so the rational matrix
    has row sums matching column sums and total mass one.
    """

    scale: int
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        counts = tuple(tuple(int(v) for v in row) for row in self.counts)
        object.__setattr__(self, "counts", counts)
        q = len(counts)
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        if any(len(row) != q for row in counts):
            raise ValueError("counts must be square")
        if any(v < 0 for row in counts for v in row):
            raise ValueError("counts must be nonnegative")
        for i in range(q):
            if sum(counts[i]) != sum(counts[r][i] for r in range(q)):
                raise ValueError(f"row/column sums differ at index {i}")
        if sum(sum(row) for row in counts) != self.scale:
            raise ValueError("total count must equal the scale")

    @property
    def q(self) -> int:
        return len(self.counts)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    def as_fractions(self) -> tuple[tuple[Fraction, ...], ...]:
        if self.scale == 0:
            return tuple(tuple(Fraction(0) for _ in row) for row in self.counts)
        return tuple(tuple(Fraction(v, self.scale) for v in row) for row in self.counts)

    def min_positive(self) -> Fraction | None:
        vals = [v for row in self.counts for v in row if v > 0]
        return Fraction(min(vals), self.scale) if vals else None


def _float_boundaries(w: StepGraphon) -> np.ndarray:
    # interior breakpoints only; float(Fraction) rounds correctly
    return np.array([float(b) for b in w.partition.breakpoints[1:-1]], dtype=np.float64)


def assign_blocks(w: StepGraphon, coords: np.ndarray) -> np.ndarray:
    """Block index per coordinate under the half-open interval convention."""
    bounds = _float_boundaries(w)
    return np.searchsorted(bounds, coords, side="right").astype(np.int64)


def sample_graph(w: StepGraphon, n: int, seed: int) -> SampledGraph:
    """Draw a graph on n nodes from the step-graphon, deterministically."""
    if n < 1:
        raise ValueError("n must be at least 1")
    coords = generator(derive(seed, COORDS_STREAM)).random(n)
    blocks = assign_blocks(w, coords)
    probs = np.array([[float(v) for v in row] for row in w.values], dtype=np.float64)
    m = n * (n - 1) // 2
    u = generator(derive(seed, EDGES_STREAM)).random(m)
    ei, ej = _kernels.scan_pairs(blocks, probs, u)
    return SampledGraph(n, coords, blocks, np.column_stack([ei, ej]))


def empirical_concentration(g: SampledGraph, q: int) -> tuple[Fraction, ...]:
    """Per-block node fractions, exact."""
    if g.blocks.size and int(g.blocks.max()) >= q:
        raise ValueError("block index out of range")
    counts = np.bincount(g.blocks, minlength=q)
    return tuple(Fraction(int(c), g.n) for c in counts)


def saturate_graph(g: SampledGraph, s: SkeletonGraph) -> SampledGraph:
    """All pairs whose block pair is supported: the complete multipartite
    graph over the skeleton, on this graph's nodes."""
    q = s.node_count
    probs = np.zeros((q, q))
    for i in s.loops:
        probs[i, i] = 1.0
    for i, j in s.edges:
        probs[i, j] = probs[j, i] = 1.0
    # all-zero draws against 0/1 probabilities hit exactly the supported pairs
    ei, ej = _kernels.scan_pairs(g.blocks, probs, np.zeros(g.n * (g.n - 1) // 2))
    return SampledGraph(g.n, g.coords.copy(), g.blocks.copy(), np.column_stack([ei, ej]))


def count_block_edges(h, blocks, q: int, s: SkeletonGraph) -> BalancedMatrix:
    """Tally the directed edges of a decomposition by block pair.

    Every directed edge (v, successor(v)) must project to a supported block
    pair; the result is balanced with row sums equal to the block sizes.
    """
    n = len(blocks)
    counts = [[0] * q for _ in range(q)]
    for cycle in h.cycles:
        k = len(cycle)
        for t in range(k):
            a = int(blocks[cycle[t]])
            b = int(blocks[cycle[(t + 1) % k]])
            if a == b:
                if a not in s.loops:
                    raise ValueError(
                        f"edge within block {a} not supported (no loop in skeleton)"
                    )
            elif (min(a, b), max(a, b)) not in s.edges:
                raise ValueError(f"edge between blocks {a},{b} not in skeleton")
            counts[a][b] += 1
    return BalancedMatrix(n, tuple(tuple(row) for row in counts))
