"""Sampling graphs from step-graphons, and block-level edge tallies.

The sampling procedure: draw n coordinates uniformly on [0,1), assign each
node the block whose partition interval contains its coordinate, then
include each unordered node pair independently with the block-pair value
as probability.

Determinism contract: identical (graphon, n, seed) produce identical graphs
on every platform.  The master seed is split into a "coords" stream and an
"edges" stream (see `_seeds`), both PCG64; coordinates are drawn first,
then one uniform per pair in lexicographic pair order, drawn in passes of
whole rows (`_kernels.scan_pairs`) so that one pass's uniforms are held at
a time.  Breakpoints are converted once to floats (correctly rounded); a
coordinate exactly equal to a breakpoint float goes to the right block.
Coordinates live in [0,1) by generator convention, so the last breakpoint
is never an issue, and `sample_graph(saturate(w), n, seed)` is the
saturated graph (every pair of a supported block pair) on the nodes of
`sample_graph(w, n, seed)`.
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


def _canonical_edges(n: int, edges: np.ndarray) -> np.ndarray:
    """The (m, 2) edges as distinct rows (i, j), i < j, in lexicographic order.

    Sampled edges already are, which one O(m) pass confirms; other input is
    oriented and sorted.  An endpoint out of range, a self-loop or a repeated
    edge raises ValueError.
    """
    if edges.size == 0:
        return edges
    if edges.min() < 0 or edges.max() >= n:
        raise ValueError("edge endpoints must be nodes in range")
    i, j = edges[:, 0], edges[:, 1]
    keys = i * n + j
    if np.all(i < j) and np.all(keys[1:] > keys[:-1]):
        return edges
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    if np.any(lo == hi):
        raise ValueError("edge endpoints must be distinct nodes")
    keys = np.sort(lo * n + hi)
    repeated = np.flatnonzero(keys[1:] == keys[:-1])
    if repeated.size:
        k = int(keys[repeated[0]])
        raise ValueError(f"edge ({k // n}, {k % n}) appears more than once")
    return np.column_stack([keys // n, keys % n])


def _int_array(values, what: str) -> np.ndarray:
    """int64 array of integer input; floats pass only if integral (or none)."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and not (arr.dtype.kind == "f" and np.all(arr % 1 == 0)):
        raise ValueError(f"{what} must be integers")
    return arr.astype(np.int64, copy=False)


@dataclass(eq=False)
class SampledGraph:
    """An undirected sampled graph with its block assignment.

    `edges` is an (m, 2) int array with rows (i, j), i < j, sorted
    lexicographically; edges given in another orientation or order are
    stored that way.  The adjacency is a symmetric CSR built lazily from it,
    each node's neighbours in ascending order.
    """

    n: int
    coords: np.ndarray
    blocks: np.ndarray
    edges: np.ndarray
    _csr: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError("n must be a positive integer")
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.blocks = _int_array(self.blocks, "block labels")
        self.edges = _canonical_edges(
            self.n, _int_array(self.edges, "edge endpoints").reshape(-1, 2)
        )
        if self.coords.shape != (self.n,) or self.blocks.shape != (self.n,):
            raise ValueError("coords and blocks must have length n")
        if self.blocks.size and self.blocks.min() < 0:
            raise ValueError("block labels must be nonnegative")

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """The symmetric CSR (indptr, indices) of the graph.

        The edges are canonical, so one stable sort of the entries (j, i) then
        (i, j) by row leaves each node's lower neighbours first and ascending,
        then its upper ones: every row is ascending and nothing repeats.  Rows
        held in the smallest unsigned dtype that fits n - 1 let numpy
        radix-sort them.
        """
        if self._csr is None:
            i, j = self.edges[:, 0], self.edges[:, 1]
            rows = np.concatenate([j, i]).astype(np.min_scalar_type(self.n - 1))
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
            indices = np.concatenate([i, j])[np.argsort(rows, kind="stable")]
            self._csr = (indptr, indices)
        return self._csr

    def neighbors(self, v: int) -> np.ndarray:
        indptr, indices = self.adjacency()
        return indices[indptr[v]:indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.has_edges([u], [v])[0])

    def has_edges(self, us, vs) -> np.ndarray:
        """Whether each pair (us[k], vs[k]) is an edge, as a bool array.

        One bisection of every pair's CSR row at once: as many numpy passes
        as the longest row's length has bits, and no array the size of the
        edge list.
        """
        indptr, indices = self.adjacency()
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        lo, end = indptr[us], indptr[us + 1]
        hi = end
        for _ in range(int(np.diff(indptr).max(initial=0)).bit_length()):
            # the first position of each row whose neighbour is not below v;
            # a finished search (lo == hi) stays put, whatever it probes
            mid = (lo + hi) // 2
            right = (lo < hi) & (indices[np.minimum(mid, indices.size - 1)] < vs)
            lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        found = lo < end
        found[found] = indices[lo[found]] == vs[found]
        return found

    def pair_set(self) -> set[tuple[int, int]]:
        return {(int(i), int(j)) for i, j in self.edges}


@dataclass(frozen=True)
class BalancedMatrix:
    """Nonnegative integer block-pair tallies with row sums equal to column sums.

    Represents the rational matrix counts/scale, where the scale is the total
    count: its row sums match its column sums and its total mass is one.
    """

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        counts = tuple(tuple(int(v) for v in row) for row in self.counts)
        object.__setattr__(self, "counts", counts)
        q = len(counts)
        if any(len(row) != q for row in counts):
            raise ValueError("counts must be square")
        if any(v < 0 for row in counts for v in row):
            raise ValueError("counts must be nonnegative")
        for i in range(q):
            if sum(counts[i]) != sum(counts[r][i] for r in range(q)):
                raise ValueError(f"row/column sums differ at index {i}")

    @property
    def q(self) -> int:
        return len(self.counts)

    @property
    def scale(self) -> int:
        return sum(map(sum, self.counts))

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

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
    ei, ej = _kernels.scan_pairs(blocks, probs, generator(derive(seed, EDGES_STREAM)))
    return SampledGraph(n, coords, blocks, np.column_stack([ei, ej]))


def empirical_concentration(g: SampledGraph, q: int) -> tuple[Fraction, ...]:
    """Per-block node fractions, exact."""
    if g.blocks.size and int(g.blocks.max()) >= q:
        raise ValueError("block index out of range")
    counts = np.bincount(g.blocks, minlength=q)
    return tuple(Fraction(int(c), g.n) for c in counts)


def count_block_edges(h, blocks, s: SkeletonGraph) -> BalancedMatrix:
    """Tally the directed edges of a decomposition by block pair.

    `blocks` labels each of h's nodes with a block of s.  Every directed edge
    (v, successor(v)) must project to a supported block pair, or ValueError
    names the first node whose edge does not; the result is balanced with
    row sums equal to the block sizes.
    """
    if len(blocks) != h.n:
        raise ValueError("need one block label per node of the decomposition")
    q = s.node_count
    succ = np.asarray(h.successor, dtype=np.int64)
    a = np.asarray(blocks, dtype=np.int64)
    b = a[succ]
    support = np.array([[s.supports(i, j) for j in range(q)] for i in range(q)], dtype=bool)
    inside = (a >= 0) & (a < q) & (b >= 0) & (b < q)
    ok = np.zeros(h.n, dtype=bool)
    ok[inside] = support[a[inside], b[inside]]
    if not ok.all():
        v = int(np.argmin(ok))
        raise ValueError(
            f"edge {v}->{int(succ[v])}: block pair ({int(a[v])},{int(b[v])}) not in skeleton"
        )
    counts = np.bincount(a * q + b, minlength=q * q).reshape(q, q)
    return BalancedMatrix(tuple(map(tuple, counts.tolist())))
