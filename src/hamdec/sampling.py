"""Sampling graphs from step-graphons, and block-level edge tallies.

The sampling procedure: draw n coordinates uniformly on [0,1), assign each
node the block whose partition interval contains its coordinate, then
include each unordered node pair independently with the block-pair value
as probability.

Determinism contract: identical (graphon, n, seed) produce identical graphs
on every platform.  The master seed is split into a "coords" stream and an
"edges" stream (see `_seeds`), both PCG64; coordinates are drawn first,
then one uniform per pair in lexicographic pair order, drawn for one band
of whole rows at a time (`sample_graph`) so that one band's uniforms are
held at a time.  Breakpoints are converted once to floats (correctly
rounded); a coordinate exactly equal to a breakpoint float goes to the
right block.  Coordinates live in [0,1) by generator convention, so the
last breakpoint never matters, and `sample_graph(saturate(w), n, seed)`
is the saturated graph (every pair of a supported block pair) on the nodes
of `sample_graph(w, n, seed)`.

A graph is stored as one packed bit matrix of n * ceil(n/8) bytes, which
the sampler draws straight into.  Step-graphon samples are dense (m ~ p
n^2 / 2 edges at edge density p), so this is ~64p times smaller than
adjacency lists of 2m int64 entries: 12.5 MB against ~267 MB at
triangle-1/2 (p = 1/3), n=10^4.  Only `SampledGraph` reads its bytes: it
gives the matching row masks and the Hall check a neighbour count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._seeds import derive, generator
from .model import SkeletonGraph, StepGraphon

COORDS_STREAM = "coords"
EDGES_STREAM = "edges"

# Cells of the band of rows (whole rows, at least one) the sampler draws,
# thresholds and packs at a time, and that the edge views unpack.  A drawn
# band holds ~18 bytes per cell: uniforms, thresholds and masks.  Median
# sample time on a 2-CPU x86-64 host, numpy 2.4, triangle-1/2, band 2^14 /
# 2^15 / 2^16 / 2^17 / 2^18 / 2^20 cells: n=1000 7.5 / 6.5 / 6.4 / 7.3 /
# 8.7 / 14.4 ms; n=3000 63 / 54 / 54 / 55 / 60 / 79 ms.  n=200 fits one
# band of 2^16 (0.6-0.75 ms).
BAND_CELLS = 1 << 16


def _int_array(values, what: str) -> np.ndarray:
    """int64 array of integer input; floats pass only if integral (or none)."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and not (arr.dtype.kind == "f" and np.all(arr % 1 == 0)):
        raise ValueError(f"{what} must be integers")
    return arr.astype(np.int64, copy=False)


def _nodes(n, coords, blocks) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates and block labels of n nodes, checked."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("n must be a positive integer")
    coords = np.asarray(coords, dtype=np.float64)
    blocks = _int_array(blocks, "block labels")
    if coords.shape != (n,) or blocks.shape != (n,):
        raise ValueError("coords and blocks must have length n")
    if blocks.size and blocks.min() < 0:
        raise ValueError("block labels must be nonnegative")
    return coords, blocks


@dataclass(eq=False)
class SampledGraph:
    """An undirected graph on n nodes with its block assignment.

    `bits` is the (n, ceil(n/8)) uint8 adjacency matrix, packed
    little-endian: bit u of row v (byte u // 8, bit u % 8) is set iff {u, v}
    is an edge.  It is symmetric, with the diagonal and the padding bits
    past column n - 1 clear; `sample_graph` and `from_edges` build it so.
    `edges`, `edge_count` and `pair_set` are read off its upper triangle.
    """

    n: int
    coords: np.ndarray
    blocks: np.ndarray
    bits: np.ndarray

    def __post_init__(self):
        self.coords, self.blocks = _nodes(self.n, self.coords, self.blocks)
        bits, shape = self.bits, (self.n, (self.n + 7) // 8)
        if not (isinstance(bits, np.ndarray) and bits.dtype == np.uint8 and bits.shape == shape):
            raise ValueError("bits must be an (n, ceil(n/8)) uint8 matrix")

    @classmethod
    def from_edges(cls, n, coords, blocks, edges) -> SampledGraph:
        """The graph with the given (m, 2) edges, in any orientation and
        order.  An endpoint out of range, a self-loop or a repeated edge
        raises ValueError."""
        coords, blocks = _nodes(n, coords, blocks)
        edges = _int_array(edges, "edge endpoints").reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoints must be nodes in range")
        i, j = edges[:, 0], edges[:, 1]
        if np.any(i == j):
            raise ValueError("edge endpoints must be distinct nodes")
        keys = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
        repeated = np.flatnonzero(keys[1:] == keys[:-1])
        if repeated.size:
            k = int(keys[repeated[0]])
            raise ValueError(f"edge ({k // n}, {k % n}) appears more than once")
        bits = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
        for u, v in ((i, j), (j, i)):
            np.bitwise_or.at(bits, (u, v >> 3), np.uint8(1) << (v & 7).astype(np.uint8))
        return cls(n, coords, blocks, bits)

    def adjacency(self) -> np.ndarray:
        """The packed adjacency matrix `bits`: every reader goes through here."""
        return self.bits

    def _node_array(self, nodes, what: str) -> np.ndarray:
        """`nodes` as int64; one out of range or repeated raises ValueError."""
        nodes = np.asarray(nodes, dtype=np.int64)
        listed = nodes.tolist()  # on a few dozen nodes, Python's min, max and set beat numpy's
        if listed and (min(listed) < 0 or max(listed) >= self.n):
            raise ValueError(f"{what} must be nodes of the graph")
        if len(set(listed)) != len(listed):
            raise ValueError(f"{what} must be distinct")
        return nodes

    def row_masks(self, rows=None, cols=None) -> list[int]:
        """The rows of the nodes `rows` (default: all, in order) as Python
        ints: bit k is column k, or column `cols[k]` when `cols` is given.
        A node out of range or repeated in either list raises ValueError."""
        bits = self.adjacency()
        if rows is not None:
            bits = bits[self._node_array(rows, "rows")]
        if cols is not None:
            dense = np.unpackbits(bits, axis=1, bitorder="little")[:, self._node_array(cols, "columns")]
            bits = np.packbits(dense, axis=1, bitorder="little")
        width, raw = bits.shape[1], bits.tobytes()
        return [int.from_bytes(raw[k * width:(k + 1) * width], "little") for k in range(len(bits))]

    def neighbor_count(self, nodes) -> int:
        """|N(nodes)|, for distinct nodes in range (else ValueError)."""
        reached = np.bitwise_or.reduce(self.adjacency()[self._node_array(nodes, "nodes")], axis=0)
        return int(np.count_nonzero(np.unpackbits(reached)))

    def _upper_bands(self):
        """(r0, band) for each band of rows from r0: the rows' upper-triangle
        cells, one byte each."""
        n = self.n
        rows = max(1, BAND_CELLS // n)
        for r0 in range(0, n, rows):
            band = np.unpackbits(self.adjacency()[r0:r0 + rows], axis=1, count=n, bitorder="little")
            yield r0, np.triu(band, r0 + 1)

    @property
    def edge_count(self) -> int:
        return sum(int(np.count_nonzero(band)) for _, band in self._upper_bands())

    @property
    def edges(self) -> np.ndarray:
        """The (m, 2) int64 edges (i, j), i < j, in lexicographic order,
        read off the matrix on each access."""
        out = np.empty((self.edge_count, 2), dtype=np.int64)
        k = 0
        for r0, band in self._upper_bands():
            i, j = np.nonzero(band)
            out[k:k + i.size, 0] = i + r0
            out[k:k + i.size, 1] = j
            k += i.size
        return out

    def neighbors(self, v: int) -> np.ndarray:
        """v's neighbours, ascending."""
        if not 0 <= v < self.n:
            raise ValueError(f"node {v} is not a node of the graph")
        row = np.unpackbits(self.adjacency()[v], count=self.n, bitorder="little")
        return np.flatnonzero(row)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.has_edges([u], [v])[0])

    def has_edges(self, us, vs) -> np.ndarray:
        """Whether each pair (us[k], vs[k]) is an edge, as a bool array; a
        node out of range has no edges."""
        bits = self.adjacency()
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        found = (us >= 0) & (us < self.n) & (vs >= 0) & (vs < self.n)
        u, v = us[found], vs[found]
        found[found] = (bits[u, v >> 3] >> (v & 7)) & 1 == 1
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
    """Draw a graph on n nodes from the step-graphon, deterministically.

    The matrix is drawn one band of at most `BAND_CELLS` cells (whole rows)
    at a time.  A band's pairs (i, j), i < j, take the next uniforms of the
    edges stream: boolean-mask assignment fills in row-major order, so the
    k-th uniform meets the k-th pair in lexicographic order.  The band draws
    only its columns from its first row on; its cells there not above the
    diagonal hold 1.0, below no probability, so they stay clear.  Earlier
    columns come from the finished rows, transposed; its square is mirrored.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    coords = generator(derive(seed, COORDS_STREAM)).random(n)
    blocks = assign_blocks(w, coords)
    probs = np.array([[float(v) for v in row] for row in w.values], dtype=np.float64)
    thresholds = probs[:, blocks]  # row a, column j: a block-a node's pair with j
    rng = generator(derive(seed, EDGES_STREAM))
    bits = np.empty((n, (n + 7) // 8), dtype=np.uint8)
    rows = max(1, BAND_CELLS // n)
    tri = np.arange(n) > np.arange(rows)[:, None]  # column r0 + c above row r0 + k iff c > k
    for r0 in range(0, n, rows):
        r1 = min(n, r0 + rows)
        upper = tri[:r1 - r0, :n - r0]
        u = np.ones(upper.shape)
        u[upper] = rng.random(np.count_nonzero(upper))
        strip = np.unpackbits(bits[:r0, r0 >> 3:(r1 + 7) >> 3], axis=1, bitorder="little")
        left = strip[:, r0 & 7:(r0 & 7) + r1 - r0].T.view(bool)
        band = np.hstack([left, u < thresholds[blocks[r0:r1], r0:]])
        square = band[:, r0:r1]
        square |= square.T
        bits[r0:r1] = np.packbits(band, axis=1, bitorder="little")
    return SampledGraph(n, coords, blocks, bits)


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
