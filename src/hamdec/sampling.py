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

A graph keeps its edges canonical and builds one adjacency from them, on
first use: a packed bit matrix of n * ceil(n/8) bytes.  Step-graphon
samples are dense (m ~ p n^2 / 2 edges at edge density p), so this is ~64p
times smaller than adjacency lists of 2m int64 entries: 12.5 MB against
~267 MB at triangle-1/2 (p = 1/3), n=10^4.  The matching, the existence
oracle and the cycle embedding all read it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels
from ._seeds import derive, generator
from .model import SkeletonGraph, StepGraphon

COORDS_STREAM = "coords"
EDGES_STREAM = "edges"


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


# Cells (one byte each) of the unpacked band of rows `SampledGraph.adjacency`
# fills at a time, and edges placed per numpy pass.  Whatever n and m are,
# the band and the strip it copies from finished rows hold ~2^22 bytes
# together, and a pass's cell indices ~2^19.  At triangle-1/2 n=1000 (one
# band) the build takes ~1.5 ms on a 2-CPU x86-64 host with numpy 2.4.
ADJACENCY_BAND_CELLS = 1 << 21
ADJACENCY_EDGE_PASS = 1 << 15


@dataclass(eq=False)
class SampledGraph:
    """An undirected sampled graph with its block assignment.

    `edges` is an (m, 2) int array with rows (i, j), i < j, sorted
    lexicographically; edges given in another orientation or order are
    stored that way.  The adjacency is a packed bit matrix built lazily
    from it.
    """

    n: int
    coords: np.ndarray
    blocks: np.ndarray
    edges: np.ndarray
    _bits: np.ndarray | None = field(default=None, init=False, repr=False)

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

    def adjacency(self) -> np.ndarray:
        """The (n, ceil(n/8)) uint8 adjacency matrix, packed little-endian:
        bit u of row v (byte u // 8, bit u % 8) is set iff {u, v} is an edge.

        Built on first use, one band of rows (at most `ADJACENCY_BAND_CELLS`
        cells, unpacked) at a time.  A band takes its neighbours in earlier
        bands from their finished rows (the band's columns, transposed), and
        the rest from the edges (i, j) with i in the band, which canonical
        edges hold in one slice: cell (i, j) always, cell (j, i) when j is
        in the band too.
        """
        if self._bits is None:
            n = self.n
            bits = np.empty((n, (n + 7) // 8), dtype=np.uint8)
            rows = max(1, ADJACENCY_BAND_CELLS // n)
            for r0 in range(0, n, rows):
                bits[r0:r0 + rows] = self._adjacency_band(bits, r0, min(n, r0 + rows))
            self._bits = bits
        return self._bits

    def _adjacency_band(self, bits: np.ndarray, r0: int, r1: int) -> np.ndarray:
        """Rows r0..r1-1 of the packed adjacency, given the rows before r0."""
        n = self.n
        band = np.zeros((r1 - r0, n), dtype=bool)
        strip = np.unpackbits(bits[:r0, r0 >> 3:(r1 + 7) >> 3], axis=1, bitorder="little")
        band[:, :r0] = strip[:, r0 & 7:(r0 & 7) + r1 - r0].T
        del strip  # freed before the edge passes allocate
        cells = band.reshape(-1)
        # bisect, as np.searchsorted would copy the strided column
        lo, hi = (bisect_left(self.edges[:, 0], r) for r in (r0, r1))
        for e0 in range(lo, hi, ADJACENCY_EDGE_PASS):
            chunk = self.edges[e0:min(hi, e0 + ADJACENCY_EDGE_PASS)]
            i, j = chunk[:, 0], chunk[:, 1]
            upper = i - r0  # cell (i, j) of the band
            upper *= n
            upper += j
            cells[upper] = True
            if r1 < n:  # (j, i) is a cell here only for j in the band; the last band has every j
                i, j = i[j < r1], j[j < r1]
            lower = j - r0  # cell (j, i)
            lower *= n
            lower += i
            cells[lower] = True
        return np.packbits(band, axis=1, bitorder="little")

    def neighbors(self, v: int) -> np.ndarray:
        """v's neighbours, ascending."""
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
