import hashlib
import math
import tracemalloc
from copy import copy
from fractions import Fraction as F
from itertools import combinations, permutations

import numpy as np
import pytest

from hamdec import sampling
from hamdec.construct import HamDecomposition
from hamdec.model import SkeletonGraph, StepGraphon, saturate, skeleton, step_graphon
from hamdec.realize import _all_have_partners
from hamdec.sampling import (
    BalancedMatrix,
    SampledGraph,
    count_block_edges,
    empirical_concentration,
    sample_graph,
)

from helpers import count_block_edges_loop, random_decomposition, random_graphon

TRIANGLE = SkeletonGraph(3, frozenset(), frozenset({(0, 1), (0, 2), (1, 2)}))


def er_graphon(p):
    return step_graphon([0, 1], [[F(p)]])


HALF = F(1, 2)
TRIANGLE_HALF = step_graphon(
    [0, F(1, 3), F(2, 3), 1], [[0, HALF, HALF], [HALF, 0, HALF], [HALF, HALF, 0]]
)


class TestSampleGraph:
    def test_probability_one_complete(self):
        g = sample_graph(er_graphon(1), 3, 999)
        assert g.pair_set() == {(0, 1), (0, 2), (1, 2)}

    def test_probability_zero_empty(self):
        g = sample_graph(er_graphon(0), 5, 999)
        assert g.edge_count == 0

    def test_mean_edge_count_binomial(self):
        # Binomial(4950, 1/2) oracle: mean of 50 samples within 3 standard
        # errors of 2475 (sd per sample = sqrt(4950)/2)
        w = er_graphon(F(1, 2))
        counts = [sample_graph(w, 100, seed).edge_count for seed in range(50)]
        mean = sum(counts) / 50
        se = math.sqrt(4950 * 0.25) / math.sqrt(50)
        assert abs(mean - 2475) <= 3 * se

    def test_deterministic_across_runs(self):
        w = step_graphon([0, F(1, 3), 1], [[F(1, 2), F(1, 5)], [F(1, 5), F(3, 4)]])
        a = sample_graph(w, 60, 4242)
        b = sample_graph(w, 60, 4242)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.blocks, b.blocks)
        assert np.array_equal(a.edges, b.edges)

    def test_different_seeds_differ(self):
        w = er_graphon(F(1, 2))
        a = sample_graph(w, 40, 1)
        b = sample_graph(w, 40, 2)
        assert not np.array_equal(a.edges, b.edges)

    def test_blocks_rederivable_from_coords(self):
        w = step_graphon(
            [0, F(1, 4), F(2, 3), 1],
            [[F(1, 2)] * 3] * 3,
        )
        g = sample_graph(w, 300, 77)
        assert np.array_equal(g.blocks, w.partition.float_blocks(g.coords))

    def test_coordinate_on_boundary_goes_right(self):
        w = step_graphon([0, F(1, 2), 1], [[F(1, 2)] * 2] * 2)
        blocks = w.partition.float_blocks(np.array([0.0, 0.5, 0.4999999, 0.9]))
        assert list(blocks) == [0, 1, 0, 1]

    @pytest.mark.parametrize("sigma, x, right", [
        ([0, F(1, 3), F(2, 3), 1], 1 / 3, 1),
        ([0, F(1, 3), F(2, 3), 1], 2 / 3, 2),
        ([0, F(3, 10), 1], 3 / 10, 1),
    ])
    def test_block_of_places_a_float_as_the_sampler_does(self, sigma, x, right):
        # each float lies just below its breakpoint but equals the
        # breakpoint's float, so the sampler puts it in the block to the right
        q = len(sigma) - 1
        w = step_graphon(sigma, [[F(i + j, 2 * q) for j in range(q)] for i in range(q)])
        assert list(w.partition.float_blocks(np.array([x]))) == [right]
        assert w.partition.block_of(x) == right
        assert w.partition.block_of(F(x)) == right - 1  # the float's exact value is left of it
        assert w.value_at(x, 0.0) == w.values[right][0]

    def test_sampler_bytes_pinned(self):
        # coords, blocks and edges of 90 samples: any change to the draws,
        # the pair scan or the edge layout shows here
        half = F(1, 2)
        graphons = (
            step_graphon([0, F(1, 3), F(2, 3), 1], [[0, half, half], [half, 0, half], [half, half, 0]]),
            er_graphon(half),
            step_graphon([0, half, 1], [[0, F(3, 10)], [F(3, 10), 0]]),
            random_graphon(np.random.default_rng(1)),
            random_graphon(np.random.default_rng(2)),
        )
        h = hashlib.sha256()
        for w in graphons:
            for n in (1, 2, 3, 7, 200, 1001):
                for seed in (0, 1, 2):
                    g = sample_graph(w, n, seed)
                    for a in (g.coords, g.blocks, g.edges):
                        h.update(a.dtype.str.encode())
                        h.update(repr(a.shape).encode())
                        h.update(a.tobytes())
        assert h.hexdigest() == "b7e0986d708e2f864b43fd6c7215729ae77a08df86ef9c4a11dcf5df3a7002b4"

    def test_memory_bounded_in_the_pair_count(self):
        # n=4000 has ~8.0e6 pairs: 64 MB of uniforms if drawn at once
        w = er_graphon(F(1, 100))
        sample_graph(w, 10, 0)
        tracemalloc.start()
        try:
            g = sample_graph(w, 4000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edge_count > 0 and peak < 16e6

    def test_n_validation(self):
        with pytest.raises(ValueError):
            sample_graph(er_graphon(1), 0, 1)


class TestEmpiricalConcentration:
    def test_counting(self):
        w = step_graphon([0, F(1, 2), 1], [[F(1, 2)] * 2] * 2)
        g = SampledGraph.from_edges(3, np.array([0.1, 0.6, 0.7]), w.partition.float_blocks(np.array([0.1, 0.6, 0.7])), np.empty((0, 2)))
        assert empirical_concentration(g, 2) == (F(1, 3), F(2, 3))

    def test_single(self):
        g = SampledGraph.from_edges(1, np.array([0.2]), np.array([0]), np.empty((0, 2)))
        assert empirical_concentration(g, 1) == (F(1),)

    def test_sums_to_one(self):
        w = step_graphon([0, F(1, 5), 1], [[F(1, 2)] * 2] * 2)
        for seed in range(10):
            g = sample_graph(w, 37, seed)
            assert sum(empirical_concentration(g, 2)) == 1


class TestSaturate:
    """The saturated graph is `sample_graph(saturate(w), n, seed)`."""

    def test_fills_triangle(self):
        q = F(1, 4)
        w = step_graphon([0, F(1, 3), F(2, 3), 1], [[0, q, q], [q, 0, q], [q, q, 0]])
        sat = sample_graph(saturate(w), 30, 2)
        b = sat.blocks
        assert set(b.tolist()) == {0, 1, 2}
        assert sat.pair_set() == {(i, j) for i, j in combinations(range(30), 2) if b[i] != b[j]}

    def test_idempotent(self):
        w = step_graphon([0, F(1, 2), 1], [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        once = saturate(w)
        assert saturate(once) == once
        assert sample_graph(once, 30, 5).pair_set() == sample_graph(saturate(once), 30, 5).pair_set()

    def test_loopless_block_stays_empty(self):
        w = step_graphon([0, 1], [[0]])
        assert sample_graph(saturate(w), 2, 1).edge_count == 0

    def test_subgraph_of_saturation(self):
        w = step_graphon([0, F(1, 2), 1], [[F(1, 3), F(2, 3)], [F(2, 3), F(1, 2)]])
        g = sample_graph(w, 50, 11)
        sat = sample_graph(saturate(w), 50, 11)
        assert np.array_equal(sat.coords, g.coords) and np.array_equal(sat.blocks, g.blocks)
        assert g.pair_set() <= sat.pair_set()

    def test_matches_pair_enumeration(self):
        w = step_graphon(
            [0, F(1, 3), F(2, 3), 1],
            [[F(1, 2), 0, F(1, 2)], [0, 0, F(1, 3)], [F(1, 2), F(1, 3), 0]],
        )
        s = skeleton(w)
        for n in (1, 2, 40):
            sat = sample_graph(saturate(w), n, 3)
            b = sat.blocks
            want = [
                (i, j)
                for i, j in combinations(range(n), 2)
                if (b[i] == b[j] and b[i] in s.loops)
                or (min(b[i], b[j]), max(b[i], b[j])) in s.edges
            ]
            assert sat.edges.tolist() == [list(e) for e in want]


class TestCountBlockEdges:
    def test_two_cycle(self):
        s = SkeletonGraph(2, frozenset(), frozenset({(0, 1)}))
        h = HamDecomposition(2, [(0, 1)])
        bm = count_block_edges(h, [0, 1], s)
        assert bm.counts == ((0, 1), (1, 0)) and bm.scale == 2

    def test_three_cycle(self):
        h = HamDecomposition(3, [(0, 1, 2)])
        bm = count_block_edges(h, [0, 1, 2], TRIANGLE)
        assert bm.counts == ((0, 1, 0), (0, 0, 1), (1, 0, 0))

    def test_row_sums_are_block_sizes(self):
        s = SkeletonGraph(2, frozenset({0}), frozenset({(0, 1)}))
        h = HamDecomposition(4, [(0, 1), (2, 3)])
        bm = count_block_edges(h, [0, 0, 0, 1], s)
        assert bm.row_sums() == (3, 1)

    @pytest.mark.parametrize("blocks", [[0], [0, 1, 1]])
    def test_one_label_per_node_required(self, blocks):
        s = SkeletonGraph(2, frozenset(), frozenset({(0, 1)}))
        h = HamDecomposition(2, [(0, 1)])
        with pytest.raises(ValueError, match="one block label per node"):
            count_block_edges(h, blocks, s)

    def test_unsupported_edge_rejected(self):
        s = SkeletonGraph(2, frozenset(), frozenset({(0, 1)}))
        h = HamDecomposition(2, [(0, 1)])
        with pytest.raises(ValueError):
            count_block_edges(h, [0, 0], s)  # within-block, no loop

    def test_agrees_with_the_node_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n, q = int(rng.integers(2, 40)), int(rng.integers(1, 5))
            h = random_decomposition(rng, n)
            blocks = rng.integers(0, q, size=n)
            used = {(int(blocks[v]), int(blocks[u])) for v, u in enumerate(h.successor)}
            loops = frozenset(a for a, b in used if a == b)
            edges = frozenset((min(a, b), max(a, b)) for a, b in used if a != b)
            s = SkeletonGraph(q, loops, edges)
            assert count_block_edges(h, blocks, s) == count_block_edges_loop(h, blocks, s)
            # drop one used pair: both name the same first node in node order
            a, b = sorted(used)[int(rng.integers(len(used)))]
            if a == b:
                s = SkeletonGraph(q, loops - {a}, edges)
            else:
                s = SkeletonGraph(q, loops, edges - {(min(a, b), max(a, b))})
            with pytest.raises(ValueError) as fast:
                count_block_edges(h, blocks, s)
            with pytest.raises(ValueError) as loop:
                count_block_edges_loop(h, blocks, s)
            assert str(fast.value) == str(loop.value)

    @pytest.mark.parametrize("blocks", [[0, 2], [-1, 0]])
    def test_label_outside_the_skeleton_rejected_like_the_node_loop(self, blocks):
        s = SkeletonGraph(2, frozenset({0, 1}), frozenset({(0, 1)}))
        h = HamDecomposition(2, [(0, 1)])
        with pytest.raises(ValueError, match="not in skeleton") as fast:
            count_block_edges(h, blocks, s)
        with pytest.raises(ValueError) as loop:
            count_block_edges_loop(h, blocks, s)
        assert str(fast.value) == str(loop.value)


class TestBalancedMatrix:
    def test_balance_enforced(self):
        with pytest.raises(ValueError):
            BalancedMatrix(((0, 2), (0, 0)))

    def test_min_positive(self):
        bm = BalancedMatrix(((2, 1), (1, 0)))
        assert bm.min_positive() == F(1, 4)


def _pair_set(g):
    """Reference adjacency: the set of ordered pairs (u, v) of g's edges."""
    pairs = set()
    for i, j in g.edges.tolist():
        pairs |= {(i, j), (j, i)}
    return pairs


class TestAdjacency:
    def _check(self, g):
        pairs = _pair_set(g)
        bits = g.adjacency()
        assert bits.dtype == np.uint8 and bits.shape == (g.n, (g.n + 7) // 8)
        # row v, bit u (byte u // 8, bit u % 8) iff {u, v} is an edge; the
        # padding bits past column n - 1 stay clear
        dense = np.unpackbits(bits, axis=1, bitorder="little")
        want = np.zeros_like(dense)
        for u, v in pairs:
            want[u, v] = 1
        assert np.array_equal(dense, want)
        for v in range(g.n):
            assert g.neighbors(v).tolist() == sorted(u for u in range(g.n) if (v, u) in pairs)
        if g.n <= 40:
            for u in range(g.n):
                for v in range(g.n):
                    assert g.has_edge(u, v) == ((u, v) in pairs)
        # every pair at once, the out-of-range columns -1 and n included
        us, vs = np.divmod(np.arange(g.n * (g.n + 2)), g.n + 2)
        vs -= 1
        want = [(u, v) in pairs for u, v in zip(us.tolist(), vs.tolist())]
        assert g.has_edges(us, vs).tolist() == want
        # row masks: bit u of row v; a node set's neighbour count is the
        # size of the union of its members' neighbourhoods
        assert g.row_masks() == [sum(1 << u for u in range(g.n) if (v, u) in pairs) for v in range(g.n)]
        rng = np.random.default_rng(g.n)
        for size in {0, 1, g.n // 2, g.n}:
            nodes = rng.permutation(g.n)[:size]
            reached = {u for v in nodes.tolist() for u in range(g.n) if (v, u) in pairs}
            assert g.neighbor_count(nodes) == len(reached)

    def test_cache_is_not_a_constructor_argument(self):
        # the matrix is the graph's one store: there is no cache beside it,
        # a matrix of the wrong shape or type is refused, and copies share it
        with pytest.raises(TypeError):
            SampledGraph(2, [0.1, 0.6], [0, 0], np.zeros((2, 1), np.uint8), _bits=None)
        wrong = (np.zeros((2, 2), np.uint8), np.zeros((2, 1), bool), np.zeros((3, 1), np.uint8), [[2], [1]])
        for bits in wrong:
            with pytest.raises(ValueError, match="uint8 matrix"):
                SampledGraph(2, [0.1, 0.6], [0, 0], bits)
        g = SampledGraph.from_edges(2, [0.1, 0.6], [0, 0], [[0, 1]])
        bits = g.adjacency()
        assert bits is g.bits and bits.tolist() == [[2], [1]]
        assert copy(g).adjacency() is bits

    def test_random_sampled_graphs(self):
        w = step_graphon(
            [0, F(1, 3), F(2, 3), 1],
            [[F(1, 2), F(1, 5), 0], [F(1, 5), 0, F(3, 4)], [0, F(3, 4), F(1, 2)]],
        )
        for seed in range(6):
            for n in (7, 8, 9, 40, 150):
                self._check(sample_graph(w, n, seed))

    def test_single_node(self):
        g = sample_graph(er_graphon(1), 1, 0)
        self._check(g)
        assert g.adjacency().tolist() == [[0]]

    def test_edgeless(self):
        for n in (7, 8, 9, 12):
            g = sample_graph(er_graphon(0), n, 0)
            self._check(g)
            assert not g.adjacency().any()

    def test_complete(self):
        for n in (7, 8, 9, 25):
            g = sample_graph(er_graphon(1), n, 0)
            self._check(g)
            for v in range(n):
                assert g.neighbors(v).tolist() == [u for u in range(n) if u != v]

    def test_cached(self):
        g = sample_graph(er_graphon(F(1, 2)), 30, 1)
        assert g.adjacency() is g.adjacency()

    def test_build_memory_bounded(self):
        # a dense sample drawn straight into bits: the packed matrix plus one
        # band, not the 16 bytes per edge of an edge list (~24 MB here)
        n = 3000
        sample_graph(TRIANGLE_HALF, 10, 0)
        tracemalloc.start()
        try:
            g = sample_graph(TRIANGLE_HALF, n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.adjacency().nbytes == n * ((n + 7) // 8)
        assert peak < n * n / 8 + (4 << 20)

    def test_node_out_of_range_rejected(self):
        # -1 would read row n - 1 through numpy's negative indexing
        g = SampledGraph.from_edges(3, np.zeros(3), np.zeros(3, dtype=int), [[1, 2]])
        assert g.neighbors(2).tolist() == [1] and not g.has_edge(-1, 1)
        assert g.has_edges([], []).tolist() == []  # no nodes at all is no bad node
        for v in (-1, 3):
            with pytest.raises(ValueError, match="not a node"):
                g.neighbors(v)

    def test_node_lists_checked(self):
        # row masks and neighbour counts take distinct nodes in range; -1
        # would read row n - 1 through numpy's negative indexing
        g = SampledGraph.from_edges(3, np.zeros(3), np.zeros(3, dtype=int), [[1, 2]])
        assert g.row_masks([2, 0], [1]) == [1, 0] and g.neighbor_count([1, 2]) == 2
        calls = (
            lambda nodes: g.row_masks(nodes),
            lambda nodes: g.row_masks([0], nodes),
            g.neighbor_count,
        )
        for call in calls:
            for nodes in ([-1], [0, 3]):
                with pytest.raises(ValueError, match="nodes of the graph"):
                    call(nodes)
            with pytest.raises(ValueError, match="distinct"):
                call([1, 0, 1])

    def test_bad_edges_rejected(self):
        coords, blocks = np.array([0.1, 0.5, 0.9]), np.array([0, 0, 0])
        for edges in ([[0, 0]], [[0, 3]], [[-1, 2]], [[0, 1], [2, 2]]):
            with pytest.raises(ValueError):
                SampledGraph.from_edges(3, coords, blocks, np.array(edges))

    def test_repeated_edge_rejected(self):
        coords, blocks = np.array([0.1, 0.5, 0.9]), np.array([0, 0, 0])
        for edges in ([[0, 1], [0, 1], [2, 1]], [[0, 1], [1, 0]], [[1, 2], [0, 2], [2, 1]]):
            with pytest.raises(ValueError, match="more than once"):
                SampledGraph.from_edges(3, coords, blocks, edges)

    def test_reversed_and_unsorted_edges_stored_canonical(self):
        coords, blocks = np.linspace(0, 0.9, 5), np.zeros(5, dtype=np.int64)
        g = SampledGraph.from_edges(5, coords, blocks, [[3, 1], [0, 4], [2, 0], [1, 2]])
        assert g.edges.tolist() == [[0, 2], [0, 4], [1, 2], [1, 3]]
        assert g.edge_count == 4
        self._check(g)

    def test_matches_the_pair_set_across_band_seams(self, monkeypatch):
        # bands of one row, of rows that split a byte, and of all rows, and
        # the default: the sampler draws the same matrix with each, and the
        # edge views read it back across the band seams
        rng = np.random.default_rng(3)
        draws = [(random_graphon(rng), n, seed) for n in (1, 2, 9, 61) for seed in range(2)]
        want = [sample_graph(*draw) for draw in draws]
        hand_built = []
        for n in (2, 6, 40):  # random orientation and order
            pairs = [p for p in combinations(range(n), 2) if rng.random() < 0.4]
            rows = np.array([p if rng.random() < 0.5 else p[::-1] for p in pairs], dtype=np.int64)
            rows = rows.reshape(-1, 2)[rng.permutation(len(pairs))]
            g = SampledGraph.from_edges(n, rng.random(n), np.zeros(n, dtype=np.int64), rows)
            assert g.pair_set() == set(pairs)
            hand_built.append(g)
        for cells in (1, 5 * 61, 13 * 61, sampling.BAND_CELLS):
            monkeypatch.setattr(sampling, "BAND_CELLS", cells)
            for draw, g in zip(draws, want):
                got = sample_graph(*draw)
                assert np.array_equal(got.adjacency(), g.adjacency())
                self._check(got)
            for g in hand_built:
                self._check(g)


def _zero_one_graphon(rng):
    """A random step-graphon whose block pairs take 0, 1, 1/2 or 2/7."""
    w = random_graphon(rng)
    q = len(w.values)
    choices = (F(0), F(1), F(1, 2), F(2, 7))
    vals = [[F(0)] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            vals[i][j] = vals[j][i] = choices[int(rng.integers(len(choices)))]
    return StepGraphon(w.partition, tuple(map(tuple, vals)))


class TestSamplerInvariants:
    """Checked on the drawn matrix itself.  A verdict read off block counts
    alone (a block-level Hall violator) rests on the probability-0 one."""

    def test_matrix_invariants(self, monkeypatch):
        rng = np.random.default_rng(11)
        zeros = ones = 0
        for cells in (1, 3 * 37, sampling.BAND_CELLS):
            monkeypatch.setattr(sampling, "BAND_CELLS", cells)
            for _ in range(15):
                w = _zero_one_graphon(rng)
                n = int(rng.integers(1, 80))
                g = sample_graph(w, n, int(rng.integers(2**32)))
                dense = np.unpackbits(g.adjacency(), axis=1, bitorder="little").astype(bool)
                assert not dense[:, n:].any()  # padding past column n - 1
                a = dense[:, :n]
                assert np.array_equal(a, a.T)
                assert not a.diagonal().any()
                probs = np.array([[float(v) for v in row] for row in w.values])
                p = probs[np.ix_(g.blocks, g.blocks)]
                pairs = ~np.eye(n, dtype=bool)
                assert not a[p == 0].any()
                assert a[(p == 1) & pairs].all()
                zeros += np.count_nonzero((p == 0) & pairs)
                ones += np.count_nonzero((p == 1) & pairs)
        assert zeros > 1000 and ones > 1000


def _random_draw(rng, n, most=3):
    """Distinct nodes of range(n) handed out to the (left, right) lists of
    one to `most` groups, at random (a side may be empty)."""
    k = int(rng.integers(1, most + 1))
    nodes = rng.permutation(n)[:int(rng.integers(n + 1))].tolist()
    sides = rng.integers(0, 2 * k, len(nodes)).tolist()
    lists = [[v for v, t in zip(nodes, sides) if t == side] for side in range(2 * k)]
    return list(zip(lists[::2], lists[1::2]))


class TestPartnerCheck:
    """Phase 2's partner check (`realize._all_have_partners`) on the graph's
    row masks."""

    def test_each_node_needs_a_neighbour_across(self):
        # the path 0-1-2-3
        g = SampledGraph.from_edges(4, np.zeros(4), np.zeros(4, dtype=int), [[0, 1], [1, 2], [2, 3]])
        rows = g.row_masks()
        assert _all_have_partners(rows, [([0, 2], [1, 3])])
        assert _all_have_partners(rows, [([0], [1]), ([2], [3])])
        assert not _all_have_partners(rows, [([0, 1], [2, 3])])  # 0 and 3 are not adjacent
        assert not _all_have_partners(rows, [([1], [2]), ([3], [0])])  # 3's partner side is 0
        assert not _all_have_partners(rows, [([0], [])])  # the other side is empty
        assert _all_have_partners(rows, [])

    def test_agrees_with_a_neighbour_scan(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            g = sample_graph(er_graphon(F(int(rng.integers(1, 10)), 10)), int(rng.integers(1, 20)), trial)
            pairs = _pair_set(g)
            draw = _random_draw(rng, g.n)
            want = all(
                any((v, u) in pairs for u in across)
                for left, right in draw
                for nodes, across in ((left, right), (right, left))
                for v in nodes
            )
            assert _all_have_partners(g.row_masks(), draw) == want

    def test_the_verdict_does_not_depend_on_the_group_order(self):
        # `realize` checks the smallest groups first: every order of a
        # draw's groups must give the verdict of the draw's own order
        rng = np.random.default_rng(13)
        verdicts = set()
        for trial in range(150):
            g = sample_graph(er_graphon(F(int(rng.integers(2, 10)), 10)), int(rng.integers(2, 16)), trial)
            rows = g.row_masks()
            draw = _random_draw(rng, g.n, most=4)
            want = _all_have_partners(rows, draw)
            verdicts.add(want)
            assert all(_all_have_partners(rows, list(order)) == want for order in permutations(draw))
        assert verdicts == {False, True}
