import math
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest

from hamdec.construct import HamDecomposition
from hamdec.model import SkeletonGraph, skeleton, step_graphon
from hamdec.sampling import (
    BalancedMatrix,
    SampledGraph,
    assign_blocks,
    count_block_edges,
    empirical_concentration,
    sample_graph,
    saturate_graph,
)

TRIANGLE = SkeletonGraph(3, frozenset(), frozenset({(0, 1), (0, 2), (1, 2)}))


def er_graphon(p):
    return step_graphon([0, 1], [[F(p)]])


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
        assert np.array_equal(g.blocks, assign_blocks(w, g.coords))

    def test_coordinate_on_boundary_goes_right(self):
        w = step_graphon([0, F(1, 2), 1], [[F(1, 2)] * 2] * 2)
        blocks = assign_blocks(w, np.array([0.0, 0.5, 0.4999999, 0.9]))
        assert list(blocks) == [0, 1, 0, 1]

    def test_n_validation(self):
        with pytest.raises(ValueError):
            sample_graph(er_graphon(1), 0, 1)


class TestEmpiricalConcentration:
    def test_counting(self):
        w = step_graphon([0, F(1, 2), 1], [[F(1, 2)] * 2] * 2)
        g = SampledGraph(3, np.array([0.1, 0.6, 0.7]), assign_blocks(w, np.array([0.1, 0.6, 0.7])), np.empty((0, 2)))
        assert empirical_concentration(g, 2) == (F(1, 3), F(2, 3))

    def test_single(self):
        g = SampledGraph(1, np.array([0.2]), np.array([0]), np.empty((0, 2)))
        assert empirical_concentration(g, 1) == (F(1),)

    def test_sums_to_one(self):
        w = step_graphon([0, F(1, 5), 1], [[F(1, 2)] * 2] * 2)
        for seed in range(10):
            g = sample_graph(w, 37, seed)
            assert sum(empirical_concentration(g, 2)) == 1


class TestSaturate:
    def test_fills_triangle(self):
        g = SampledGraph(3, np.array([0.1, 0.4, 0.8]), np.array([0, 1, 2]), np.empty((0, 2)))
        sat = saturate_graph(g, TRIANGLE)
        assert sat.pair_set() == {(0, 1), (0, 2), (1, 2)}

    def test_idempotent(self):
        w = step_graphon([0, F(1, 2), 1], [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        g = sample_graph(w, 30, 5)
        s = skeleton(w)
        once = saturate_graph(g, s)
        twice = saturate_graph(once, s)
        assert once.pair_set() == twice.pair_set()

    def test_loopless_block_stays_empty(self):
        s = SkeletonGraph(1, frozenset(), frozenset())
        g = SampledGraph(2, np.array([0.1, 0.2]), np.array([0, 0]), np.empty((0, 2)))
        assert saturate_graph(g, s).edge_count == 0

    def test_subgraph_of_saturation(self):
        w = step_graphon([0, F(1, 2), 1], [[F(1, 3), F(2, 3)], [F(2, 3), F(1, 2)]])
        g = sample_graph(w, 50, 11)
        sat = saturate_graph(g, skeleton(w))
        assert g.pair_set() <= sat.pair_set()

    def test_matches_pair_enumeration(self):
        w = step_graphon(
            [0, F(1, 3), F(2, 3), 1],
            [[F(1, 2), 0, F(1, 2)], [0, 0, F(1, 3)], [F(1, 2), F(1, 3), 0]],
        )
        s = skeleton(w)
        for n in (1, 2, 40):
            g = sample_graph(w, n, 3)
            b = g.blocks
            want = [
                (i, j)
                for i, j in combinations(range(n), 2)
                if (b[i] == b[j] and b[i] in s.loops)
                or (min(b[i], b[j]), max(b[i], b[j])) in s.edges
            ]
            sat = saturate_graph(g, s)
            assert sat.edges.tolist() == [list(e) for e in want]


class TestCountBlockEdges:
    def test_two_cycle(self):
        s = SkeletonGraph(2, frozenset(), frozenset({(0, 1)}))
        h = HamDecomposition.from_cycles([(0, 1)], 2)
        bm = count_block_edges(h, [0, 1], 2, s)
        assert bm.counts == ((0, 1), (1, 0)) and bm.scale == 2

    def test_three_cycle(self):
        h = HamDecomposition.from_cycles([(0, 1, 2)], 3)
        bm = count_block_edges(h, [0, 1, 2], 3, TRIANGLE)
        assert bm.counts == ((0, 1, 0), (0, 0, 1), (1, 0, 0))

    def test_row_sums_are_block_sizes(self):
        s = SkeletonGraph(2, frozenset({0}), frozenset({(0, 1)}))
        h = HamDecomposition.from_cycles([(0, 1), (2, 3)], 4)
        bm = count_block_edges(h, [0, 0, 0, 1], 2, s)
        assert bm.row_sums() == (3, 1)

    def test_unsupported_edge_rejected(self):
        s = SkeletonGraph(2, frozenset(), frozenset({(0, 1)}))
        h = HamDecomposition.from_cycles([(0, 1)], 2)
        with pytest.raises(ValueError):
            count_block_edges(h, [0, 0], 2, s)  # within-block, no loop


class TestBalancedMatrix:
    def test_balance_enforced(self):
        with pytest.raises(ValueError):
            BalancedMatrix(2, ((0, 2), (0, 0)))

    def test_total_enforced(self):
        with pytest.raises(ValueError):
            BalancedMatrix(3, ((0, 1), (1, 0)))

    def test_min_positive(self):
        bm = BalancedMatrix(4, ((2, 1), (1, 0)))
        assert bm.min_positive() == F(1, 4)


def _reference_adjacency(g):
    nbrs = [set() for _ in range(g.n)]
    for i, j in g.edges.tolist():
        nbrs[i].add(j)
        nbrs[j].add(i)
    return nbrs


class TestAdjacency:
    def _check(self, g):
        ref = _reference_adjacency(g)
        indptr, indices = g.adjacency()
        assert indptr.shape == (g.n + 1,) and indptr[0] == 0
        assert indptr[-1] == indices.size == 2 * g.edge_count
        for v in range(g.n):
            row = g.neighbors(v).tolist()
            assert row == sorted(ref[v])  # ascending, same neighbours
            for u in row:
                assert v in g.neighbors(u)  # symmetric
        if g.n <= 40:
            for u in range(g.n):
                for v in range(g.n):
                    assert g.has_edge(u, v) == (v in ref[u])

    def test_random_sampled_graphs(self):
        w = step_graphon(
            [0, F(1, 3), F(2, 3), 1],
            [[F(1, 2), F(1, 5), 0], [F(1, 5), 0, F(3, 4)], [0, F(3, 4), F(1, 2)]],
        )
        for seed in range(6):
            for n in (7, 40, 150):
                self._check(sample_graph(w, n, seed))

    def test_single_node(self):
        g = sample_graph(er_graphon(1), 1, 0)
        self._check(g)
        assert g.adjacency()[0].tolist() == [0, 0]

    def test_edgeless(self):
        g = sample_graph(er_graphon(0), 12, 0)
        self._check(g)
        assert g.adjacency()[1].size == 0

    def test_complete(self):
        g = sample_graph(er_graphon(1), 25, 0)
        self._check(g)
        for v in range(25):
            assert g.neighbors(v).tolist() == [u for u in range(25) if u != v]

    def test_cached(self):
        g = sample_graph(er_graphon(F(1, 2)), 30, 1)
        assert g.adjacency() is g.adjacency()

    def test_bad_edges_rejected(self):
        coords, blocks = np.array([0.1, 0.5, 0.9]), np.array([0, 0, 0])
        for edges in ([[0, 0]], [[0, 3]], [[-1, 2]]):
            with pytest.raises(ValueError):
                SampledGraph(3, coords, blocks, np.array(edges))
