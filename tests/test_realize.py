from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest

from hamdec.construct import (
    BlockCycle,
    build_balanced_matrix,
    build_decomposition,
)
from hamdec.model import SkeletonGraph, skeleton, step_graphon
from hamdec.realize import (
    CycleEmbedError,
    embed_cycles,
    graph_has_decomposition,
    max_bipartite_matching,
    oracle_exists,
    realize,
)
from hamdec.sampling import (
    SampledGraph,
    count_block_edges,
    empirical_concentration,
    sample_graph,
    saturate_graph,
)

from helpers import brute_decomposition_exists, brute_max_matching

TRIANGLE = SkeletonGraph(3, frozenset(), frozenset({(0, 1), (0, 2), (1, 2)}))


class TestMatching:
    def test_complete_3x3(self):
        edges = [(u, v) for u in range(3) for v in "abc"]
        m = max_bipartite_matching(range(3), "abc", edges)
        assert m.size == 3

    def test_star(self):
        m = max_bipartite_matching([0], ["a", "b", "c"], [(0, "a"), (0, "b"), (0, "c")])
        assert m.size == 1

    def test_planted_left_perfect(self):
        # 4 left, 5 right, edges containing a planted left-perfect matching
        left = list(range(4))
        right = list(range(10, 15))
        edges = [(i, 10 + i) for i in left] + [(0, 12), (2, 14), (3, 10)]
        m = max_bipartite_matching(left, right, edges)
        assert m.size == 4
        assert len({u for u, _ in m.pairs}) == 4

    def test_edge_endpoint_validation(self):
        with pytest.raises(ValueError):
            max_bipartite_matching([0], [1], [(1, 0)])

    def test_agrees_with_brute_force(self):
        # every bipartite graph with <= 8 nodes in small shapes
        rng = np.random.default_rng(37)
        for _ in range(300):
            nl = int(rng.integers(1, 5))
            nr = int(rng.integers(1, 5))
            all_pairs = [(u, v) for u in range(nl) for v in range(nr)]
            mask = rng.random(len(all_pairs)) < 0.45
            edges = [p for p, keep in zip(all_pairs, mask) if keep]
            m = max_bipartite_matching(range(nl), range(nr), edges)
            assert m.size == brute_max_matching(nl, nr, edges)
            assert all((u, v) in set(edges) for u, v in m.pairs)

    def test_exhaustive_small_shapes(self):
        # all edge subsets on 2x2 and 2x3: exact agreement
        for nl, nr in [(2, 2), (2, 3)]:
            cells = [(u, v) for u in range(nl) for v in range(nr)]
            for r in range(len(cells) + 1):
                for chosen in combinations(cells, r):
                    m = max_bipartite_matching(range(nl), range(nr), chosen)
                    assert m.size == brute_max_matching(nl, nr, chosen)


class TestOracle:
    def test_single_edge_two_cycle(self):
        assert oracle_exists(2, [(0, 1), (1, 0)])

    def test_path_has_none(self):
        arcs = [(0, 1), (1, 0), (1, 2), (2, 1)]
        assert not oracle_exists(3, arcs)
        assert not brute_decomposition_exists(3, arcs)

    def test_four_cycle_graph(self):
        # undirected 4-cycle: directed version decomposes
        arcs = []
        for a, b in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            arcs += [(a, b), (b, a)]
        assert oracle_exists(4, arcs)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            oracle_exists(2, [(0, 0)])

    def test_exhaustive_n3(self):
        arcs_all = [(u, v) for u in range(3) for v in range(3) if u != v]
        for r in range(len(arcs_all) + 1):
            for chosen in combinations(arcs_all, r):
                assert oracle_exists(3, chosen) == brute_decomposition_exists(3, chosen)

    def test_random_n5(self):
        rng = np.random.default_rng(41)
        arcs_all = [(u, v) for u in range(5) for v in range(5) if u != v]
        for _ in range(300):
            mask = rng.random(20) < rng.random()
            chosen = [a for a, keep in zip(arcs_all, mask) if keep]
            assert oracle_exists(5, chosen) == brute_decomposition_exists(5, chosen)


class TestEmbed:
    def test_saturated_always_succeeds(self):
        g = SampledGraph(
            6,
            np.linspace(0, 0.9, 6),
            np.array([0, 0, 1, 1, 2, 2]),
            np.empty((0, 2)),
        )
        sat = saturate_graph(g, TRIANGLE)
        cycles = embed_cycles([BlockCycle((0, 1, 2))], sat, seed=1, attempts=1)
        assert len(cycles) == 1 and len(cycles[0]) == 3
        assert sorted(int(sat.blocks[v]) for v in cycles[0]) == [0, 1, 2]

    def test_empty_graph_fails(self):
        g = SampledGraph(4, np.linspace(0, 0.9, 4), np.array([0, 0, 1, 1]), np.empty((0, 2)))
        s = SkeletonGraph(2, frozenset(), frozenset({(0, 1)}))
        with pytest.raises(CycleEmbedError) as err:
            embed_cycles([BlockCycle((0, 1))], g, seed=3, attempts=4)
        assert err.value.pattern_index == 0

    def test_triangle_statistical(self):
        # blocks of size >= 50, edge probability 1/2: embedding a triangle
        # pattern succeeds nearly always (closing-node argument)
        w = step_graphon(
            [0, F(1, 3), F(2, 3), 1],
            [[F(1, 2)] * 3] * 3,
        )
        wins = 0
        for seed in range(100):
            g = sample_graph(w, 180, seed)
            try:
                embed_cycles([BlockCycle((0, 1, 2))], g, seed=seed, attempts=32)
                wins += 1
            except CycleEmbedError:
                pass
        assert wins >= 95

    def test_disjointness_across_patterns(self):
        w = step_graphon([0, F(1, 3), F(2, 3), 1], [[F(1, 2)] * 3] * 3)
        g = sample_graph(w, 120, 9)
        pats = [BlockCycle((0, 1, 2)), BlockCycle((0, 2, 1)), BlockCycle((1, 2, 0))]
        cycles = embed_cycles(pats, g, seed=10, attempts=32)
        flat = [v for c in cycles for v in c]
        assert len(flat) == len(set(flat))
        for c in cycles:
            for t in range(len(c)):
                assert g.has_edge(c[t], c[(t + 1) % len(c)])


def _pipeline(w, n, seed, saturated=False, attempts=32):
    g = sample_graph(w, n, seed)
    s = skeleton(w)
    if saturated:
        g = saturate_graph(g, s)
    x = empirical_concentration(g, s.node_count)
    a = build_balanced_matrix(x, n, s)
    h = build_decomposition(a, a.row_sums(), s)
    return a, h, g, s


class TestRealize:
    def test_saturated_graph_success(self):
        w = step_graphon([0, F(1, 3), F(2, 3), 1], [[F(1, 2)] * 3] * 3)
        a, h, g, s = _pipeline(w, 60, 4, saturated=True)
        out = realize(a, h, g, s, seed=5)
        assert out.ok
        rho = count_block_edges(out.decomposition, g.blocks, 3, s)
        assert rho.counts == a.counts

    def test_empty_graph_failure(self):
        w = step_graphon([0, F(1, 3), F(2, 3), 1], [[F(1, 2)] * 3] * 3)
        a, h, g, s = _pipeline(w, 60, 4, saturated=True)
        empty = SampledGraph(g.n, g.coords, g.blocks, np.empty((0, 2)))
        out = realize(a, h, empty, s, seed=5, attempts=2)
        assert not out.ok
        assert out.diagnostics["phase"] in ("long-cycles", "two-cycles")

    def test_success_uses_only_graph_edges(self):
        w = step_graphon([0, F(1, 2), 1], [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        for seed in range(5):
            g = sample_graph(w, 120, seed)
            s = skeleton(w)
            x = empirical_concentration(g, 2)
            a = build_balanced_matrix(x, g.n, s)
            h = build_decomposition(a, a.row_sums(), s)
            out = realize(a, h, g, s, seed=seed + 99)
            assert out.ok
            pairs = g.pair_set()
            for c in out.decomposition.cycles:
                for t in range(len(c)):
                    u, v = c[t], c[(t + 1) % len(c)]
                    assert (min(u, v), max(u, v)) in pairs
            # a constructive success is an existence witness
            assert graph_has_decomposition(g)

    def test_two_loop_blocks_statistical(self):
        # within-block pairing plus cross matching at p = 1/2
        w = step_graphon([0, F(1, 2), 1], [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        s = skeleton(w)
        wins = 0
        for seed in range(100):
            g = sample_graph(w, 200, seed)
            x = empirical_concentration(g, 2)
            a = build_balanced_matrix(x, g.n, s)
            h = build_decomposition(a, a.row_sums(), s)
            out = realize(a, h, g, s, seed=seed)
            wins += out.ok
        assert wins >= 95
