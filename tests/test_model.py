import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from hamdec.model import (
    Partition,
    SkeletonGraph,
    concentration,
    connected_components,
    edge_order,
    has_odd_cycle,
    incidence,
    is_connected,
    saturate,
    skeleton,
    step_graphon,
)

from helpers import (
    closure_components,
    dense_rows,
    exhaustive_has_odd_cycle,
    random_graphon,
    random_skeleton,
    rational_rank,
)

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from pipebench import workloads  # noqa: E402

TRIANGLE = SkeletonGraph(3, frozenset(), frozenset({(0, 1), (0, 2), (1, 2)}))


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((F(0), F(1, 2), F(1, 2), F(1)))
        with pytest.raises(ValueError):
            Partition((F(0), F(1, 2)))
        with pytest.raises(ValueError):
            Partition((F(1, 10), F(1)))

    def test_rational_input_errors(self):
        with pytest.raises(ValueError):
            step_graphon([0, "1/0", 1], [[0, F(1, 2)], [F(1, 2), 0]])
        with pytest.raises(ValueError):
            Partition((0, float("inf"), 1))
        with pytest.raises(TypeError):
            Partition((0, True))

    def test_block_of_half_open(self):
        p = Partition((F(0), F(1, 2), F(1)))
        assert p.block_of(F(0)) == 0
        assert p.block_of(F(1, 2)) == 1  # breakpoint goes right
        assert p.block_of(F(499, 1000)) == 0


class TestConcentration:
    def test_quarters(self):
        p = Partition((F(0), F(1, 4), F(1, 2), F(3, 4), F(1)))
        assert concentration(p) == (F(1, 4), F(1, 4), F(1, 4), F(1, 4))

    def test_single_block(self):
        assert concentration(Partition((F(0), F(1)))) == (F(1),)

    def test_two_blocks(self):
        assert concentration(Partition((F(0), F(3, 10), F(1)))) == (F(3, 10), F(7, 10))


class TestSkeleton:
    def test_single_loop(self):
        w = step_graphon([0, 1], [[F(1, 2)]])
        s = skeleton(w)
        assert s.node_count == 1 and s.loops == {0} and not s.edges

    def test_bipartite_f2(self):
        w = step_graphon([0, F(1, 2), 1], [[0, F(1, 3)], [F(1, 3), 0]])
        s = skeleton(w)
        assert not s.loops and s.edges == {(0, 1)}
        assert s.f2_edges == {(0, 1)}

    def test_two_loops_edge_not_in_f2(self):
        w = step_graphon([0, F(1, 2), 1], [[F(1, 2), F(1, 4)], [F(1, 4), F(1, 2)]])
        s = skeleton(w)
        assert s.loops == {0, 1} and s.edges == {(0, 1)}
        assert s.f2_edges == frozenset()

    def test_saturation_preserves_skeleton(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            w = random_graphon(rng)
            assert skeleton(saturate(w)) == skeleton(w)

    def test_truth_of_a_value_is_its_sign_on_the_benchmark_graphons(self):
        # skeleton and saturate test each value's truth: the same as > 0 on
        # the 204 distinct graphons the pipeline benchmark runs
        graphons = {}
        for name in workloads.WORKLOADS:
            mc, groups = workloads.inputs(name, 1)
            for it in mc + [it for g in groups for it in g]:
                graphons[it.label] = it.graphon
        assert len(graphons) == 204
        for w in graphons.values():
            vals, q = w.values, w.q
            loops = frozenset(i for i in range(q) if vals[i][i] > 0)
            edges = frozenset((i, j) for i in range(q) for j in range(i + 1, q) if vals[i][j] > 0)
            assert skeleton(w) == SkeletonGraph(q, loops, edges)
            assert saturate(w).values == tuple(tuple(F(int(v > 0)) for v in row) for row in vals)

    def test_symmetry_required(self):
        with pytest.raises(ValueError):
            step_graphon([0, F(1, 2), 1], [[0, F(1, 3)], [F(1, 4), 0]])

    def test_supports_matches_block_values(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            w = random_graphon(rng, q_max=6)
            s = skeleton(w)
            for a in range(w.q):
                for b in range(w.q):
                    assert s.supports(a, b) == (w.values[a][b] > 0)


class TestIncidence:
    def test_single_loop_column(self):
        z = incidence(SkeletonGraph(1, frozenset({0}), frozenset()))
        assert dense_rows(z) == [[F(1)]] and z.doubled_rows() == [[2]]

    def test_single_edge_column(self):
        z = incidence(SkeletonGraph(2, frozenset(), frozenset({(0, 1)})))
        assert dense_rows(z) == [[F(1, 2)], [F(1, 2)]] and z.doubled_rows() == [[1], [1]]

    def test_triangle(self):
        z = incidence(TRIANGLE)
        assert z.skeleton is TRIANGLE and z.shape == (3, 3)
        assert z.edge_order == ((0, 1), (0, 2), (1, 2))
        assert dense_rows(z) == [
            [F(1, 2), F(1, 2), F(0)],
            [F(1, 2), F(0), F(1, 2)],
            [F(0), F(1, 2), F(1, 2)],
        ]
        assert z.doubled_rows() == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]

    def test_ordering_loops_first(self):
        s = SkeletonGraph(3, frozenset({2, 0}), frozenset({(1, 2), (0, 1)}))
        assert edge_order(s) == ((0, 0), (2, 2), (0, 1), (1, 2))

    def test_columns_are_probability_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = skeleton(random_graphon(rng))
            z = incidence(s)
            rows = dense_rows(z)
            assert z.doubled_rows() == [[2 * v for v in row] for row in rows]
            for column in zip(*rows):
                assert sum(column) == 1

    def test_apply_is_exact_product(self):
        rng = np.random.default_rng(17)
        for k in range(250):
            # isolated and loop-only blocks from every other skeleton
            z = incidence(random_skeleton(rng) if k % 2 else skeleton(random_graphon(rng)))
            nf = z.shape[1]
            nums, dens = rng.integers(-9, 10, nf), rng.integers(1, 8, nf)
            c = [F(int(v), int(d)) for v, d in zip(nums, dens)]
            assert z.apply(c) == tuple(
                sum((a * cj for a, cj in zip(row, c)), F(0)) for row in dense_rows(z)
            )
        for wrong in ([F(1, 3)] * 2, [F(1, 3)] * 4):
            with pytest.raises(ValueError, match="coefficients for 3 edges"):
                incidence(TRIANGLE).apply(wrong)

    def test_rank_matches_odd_cycle(self):
        # connected skeletons: full rank iff an odd cycle exists
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 200:
            s = skeleton(random_graphon(rng))
            if not is_connected(s) or s.edge_count == 0:
                continue
            z = incidence(s)
            expected = s.node_count if has_odd_cycle(s) else s.node_count - 1
            assert rational_rank(dense_rows(z)) == expected
            checked += 1


class TestOddCycle:
    def test_triangle(self):
        assert has_odd_cycle(TRIANGLE)

    def test_single_edge(self):
        assert not has_odd_cycle(SkeletonGraph(2, frozenset(), frozenset({(0, 1)})))

    def test_loop_is_odd(self):
        assert has_odd_cycle(SkeletonGraph(1, frozenset({0}), frozenset()))

    def test_square_even(self):
        sq = SkeletonGraph(4, frozenset(), frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
        assert not has_odd_cycle(sq)

    def test_agrees_with_exhaustive_search(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 300:
            w = random_graphon(rng, q_max=6)
            s = skeleton(w)
            if not is_connected(s):
                continue
            assert has_odd_cycle(s) == exhaustive_has_odd_cycle(s)
            checked += 1


class TestComponents:
    def test_triangle_one_component(self):
        assert connected_components(TRIANGLE) == [frozenset({0, 1, 2})]

    def test_loops_do_not_connect(self):
        s = SkeletonGraph(2, frozenset({0, 1}), frozenset())
        assert connected_components(s) == [frozenset({0}), frozenset({1})]

    def test_two_pairs(self):
        s = SkeletonGraph(4, frozenset(), frozenset({(0, 1), (2, 3)}))
        assert connected_components(s) == [frozenset({0, 1}), frozenset({2, 3})]

    def test_agrees_with_closure(self):
        rng = np.random.default_rng(71)
        for _ in range(300):
            s = random_skeleton(rng)
            assert connected_components(s) == closure_components(s)
            assert is_connected(s) == (len(closure_components(s)) == 1)


class TestValueAt:
    def test_lookup(self):
        w = step_graphon([0, F(1, 2), 1], [[F(1, 5), F(2, 5)], [F(2, 5), F(3, 5)]])
        assert w.value_at(F(1, 4), F(3, 4)) == F(2, 5)
        assert w.value_at(F(3, 4), F(3, 4)) == F(3, 5)
