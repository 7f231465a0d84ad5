import importlib
import sys
from fractions import Fraction as F
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

import hamdec.driver
import hamdec.polytope
from hamdec.construct import BlockCycle, ConstructionError, HamDecomposition, block_cycles, canonical_blocks
from hamdec.driver import analyze, plan, run_pipeline, run_trial
from hamdec.model import SkeletonGraph, incidence, saturate, skeleton, step_graphon
from hamdec.polytope import Membership, hall_violator, positive_certificate
from hamdec.realize import (
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
)

from helpers import (
    brute_decomposition_exists,
    brute_max_matching,
    connected_skeletons,
    random_graphon,
    realization_key,
    realize_reference,
    tally,
)

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from pipebench.graphons import interior_graphon  # noqa: E402

# the package attribute `realize` is the function of that name
realize_module = importlib.import_module("hamdec.realize")

TRIANGLE = SkeletonGraph(3, frozenset(), frozenset({(0, 1), (0, 2), (1, 2)}))
ER_HALF = step_graphon([0, 1], [[F(1, 2)]])
BIP_UNEVEN = step_graphon([0, F(3, 10), 1], [[0, F(1, 2)], [F(1, 2), 0]])
TRI_HALF = step_graphon(
    [0, F(1, 3), F(2, 3), 1],
    [[0, F(1, 2), F(1, 2)], [F(1, 2), 0, F(1, 2)], [F(1, 2), F(1, 2), 0]],
)


def _block_nodes(g, blocks):
    """The nodes of g in the given blocks."""
    return np.flatnonzero(np.isin(g.blocks, list(blocks)))


def _host(nl, nr, edges):
    """A graph with left nodes 0..nl-1, right nodes nl..nl+nr-1 and an edge
    (u, nl + v) for every local pair (u, v)."""
    n = nl + nr
    pairs = np.array([(u, nl + v) for u, v in edges]).reshape(-1, 2)
    return SampledGraph.from_edges(n, np.zeros(n), np.zeros(n, dtype=int), pairs)


def _match(nl, nr, edges):
    g = _host(nl, nr, edges)
    return g, max_bipartite_matching(g, range(nl), range(nl, nl + nr))


def _check(g, nl, pairs):
    assert len({u for u, _ in pairs}) == len({v for _, v in pairs}) == len(pairs)
    for u, v in pairs:
        assert 0 <= u < nl <= v < g.n and g.has_edge(u, v)
        assert type(u) is int and type(v) is int


class TestMatching:
    def test_complete_3x3(self):
        g, m = _match(3, 3, [(u, v) for u in range(3) for v in range(3)])
        assert len(m) == 3
        _check(g, 3, m)

    def test_star(self):
        g, m = _match(1, 3, [(0, 0), (0, 1), (0, 2)])
        assert len(m) == 1
        _check(g, 1, m)

    def test_planted_left_perfect(self):
        # 4 left, 5 right, edges containing a planted left-perfect matching
        edges = [(i, i) for i in range(4)] + [(0, 2), (2, 4), (3, 0)]
        g, m = _match(4, 5, edges)
        assert len(m) == 4
        _check(g, 4, m)

    def test_edge_endpoint_validation(self):
        # only edges from the left list to the right list are matched: edges
        # within a side or to a node in neither list are not
        edges = [(0, 2), (0, 1), (2, 3), (1, 4), (3, 4)]
        g = SampledGraph.from_edges(5, np.zeros(5), np.zeros(5, dtype=int), edges)
        assert max_bipartite_matching(g, [0, 1], [2, 3]) == {(0, 2)}
        assert max_bipartite_matching(g, [1], [0]) == {(1, 0)}
        assert max_bipartite_matching(g, [], [0, 1]) == frozenset()

    def test_repeated_labels_rejected(self):
        g = _host(2, 2, [(0, 0), (1, 1)])
        with pytest.raises(ValueError, match="distinct"):
            max_bipartite_matching(g, [0, 0], [2, 3])
        with pytest.raises(ValueError, match="distinct"):
            max_bipartite_matching(g, [0, 1], [2, 2])

    def test_node_in_both_lists_rejected(self):
        g = _host(2, 2, [(0, 0), (1, 1)])
        with pytest.raises(ValueError, match="disjoint"):
            max_bipartite_matching(g, [0, 1], [1, 2])

    def test_node_out_of_range_rejected(self):
        # a negative node must not wrap around to the end of the graph
        g = _host(2, 2, [(0, 0), (1, 1)])
        for left, right in (([0, -1], [2]), ([0], [2, -1]), ([0, 4], [2]), ([0], [5])):
            with pytest.raises(ValueError, match="nodes of the graph"):
                max_bipartite_matching(g, left, right)

    def test_agrees_with_brute_force(self):
        # every bipartite graph with <= 8 nodes in small shapes
        rng = np.random.default_rng(37)
        for _ in range(300):
            nl = int(rng.integers(1, 5))
            nr = int(rng.integers(1, 5))
            all_pairs = [(u, v) for u in range(nl) for v in range(nr)]
            mask = rng.random(len(all_pairs)) < 0.45
            edges = [p for p, keep in zip(all_pairs, mask) if keep]
            g, m = _match(nl, nr, edges)
            assert len(m) == brute_max_matching(nl, nr, edges)
            _check(g, nl, m)

    def test_exhaustive_small_shapes(self):
        # all edge subsets on 2x2 and 2x3: exact agreement
        for nl, nr in [(2, 2), (2, 3)]:
            cells = [(u, v) for u in range(nl) for v in range(nr)]
            for r in range(len(cells) + 1):
                for chosen in combinations(cells, r):
                    g, m = _match(nl, nr, chosen)
                    assert len(m) == brute_max_matching(nl, nr, chosen)
                    _check(g, nl, m)


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

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValueError, match="n must be nonnegative, got -2"):
            oracle_exists(-2, [])

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


def _saturated_arcs(s: SkeletonGraph, counts):
    """The arcs of the complete multipartite digraph of block sizes
    `counts` over s: u -> v for distinct nodes in s-adjacent blocks."""
    blocks = canonical_blocks(counts)
    n = len(blocks)
    return [(u, v) for u in range(n) for v in range(n) if u != v and s.supports(blocks[u], blocks[v])]


def _without_lone_loops(s: SkeletonGraph, counts) -> SkeletonGraph:
    """s without the loops of one-node blocks: a node has no arc to itself."""
    return SkeletonGraph(s.node_count, frozenset(i for i in s.loops if counts[i] != 1), s.edges)


class TestSaturatedGraph:
    """The saturated graph of block sizes k decomposes exactly when k
    passes Hall's condition on the skeleton without the loops of one-node
    blocks, on every connected skeleton with q <= 4 and every count vector,
    zeros included: 80,042 instances.  Not being exterior is not enough."""

    @pytest.mark.parametrize("q, totals, instances", [
        (1, range(1, 10), 18), (2, range(1, 10), 216), (3, range(1, 8), 3808), (4, range(1, 6), 76000),
    ])
    def test_oracle_is_halls_condition(self, q, totals, instances):
        vectors = [c for t in totals for c in product(range(t + 1), repeat=q) if sum(c) == t]
        checked, wrong = 0, []
        for s in connected_skeletons(q):
            for counts in vectors:
                exists = oracle_exists(sum(counts), _saturated_arcs(s, counts))
                if exists != (hall_violator(_without_lone_loops(s, counts), counts) is None):
                    wrong.append((s, counts, exists))
                checked += 1
        assert (checked, wrong) == (instances, [])

    def test_not_exterior_is_not_enough(self):
        # a loop at 0 and the path 0-1-2, one node per block: (1, 1, 1) is
        # inside the edge polytope, but node 1 is the only neighbour of 0 and 2
        s = SkeletonGraph(3, frozenset({0}), frozenset({(0, 1), (1, 2)}))
        counts = (1, 1, 1)
        assert positive_certificate(incidence(s), [F(1, 3)] * 3).status is not Membership.EXTERIOR
        assert not oracle_exists(3, _saturated_arcs(s, counts))
        assert hall_violator(_without_lone_loops(s, counts), counts) == frozenset({0, 2})


def _realized(w, n, seed):
    g = sample_graph(w, n, seed)
    return g, run_pipeline(plan(w), g, seed).decomposition


def _merged_through_a_non_edge(g, h):
    """h with two of its cycles joined into one, so that at least one of the
    two new arcs is not an edge of g."""
    for a in h.cycles:
        for b in h.cycles:
            if a is not b and not (g.has_edge(a[-1], b[0]) and g.has_edge(b[-1], a[0])):
                rest = [c for c in h.cycles if c is not a and c is not b]
                return HamDecomposition(h.n, rest + [a + b])
    raise AssertionError("every rerouting uses edges only")


class TestOracleWitness:
    # ER-1/2, triangle-1/2 and two random graphons whose pipeline succeeds at n=1000
    PANEL = [ER_HALF, TRI_HALF] + [random_graphon(np.random.default_rng(k)) for k in (0, 1)]

    def test_pipeline_witnesses_agree_with_the_matching(self):
        witnessed = 0
        for w in self.PANEL:
            for n in (30, 61, 200, 1000):
                for seed in range(3):
                    g, h = _realized(w, n, seed)
                    if h is None:
                        continue
                    witnessed += 1
                    assert graph_has_decomposition(g, h)
                    assert graph_has_decomposition(g)  # Hopcroft-Karp, no witness
        assert witnessed >= 24

    def test_witness_through_a_non_edge_raises(self):
        g, h = _realized(TRI_HALF, 60, 1)
        bad = _merged_through_a_non_edge(g, h)
        with pytest.raises(RuntimeError, match="is not an edge of the graph"):
            graph_has_decomposition(g, bad)

    def test_witness_on_an_edgeless_graph_raises(self):
        g = SampledGraph.from_edges(4, np.zeros(4), np.zeros(4, dtype=int), np.empty((0, 2)))
        with pytest.raises(RuntimeError, match="arc 0->1 is not an edge"):
            graph_has_decomposition(g, HamDecomposition(4, [(0, 1), (2, 3)]))

    def test_witness_for_another_n_raises(self):
        g, h = _realized(TRI_HALF, 60, 1)
        with pytest.raises(ValueError, match="witness on 62 nodes"):
            graph_has_decomposition(g, HamDecomposition(62, h.cycles + ((60, 61),)))

    def test_small_graph_witness(self):
        # the undirected 4-cycle 0-1-2-3: two 2-cycles, or the 4-cycle either way
        g = SampledGraph.from_edges(4, np.zeros(4), np.zeros(4, dtype=int), [(0, 1), (1, 2), (2, 3), (0, 3)])
        for cycles in ([(0, 1), (2, 3)], [(1, 2), (3, 0)], [(0, 1, 2, 3)], [(3, 2, 1, 0)]):
            assert graph_has_decomposition(g, HamDecomposition(4, cycles))
        with pytest.raises(RuntimeError, match="arc 0->2"):
            graph_has_decomposition(g, HamDecomposition(4, [(0, 2), (1, 3)]))


def _arcs(g):
    return [(int(u), int(v)) for i, j in g.edges for u, v in ((i, j), (j, i))]


class TestHallWitness:
    # bipartite-0.3, and the exterior-triangle and disconnected graphons of
    # the CLI digest tests: their sampled vectors are mostly exterior
    H = F(1, 2)
    EXTERIOR_PANEL = [
        step_graphon([0, F(3, 10), 1], [[0, H], [H, 0]]),
        step_graphon([0, F(3, 5), F(4, 5), 1], [[0, H, H], [H, 0, H], [H, H, 0]]),
        step_graphon([0, F(1, 4), F(1, 2), 1], [[H, 0, 0], [0, 0, H], [0, H, 0]]),
    ]

    def test_exterior_panel_agrees_with_the_matching(self):
        exterior = 0
        for w in self.EXTERIOR_PANEL:
            s = skeleton(w)
            for n in (30, 61, 200):
                for seed in range(3):
                    g = sample_graph(w, n, seed)
                    x = empirical_concentration(g, s.node_count)
                    cert = positive_certificate(incidence(s), x)
                    if cert.status is not Membership.EXTERIOR:
                        continue
                    exterior += 1
                    witness = _block_nodes(g, cert.violator)
                    assert graph_has_decomposition(g, witness) is False
                    assert graph_has_decomposition(g) is False  # Hopcroft-Karp
        assert exterior >= 20

    def test_a_hall_set_means_no_decomposition_at_small_n(self):
        rng = np.random.default_rng(3)
        verified = 0
        for k in range(120):
            w = random_graphon(rng, q_max=4)
            s = skeleton(w)
            g = sample_graph(w, int(rng.integers(2, 8)), k)
            a = hall_violator(s, np.bincount(g.blocks, minlength=s.node_count))
            if a is None:
                continue
            verified += 1
            assert graph_has_decomposition(g, _block_nodes(g, a)) is False
            assert not brute_decomposition_exists(g.n, _arcs(g))
        assert verified >= 20

    def test_exterior_points_run_no_simplex(self, monkeypatch):
        # the flow certifies every exterior point; the LP only measures
        # points inside the polytope
        lps = []
        real = hamdec.polytope.solve_equality_lp

        def counting(*args):
            lps.append(args)
            return real(*args)

        monkeypatch.setattr(hamdec.polytope, "solve_equality_lp", counting)
        exterior = 0
        for w in self.EXTERIOR_PANEL:
            s = skeleton(w)
            for n in (30, 61, 200):
                for seed in range(3):
                    x = empirical_concentration(sample_graph(w, n, seed), s.node_count)
                    before = len(lps)
                    cert = positive_certificate(incidence(s), x)
                    exterior += cert.violator is not None
                    assert (len(lps) == before) == (cert.violator is not None)
        assert exterior >= 20
        del lps[:]
        assert analyze(BIP_UNEVEN).condition_b_status is Membership.EXTERIOR
        assert lps == []
        for trial in range(5):
            assert run_trial(BIP_UNEVEN, 60, 5, trial).x_interior is False
        assert lps == []

    def test_small_graph_hall_set(self):
        # the star with centre 0 and leaves 1, 2, 3: the leaves share one neighbour
        g = SampledGraph.from_edges(4, np.zeros(4), np.zeros(4, dtype=int), [(0, 1), (0, 2), (0, 3)])
        assert graph_has_decomposition(g, [1, 2, 3]) is False
        assert graph_has_decomposition(g, [2, 3]) is False
        for nodes in ([0], [0, 1], [1], []):
            with pytest.raises(RuntimeError, match="violates nothing"):
                graph_has_decomposition(g, nodes)

    def test_set_that_violates_nothing_raises(self):
        g, _ = _realized(TRI_HALF, 60, 1)
        with pytest.raises(RuntimeError, match="60 nodes has 60 neighbours"):
            graph_has_decomposition(g, np.arange(60))

    def test_hall_set_nodes_are_checked(self):
        g = SampledGraph.from_edges(4, np.zeros(4), np.zeros(4, dtype=int), [(0, 1)])
        with pytest.raises(ValueError, match="nodes of the graph"):
            graph_has_decomposition(g, [2, 4])
        with pytest.raises(ValueError, match="distinct"):
            graph_has_decomposition(g, [2, 2, 3])


class TestEmbed:
    def test_saturated_always_succeeds(self, monkeypatch):
        p = F(1, 5)
        w = step_graphon([0, F(1, 3), F(2, 3), 1], [[0, p, p], [p, 0, p], [p, p, 0]])
        assert skeleton(w) == TRIANGLE
        sat = sample_graph(saturate(w), 12, 2)
        assert set(sat.blocks.tolist()) == {0, 1, 2}
        monkeypatch.setattr(realize_module, "ATTEMPTS", 1)  # the first restart succeeds
        cycles = embed_cycles([BlockCycle((0, 1, 2))], sat, seed=1)
        assert len(cycles) == 1 and len(cycles[0]) == 3
        assert sorted(int(sat.blocks[v]) for v in cycles[0]) == [0, 1, 2]

    def test_empty_graph_fails(self):
        g = SampledGraph.from_edges(4, np.linspace(0, 0.9, 4), np.array([0, 0, 1, 1]), np.empty((0, 2)))
        s = SkeletonGraph(2, frozenset(), frozenset({(0, 1)}))
        with pytest.raises(ConstructionError) as err:
            embed_cycles([BlockCycle((0, 1))], g, seed=3)
        assert err.value.stage == "long-cycles"
        assert err.value.failures == (f"pattern 0 not embedded after {realize_module.ATTEMPTS} attempts",)

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
                embed_cycles([BlockCycle((0, 1, 2))], g, seed=seed)
                wins += 1
            except ConstructionError:
                pass
        assert wins >= 95

    def test_disjointness_across_patterns(self):
        w = step_graphon([0, F(1, 3), F(2, 3), 1], [[F(1, 2)] * 3] * 3)
        g = sample_graph(w, 120, 9)
        pats = [BlockCycle((0, 1, 2)), BlockCycle((0, 2, 1)), BlockCycle((1, 2, 0))]
        cycles = embed_cycles(pats, g, seed=10)
        flat = [v for c in cycles for v in c]
        assert len(flat) == len(set(flat))
        for c in cycles:
            for t in range(len(c)):
                assert g.has_edge(c[t], c[(t + 1) % len(c)])


def _pipeline(w, n, seed, saturated=False):
    g = sample_graph(saturate(w) if saturated else w, n, seed)
    s = skeleton(w)
    x = empirical_concentration(g, s.node_count)
    return tally(x, n, s), g, s


class TestRealize:
    def test_saturated_graph_success(self):
        w = step_graphon([0, F(1, 3), F(2, 3), 1], [[F(1, 2)] * 3] * 3)
        a, g, s = _pipeline(w, 60, 4, saturated=True)
        out = realize(a, g, s, seed=5)
        assert out.ok
        rho = count_block_edges(out.decomposition, g.blocks, s)
        assert rho.counts == a.counts

    def test_size_other_than_the_skeleton_rejected(self):
        w = step_graphon([0, F(1, 3), F(2, 3), 1], [[F(1, 2)] * 3] * 3)
        a, g, s = _pipeline(w, 60, 4, saturated=True)
        two = SkeletonGraph(2, frozenset({0, 1}), frozenset({(0, 1)}))
        with pytest.raises(ValueError):
            realize(a, g, two, seed=5)

    def test_empty_graph_failure(self):
        w = step_graphon([0, F(1, 3), F(2, 3), 1], [[F(1, 2)] * 3] * 3)
        a, g, s = _pipeline(w, 60, 4, saturated=True)
        empty = SampledGraph.from_edges(g.n, g.coords, g.blocks, np.empty((0, 2)))
        out = realize(a, empty, s, seed=5)
        assert not out.ok
        assert out.decomposition is None
        assert out.failure.stage in ("long-cycles", "two-cycles")

    def test_success_uses_only_graph_edges(self):
        w = step_graphon([0, F(1, 2), 1], [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        for seed in range(5):
            g = sample_graph(w, 120, seed)
            s = skeleton(w)
            x = empirical_concentration(g, 2)
            a = tally(x, g.n, s)
            out = realize(a, g, s, seed=seed + 99)
            assert out.ok
            pairs = g.pair_set()
            for c in out.decomposition.cycles:
                for t in range(len(c)):
                    u, v = c[t], c[(t + 1) % len(c)]
                    assert (min(u, v), max(u, v)) in pairs
            # a constructive success is an existence witness
            assert graph_has_decomposition(g)

    def test_one_matching_per_two_cycle_group(self, monkeypatch):
        # a saturated graph matches every group on the first draw
        w = step_graphon([0, F(1, 3), F(2, 3), 1], [[F(1, 2)] * 3] * 3)
        a, g, s = _pipeline(w, 60, 4, saturated=True)
        groups, _ = block_cycles(a, s)
        calls = []
        real = realize_module.max_bipartite_matching

        def counting(host, left, right):
            calls.append((len(left), len(right)))
            return real(host, left, right)

        monkeypatch.setattr(realize_module, "max_bipartite_matching", counting)
        out = realize(a, g, s, seed=5)
        assert out.ok and out.failure is None
        assert calls == [(c, c) for c in groups.values()]
        assert sum(len(c) == 2 for c in out.decomposition.cycles) == sum(groups.values())

    def test_two_loop_blocks_statistical(self):
        # within-block pairing plus cross matching at p = 1/2
        w = step_graphon([0, F(1, 2), 1], [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        s = skeleton(w)
        wins = 0
        for seed in range(100):
            g = sample_graph(w, 200, seed)
            x = empirical_concentration(g, 2)
            a = tally(x, g.n, s)
            out = realize(a, g, s, seed=seed)
            wins += out.ok
        assert wins >= 95


def _realize_inputs(monkeypatch, w, n, trials):
    """The (tally, graph, skeleton, seed) each Monte Carlo trial on w hands
    `realize`, refinement included."""
    seen = []

    def recording(a, g, s, seed):
        seen.append((a, g, s, seed))
        return realize(a, g, s, seed)

    with monkeypatch.context() as m:
        m.setattr(hamdec.driver, "realize", recording)
        for trial in range(trials):
            run_trial(w, n, 1, trial)
    return seen


def _partner_verdicts(monkeypatch):
    """The partner check's verdicts from here on, in call order."""
    verdicts, real = [], realize_module._all_have_partners

    def recording(rows, draw):
        verdicts.append(real(rows, draw))
        return verdicts[-1]

    monkeypatch.setattr(realize_module, "_all_have_partners", recording)
    return verdicts


class TestPartnerCheck:
    """Phase 2 skips a draw with a node that has no neighbour across its
    group, and matches the rest as before: its outcome is the reference's,
    the loop that matches every draw."""

    def test_q8_outcomes_equal_the_reference(self, monkeypatch):
        # analyze-sweep's Monte Carlo graphon: most trials run out of draws
        inputs = _realize_inputs(monkeypatch, interior_graphon(8, 1).graphon, 200, 40)
        verdicts = _partner_verdicts(monkeypatch)
        keys = [realization_key(realize(*args)) for args in inputs]
        assert keys == [realization_key(realize_reference(*args)) for args in inputs]
        assert False in verdicts and True in verdicts  # the check skipped draws and passed some
        stages = {key[0] for key in keys if key[0] in ("long-cycles", "two-cycles")}
        assert "two-cycles" in stages and len(stages) < len(keys)  # failures and successes

    @pytest.mark.parametrize("n", [30, 61, 201])
    @pytest.mark.parametrize("w", [ER_HALF, TRI_HALF], ids=["er-half", "tri-half"])
    def test_outcomes_equal_the_reference(self, monkeypatch, w, n):
        inputs = _realize_inputs(monkeypatch, w, n, 12)
        assert inputs
        for args in inputs:
            assert realization_key(realize(*args)) == realization_key(realize_reference(*args))

    @pytest.mark.parametrize("n", [30, 61, 201])
    def test_saturated_outcomes_equal_the_reference(self, n):
        # ER-1/2's one looped block cannot pair off an odd n, so it is left out
        for w in (TRI_HALF, step_graphon([0, F(1, 3), F(2, 3), 1], [[F(1, 2)] * 3] * 3)):
            for seed in range(3):
                a, g, s = _pipeline(w, n, seed, saturated=True)
                out = realize(a, g, s, seed)
                assert out.ok
                assert realization_key(out) == realization_key(realize_reference(a, g, s, seed))

    def test_er_half_n60_failures_equal_the_reference(self, monkeypatch):
        # montecarlo(ER-1/2, n=60, 40 trials, seed 1): six realizations run
        # out of phase-2 draws, and their failure texts are the reference's
        inputs = _realize_inputs(monkeypatch, ER_HALF, 60, 40)
        keys = [realization_key(realize(*args)) for args in inputs]
        assert keys == [realization_key(realize_reference(*args)) for args in inputs]
        assert [key[0] for key in keys].count("two-cycles") == 6

    def test_the_smallest_groups_are_checked_first(self, monkeypatch):
        inputs = _realize_inputs(monkeypatch, interior_graphon(8, 1).graphon, 200, 10)
        sizes = []

        def rejecting(rows, draw):  # so every draw but the first and last is checked
            sizes.append([len(left) for left, _ in draw])
            return False

        monkeypatch.setattr(realize_module, "_all_have_partners", rejecting)
        checked = 0
        for a, g, s, seed in inputs:
            realize(a, g, s, seed)
            want = sorted(block_cycles(a, s)[0].values())  # every group, smallest first
            assert all(got == want for got in sizes)
            checked += len(sizes)
            sizes.clear()
        assert checked

    def test_the_last_draw_names_its_short_group(self, monkeypatch):
        # no 2-cycle group can match in an empty graph: the check skips
        # draws 2 to ATTEMPTS - 1, and the last draw is matched for its text
        w = step_graphon([0, F(1, 3), F(2, 3), 1], [[F(1, 2)] * 3] * 3)
        a, g, s = _pipeline(w, 60, 4, saturated=True)
        empty = SampledGraph.from_edges(g.n, g.coords, g.blocks, [])
        verdicts = _partner_verdicts(monkeypatch)
        out = realize(a, empty, s, seed=5)
        assert realization_key(out) == realization_key(realize_reference(a, empty, s, 5))
        assert verdicts == [False] * (realize_module.ATTEMPTS - 2)
        assert "in the last of" in str(out.failure)

    def test_the_rows_are_read_once_after_the_first_failed_draw(self, monkeypatch):
        full_reads, real = [], SampledGraph.row_masks

        def counting(g, rows=None, cols=None):
            full_reads.append(rows is None)
            return real(g, rows, cols)

        monkeypatch.setattr(SampledGraph, "row_masks", counting)
        w = step_graphon([0, F(1, 3), F(2, 3), 1], [[F(1, 2)] * 3] * 3)
        a, g, s = _pipeline(w, 60, 4, saturated=True)
        assert realize(a, g, s, seed=5).ok  # the first draw matches
        assert full_reads and not any(full_reads)  # only the groups' rows
        full_reads.clear()
        assert not realize(a, SampledGraph.from_edges(g.n, g.coords, g.blocks, []), s, seed=5).ok
        assert full_reads.count(True) == 1

    def test_never_rejects_a_draw_that_matches(self):
        # on random small graphs and groupings, a grouping whose groups all
        # have perfect matchings passes the check
        rng = np.random.default_rng(7)
        matchable = 0
        for trial in range(300):
            n = int(rng.integers(2, 13))
            g = sample_graph(step_graphon([0, 1], [[F(int(rng.integers(3, 10)), 10)]]), n, trial)
            order = rng.permutation(n).tolist()
            groups, k = [], 0
            while k + 2 <= n and len(groups) < 3:
                c = int(rng.integers(1, min(4, (n - k) // 2) + 1))
                groups.append((order[k:k + c], order[k + c:k + 2 * c]))
                k += 2 * c
            perfect = all(
                brute_max_matching(len(left), len(right), [
                    (u, v) for u, x in enumerate(left) for v, y in enumerate(right) if g.has_edge(x, y)
                ]) == len(left)
                for left, right in groups
            )
            matchable += perfect
            if perfect:
                assert realize_module._all_have_partners(g.row_masks(), groups)
        assert matchable >= 50
