import sys
from collections import Counter
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import hamdec.construct
from hamdec.construct import (
    BlockCycle,
    ConstructionError,
    HamDecomposition,
    block_cycles,
    build_balanced_matrix,
    build_decomposition,
    canonical_blocks,
    matrix_round,
    peel_cycles,
    round_even,
    split_mass,
)
from hamdec.model import DisconnectedSkeletonError, SkeletonGraph, incidence, skeleton
from hamdec.polytope import Membership, MembershipCertificate, positive_certificate
from hamdec.sampling import BalancedMatrix, count_block_edges, empirical_concentration, sample_graph

from helpers import (
    connected_skeletons,
    random_connected_skeleton,
    random_interior_instance,
    tally,
    tally_key,
    tally_reference,
)

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from pipebench.graphons import TRI_HALF, interior_graphon  # noqa: E402

TRIANGLE = SkeletonGraph(3, frozenset(), frozenset({(0, 1), (0, 2), (1, 2)}))
LOOP_EDGE = SkeletonGraph(2, frozenset({0}), frozenset({(0, 1)}))


class TestSplitMass:
    def test_loopless_all_edge_mass(self):
        x = (F(1, 3), F(1, 3), F(1, 3))
        cert = positive_certificate(incidence(TRIANGLE), x)
        ms = split_mass(x, cert, TRIANGLE)
        assert ms.loop_part == (F(0), F(0), F(0))
        assert ms.edge_part == x

    def test_single_loop_all_loop_mass(self):
        s = SkeletonGraph(1, frozenset({0}), frozenset())
        cert = positive_certificate(incidence(s), (F(1),))
        ms = split_mass((F(1),), cert, s)
        assert ms.loop_part == (F(1),) and ms.edge_part == (F(0),)

    def test_loop_plus_edge(self):
        x = (F(3, 4), F(1, 4))
        cert = positive_certificate(incidence(LOOP_EDGE), x)
        assert cert.coefficients == (F(1, 2), F(1, 2))
        ms = split_mass(x, cert, LOOP_EDGE)
        assert ms.loop_part == (F(1, 2), F(0))
        assert ms.edge_part == (F(1, 4), F(1, 4))

    def test_requires_interior(self):
        cert = positive_certificate(incidence(TRIANGLE), (F(1, 2), F(1, 2), F(0)))
        with pytest.raises(ValueError):
            split_mass((F(1, 2), F(1, 2), F(0)), cert, TRIANGLE)


class TestRoundEven:
    def test_rounds_up(self):
        assert round_even((F(33, 100), F(0)), 10) == (F(2, 5), F(0))

    def test_tie_breaks_down(self):
        assert round_even((F(3, 10),), 10) == (F(1, 5),)

    def test_zero(self):
        assert round_even((F(0), F(0)), 7) == (F(0), F(0))

    def test_within_one_over_n(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 50))
            v = F(int(rng.integers(0, 100)), int(rng.integers(1, 100)))
            (r,) = round_even((v,), n)
            assert (r * n) % 2 == 0
            assert abs(r - v) * n <= 1


class TestMatrixRound:
    def test_integer_matrix_unchanged(self):
        m = ((F(1), F(2)), (F(2), F(1)))
        s = SkeletonGraph(2, frozenset({0, 1}), frozenset({(0, 1)}))
        assert matrix_round(m, s) == ((1, 2), (2, 1))

    def test_half_cycle_matrix(self):
        m = (
            (F(0), F(1, 2), F(1, 2)),
            (F(1, 2), F(0), F(1, 2)),
            (F(1, 2), F(1, 2), F(0)),
        )
        r = matrix_round(m, TRIANGLE)
        # any integral flow answer: floor/ceil entries, zero diagonal,
        # all row and column sums exactly 1
        for i in range(3):
            assert r[i][i] == 0
            assert sum(r[i]) == 1
            assert sum(r[k][i] for k in range(3)) == 1
            for j in range(3):
                assert r[i][j] in (0, 1)

    def test_non_integer_sums_rejected(self):
        m = ((F(0), F(1, 2)), (F(1, 2), F(0)))
        s = SkeletonGraph(2, frozenset(), frozenset({(0, 1)}))
        with pytest.raises(ValueError):
            matrix_round(m, s)

    @pytest.mark.parametrize(
        "m, s, message",
        [
            (((F(0), F(1)), (F(1),)), SkeletonGraph(2, frozenset(), frozenset({(0, 1)})), "square"),
            (((F(0), F(-1)), (F(-1), F(0))), SkeletonGraph(2, frozenset(), frozenset({(0, 1)})),
             "nonnegative"),
            (((F(0), F(1)), (F(1), F(0))), TRIANGLE, "skeleton"),
        ],
        ids=["non-square", "negative", "size-other-than-the-skeleton"],
    )
    def test_malformed_matrix_rejected(self, m, s, message):
        with pytest.raises(ValueError, match=message):
            matrix_round(m, s)

    def test_support_violation_rejected(self):
        m = ((F(1), F(0)), (F(0), F(1)))
        s = SkeletonGraph(2, frozenset(), frozenset({(0, 1)}))
        with pytest.raises(ValueError):
            matrix_round(m, s)

    def test_contract_random(self):
        # product-form transportation matrices: rational entries, integer
        # margins; check floor/ceil, exact sums, support preservation
        rng = np.random.default_rng(5)
        for _ in range(300):
            q = int(rng.integers(1, 6))
            full = SkeletonGraph(
                q,
                frozenset(range(q)),
                frozenset((i, j) for i in range(q) for j in range(i + 1, q)),
            )
            r_marg = [int(v) for v in rng.integers(0, 7, size=q)]
            total = sum(r_marg)
            if total == 0:
                continue
            c_marg = list(r_marg)
            rng.shuffle(c_marg)
            m = [[F(r_marg[i] * c_marg[j], total) for j in range(q)] for i in range(q)]
            r = matrix_round(m, full)
            for i in range(q):
                assert sum(r[i]) == r_marg[i]
                assert sum(r[k][i] for k in range(q)) == c_marg[i]
                for j in range(q):
                    assert abs(F(r[i][j]) - m[i][j]) < 1
                    assert r[i][j] >= 0
                    if m[i][j] == 0:
                        assert r[i][j] == 0


class TestBuildBalancedMatrix:
    def test_triangle_case1_exact(self):
        a = tally((F(3, 12), F(4, 12), F(5, 12)), 12, TRIANGLE)
        assert a.counts == ((0, 1, 2), (1, 0, 3), (2, 3, 0))

    def test_triangle_case2_properties(self):
        x = (F(3, 13), F(4, 13), F(6, 13))
        a = tally(x, 13, TRIANGLE)
        c = a.counts
        for i in range(3):
            assert sum(c[i]) == 13 * x[i]
            assert c[i][i] == 0
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(c[i][j] - c[j][i]) <= 1
                assert c[i][j] + c[j][i] > 0

    def test_single_loop(self):
        s = SkeletonGraph(1, frozenset({0}), frozenset())
        a = tally((F(1),), 4, s)
        assert a.counts == ((4,),)

    def test_non_integral_rejected(self):
        with pytest.raises(ConstructionError):
            tally((F(1, 3), F(1, 3), F(1, 3)), 10, TRIANGLE)

    def test_x_not_summing_to_one_rejected(self):
        s = SkeletonGraph(1, frozenset({0}), frozenset())
        cert = MembershipCertificate((F(2),), F(2))
        with pytest.raises(ValueError, match="sum to 1"):
            build_balanced_matrix((F(2),), 4, s, cert)

    def test_disconnected_skeleton_rejected(self):
        s = SkeletonGraph(2, frozenset({0, 1}), frozenset())
        with pytest.raises(DisconnectedSkeletonError):
            tally((F(1, 2), F(1, 2)), 4, s)

    def test_certificate_of_another_x_rejected(self):
        cert = positive_certificate(incidence(TRIANGLE), (F(1, 3), F(1, 3), F(1, 3)))
        with pytest.raises(ValueError, match="Z c = x"):
            build_balanced_matrix((F(1, 4), F(1, 4), F(1, 2)), 12, TRIANGLE, cert)

    def test_exterior_rejected(self):
        with pytest.raises(ConstructionError) as err:
            tally((F(6, 10), F(3, 10), F(1, 10)), 10, TRIANGLE)
        assert err.value.stage == "membership"

    def test_tiny_n_failure_is_structured(self):
        s = SkeletonGraph(2, frozenset({0, 1}), frozenset({(0, 1)}))
        with pytest.raises(ConstructionError) as err:
            # n = 2 cannot carry loop mass on both blocks plus the edge
            tally((F(1, 2), F(1, 2)), 2, s)
        assert err.value.stage == "postconditions"

    def test_properties_hold_on_random_instances(self):
        rng = np.random.default_rng(101)
        built = 0
        for _ in range(150):
            s = random_connected_skeleton(rng, q_max=6, want_loopless_odd=True)
            n = int(rng.integers(60, 2000))
            x = random_interior_instance(rng, s, n)
            if x is None:
                continue
            a = tally(x, n, s)
            c = a.counts
            q = s.node_count
            for i in range(q):
                assert sum(c[i]) == n * x[i]
                assert c[i][i] % 2 == 0
                assert (c[i][i] > 0) == (i in s.loops)
            for i in range(q):
                for j in range(i + 1, q):
                    assert abs(c[i][j] - c[j][i]) <= 1
                    assert (c[i][j] + c[j][i] > 0) == ((i, j) in s.edges)
            built += 1
        assert built >= 100


class TestPaperTally:
    """The paper's tally at small n, exhaustively: for every interior point
    x = k / n of a connected skeleton with n = sum(k), `build_balanced_matrix`
    and `build_decomposition` either build a decomposition of the saturated
    graph (the complete multipartite graph of block sizes k) with the
    tally's block-pair counts, or raise `ConstructionError`.  The built /
    failed-by-stage counts are pinned, so that a change to the tally shows
    as a declared change to this table."""

    @pytest.mark.parametrize("q, totals, outcomes", [
        (2, range(2, 25), {"built": 244, "loopless-membership": 264, "postconditions": 44}),
        (3, range(3, 11), {"built": 277, "loopless-membership": 597, "postconditions": 866}),
    ])
    def test_built_and_failed_counts(self, q, totals, outcomes):
        seen, wrong = Counter(), []
        for s in connected_skeletons(q):
            z = incidence(s)
            for n in totals:
                for counts in product(range(n + 1), repeat=q):
                    if sum(counts) != n:
                        continue
                    x = [F(k, n) for k in counts]
                    cert = positive_certificate(z, x)
                    if cert.status is not Membership.INTERIOR:
                        continue
                    try:
                        a = build_balanced_matrix(x, n, s, cert)
                    except ConstructionError as exc:
                        seen[exc.stage] += 1
                        continue
                    h = build_decomposition(a, s)
                    # every arc joins two blocks of the skeleton: h lives in the saturated graph
                    if h.n != n or count_block_edges(h, canonical_blocks(counts), s) != a:
                        wrong.append((s, counts))
                    seen["built"] += 1
        assert (dict(seen), wrong) == (outcomes, [])


def _enumerated_instances(q, totals):
    """TestPaperTally's instances: (x, n, s, certificate) for every interior
    x = k / n of a connected skeleton on q blocks, n in totals."""
    for s in connected_skeletons(q):
        z = incidence(s)
        for n in totals:
            for counts in product(range(n + 1), repeat=q):
                if sum(counts) != n:
                    continue
                x = [F(k, n) for k in counts]
                cert = positive_certificate(z, x)
                if cert.status is Membership.INTERIOR:
                    yield x, n, s, cert


class TestTallyReference:
    """The tally on integer counts says what the `Fraction` tally said: the
    same counts, or the same stop with the same text, on the paper-tally
    enumeration and on sampled empirical vectors."""

    @pytest.mark.parametrize("q, totals", [(2, range(2, 25)), (3, range(3, 11))])
    def test_enumeration(self, q, totals):
        for args in _enumerated_instances(q, totals):
            assert tally_key(build_balanced_matrix, *args) == tally_key(tally_reference, *args), args

    @pytest.mark.parametrize("w, n", [
        (interior_graphon(8, 1).graphon, 60),
        (interior_graphon(8, 1).graphon, 200),
        (TRI_HALF, 30),
    ], ids=["q8-n60", "q8-n200", "tri-half-n30"])
    def test_sampled_vectors(self, w, n):
        s = skeleton(w)
        z = incidence(s)
        keys = []
        for seed in range(40):
            x = empirical_concentration(sample_graph(w, n, seed), w.q)
            cert = positive_certificate(z, x)
            keys.append(tally_key(build_balanced_matrix, x, n, s, cert))
            assert keys[-1] == tally_key(tally_reference, x, n, s, cert), seed
        assert any(isinstance(key[0], tuple) for key in keys)  # some tally was built


class TestPeel:
    def test_unique_three_cycle(self):
        bm = BalancedMatrix(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
        out = peel_cycles(bm, TRIANGLE)
        assert out == [(BlockCycle((0, 1, 2)), 1)]

    def test_two_cycle_multiplicity(self):
        s = SkeletonGraph(2, frozenset(), frozenset({(0, 1)}))
        bm = BalancedMatrix(((0, 2), (2, 0)))
        out = peel_cycles(bm, s)
        assert out == [(BlockCycle((0, 1)), 2)]

    def test_nonzero_diagonal_rejected(self):
        s = SkeletonGraph(1, frozenset({0}), frozenset())
        with pytest.raises(ValueError):
            peel_cycles(BalancedMatrix(((2,),)), s)

    def test_size_other_than_the_skeleton_rejected(self):
        with pytest.raises(ValueError, match="skeleton"):
            peel_cycles(BalancedMatrix(((0, 1), (1, 0))), TRIANGLE)

    def test_zero_matrix_empty(self):
        s = SkeletonGraph(2, frozenset(), frozenset({(0, 1)}))
        assert peel_cycles(BalancedMatrix(((0, 0), (0, 0))), s) == []

    def test_conservation_random(self):
        # peeled cycles, with multiplicity, reconstruct the tally exactly
        rng = np.random.default_rng(7)
        for _ in range(100):
            q = int(rng.integers(2, 7))
            full = SkeletonGraph(
                q, frozenset(), frozenset((i, j) for i in range(q) for j in range(i + 1, q))
            )
            counts = [[0] * q for _ in range(q)]
            for _ in range(int(rng.integers(1, 8))):
                k = int(rng.integers(2, q + 1))
                cyc = [int(v) for v in rng.permutation(q)[:k]]
                for t in range(k):
                    counts[cyc[t]][cyc[(t + 1) % k]] += 1
            total = sum(map(sum, counts))
            bm = BalancedMatrix(tuple(tuple(r) for r in counts))
            rebuilt = [[0] * q for _ in range(q)]
            for cyc, mult in peel_cycles(bm, full):
                nodes = cyc.nodes
                assert len(set(nodes)) == len(nodes)
                for t in range(len(nodes)):
                    rebuilt[nodes[t]][nodes[(t + 1) % len(nodes)]] += mult
            assert rebuilt == [list(r) for r in counts]


class TestBuildDecomposition:
    def test_example_sizes_345(self):
        a = tally((F(3, 12), F(4, 12), F(5, 12)), 12, TRIANGLE)
        h = build_decomposition(a, TRIANGLE)
        assert sum(1 for c in h.cycles if len(c) == 2) == 6
        assert not h.long_cycles()

    def test_example_sizes_346(self):
        a = tally((F(3, 13), F(4, 13), F(6, 13)), 13, TRIANGLE)
        h = build_decomposition(a, TRIANGLE)
        assert sum(1 for c in h.cycles if len(c) == 2) == 5
        assert [len(c) for c in h.long_cycles()] == [3]

    def test_single_loop_pairs(self):
        s = SkeletonGraph(1, frozenset({0}), frozenset())
        a = tally((F(1),), 4, s)
        h = build_decomposition(a, s)
        assert h.cycles == ((0, 1), (2, 3))

    @pytest.mark.parametrize("extra", [1, -1])
    def test_inconsistent_plan_is_an_invariant_error(self, monkeypatch, extra):
        # one 2-cycle too many exhausts a block; one too few leaves nodes over
        a = BalancedMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
        real = hamdec.construct.block_cycles

        def skewed(a, s):
            pairs, longer = real(a, s)
            return {**pairs, (0, 1): pairs[(0, 1)] + extra}, longer

        monkeypatch.setattr(hamdec.construct, "block_cycles", skewed)
        with pytest.raises(RuntimeError, match="assembling"):
            build_decomposition(a, TRIANGLE)

    def test_size_other_than_the_skeleton_rejected(self):
        a = BalancedMatrix(((0, 1), (1, 0)))
        with pytest.raises(ValueError, match="skeleton"):
            build_decomposition(a, TRIANGLE)
        with pytest.raises(ValueError, match="skeleton"):
            block_cycles(a, TRIANGLE)

    def test_round_trip_and_bounds_random(self):
        rng = np.random.default_rng(211)
        built = 0
        for _ in range(200):
            s = random_connected_skeleton(rng, q_max=6, want_loopless_odd=True)
            n = int(rng.integers(40, 800))
            x = random_interior_instance(rng, s, n)
            if x is None:
                continue
            try:
                a = tally(x, n, s)
            except ConstructionError:
                continue
            sizes = a.row_sums()
            h = build_decomposition(a, s)
            rho = count_block_edges(h, canonical_blocks(sizes), s)
            assert rho.counts == a.counts
            nf = s.edge_count
            longs = h.long_cycles()
            assert len(longs) <= -(-2 * nf // 3)
            assert all(len(c) <= max(2, 2 * nf) for c in longs)
            # long cycles are simple: block projection has no repeats
            blocks = canonical_blocks(sizes)
            for c in longs:
                proj = [blocks[v] for v in c]
                assert len(set(proj)) == len(proj)
            # exactly m_ii/2 within-block 2-cycles per looped block
            for i in sorted(s.loops):
                within = sum(
                    1
                    for c in h.cycles
                    if len(c) == 2 and blocks[c[0]] == i and blocks[c[1]] == i
                )
                assert within == a.counts[i][i] // 2
            # at least min(a_ij, a_ji) cross 2-cycles per pair edge
            for i, j in sorted(s.edges):
                cross = sum(
                    1
                    for c in h.cycles
                    if len(c) == 2 and {blocks[c[0]], blocks[c[1]]} == {i, j}
                )
                assert cross >= min(a.counts[i][j], a.counts[j][i])
            built += 1
        assert built >= 120


class TestBlockCycles:
    def test_equal_to_the_canonical_decomposition_decoded_random(self):
        # reference: 2-cycle counts and long block cycles read back off the
        # canonical-node decomposition, as realization once decoded them
        rng = np.random.default_rng(307)
        checked = with_long = 0
        for _ in range(150):
            s = random_connected_skeleton(rng, q_max=6, want_loopless_odd=True)
            n = int(rng.integers(20, 600))
            x = random_interior_instance(rng, s, n)
            if x is None:
                continue
            try:
                a = tally(x, n, s)
            except ConstructionError:
                continue
            sizes = a.row_sums()
            h = build_decomposition(a, s)
            blocks = canonical_blocks(sizes)
            pairs = {}
            for c in h.cycles:
                if len(c) == 2:
                    key = (min(blocks[c[0]], blocks[c[1]]), max(blocks[c[0]], blocks[c[1]]))
                    pairs[key] = pairs.get(key, 0) + 1
            longer = [BlockCycle(tuple(blocks[v] for v in c)) for c in h.long_cycles()]
            got_pairs, got_longer = block_cycles(a, s)
            assert list(got_pairs.items()) == sorted(pairs.items())
            assert got_longer == longer
            checked += 1
            with_long += bool(longer)
        assert checked >= 100 and with_long >= 20


class TestHamDecomposition:
    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            HamDecomposition(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            HamDecomposition(3, [(0, 1)])  # node 2 uncovered
        with pytest.raises(ValueError):
            HamDecomposition(2, [(0, 2)])  # node out of range

    def test_length_two_minimum(self):
        with pytest.raises(ValueError):
            HamDecomposition(3, [(0,), (1, 2)])

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValueError, match="n must be nonnegative, got -3"):
            HamDecomposition(-3, ())

    def test_successor_consistency(self):
        h = HamDecomposition(4, [(0, 2), (1, 3)])
        assert h.successor == (2, 3, 0, 1)
        h = HamDecomposition(5, [[4, 0, 2], [3, 1]])
        assert h.cycles == ((4, 0, 2), (3, 1))
        assert h.successor == (2, 3, 4, 1, 0)

    def test_successor_built_once(self):
        h = HamDecomposition(5, [[4, 0, 2], [3, 1]])
        assert h.successor is h.successor
        assert h == HamDecomposition(5, [[4, 0, 2], [3, 1]])  # the cache is no field

    def test_agrees_with_the_node_by_node_check(self):
        # the one-pass check and successor against a loop over the nodes,
        # on random cycle lists: partitions, and ones that repeat, drop or
        # overshoot a node or hold a 1-cycle
        def loop_successor(n, cycles):
            succ, seen = [-1] * n, [False] * n
            for cycle in cycles:
                if len(cycle) < 2:
                    return "length"
                for t, v in enumerate(cycle):
                    if not 0 <= v < n or seen[v]:
                        return "partition"
                    seen[v] = True
                    succ[v] = cycle[(t + 1) % len(cycle)]
            return tuple(succ) if all(seen) else "cover"

        rng = np.random.default_rng(5)
        messages = {"length": "at least 2", "partition": "partition", "cover": "cover every node"}
        for _ in range(300):
            n = int(rng.integers(0, 12))
            nodes = rng.integers(-1, n + 2, n).tolist() if rng.random() < 0.3 else rng.permutation(n).tolist()
            cuts = sorted(rng.choice(np.arange(1, n), int(rng.integers(0, n)), replace=False).tolist()) if n > 1 else []
            cycles = [nodes[a:b] for a, b in zip([0, *cuts], [*cuts, n]) if b > a]
            if rng.random() < 0.3 and cycles:
                cycles = cycles[:-1]
            want = loop_successor(n, cycles)
            if isinstance(want, str):
                with pytest.raises(ValueError, match=messages[want]):
                    HamDecomposition(n, cycles)
                continue
            for given in (cycles, [np.array(c) for c in cycles]):
                h = HamDecomposition(n, given)
                assert h.successor == want and h.cycles == tuple(map(tuple, cycles))
                assert all(type(v) is int for c in h.cycles for v in c)
