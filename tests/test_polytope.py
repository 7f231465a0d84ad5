import sys
from fractions import Fraction as F
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np
import pytest

import hamdec.polytope
from hamdec.driver import analyze
from hamdec.model import (
    SkeletonGraph,
    concentration,
    edge_order,
    incidence,
    skeleton,
    step_graphon,
)
from hamdec.polytope import (
    Membership,
    MembershipCertificate,
    extremal_generators,
    hall_violator,
    positive_certificate,
    solve_equality_lp,
)

from helpers import (
    connected_skeletons,
    dense_rows,
    fraction_simplex,
    hall_status,
    lp_status,
    random_graphon,
    random_skeleton,
    reference_certificate,
    reference_rows,
)

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from pipebench.graphons import interior_graphon  # noqa: E402

TRIANGLE = SkeletonGraph(3, frozenset(), frozenset({(0, 1), (0, 2), (1, 2)}))


def _lp_rows(s: SkeletonGraph, counts):
    """The membership LP's integer rows for x = counts / sum(counts), as
    `positive_certificate` poses them: 2Z, +-2Z 1 and the rhs 2 counts."""
    return [row + [sum(row), -sum(row), 2 * k]
            for row, k in zip(incidence(s).doubled_rows(), counts)]


class TestSimplexCore:
    def test_basic_max(self):
        # max v0 - v1 s.t. v0 + v1 = 1
        assert solve_equality_lp([[1, 1, 1]]) == ([1, 0], 1)

    def test_infeasible(self):
        # an exterior point outside Z's column space: x_0 != x_1 on one pair edge
        rows = _lp_rows(SkeletonGraph(2, frozenset(), frozenset({(0, 1)})), [3, 7])
        with pytest.raises(RuntimeError, match="membership LP is infeasible"):
            solve_equality_lp(rows)

    def test_unbounded(self):
        # max v0 s.t. v1 - v0 = 0 with v1 basic: column 0 has no positive entry
        tableau, basis = [[-1, 1, 0, 1], [-1, 0, 0, 1]], [1]
        with pytest.raises(RuntimeError, match="unbounded in column 0"):
            hamdec.polytope._run_simplex(tableau, basis, 2)

    def test_redundant_constraint(self):
        assert solve_equality_lp([[1, 1, 1], [2, 2, 2]]) == ([1, 0], 1)

    def test_artificial_driven_out_of_the_basis(self, monkeypatch):
        # phase 1 ends with row 1's artificial basic at level zero; it is
        # pivoted out at column 1, the first nonzero of its row
        pivots = []
        real = hamdec.polytope._pivot

        def recording(tableau, basis, row, col):
            pivots.append((row, col))
            real(tableau, basis, row, col)

        monkeypatch.setattr(hamdec.polytope, "_pivot", recording)
        assert solve_equality_lp([[1, 1, 0], [1, -1, 0]]) == ([0, 0], 0)
        assert pivots == [(0, 0), (1, 1)]

    def test_degenerate_no_cycling(self):
        # the triangle's boundary point (1/2, 1/2, 0) on counts (1, 1, 0):
        # a zero rhs, and c = (1, 0, 0) scaled by D = 2
        assert solve_equality_lp(_lp_rows(TRIANGLE, [1, 1, 0])) == ([2, 0, 0, 0, 0], 0)


class TestIntegerSimplex:
    """The integer-row simplex walks the Fraction tableau's pivots."""

    def test_same_answers_and_pivots_as_the_fraction_tableau(self, monkeypatch):
        # the membership LP on the counts 2 D x against the reference on the
        # rows of Z and x: scaling rows and rhs by positive constants keeps
        # every pivot, and v and t only scale
        pivots, bases = [], []
        real_pivot, real_run = hamdec.polytope._pivot, hamdec.polytope._run_simplex

        def recording(tableau, basis, row, col):
            pivots.append((row, col))
            real_pivot(tableau, basis, row, col)

        def running(tableau, basis, ncols):
            real_run(tableau, basis, ncols)
            bases.append(list(basis))  # the first is phase 1's last basis

        monkeypatch.setattr(hamdec.polytope, "_pivot", recording)
        monkeypatch.setattr(hamdec.polytope, "_run_simplex", running)
        rng = np.random.default_rng(18)
        seen = dict.fromkeys((Membership.BOUNDARY, Membership.INTERIOR, "artificial left"), 0)
        for k in range(800):
            s = random_skeleton(rng, q_max=8) if k % 2 else skeleton(random_graphon(rng, 7))
            q = s.node_count
            raw = rng.integers(0, 7, q) * (rng.random(q) < 0.85)
            if not raw.any():
                raw[int(rng.integers(q))] = 1
            x = tuple(F(int(v), int(raw.sum())) for v in raw)
            z = incidence(s)
            pivots.clear(), bases.clear()
            cert = positive_certificate(z, x)
            if cert.status is Membership.EXTERIOR:
                assert pivots == bases == []
                continue
            nf, expected = z.shape[1], []
            _, v, t = fraction_simplex(reference_rows(z), x, [0] * nf + [1, -1], expected)
            assert pivots == expected, (s, x)
            assert cert.coefficients == tuple(v[j] + t for j in range(nf)) and cert.margin == t
            seen[cert.status] += 1
            seen["artificial left"] += max(bases[0]) >= nf + 2
        assert min(seen.values()) >= 10, seen

    def test_certificates_of_the_generated_interior_graphons(self):
        for q in (3, 8, 16, 24, 32):
            for seed in range(2 if q < 24 else 1):
                w = interior_graphon(q, seed).graphon
                z, x = incidence(skeleton(w)), concentration(w.partition)
                cert = positive_certificate(z, x)
                assert cert.status is Membership.INTERIOR
                assert (cert.status, cert.coefficients, cert.margin) == reference_certificate(z, x)

    def test_certificates_on_random_graphon_skeletons(self):
        rng = np.random.default_rng(18)
        seen = dict.fromkeys(Membership, 0)
        for _ in range(200):
            z = incidence(skeleton(random_graphon(rng, q_max=7)))
            q = z.shape[0]
            raw = rng.integers(0, 6, q)
            raw[int(rng.integers(q))] += 1
            x = tuple(F(int(v), int(raw.sum())) for v in raw)
            cert, ref = positive_certificate(z, x), reference_certificate(z, x)
            if cert.status is Membership.EXTERIOR:  # the flow's violator stands in for c
                assert ref[0] is Membership.EXTERIOR
            else:
                assert (cert.status, cert.coefficients, cert.margin) == ref
            seen[cert.status] += 1
        assert min(seen.values()) >= 10, seen


def _relabelling_representatives(skeletons):
    """One skeleton of each orbit under permutations of the blocks: the
    first listed whose loops and edges are least among the orbit's."""
    seen, out = set(), []
    for s in skeletons:
        orbit = {
            (
                tuple(sorted(p[i] for i in s.loops)),
                tuple(sorted((min(p[i], p[j]), max(p[i], p[j])) for i, j in s.edges)),
            )
            for p in permutations(range(s.node_count))
        }
        if not orbit & seen:
            out.append(s)
        seen |= orbit
    return out


class TestSmallWorld:
    """`positive_certificate`'s status equals the Hall-set classifier's on
    every connected skeleton with q <= 3 blocks (q = 4 up to relabelling)
    and every count vector of the given totals; permuting the blocks and
    the counts together maps every q = 4 instance onto one listed here."""

    @pytest.mark.parametrize(
        "q, totals", [(1, range(1, 9)), (2, range(1, 9)), (3, range(1, 9)), (4, range(1, 6))]
    )
    def test_status_is_the_hall_classifiers(self, q, totals):
        skeletons = list(connected_skeletons(q))
        if q == 4:
            skeletons = _relabelling_representatives(skeletons)
        vectors = [c for t in totals for c in product(range(t + 1), repeat=q) if sum(c) == t]
        seen, wrong = set(), []
        for s in skeletons:
            z = incidence(s)
            for counts in vectors:
                want = hall_status(s, counts)
                got = positive_certificate(z, [F(c, sum(counts)) for c in counts]).status
                seen.add(want)
                if got is not want:
                    wrong.append((s, counts, got, want))
        assert wrong == []
        assert seen == (set(Membership) if q > 1 else {Membership.INTERIOR, Membership.EXTERIOR})


class TestPositiveCertificate:
    def test_triangle_center(self):
        cert = positive_certificate(incidence(TRIANGLE), (F(1, 3), F(1, 3), F(1, 3)))
        assert cert.status is Membership.INTERIOR
        assert cert.coefficients == (F(1, 3), F(1, 3), F(1, 3))
        assert cert.margin == F(1, 3)

    def test_triangle_boundary(self):
        cert = positive_certificate(incidence(TRIANGLE), (F(1, 2), F(1, 2), F(0)))
        assert cert.status is Membership.BOUNDARY
        assert cert.coefficients == (F(1), F(0), F(0))
        assert cert.margin == 0

    def test_triangle_exterior(self):
        cert = positive_certificate(incidence(TRIANGLE), (F(3, 5), F(3, 10), F(1, 10)))
        assert cert.status is Membership.EXTERIOR
        assert cert.coefficients is None and cert.margin is None
        assert cert.violator == frozenset({0})  # 6 > 3 + 1 on the counts (6, 3, 1)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            positive_certificate(incidence(TRIANGLE), (F(3, 5), F(3, 5), F(-1, 5)))

    def test_status_matches_the_lp_and_violators_check(self):
        # the flow decides exterior, the simplex the rest: together they
        # classify every point as the LP alone does
        rng = np.random.default_rng(41)
        seen = dict.fromkeys(Membership, 0)
        for k in range(250):
            s = random_skeleton(rng, q_max=6) if k % 2 else skeleton(random_graphon(rng, 6))
            q = s.node_count
            raw = rng.integers(0, 7, q) * (rng.random(q) < 0.85)
            if not raw.any():
                raw[int(rng.integers(q))] = 1
            x = tuple(F(int(v), int(raw.sum())) for v in raw)
            z = incidence(s)
            cert = positive_certificate(z, x)
            assert cert.status is lp_status(z, x), (s, x)
            seen[cert.status] += 1
            some = any(
                _violates(s, x, blocks)
                for r in range(1, q + 1)
                for blocks in combinations(range(q), r)
            )
            assert (cert.violator is not None) == some
            if cert.violator is not None:
                assert _violates(s, x, cert.violator)
        assert min(seen.values()) >= 20, seen

    def test_bool_entries_rejected(self):
        # True is no proportion, as in `model._as_fraction`
        z = incidence(TRIANGLE)
        for x in ([True, 0, 0], [np.True_, 0, 0], np.array([True, False, False])):
            with pytest.raises(TypeError, match="exact rational"):
                positive_certificate(z, x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            positive_certificate(incidence(TRIANGLE), (F(1, 2), F(1, 2)))

    def test_sum_check(self):
        with pytest.raises(ValueError):
            positive_certificate(incidence(TRIANGLE), (F(1, 2), F(1, 2), F(1, 2)))

    def test_certificate_validity_random(self):
        # independently re-verify Zc = x, c >= t, sum(c) = 1 on random queries
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 120:
            s = skeleton(random_graphon(rng, q_max=4))
            z = incidence(s)
            q, nf = z.shape
            if nf == 0:
                continue
            rows = dense_rows(z)
            raw = [F(int(v)) for v in rng.integers(0, 8, size=q)]
            if sum(raw) == 0:
                continue
            x = tuple(v / sum(raw) for v in raw)
            cert = positive_certificate(z, x)
            if cert.status is not Membership.EXTERIOR:
                c = cert.coefficients
                assert sum(c) == 1
                assert min(c) == cert.margin
                for i in range(q):
                    assert sum(rows[i][j] * c[j] for j in range(nf)) == x[i]
            checked += 1

    def test_grid_against_closed_form(self):
        # triangle polytope: interior iff every coordinate < 1/2 (strict
        # triangle inequalities); boundary iff max coordinate == 1/2
        z = incidence(TRIANGLE)
        step = F(1, 20)
        for a in range(21):
            for b in range(21 - a):
                c = 20 - a - b
                x = (a * step, b * step, c * step)
                cert = positive_certificate(z, x)
                top = max(x)
                if top < F(1, 2):
                    expected = Membership.INTERIOR
                elif top == F(1, 2):
                    expected = Membership.BOUNDARY
                else:
                    expected = Membership.EXTERIOR
                assert cert.status is expected, (x, cert.status)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(29)
        s = SkeletonGraph(4, frozenset({1}), frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
        z = incidence(s)
        for _ in range(20):
            raw = [F(int(v) + 1) for v in rng.integers(0, 6, size=4)]
            x = tuple(v / sum(raw) for v in raw)
            perm = [int(v) for v in rng.permutation(4)]
            loops = frozenset(perm[i] for i in s.loops)
            edges = frozenset(
                (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in s.edges
            )
            sp = SkeletonGraph(4, loops, edges)
            xp = [F(0)] * 4
            for i in range(4):
                xp[perm[i]] = x[i]
            assert (
                positive_certificate(z, x).status
                is positive_certificate(incidence(sp), tuple(xp)).status
            )


class TestExtremalGenerators:
    def test_triangle_all(self):
        assert extremal_generators(TRIANGLE) == (0, 1, 2)

    def test_two_loops_edge_dominated(self):
        s = SkeletonGraph(2, frozenset({0, 1}), frozenset({(0, 1)}))
        order = edge_order(s)
        gens = extremal_generators(s)
        assert [order[g] for g in gens] == [(0, 0), (1, 1)]
        # the dropped edge column is the average of the two loop columns
        columns = list(zip(*dense_rows(incidence(s))))
        col_edge = columns[order.index((0, 1))]
        col_l0 = columns[order.index((0, 0))]
        col_l1 = columns[order.index((1, 1))]
        assert all(e == (a + b) / 2 for e, a, b in zip(col_edge, col_l0, col_l1))

    def test_single_loop(self):
        s = SkeletonGraph(1, frozenset({0}), frozenset())
        assert extremal_generators(s) == (0,)

    def test_generators_span_interior_points(self):
        # any interior point stays representable using extremal columns only
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 60:
            s = skeleton(random_graphon(rng, q_max=4))
            z = incidence(s)
            if z.shape[1] == 0:
                continue
            gens = extremal_generators(s)
            x = z.apply([F(1, z.shape[1])] * z.shape[1])
            zsub = incidence(SkeletonGraph(s.node_count, s.loops, s.f2_edges))
            assert zsub.edge_order == tuple(z.edge_order[j] for j in gens)
            cert = positive_certificate(zsub, x)
            assert cert.status is not Membership.EXTERIOR
            checked += 1


class TestConditionB:
    """Condition B is `analyze`'s certificate for a connected skeleton."""

    def test_single_loop_interior(self):
        w = step_graphon([0, 1], [[F(1, 2)]])
        assert analyze(w).certificate.status is Membership.INTERIOR

    def test_bipartite_uneven_exterior(self):
        w = step_graphon([0, F(3, 10), 1], [[0, F(1, 3)], [F(1, 3), 0]])
        assert analyze(w).certificate.status is Membership.EXTERIOR

    def test_bipartite_even_point_interior(self):
        # x equals the unique generator; the relative interior of a point
        # is the point itself
        w = step_graphon([0, F(1, 2), 1], [[0, F(1, 3)], [F(1, 3), 0]])
        cert = analyze(w).certificate
        assert cert.status is Membership.INTERIOR
        assert cert.coefficients == (F(1),)

    def test_disconnected_names_components(self):
        w = step_graphon(
            [0, F(1, 2), 1], [[F(1, 2), 0], [0, F(1, 2)]]
        )
        report = analyze(w)
        assert report.certificate is None and len(report.components) == 2
        # each component is renormalized to a single looped block
        for sub in report.components:
            assert sub.certificate == MembershipCertificate((F(1),), F(1))


class TestMembershipCertificate:
    def test_status_is_the_sign_of_the_margin(self):
        assert MembershipCertificate((F(1, 2), F(1, 2)), F(1, 2)).status is Membership.INTERIOR
        assert MembershipCertificate((F(1), F(0)), F(0)).status is Membership.BOUNDARY
        assert MembershipCertificate(violator=frozenset({0})).status is Membership.EXTERIOR

    def test_coefficients_and_margin_come_together(self):
        with pytest.raises(ValueError, match="together"):
            MembershipCertificate((F(1),))
        with pytest.raises(ValueError, match="together"):
            MembershipCertificate(margin=F(0))

    def test_either_coefficients_or_a_violator(self):
        with pytest.raises(ValueError, match="or a violator"):
            MembershipCertificate()
        with pytest.raises(ValueError, match="or a violator"):
            MembershipCertificate((F(1),), F(1), frozenset({0}))
        with pytest.raises(ValueError, match="nonempty"):
            MembershipCertificate(violator=frozenset())

    def test_coefficients_must_agree_with_the_margin(self):
        # a negative coefficient under a positive margin once read interior
        for coefficients, margin in [
            ((F(3, 2), F(-1, 2)), F(1, 2)),
            ((F(3, 2), F(-1, 2)), F(0)),
            ((F(1), F(0)), F(1, 2)),
            ((F(1, 2), F(1, 2)), F(0)),
            ((), F(0)),
        ]:
            with pytest.raises(ValueError, match="disagree"):
                MembershipCertificate(coefficients, margin)

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MembershipCertificate((F(2), F(-1)), F(-1))


def _neighbourhood(s: SkeletonGraph, blocks) -> set[int]:
    return {j for i in blocks for j in range(s.node_count) if s.supports(i, j)}


def _violates(s: SkeletonGraph, counts, blocks) -> bool:
    return sum(counts[j] for j in _neighbourhood(s, blocks)) < sum(counts[i] for i in blocks)


def _random_bipartite(rng, q_max=8) -> SkeletonGraph:
    """A loopless skeleton whose pair edges all cross one random 2-colouring."""
    q = int(rng.integers(2, q_max + 1))
    side = rng.integers(0, 2, q)
    p = float(rng.uniform(0.2, 0.9))
    edges = {
        (i, j) for i in range(q) for j in range(i + 1, q) if side[i] != side[j] and rng.random() < p
    }
    return SkeletonGraph(q, frozenset(), frozenset(edges))


class TestHallViolator:
    """Gale's theorem on the double cover: a block set A with
    count(N(A)) < count(A) exists exactly when the count vector is exterior."""

    def test_against_subset_enumeration_and_the_lp(self):
        rng = np.random.default_rng(20)
        found = 0
        for k in range(300):
            # loops, disconnected and loop-only blocks; every third bipartite
            s = _random_bipartite(rng) if k % 3 == 0 else random_skeleton(rng)
            q = s.node_count
            counts = rng.integers(0, 6, q) * (rng.random(q) < 0.8)  # zero counts too
            if not counts.any():
                counts[int(rng.integers(q))] = 1
            counts = counts.tolist()
            a = hall_violator(s, counts)
            some = any(
                _violates(s, counts, blocks)
                for r in range(1, q + 1)
                for blocks in combinations(range(q), r)
            )
            total = sum(counts)
            status = lp_status(incidence(s), [F(c, total) for c in counts])
            assert (a is not None) == some == (status is Membership.EXTERIOR)
            if a is not None:
                found += 1
                assert _violates(s, counts, a)
        assert 50 <= found <= 250

    def test_the_inclusion_minimal_set_of_largest_deficiency(self):
        # the greedy seed changes the maximum flow, never its residual source
        # side: the set is the intersection of every block set of largest
        # deficiency counts(A) - counts(N(A)), itself one of them
        rng = np.random.default_rng(21)
        exterior = 0
        for k in range(600):
            s = _random_bipartite(rng, q_max=6) if k % 3 == 0 else random_skeleton(rng, q_max=6)
            q = s.node_count
            counts = (rng.integers(0, 6, q) * (rng.random(q) < 0.8)).tolist()  # zero counts too
            deficiency = {
                frozenset(blocks): sum(counts[i] for i in blocks)
                - sum(counts[j] for j in _neighbourhood(s, blocks))
                for r in range(q + 1)
                for blocks in combinations(range(q), r)
            }
            best = max(deficiency.values())  # the empty set's 0 at least
            a = hall_violator(s, counts)
            if best <= 0:
                assert a is None, (s, counts)
                continue
            exterior += 1
            minimal = frozenset.intersection(*[b for b, d in deficiency.items() if d == best])
            assert deficiency[minimal] == best
            assert a == minimal, (s, counts)
        assert 150 <= exterior <= 500, exterior

    def test_triangle(self):
        assert hall_violator(TRIANGLE, [1, 1, 1]) is None
        assert hall_violator(TRIANGLE, [1, 1, 2]) is None  # boundary: x(N(2)) = x(2)
        assert hall_violator(TRIANGLE, [1, 1, 3]) == frozenset({2})

    def test_a_looped_block_is_its_own_neighbour(self):
        s = SkeletonGraph(2, frozenset({0}), frozenset({(0, 1)}))
        assert hall_violator(s, [1, 5]) == frozenset({1})
        assert hall_violator(s, [5, 1]) is None

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError, match="3 blocks"):
            hall_violator(TRIANGLE, [1, 1])
        with pytest.raises(ValueError, match="nonnegative"):
            hall_violator(TRIANGLE, [1, -1, 2])

    def test_non_integral_counts_rejected(self):
        # truncated, [1, 1, 2.9] read as the boundary counts [1, 1, 2]
        for counts in ([1, 1, 2.9], [F(1, 2), 1, 1], np.array([1.0, 1.5, 1.0])):
            with pytest.raises(ValueError, match="integers"):
                hall_violator(TRIANGLE, counts)
        assert hall_violator(TRIANGLE, [F(1), 1.0, np.int64(3)]) == frozenset({2})

    def test_bool_counts_rejected(self):
        # read as ints, [True, True, False] would be the boundary counts [1, 1, 0]
        for counts in ([True, True, False], [1, np.True_, 1], np.array([True, True, False])):
            with pytest.raises(TypeError, match="integer count"):
                hall_violator(TRIANGLE, counts)
