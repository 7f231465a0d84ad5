import hashlib
from fractions import Fraction as F

import numpy as np
import pytest

from hamdec.model import (
    concentration,
    edge_order,
    has_odd_cycle,
    incidence,
    is_connected,
    loopless,
    skeleton,
    step_graphon,
)
from hamdec.polytope import Membership, positive_certificate
from hamdec.refine import (
    ensure_loopless_odd_cycle,
    pull_certificate,
    push_certificate,
    refine_once,
)

from helpers import dense_rows, random_graphon, random_split_instance


class TestRefineOnce:
    def test_loop_block_split(self):
        w = step_graphon([0, 1], [[F(1, 3)]])
        rec = refine_once(w, 0, F(1, 2))
        s = skeleton(rec.refined)
        assert s.node_count == 2
        assert s.loops == {0, 1}
        assert s.edges == {(0, 1)}

    def test_loopless_split_no_new_loop(self):
        w = step_graphon([0, F(1, 2), 1], [[0, F(1, 3)], [F(1, 3), 0]])
        rec = refine_once(w, 1, F(3, 4))
        s = skeleton(rec.refined)
        assert s.node_count == 3
        assert not s.loops
        assert s.edges == {(0, 1), (0, 2)}

    def test_function_identity_on_grid(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            w = random_graphon(rng)
            b = int(rng.integers(0, w.q))
            lo, hi = w.partition.interval(b)
            rec = refine_once(w, b, (lo + hi) / 2)
            for u in range(10):
                for v in range(10):
                    pu, pv = F(u, 10), F(v, 10)
                    assert w.value_at(pu, pv) == rec.refined.value_at(pu, pv)

    def test_split_point_validation(self):
        w = step_graphon([0, F(1, 2), 1], [[F(1, 2)] * 2] * 2)
        with pytest.raises(ValueError):
            refine_once(w, 0, F(1, 2))
        with pytest.raises(ValueError):
            refine_once(w, 1, F(1, 4))


class TestPushPull:
    def test_loop_push_with_repair(self):
        w = step_graphon([0, 1], [[F(1, 2)]])
        rec = refine_once(w, 0, F(1, 2))
        pushed = push_certificate((F(1),), rec)
        assert edge_order(skeleton(rec.refined)) == ((0, 0), (1, 1), (0, 1))
        assert pushed == (F(1, 4), F(1, 4), F(1, 2))

    def test_loop_pull_inverse(self):
        w = step_graphon([0, 1], [[F(1, 2)]])
        rec = refine_once(w, 0, F(1, 2))
        assert pull_certificate((F(1, 4), F(1, 4), F(1, 2)), rec) == (F(1),)

    def test_loopless_push_scales_by_lengths(self):
        w = step_graphon([0, F(1, 2), 1], [[0, F(1, 3)], [F(1, 3), 0]])
        rec = refine_once(w, 1, F(3, 4))
        pushed = push_certificate((F(1),), rec)
        # order: (0,1), (0,2); left fraction of block 1 at 3/4 is 1/2
        assert pushed == (F(1, 2), F(1, 2))
        assert all(v > 0 for v in pushed)
        # the two edge copies merge back by summation
        assert pull_certificate(pushed, rec) == (F(1),)

    def test_push_reconstructs_refined_concentration(self):
        rng = np.random.default_rng(53)
        done = 0
        while done < 100:
            w = random_graphon(rng)
            s = skeleton(w)
            z = incidence(s)
            if z.shape[1] == 0:
                continue
            cert = positive_certificate(z, concentration(w.partition))
            if cert.status is Membership.EXTERIOR:
                continue
            b = int(rng.integers(0, w.q))
            lo, hi = w.partition.interval(b)
            t = lo + (hi - lo) * F(int(rng.integers(1, 8)), 8)
            rec = refine_once(w, b, t)
            pushed = push_certificate(cert.coefficients, rec)
            zp = dense_rows(incidence(skeleton(rec.refined)))
            xp = concentration(rec.refined.partition)
            nf = len(pushed)
            for i in range(rec.refined.q):
                assert sum(zp[i][j] * pushed[j] for j in range(nf)) == xp[i]
            # positivity preserved for strictly positive input
            if all(v > 0 for v in cert.coefficients):
                assert all(v > 0 for v in pushed)
            # pull back solves the original system (checked internally too)
            pulled = pull_certificate(pushed, rec)
            z0 = dense_rows(z)
            x0 = concentration(w.partition)
            for i in range(w.q):
                assert sum(z0[i][j] * pulled[j] for j in range(len(pulled))) == x0[i]
            done += 1

    def test_invalid_certificate_rejected(self):
        w = step_graphon([0, 1], [[F(1, 2)]])
        rec = refine_once(w, 0, F(1, 2))
        with pytest.raises(ValueError):
            push_certificate((F(1, 2),), rec)
        with pytest.raises(ValueError):
            pull_certificate((F(1), F(0), F(0)), rec)


class TestTransportDigest:
    # sha256 of the exact pulled and pushed coefficients, recorded before
    # push and pull were rewritten over one edge map: any changed
    # coefficient changes it, even one that still solves Z c = x
    DIGEST = "b174569ad3646985bde4d13dc62a5f40397ab1e56109be1536e6cb57507dbdc6"

    def test_pull_then_push_coefficients_pinned(self):
        rng = np.random.default_rng(2206)
        h = hashlib.sha256()
        done = 0
        while done < 400:
            inst = random_split_instance(rng)
            if inst is None:
                continue
            rec, c_refined = inst
            pulled = pull_certificate(c_refined, rec)
            pushed = push_certificate(pulled, rec)
            for v in pulled + pushed:
                h.update(f"{v.numerator}/{v.denominator},".encode())
            h.update(b";")
            done += 1
        assert h.hexdigest() == self.DIGEST


class TestInvariance:
    def test_refinement_invariance_suite(self):
        # connectivity, odd-cycle status, and membership status survive
        # one-step refinements
        rng = np.random.default_rng(59)
        done = 0
        while done < 150:
            w = random_graphon(rng)
            s = skeleton(w)
            if s.node_count == 1 and s.edge_count == 0:
                continue  # empty graphon: 1-node "connectivity" is vacuous
            b = int(rng.integers(0, w.q))
            lo, hi = w.partition.interval(b)
            t = lo + (hi - lo) * F(int(rng.integers(1, 4)), 4)
            rec = refine_once(w, b, t)
            sp = skeleton(rec.refined)
            assert is_connected(s) == is_connected(sp)
            assert has_odd_cycle(s) == has_odd_cycle(sp)
            status = positive_certificate(incidence(s), concentration(w.partition)).status
            status_p = positive_certificate(
                incidence(sp), concentration(rec.refined.partition)
            ).status
            assert status is status_p
            done += 1


class TestEnsureLooplessOdd:
    def test_triangle_unchanged(self):
        w = step_graphon(
            [0, F(1, 3), F(2, 3), 1],
            [[0, F(1, 2), F(1, 2)], [F(1, 2), 0, F(1, 2)], [F(1, 2), F(1, 2), 0]],
        )
        assert ensure_loopless_odd_cycle(w) is w

    def test_single_loop_needs_two_splits(self):
        w = step_graphon([0, 1], [[F(1, 2)]])
        wn = ensure_loopless_odd_cycle(w)
        s = skeleton(wn)
        assert s.node_count == 3
        assert has_odd_cycle(loopless(s))
        assert s.edges == {(0, 1), (0, 2), (1, 2)}

    def test_loop_with_neighbor_single_split(self):
        w = step_graphon([0, F(1, 2), 1], [[F(1, 2), F(1, 3)], [F(1, 3), 0]])
        wn = ensure_loopless_odd_cycle(w)
        s = skeleton(wn)
        assert s.node_count == 3
        assert has_odd_cycle(loopless(s))

    def test_condition_a_required(self):
        w = step_graphon([0, F(1, 2), 1], [[0, F(1, 3)], [F(1, 3), 0]])
        with pytest.raises(ValueError):
            ensure_loopless_odd_cycle(w)

    def test_preserves_membership_status(self):
        rng = np.random.default_rng(61)
        done = 0
        while done < 40:
            w = random_graphon(rng, q_max=4)
            s = skeleton(w)
            if not is_connected(s) or not has_odd_cycle(s):
                continue
            wn = ensure_loopless_odd_cycle(w)
            before = positive_certificate(incidence(s), concentration(w.partition)).status
            after = positive_certificate(
                incidence(skeleton(wn)), concentration(wn.partition)
            ).status
            assert before is after
            done += 1
