"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion
pass/fail lines.  Statistical criteria use master seeds frozen here; the
Monte Carlo engine is deterministic given those seeds.
"""

import time
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest

from hamdec.construct import (
    ConstructionError,
    build_decomposition,
    canonical_blocks,
    matrix_round,
    split_mass,
)
from hamdec.driver import montecarlo
from hamdec.model import (
    SkeletonGraph,
    concentration,
    has_odd_cycle,
    incidence,
    is_connected,
    skeleton,
    step_graphon,
)
from hamdec.polytope import Membership, positive_certificate
from hamdec.realize import oracle_exists
from hamdec.refine import pull_certificate, push_certificate, refine_once
from hamdec.sampling import count_block_edges

from helpers import (
    brute_decomposition_exists,
    random_connected_skeleton,
    random_graphon,
    random_interior_instance,
    tally,
)

TRIANGLE = SkeletonGraph(3, frozenset(), frozenset({(0, 1), (0, 2), (1, 2)}))

ER_HALF = step_graphon([0, 1], [[F(1, 2)]])
TRI_HALF = step_graphon(
    [0, F(1, 3), F(2, 3), 1],
    [[0, F(1, 2), F(1, 2)], [F(1, 2), 0, F(1, 2)], [F(1, 2), F(1, 2), 0]],
)
BIP_03 = step_graphon([0, F(3, 10), 1], [[0, F(1, 2)], [F(1, 2), 0]])

MC_SEED = 20260809
MC_N = 200
MC_TRIALS = 200


def _report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -------------------------------------------------------------------- 1

def test_criterion_01_example_reproduction():
    t0 = time.perf_counter()
    a = tally((F(3, 12), F(4, 12), F(5, 12)), 12, TRIANGLE)
    h = build_decomposition(a, TRIANGLE)
    twos = sum(1 for c in h.cycles if len(c) == 2)
    longs = [len(c) for c in h.long_cycles()]
    ok_even = twos == 6 and longs == []

    a2 = tally((F(3, 13), F(4, 13), F(6, 13)), 13, TRIANGLE)
    h2 = build_decomposition(a2, TRIANGLE)
    twos2 = sum(1 for c in h2.cycles if len(c) == 2)
    longs2 = [len(c) for c in h2.long_cycles()]
    ok_odd = twos2 == 5 and longs2 == [3]
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (example reproduction)",
        ok_even and ok_odd and elapsed < 1.0,
        f"(3,4,5): {twos} 2-cycles, {longs}; (3,4,6): {twos2} 2-cycles, {longs2};"
        f" {elapsed:.2f}s",
    )


# ----------------------------------------------------------------- 2-4

@pytest.fixture(scope="module")
def property_suite():
    """1000 random instances: connected skeleton with loopless odd cycle,
    q <= 8, interior x with denominator n <= 1e4 (a tenth stressing the
    small-n regime below 50)."""
    rng = np.random.default_rng(424242)
    successes = []
    failures = []
    t0 = time.perf_counter()
    made = 0
    while made < 1000:
        s = random_connected_skeleton(rng, q_max=8, want_loopless_odd=True)
        if made % 10 == 0:
            n = int(rng.integers(8, 50))
        else:
            n = int(rng.integers(50, 10001))
        x = random_interior_instance(rng, s, n, tries=8)
        if x is None:
            continue
        made += 1
        try:
            a = tally(x, n, s)
        except ConstructionError as err:
            failures.append((s, n, x, err))
            continue
        successes.append((s, n, x, a))
    return {"successes": successes, "failures": failures, "seconds": time.perf_counter() - t0}


def test_criterion_02_property_suite(property_suite):
    successes = property_suite["successes"]
    failures = property_suite["failures"]
    total = len(successes) + len(failures)

    # the five properties, asserted directly from each returned matrix
    violations = []
    for s, n, x, a in successes:
        q = s.node_count
        c = a.counts
        cert = positive_certificate(incidence(s), x)
        loop_mass = split_mass(x, cert, s).loop_part
        for i in range(q):
            if sum(c[i]) != n * x[i]:
                violations.append((n, "row-sum"))
            if c[i][i] % 2:
                violations.append((n, "diag-even"))
            if abs(c[i][i] - n * loop_mass[i]) > 1:
                violations.append((n, "diag-drift"))
            if (c[i][i] > 0) != (i in s.loops):
                violations.append((n, "diag-support"))
        for i in range(q):
            for j in range(i + 1, q):
                if abs(c[i][j] - c[j][i]) > 1:
                    violations.append((n, "asymmetry"))
                if (c[i][j] + c[j][i] > 0) != ((i, j) in s.edges):
                    violations.append((n, "pair-support"))

    rate = len(failures) / total
    big_failures = [n for _, n, _, _ in failures if n >= 50]
    ok = (
        total == 1000
        and not violations
        and rate < 0.05
        and not big_failures
        and property_suite["seconds"] < 60
    )
    _report(
        "criterion 2 (balanced-matrix property suite)",
        ok,
        f"{len(successes)}/{total} built, {len(failures)} failures"
        f" (all n<50: {not big_failures}), rate {rate:.3f},"
        f" {len(violations)} property violations,"
        f" {property_suite['seconds']:.1f}s",
    )


def test_criterion_03_round_trip(property_suite):
    bad = 0
    for s, n, x, a in property_suite["successes"]:
        sizes = a.row_sums()
        h = build_decomposition(a, s)
        rho = count_block_edges(h, canonical_blocks(sizes), s)
        if rho.counts != a.counts:
            bad += 1
    _report(
        "criterion 3 (tally round-trip exactness)",
        bad == 0,
        f"{len(property_suite['successes'])} instances, {bad} mismatches",
    )


def test_criterion_04_decomposition_bounds(property_suite):
    violations = 0
    for s, n, x, a in property_suite["successes"]:
        sizes = a.row_sums()
        h = build_decomposition(a, s)
        blocks = canonical_blocks(sizes)
        nf = s.edge_count
        longs = h.long_cycles()
        if len(longs) > -(-2 * nf // 3):
            violations += 1
        if any(len(c) > max(2, 2 * nf) for c in longs):
            violations += 1
        for c in longs:
            proj = [blocks[v] for v in c]
            if len(set(proj)) != len(proj):
                violations += 1
    _report(
        "criterion 4 (cycle-count and length bounds)",
        violations == 0,
        f"{len(property_suite['successes'])} instances, {violations} violations",
    )


# ----------------------------------------------------------------- 5-6

@pytest.fixture(scope="module")
def mc_reports():
    t0 = time.perf_counter()
    reports = {
        "er": montecarlo(ER_HALF, MC_N, MC_TRIALS, MC_SEED),
        "tri": montecarlo(TRI_HALF, MC_N, MC_TRIALS, MC_SEED),
        "bip": montecarlo(BIP_03, MC_N, MC_TRIALS, MC_SEED),
    }
    reports["seconds"] = time.perf_counter() - t0
    return reports


def test_criterion_05_positive_statistical(mc_reports):
    er, tri = mc_reports["er"], mc_reports["tri"]
    cons_er = er.successes_constructive / er.trials
    cons_tri = tri.successes_constructive / tri.trials
    ok = (
        er.estimate >= 0.98
        and tri.estimate >= 0.98
        and cons_er >= 0.90
        and cons_tri >= 0.90
        and mc_reports["seconds"] < 300
    )
    _report(
        "criterion 5 (positive statistical check)",
        ok,
        f"oracle er={er.estimate:.3f} tri={tri.estimate:.3f}, constructive"
        f" er={cons_er:.3f} tri={cons_tri:.3f}, {mc_reports['seconds']:.0f}s",
    )


def test_criterion_06_necessity_statistical(mc_reports):
    bip = mc_reports["bip"]
    _report(
        "criterion 6 (necessity-side statistical check)",
        bip.estimate <= 0.02,
        f"oracle estimate {bip.estimate:.3f} over {bip.trials} trials",
    )


# -------------------------------------------------------------------- 7

def test_criterion_07_oracle_ground_truth():
    disagreements = 0
    checked = 0
    for n in (1, 2, 3, 4):
        arcs_all = [(u, v) for u in range(n) for v in range(n) if u != v]
        for r in range(len(arcs_all) + 1):
            for chosen in combinations(arcs_all, r):
                checked += 1
                if oracle_exists(n, chosen) != brute_decomposition_exists(n, chosen):
                    disagreements += 1
    rng = np.random.default_rng(777)
    for n in (5, 6):
        arcs_all = [(u, v) for u in range(n) for v in range(n) if u != v]
        for _ in range(5000):
            density = rng.random()
            mask = rng.random(len(arcs_all)) < density
            chosen = [a for a, keep in zip(arcs_all, mask) if keep]
            checked += 1
            if oracle_exists(n, chosen) != brute_decomposition_exists(n, chosen):
                disagreements += 1
    _report(
        "criterion 7 (oracle ground truth)",
        disagreements == 0,
        f"{checked} digraphs (exhaustive n<=4, 5000 random each n=5,6),"
        f" {disagreements} disagreements",
    )


# -------------------------------------------------------------------- 8

def test_criterion_08_refinement_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(888888)
    done = 0
    violations = 0
    while done < 500:
        w = random_graphon(rng)
        s = skeleton(w)
        if s.node_count == 1 and s.edge_count == 0:
            continue  # empty support: 1-node connectivity is vacuous
        b = int(rng.integers(0, w.q))
        lo, hi = w.partition.interval(b)
        t = lo + (hi - lo) * F(int(rng.integers(1, 8)), 8)
        rec = refine_once(w, b, t)
        sp = skeleton(rec.refined)
        if is_connected(s) != is_connected(sp):
            violations += 1
        if has_odd_cycle(s) != has_odd_cycle(sp):
            violations += 1
        cert = positive_certificate(incidence(s), concentration(w.partition))
        cert_p = positive_certificate(
            incidence(sp), concentration(rec.refined.partition)
        )
        if cert.status is not cert_p.status:
            violations += 1
        if cert.status is not Membership.EXTERIOR:
            # push/pull raise if their systems are not solved exactly
            pushed = push_certificate(cert.coefficients, rec)
            pull_certificate(pushed, rec)
        done += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 8 (refinement invariance)",
        violations == 0 and elapsed < 30,
        f"500 refinements, {violations} violations, {elapsed:.1f}s",
    )


# -------------------------------------------------------------------- 9

def test_criterion_09_matrix_rounding_contract():
    rng = np.random.default_rng(999999)
    violations = 0
    for trial in range(1000):
        q = int(rng.integers(1, 7))
        full = SkeletonGraph(
            q,
            frozenset(range(q)),
            frozenset((i, j) for i in range(q) for j in range(i + 1, q)),
        )
        r_marg = [int(v) for v in rng.integers(0, 9, size=q)]
        total = sum(r_marg)
        if total == 0:
            r_marg[0] = total = 1
        c_marg = list(r_marg)
        rng.shuffle(c_marg)
        m = [[F(r_marg[i] * c_marg[j], total) for j in range(q)] for i in range(q)]
        if trial % 3 == 0:
            # sparsify: zero a symmetric off-diagonal pair by moving its
            # mass along a rectangle, keeping margins intact
            for _ in range(q):
                i, j, k, l = (int(v) for v in rng.integers(0, q, size=4))
                if i != k and j != l:
                    d = min(m[i][j], m[k][l])
                    if d > 0:
                        m[i][j] -= d
                        m[k][l] -= d
                        m[i][l] += d
                        m[k][j] += d
        r = matrix_round(m, full)
        for i in range(q):
            if sum(r[i]) != sum(m[i]):
                violations += 1
            if sum(r[k][i] for k in range(q)) != sum(m[k][i] for k in range(q)):
                violations += 1
            for j in range(q):
                if abs(F(r[i][j]) - m[i][j]) >= 1:
                    violations += 1
                if m[i][j] == 0 and r[i][j] != 0:
                    violations += 1
    _report(
        "criterion 9 (matrix rounding contract)",
        violations == 0,
        f"1000 matrices, {violations} violations",
    )


# ------------------------------------------------------------------- 10

def test_criterion_10_witness_soundness(mc_reports):
    bad = 0
    rows = 0
    for key in ("er", "tri", "bip"):
        for row in mc_reports[key].rows:
            rows += 1
            if row.constructive and not row.oracle:
                bad += 1
    _report(
        "criterion 10 (witness soundness)",
        bad == 0,
        f"{rows} trials, {bad} constructive successes without oracle backing",
    )
