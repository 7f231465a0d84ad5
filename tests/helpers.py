"""Shared independent oracles and random instance generators for the tests.

Everything here deliberately avoids the library's own algorithms: ranks by
Gaussian elimination over Fractions, odd cycles by exhaustive enumeration,
matchings and decompositions by brute force.  These are the reference
implementations the fast code is checked against, with `scan_pairs_rows`,
the pair scan taken one row at a time, `count_block_edges_loop`, the
block tally taken one node at a time, and `hopcroft_karp_lists`, the
matching traversal taken one edge at a time on adjacency lists.  `tally` is only a call
shorthand: the balanced tally of an instance, with the certificate the
pipeline would pass.  `lp_status` classifies a point by the membership LP
alone, as the library did before its Hall flow decided exterior points:
it is the reference the flow is checked against; `hall_status` classifies
it by enumerating Hall sets, with no LP and no flow, over the skeletons
`connected_skeletons` lists.  `dense_rows` lays out
the incidence matrix's entries from its edge order, independently of the
library, which stores none.  `realize_reference` is `realize` with the
phase-2 loop that matches every draw, group by group, with no partner
check first: the reference the check is held to.
"""

from fractions import Fraction
from itertools import combinations, islice, permutations

import numpy as np

from hamdec._seeds import derive, generator
from hamdec.construct import ConstructionError, HamDecomposition, block_cycles, build_balanced_matrix
from hamdec.model import (
    Partition,
    SkeletonGraph,
    StepGraphon,
    concentration,
    edge_order,
    incidence,
    skeleton,
)
from hamdec.polytope import Membership, positive_certificate
from hamdec.realize import ATTEMPTS, RealizationOutcome, embed_cycles, max_bipartite_matching
from hamdec.refine import refine_once
from hamdec.sampling import BalancedMatrix


def rational_rank(rows) -> int:
    """Rank over the rationals by exact Gaussian elimination."""
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def exhaustive_has_odd_cycle(s: SkeletonGraph) -> bool:
    """Odd cycle by direct enumeration (loops count; cycles up to q nodes)."""
    if s.loops:
        return True
    q = s.node_count
    edges = s.edges

    def connected_pair(a, b):
        return (min(a, b), max(a, b)) in edges

    for k in range(3, q + 1, 2):
        for perm in permutations(range(q), k):
            if perm[0] != min(perm):
                continue  # canonical rotation, cuts duplicates
            if all(connected_pair(perm[t], perm[(t + 1) % k]) for t in range(k)):
                return True
    return False


def brute_max_matching(nl: int, nr: int, edges) -> int:
    """Maximum bipartite matching size by exhaustive recursion (<= 8 nodes)."""
    adj = [[] for _ in range(nl)]
    for u, v in edges:
        adj[u].append(v)

    def rec(u, used):
        if u == nl:
            return 0
        best = rec(u + 1, used)
        for v in adj[u]:
            if v not in used:
                used.add(v)
                best = max(best, 1 + rec(u + 1, used))
                used.discard(v)
        return best

    return rec(0, set())


def brute_decomposition_exists(n: int, arcs) -> bool:
    """Hamiltonian decomposition existence by trying all permutations."""
    arc_set = set(arcs)
    return any(
        all((v, perm[v]) in arc_set for v in range(n)) for perm in permutations(range(n))
    )


def adjacency_lists(nl: int, rows, cols) -> list[list[int]]:
    """Each left node's distinct right neighbours, ascending."""
    nbrs = [set() for _ in range(nl)]
    for u, v in zip(np.asarray(rows).tolist(), np.asarray(cols).tolist()):
        nbrs[u].add(v)
    return [sorted(vs) for vs in nbrs]


def hopcroft_karp_lists(nl: int, nr: int, adj) -> list[int]:
    """Reference maximum matching: Hopcroft-Karp one edge at a time.

    `adj[x]` lists left node x's right neighbours, ascending.  Roots are
    taken in index order, each DFS frame scans its list from the start, and
    a dead end leaves the phase's layering.  Returns each left node's
    partner, -1 if unmatched.
    """
    inf = nl + 2
    match_l = [-1] * nl
    match_r = [-1] * nr
    dist = [0] * nl
    while True:
        queue = []
        for s in range(nl):
            if match_l[s] == -1:
                dist[s] = 0
                queue.append(s)
            else:
                dist[s] = inf
        dnil = inf
        for x in queue:  # the loop also visits what it appends
            if dist[x] >= dnil:
                continue
            for v in adj[x]:
                w = match_r[v]
                if w == -1:
                    if dnil == inf:
                        dnil = dist[x] + 1
                elif dist[w] == inf:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        if dnil == inf:
            break
        for s in range(nl):
            if match_l[s] != -1:
                continue
            stack = [s]
            ptrs = [0]
            vsel = [-1]
            while stack:
                x = stack[-1]
                while ptrs[-1] < len(adj[x]):
                    v = adj[x][ptrs[-1]]
                    ptrs[-1] += 1
                    w = match_r[v]
                    if w == -1:
                        if dist[x] + 1 == dnil:
                            vsel[-1] = v
                            for left, right in zip(stack, vsel):
                                match_l[left] = right
                                match_r[right] = left
                            stack = []
                            break
                    elif dist[w] == dist[x] + 1:
                        vsel[-1] = v
                        stack.append(w)
                        ptrs.append(0)
                        vsel.append(-1)
                        break
                else:  # a dead end: no augmenting path through x
                    dist[x] = inf
                    stack.pop()
                    ptrs.pop()
                    vsel.pop()
    return match_l


def scan_pairs_rows(blocks, probs, u):
    """Reference pair scan, one row at a time over all the uniforms `u`.

    u[k] is the uniform for the k-th pair (i, j), i < j, in lexicographic
    order; returns the hit rows and columns in that order.
    """
    n = blocks.shape[0]
    hits_i = [np.empty(0, np.int64)]
    hits_j = [np.empty(0, np.int64)]
    k = 0
    for i in range(n - 1):
        span = n - 1 - i
        js = np.nonzero(u[k:k + span] < probs[blocks[i], blocks[i + 1:]])[0]
        k += span
        hits_i.append(np.full(js.size, i, dtype=np.int64))
        hits_j.append(js.astype(np.int64) + i + 1)
    return np.concatenate(hits_i), np.concatenate(hits_j)


def count_block_edges_loop(h, blocks, s: SkeletonGraph) -> BalancedMatrix:
    """Reference block tally of a decomposition's arcs, one node at a time."""
    if len(blocks) != h.n:
        raise ValueError("need one block label per node of the decomposition")
    q = s.node_count
    counts = [[0] * q for _ in range(q)]
    for v, u in enumerate(h.successor):
        a, b = int(blocks[v]), int(blocks[u])
        if not s.supports(a, b):
            raise ValueError(f"edge {v}->{u}: block pair ({a},{b}) not in skeleton")
        counts[a][b] += 1
    return BalancedMatrix(tuple(tuple(row) for row in counts))


def random_decomposition(rng, n: int) -> HamDecomposition:
    """A random permutation of range(n), n >= 2, cut into cycles of length >= 2."""
    order = rng.permutation(n).tolist()
    cuts, t = [0], 0
    while n - t >= 4:
        t += int(rng.integers(2, n - t - 1))
        cuts.append(t)
    cuts.append(n)
    return HamDecomposition(n, [order[a:b] for a, b in zip(cuts, cuts[1:])])


def random_connected_skeleton(rng, q_max=8, q_min=2, want_loopless_odd=False) -> SkeletonGraph:
    """Random connected skeleton: spanning tree, extra edges, random loops.

    With want_loopless_odd, an extra edge is added inside one BFS color
    class so the pair-edge part has an odd cycle (needs q >= 3).
    """
    q = int(rng.integers(max(q_min, 3 if want_loopless_odd else q_min), q_max + 1))
    edges = set()
    for v in range(1, q):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    for _ in range(int(rng.integers(0, q))):
        a, b = rng.choice(q, size=2, replace=False)
        edges.add((min(int(a), int(b)), max(int(a), int(b))))
    loops = {int(v) for v in range(q) if rng.random() < 0.4}
    if want_loopless_odd:
        color = _two_color(q, edges)
        if color is not None:  # bipartite: close an odd cycle inside a class
            cls = [v for v in range(q) if color[v] == 0]
            if len(cls) < 2:
                cls = [v for v in range(q) if color[v] == 1]
            a, b = cls[0], cls[1]
            edges.add((min(a, b), max(a, b)))
    return SkeletonGraph(q, frozenset(loops), frozenset(edges))


def _two_color(q, edges):
    adj = [[] for _ in range(q)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    color = [-1] * q
    for s in range(q):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    stack.append(v)
                elif color[v] == color[u]:
                    return None
    return color


def connected_skeletons(q: int):
    """Every connected labelled skeleton on q blocks, loops included."""
    pairs = list(combinations(range(q), 2))
    for picks in range(1 << len(pairs)):
        edges = frozenset(p for k, p in enumerate(pairs) if picks >> k & 1)
        reached = {0}
        for _ in range(q):
            reached |= {j for i, j in edges if i in reached} | {i for i, j in edges if j in reached}
        if len(reached) == q:
            for loops in range(1 << q):
                yield SkeletonGraph(q, frozenset(i for i in range(q) if loops >> i & 1), edges)


def hall_status(s: SkeletonGraph, counts) -> Membership:
    """counts / sum(counts) against s's edge polytope, from Hall sets alone.

    Exterior iff some block set A has counts(N(A)) < counts(A), N(A) holding
    a looped block itself (Gale's theorem).  Otherwise interior iff every
    count is positive and every tight A, counts(N(A)) = counts(A), is tight
    at every column of Z, so that the point lies on no proper face;
    boundary else.
    """
    q = s.node_count
    # Z's columns over 2: 2 e_i for a loop, e_i + e_j for a pair edge
    columns = [{i: 2} for i in s.loops] + [{i: 1, j: 1} for i, j in s.edges]
    interior = min(counts) > 0
    for picks in range(1, 1 << q):
        a = [i for i in range(q) if picks >> i & 1]
        na = [j for j in range(q) if any(s.supports(i, j) for i in a)]
        slack = sum(counts[j] for j in na) - sum(counts[i] for i in a)
        if slack < 0:
            return Membership.EXTERIOR
        on_face = any(sum(z.get(j, 0) for j in na) != sum(z.get(i, 0) for i in a) for z in columns)
        if slack == 0 and on_face:
            interior = False
    return Membership.INTERIOR if interior else Membership.BOUNDARY


def dense_rows(z) -> list[list[Fraction]]:
    """Z's rows as Fractions: a loop column is the indicator of its node,
    a pair column puts 1/2 on each endpoint."""
    rows = [[Fraction(0)] * len(z.edge_order) for _ in range(z.shape[0])]
    for k, (a, b) in enumerate(z.edge_order):
        if a == b:
            rows[a][k] = Fraction(1)
        else:
            rows[a][k] = rows[b][k] = Fraction(1, 2)
    return rows


def random_interior_instance(rng, s: SkeletonGraph, n: int, tries: int = 50):
    """An interior point with denominator n, or None.

    Draws positive weights on the generators, pushes through the incidence
    matrix, and rounds to counts over n (largest remainders take the
    leftover).  Rounding can spoil interiority for small n, hence retries.
    """
    z = incidence(s)
    q, nf = z.shape
    rows = dense_rows(z)
    for _ in range(tries):
        weights = [Fraction(int(rng.integers(5, 25))) for _ in range(nf)]
        total = sum(weights)
        coeffs = [wgt / total for wgt in weights]
        x = [sum(rows[i][j] * coeffs[j] for j in range(nf)) for i in range(q)]
        scaled = [v * n for v in x]
        counts = [int(v) for v in scaled]
        fracs = sorted(
            range(q), key=lambda i: (scaled[i] - counts[i], i), reverse=True
        )
        for i in fracs[: n - sum(counts)]:
            counts[i] += 1
        xr = tuple(Fraction(c, n) for c in counts)
        cert = positive_certificate(z, xr)
        if cert.status is Membership.INTERIOR:
            return xr
    return None


def random_graphon(rng, q_max=5) -> StepGraphon:
    """Random step-graphon: random breakpoints, random symmetric support."""
    q = int(rng.integers(1, q_max + 1))
    cuts = sorted(int(v) for v in rng.choice(np.arange(1, 40), size=q - 1, replace=False))
    bps = [Fraction(0)] + [Fraction(c, 40) for c in cuts] + [Fraction(1)]
    vals = [[Fraction(0)] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            if rng.random() < 0.6:
                v = Fraction(int(rng.integers(1, 9)), 9)
                vals[i][j] = vals[j][i] = v
    return StepGraphon(Partition(tuple(bps)), tuple(tuple(r) for r in vals))


def _fraction_pivot(tableau, basis, row, col):
    inv = 1 / tableau[row][col]
    tableau[row] = [a * inv for a in tableau[row]]
    for r in range(len(tableau)):
        if r != row and tableau[r][col] != 0:
            factor = tableau[r][col]
            tableau[r] = [a - factor * p for a, p in zip(tableau[r], tableau[row])]
    basis[row] = col


def _fraction_run(tableau, basis, ncols, pivots):
    """Bland's rule on a tableau whose last row is the negated objective
    and last column the rhs; False when unbounded."""
    m = len(tableau) - 1
    while True:
        col = next((j for j in range(ncols) if tableau[m][j] < 0), None)
        if col is None:
            return True
        rows = [r for r in range(m) if tableau[r][col] > 0]
        if not rows:
            return False
        # the least ratio, ties to the lowest-index basic variable
        row = min(rows, key=lambda r: (tableau[r][-1] / tableau[r][col], basis[r]))
        pivots.append((row, col))
        _fraction_pivot(tableau, basis, row, col)


def fraction_simplex(a_rows, b, objective, pivots=None):
    """Reference for the membership LP that `solve_equality_lp` solves:
    maximize objective . v subject to a_rows v = b, v >= 0 by the
    two-phase Bland simplex on a Fraction tableau, with rows as given
    (`reference_rows`: Z's, against x itself).  Returns (status, v, value);
    `pivots`, if given, receives each pivot's (row, col)."""
    pivots = [] if pivots is None else pivots
    m, n = len(a_rows), len(objective)
    ncols = n + m
    tableau = []
    for i in range(m):
        row = [Fraction(a) for a in a_rows[i]] + [Fraction(0)] * m + [Fraction(b[i])]
        if row[-1] < 0:
            row = [-a for a in row]
        row[n + i] = Fraction(1)
        tableau.append(row)
    cost = [-sum(row[j] for row in tableau) for j in range(ncols + 1)]
    cost[n:ncols] = [Fraction(0)] * m
    tableau.append(cost)
    basis = [n + i for i in range(m)]
    _fraction_run(tableau, basis, ncols, pivots)
    if tableau[m][-1] != 0:
        return "infeasible", None, None
    keep = []
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is None:
                continue  # redundant constraint
            pivots.append((r, col))
            _fraction_pivot(tableau, basis, r, col)
        keep.append(r)
    rows = [tableau[r][:n] + [tableau[r][-1]] for r in keep]
    basis2 = [basis[r] for r in keep]
    cost = [-Fraction(cj) for cj in objective] + [Fraction(0)]
    for r, bcol in enumerate(basis2):
        factor = cost[bcol]
        cost = [a - factor * p for a, p in zip(cost, rows[r])]
    rows.append(cost)
    if not _fraction_run(rows, basis2, n, pivots):
        return "unbounded", None, None
    v = [Fraction(0)] * n
    for r, bcol in enumerate(basis2):
        v[bcol] = rows[r][-1]
    return "optimal", v, rows[-1][-1]


def reference_rows(z) -> list[list[Fraction]]:
    """The membership LP's rows on the dense Z: Z, then t's columns +-Z 1."""
    return [row + [sum(row), -sum(row)] for row in dense_rows(z)]


def reference_certificate(z, x):
    """(status, coefficients, margin) of x by the membership LP
    max t s.t. Z c = x, c >= t on the dense rows of z, solved by the
    reference simplex: infeasible or t* < 0 is exterior, with neither
    coefficients nor margin."""
    nf = z.shape[1]
    status, v, t = fraction_simplex(reference_rows(z), x, [0] * nf + [1, -1])
    if status == "infeasible" or t < 0:
        return Membership.EXTERIOR, None, None
    status = Membership.INTERIOR if t > 0 else Membership.BOUNDARY
    return status, tuple(v[j] + t for j in range(nf)), t


def lp_status(z, x) -> Membership:
    """x's membership status by the reference LP alone."""
    return reference_certificate(z, x)[0]


def tally(x, n: int, s: SkeletonGraph):
    """`build_balanced_matrix` given x's membership certificate on s."""
    return build_balanced_matrix(x, n, s, positive_certificate(incidence(s), x))


def closure_components(s: SkeletonGraph) -> list[frozenset[int]]:
    """Pair-edge components by merging node sets until no edge joins two,
    ordered by smallest member (loops join nothing)."""
    comps = [{v} for v in range(s.node_count)]
    merged = True
    while merged:
        merged = False
        for i, j in s.edges:
            a = next(c for c in comps if i in c)
            b = next(c for c in comps if j in c)
            if a is not b:
                comps.remove(b)
                a |= b
                merged = True
    return sorted((frozenset(c) for c in comps), key=min)


def random_skeleton(rng, q_max=8) -> SkeletonGraph:
    """Random skeleton with sparse pair edges, so isolated and loop-only
    nodes are common."""
    q = int(rng.integers(1, q_max + 1))
    p = float(rng.uniform(0.05, 0.6))
    edges = {(i, j) for i in range(q) for j in range(i + 1, q) if rng.random() < p}
    loops = {v for v in range(q) if rng.random() < 0.3}
    return SkeletonGraph(q, frozenset(loops), frozenset(edges))


def random_split_instance(rng, q_max=5):
    """A one-step refinement and an arbitrary nonnegative solution on the
    refined skeleton, drawn without the LP.

    Coefficients c' in {0..4} on the refined edges fix x' = Z' c' / sum(c');
    the original partition merges the two copies of the split block, so
    `concentration(rec.refined.partition) == x'`.  Returns (rec, c'), or
    None when some refined block gets no mass.
    """
    w = random_graphon(rng, q_max)
    b = int(rng.integers(0, w.q))
    lo, hi = w.partition.interval(b)
    s_new = skeleton(refine_once(w, b, (lo + hi) / 2).refined)
    weights = [Fraction(int(rng.integers(0, 5))) for _ in edge_order(s_new)]
    total = sum(weights)
    if total == 0:
        return None
    c_new = tuple(v / total for v in weights)
    x_new = incidence(s_new).apply(c_new)
    if any(v == 0 for v in x_new):
        return None
    x_old = x_new[:b] + (x_new[b] + x_new[b + 1],) + x_new[b + 2:]
    bps = [Fraction(0)]
    for v in x_old:
        bps.append(bps[-1] + v)
    w_old = StepGraphon(Partition(tuple(bps)), w.values)
    rec = refine_once(w_old, b, bps[b] + x_new[b])
    if concentration(rec.refined.partition) != x_new:
        raise AssertionError("split instance does not reproduce x'")
    return rec, c_new


def realize_reference(a: BalancedMatrix, g, s: SkeletonGraph, seed: int) -> RealizationOutcome:
    """`realize.realize` matching every phase-2 draw: the same phase 1, the
    same draws, and each draw's groups matched in turn until one falls
    short, with no partner check to skip a draw.  It leaves out
    `realize`'s checks of its input and of the realized tally."""
    groups, patterns = block_cycles(a, s)
    try:
        long_cycles = embed_cycles(patterns, g, derive(seed, "phase1"))
    except ConstructionError as err:
        return RealizationOutcome(failure=err)
    free = np.ones(g.n, dtype=bool)
    free[[v for cyc in long_cycles for v in cyc]] = False
    remaining = [np.flatnonzero(free & (g.blocks == b)) for b in range(s.node_count)]
    rng = generator(derive(seed, "phase2"))
    for _ in range(ATTEMPTS):
        shuffled = [iter(rng.permutation(r).tolist()) for r in remaining]
        pair_cycles = []
        for (i, j), c in groups.items():
            lset, rset = list(islice(shuffled[i], c)), list(islice(shuffled[j], c))
            matched = max_bipartite_matching(g, lset, rset)
            if len(matched) < c:
                break
            pair_cycles.extend(matched)
        else:
            break
    else:
        why = f"block pair ({i},{j}) matched {len(matched)} of {c} 2-cycles in the last of {ATTEMPTS} draws"
        return RealizationOutcome(failure=ConstructionError("two-cycles", [why]))
    return RealizationOutcome(HamDecomposition(g.n, list(long_cycles) + [tuple(p) for p in pair_cycles]))


def realization_key(outcome: RealizationOutcome):
    """What a realization outcome says: its cycles, in order, or its stop's
    stage and text."""
    if outcome.ok:
        return outcome.decomposition.cycles
    return outcome.failure.stage, str(outcome.failure)
