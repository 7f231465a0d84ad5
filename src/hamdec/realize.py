"""Realizing a block-level decomposition inside an actual sampled graph.

A balanced tally is a block-level plan: its block cycles (see
`construct.block_cycles`) prescribe block sequences for the long cycles,
and how many nodes of each block pair off with each block neighbor in
2-cycles.  Realization instantiates the plan using only edges that were
really sampled: long cycles by randomized greedy path growth with a closing
node adjacent to both endpoints, 2-cycles by maximum bipartite matchings
between the prescribed node groups (looped blocks are split into two halves
and matched across).  Bounded randomized retries stand in for the almost-sure
existence arguments; exhausting them is an expected stop, not an error: a
`construct.ConstructionError` of stage "long-cycles" (phase 1) or
"two-cycles" (phase 2), which `realize` reports in its outcome.

Phase 2 hands out each draw once, as one (left nodes, right nodes) pair
per 2-cycle group, and both the partner check and the matchings read it.
Most draws that fail leave some node with no neighbour on its group's
other side, so once a draw has failed, each later draw but the last is
first put to the partner check (`_all_have_partners`, on the graph's row
masks) and matched only if it passes.  The check is exact: a node with no
partner candidate is a one-node Hall set, so its group cannot match in
full and the draw would fail anyway.  It skips only draws that fail, and
every draw still takes its shuffles, so the outcome is that of matching
every draw; the last draw is always matched, so a failure names its short
group.  A draw's groups are slices of each block's shuffled node list at
cuts fixed once per `realize`, and the check tries the smallest groups
first: its verdict does not depend on the order, and a rejected draw
mostly stops at a small group.

A draw shuffles, for each block, a copy of its leftover nodes in ascending
order, in place with `Generator.shuffle`: that is the Fisher-Yates pass
`Generator.permutation` runs on a copy of the nodes as an array, so the
draws are those of `permutation`, without the array's round trip.

The matching kernel, a word-parallel Hopcroft-Karp on Python-int row
masks (`hopcroft_karp`), lives here with its two callers.
`max_bipartite_matching`, the one matching front end on a sampled graph,
runs it on the rows of a left node list over a right one
(`SampledGraph.row_masks`), once per 2-cycle group; the existence oracle
runs it on every row.  It returns each left node's partner as a list.
Its first phase, on the empty matching, is a greedy pass (each row takes
its lowest free column), the very traversal the layered phase would make
there, without its BFS and stacks.

Also here: the exact existence oracle.  A Hamiltonian decomposition of a
digraph is exactly a permutation supported on its arcs, so existence is a
perfect matching question between out-copies and in-copies of the nodes;
on a sampled graph, out-copy v's row is v's row mask.  Two witnesses
settle it without a matching.  A decomposition answers yes once every one
of its arcs is found among the graph's edges.  A Hall set, nodes S with
fewer than |S| neighbours, answers no: by Hall's theorem the out-copies of
S cannot all be matched.  The Monte Carlo trial gets one from the blocks:
an exterior empirical concentration vector's certificate is a block set A
whose neighbour blocks hold fewer nodes than A does (Gale's theorem), and
as sampled edges join only skeleton neighbours, the nodes of A's blocks
form a Hall set.  The oracle verifies either witness on the graph itself
and raises if it does not hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._seeds import derive, generator
from .construct import ConstructionError, HamDecomposition, block_cycles
from .model import SkeletonGraph, as_int
from .sampling import BalancedMatrix, SampledGraph, count_block_edges

# the retry budget: restarts per phase-1 pattern, phase-2 draws
ATTEMPTS = 32


@dataclass(frozen=True)
class RealizationOutcome:
    """The realized decomposition, or the phase's stop that ended the run:
    a `ConstructionError` of stage "long-cycles" or "two-cycles"."""

    decomposition: HamDecomposition | None = None
    failure: ConstructionError | None = None

    @property
    def ok(self) -> bool:
        return self.decomposition is not None


def _ones(x):
    """The positions of the set bits of a nonnegative int, ascending."""
    found = []
    while x:
        low = x & -x  # the lowest set bit
        found.append(low.bit_length() - 1)
        x ^= low
    return found


def hopcroft_karp(rows, nr):
    """Maximum matching of a bipartite graph given by left row masks.

    `rows[x]` is an int whose bit v is set iff left node x is adjacent to
    right node v < nr.  Layered BFS plus shortest-path DFS (Hopcroft and
    Karp, SIAM J. Comput. 2(4), 1973), one word-parallel step at a time:

      * a BFS layer is the OR of its nodes' rows;
      * `layer[k]` holds the right nodes a DFS may cross from a left node
        at distance k - 1: those matched to a left node at distance k, and
        at the free end's distance also the unmatched ones;
      * each DFS frame scans its row in ascending column order, taking the
        lowest usable column past the one it took last, and a dead end or
        an augmentation moves the columns whose partner or distance
        changed.

    Roots go in index order and each DFS frame starts at its row's first
    column, so the returned list match_l, left node x's partner or -1, is
    that of the same traversal walking ascending adjacency lists one edge
    at a time.

    The first phase runs as a greedy pass: each row, in index order, takes
    its lowest free column.  That is the layered phase's own traversal on
    an empty matching: every left node is a root at distance 0, the next
    layer is the free columns, and a root's DFS either takes its lowest
    one still free or is a dead end; the BFS and the stacks add nothing.
    """
    nl = len(rows)
    inf = nl + 2
    match_l = [-1] * nl
    match_r = [-1] * nr
    free = (1 << nr) - 1  # right nodes without a partner
    for x, row in enumerate(rows):  # the first phase
        row &= free
        if row:
            v = (row & -row).bit_length() - 1
            match_l[x] = v
            match_r[v] = x
            free ^= 1 << v
    while True:
        dist = [inf] * nl
        frontier = [s for s in range(nl) if match_l[s] == -1]
        for s in frontier:
            dist[s] = 0
        layer = [0]
        reached = 0  # matched right nodes whose partner has a distance
        while frontier:
            reach = 0
            for x in frontier:
                reach |= rows[x]
            new = reach & ~free & ~reached
            reached |= new
            layer.append(new)
            frontier = [match_r[v] for v in _ones(new)]
            for w in frontier:
                dist[w] = len(layer) - 1
            if reach & free:
                break
        else:  # no free right node is reachable: the matching is maximum
            break
        layer[-1] |= free
        layer.append(0)  # nodes at the free end's distance lead nowhere
        for s in range(nl):
            if match_l[s] != -1:
                continue
            # each frame's column taken last; the frame scans on past it
            stack, vsel = [s], [-1]
            while stack:
                x = stack[-1]
                usable = (rows[x] & layer[dist[x] + 1]) >> (vsel[-1] + 1)
                if not usable:  # a dead end: no augmenting path through x
                    if match_l[x] != -1:
                        layer[dist[x]] ^= 1 << match_l[x]
                    dist[x] = inf
                    stack.pop()
                    vsel.pop()
                    continue
                v = vsel[-1] + (usable & -usable).bit_length()
                vsel[-1] = v
                w = match_r[v]
                if w != -1:
                    stack.append(w)
                    vsel.append(-1)
                    continue
                free ^= 1 << v
                for k, (left, right) in enumerate(zip(stack, vsel)):
                    # its new partner sits at distance k, its old one at k + 1
                    layer[k + 1] ^= 1 << right
                    layer[k] |= 1 << right
                    match_l[left] = right
                    match_r[right] = left
                break
    return match_l


def _has_perfect_matching(rows, n: int) -> bool:
    return -1 not in hopcroft_karp(rows, n)


def max_bipartite_matching(g: SampledGraph, left, right) -> frozenset[tuple[int, int]]:
    """Maximum matching between two disjoint node lists of g, within its edges.

    Returns (left node, right node) pairs, each an edge of g.  The set's
    iteration order is fixed by the input, because PYTHONHASHSEED does not
    salt the hashes of tuples of ints.  A node out of range, repeated, or in
    both lists raises ValueError.
    """
    if not set(left).isdisjoint(right):
        raise ValueError("left and right nodes must be disjoint")
    match_l = hopcroft_karp(g.row_masks(left, right), len(right))
    return frozenset((left[u], right[v]) for u, v in enumerate(match_l) if v != -1)


def oracle_exists(n: int, arcs) -> bool:
    """True iff the digraph on n nodes given by `arcs` has a Hamiltonian
    decomposition, i.e. a permutation using only those arcs.

    Decided by a perfect matching between out-copies and in-copies.
    """
    if as_int(n, "n") < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    rows = [0] * n  # bit v of rows[u]: the arc (u, v)
    for u, v in arcs:
        u, v = as_int(u, "arc ends"), as_int(v, "arc ends")
        if u == v:
            raise ValueError("self-loops are not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u},{v}) out of range")
        rows[u] |= 1 << v
    return _has_perfect_matching(rows, n)


def graph_has_decomposition(
    g: SampledGraph, witness: HamDecomposition | np.ndarray | None = None
) -> bool:
    """Existence oracle on the directed version of a sampled graph.

    Its arcs are both orientations of every edge.  Without a witness, a
    perfect matching on g's row masks decides.  Two witnesses answer
    without it:

      * a decomposition realized in g answers yes once each of its arcs
        (v, successor(v)) is an edge of g; one for another n raises
        ValueError;
      * an array of distinct nodes S answers no once g shows |N(S)| < |S|:
        the out-copies of S then have too few in-copies to match into, so
        Hall's condition fails.

    A witness that does not verify is a broken invariant of its maker: an
    arc that is not an edge, or a node set with enough neighbours, raises
    RuntimeError and never falls back to the matching.
    """
    if witness is None:
        return _has_perfect_matching(g.row_masks(), g.n)
    if not isinstance(witness, HamDecomposition):
        _check_hall_set(g, witness)
        return False
    if witness.n != g.n:
        raise ValueError(f"a witness on {witness.n} nodes for a graph on {g.n}")
    succ = np.asarray(witness.successor, dtype=np.int64)
    found = g.has_edges(np.arange(g.n), succ)
    if not found.all():
        v = int(np.argmin(found))
        raise RuntimeError(f"witness arc {v}->{int(succ[v])} is not an edge of the graph")
    return True


def _check_hall_set(g: SampledGraph, nodes) -> None:
    """Raise unless the distinct nodes have fewer neighbours in g than members."""
    found = g.neighbor_count(nodes)
    if found >= len(nodes):
        raise RuntimeError(f"Hall set of {len(nodes)} nodes has {found} neighbours: it violates nothing")


def embed_cycles(patterns, g: SampledGraph, seed: int):
    """Find node-disjoint directed cycles in g, one per block pattern.

    Each cycle visits blocks in its pattern's order: a path is grown block
    by block through sampled edges, then closed by a node adjacent to both
    endpoints.  Nodes used by earlier patterns are excluded from later
    ones.  Each pattern gets `ATTEMPTS` randomized restarts; running out
    raises `ConstructionError` of stage "long-cycles" naming the pattern.
    """
    rng = generator(derive(seed, "embed"))
    free = np.ones(g.n, dtype=bool)  # not taken by an earlier pattern

    cycles = []
    for p_idx, pattern in enumerate(patterns):
        bs = list(pattern.nodes)
        k = len(bs)
        for _ in range(ATTEMPTS):
            chosen: list[int] = []
            avail = free.copy()  # also excludes this attempt's picks
            for t in range(k):
                if t == 0:
                    cands = np.flatnonzero(avail & (g.blocks == bs[0]))
                else:
                    row = g.neighbors(chosen[-1])
                    cands = row[avail[row] & (g.blocks[row] == bs[t])]
                    if t == k - 1:
                        cands = np.intersect1d(
                            cands, g.neighbors(chosen[0]), assume_unique=True
                        )
                if not cands.size:
                    break
                v = int(cands[int(rng.integers(cands.size))])
                chosen.append(v)
                avail[v] = False
            else:  # every block of the pattern got a node
                break
        else:  # no attempt embedded the pattern
            why = f"pattern {p_idx} not embedded after {ATTEMPTS} attempts"
            raise ConstructionError("long-cycles", [why])
        free[chosen] = False
        cycles.append(tuple(chosen))
    return cycles


def _all_have_partners(rows, draw) -> bool:
    """Whether every node of a phase-2 draw has a neighbour on its group's
    other side: `draw` holds each group's (left, right) node lists and
    `rows[v]` is node v's row mask.  A side's mask is the OR of its nodes'
    bits, and each node's row must meet the other side's mask.

    The groups are checked in the order given and the first node without
    a partner candidate ends the check; as the verdict is all-or-nothing,
    it is the same in any order, and `realize` passes the smallest groups
    first, where a short group is most often found."""
    for left, right in draw:
        for nodes, across in ((left, right), (right, left)):
            mask = sum(1 << v for v in across)  # the nodes are distinct
            if not all(rows[v] & mask for v in nodes):
                return False
    return True


def realize(a: BalancedMatrix, g: SampledGraph, s: SkeletonGraph, seed: int) -> RealizationOutcome:
    """Instantiate the block cycles of tally `a` inside g.

    Phase 1 embeds every block cycle of length >= 3.  Phase 2 partitions
    the remaining nodes of each block into groups sized by the tally's
    2-cycle counts and asks for perfect matchings within sampled edges
    (looped blocks: split the group into halves and match across); the
    whole grouping is re-randomized on failure, up to `ATTEMPTS` times.
    Each draw is laid out once, as every group's (left, right) node lists,
    sliced from each block's shuffled nodes at cuts fixed per call; a
    block's nodes are shuffled by `rng.shuffle` on a fresh copy of their
    ascending list, the draws `rng.permutation` makes of them.
    After the first failed draw, a draw other than the last in which some
    node has no neighbour on its group's other side is skipped unmatched:
    that node leaves its group short, so the draw cannot succeed.
    On success the result's block tallies equal the input exactly; a phase
    that runs out of attempts is the outcome's `failure`.
    """
    q = s.node_count
    observed = tuple(int(c) for c in np.bincount(g.blocks, minlength=q))
    if observed != a.row_sums():
        raise ValueError("tally block sizes do not match the graph")
    groups, patterns = block_cycles(a, s)

    # phase 1: cycles of length >= 3
    try:
        long_cycles = embed_cycles(patterns, g, derive(seed, "phase1"))
    except ConstructionError as err:
        return RealizationOutcome(failure=err.with_traceback(None))  # its frames hold g

    free = np.ones(g.n, dtype=bool)
    free[[v for cyc in long_cycles for v in cyc]] = False
    remaining = [np.flatnonzero(free & (g.blocks == b)).tolist() for b in range(q)]  # ascending
    # each block's shuffled nodes are handed out front to back, in group
    # order: a group's sides are (block, start, stop) cuts, and a looped
    # block (i == j) hands its next c nodes, then the c after
    taken = [0] * q
    cuts = []
    for (i, j), c in groups.items():
        for b in (i, j):
            cuts.append((b, taken[b], taken[b] + c))
            taken[b] += c
    if taken != [len(r) for r in remaining]:  # the block cycles use up the row sums
        raise RuntimeError("tally 2-cycle counts do not match the leftover nodes")
    # the partner check's group order: smallest first, as a short group is
    # most often a small one; the verdict is the same in any order
    by_size = sorted(range(len(groups)), key=list(groups.values()).__getitem__)

    rng = generator(derive(seed, "phase2"))
    for k in range(ATTEMPTS):
        shuffled = [r.copy() for r in remaining]  # each draw shuffles the ascending order
        for r in shuffled:
            rng.shuffle(r)  # the draws of rng.permutation(r): one Fisher-Yates pass
        sides = [shuffled[b][start:stop] for b, start, stop in cuts]
        draw = list(zip(sides[::2], sides[1::2]))
        # a draw after a failed one, the last aside, must pass the partner check
        if 0 < k < ATTEMPTS - 1 and not _all_have_partners(rows, [draw[t] for t in by_size]):
            continue  # a node without a partner candidate leaves its group short
        pair_cycles: list[tuple[int, int]] = []
        for ((i, j), c), (lset, rset) in zip(groups.items(), draw):
            # its iteration order, stable (see its docstring), is the order `decompose` prints
            matched = max_bipartite_matching(g, lset, rset)
            if len(matched) < c:
                break
            pair_cycles.extend(matched)
        else:  # every group matched
            break
        if k == 0:  # read once a draw failed: a draw that matches at once needs none
            rows = g.row_masks()
    else:  # no attempt matched every group; the last draw's short group
        why = f"block pair ({i},{j}) matched {len(matched)} of {c} 2-cycles in the last of {ATTEMPTS} draws"
        return RealizationOutcome(failure=ConstructionError("two-cycles", [why]))

    cycles = list(long_cycles) + [tuple(p) for p in pair_cycles]
    decomposition = HamDecomposition(g.n, cycles)
    realized = count_block_edges(decomposition, g.blocks, s)
    if realized.counts != a.counts:
        raise RuntimeError("realized decomposition does not reproduce the tally plan")
    return RealizationOutcome(decomposition)
