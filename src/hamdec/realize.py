"""Realizing a block-level decomposition inside an actual sampled graph.

A balanced tally is a block-level plan: its block cycles (see
`construct.block_cycles`) prescribe block sequences for the long cycles,
and how many nodes of each block pair off with each block neighbor in
2-cycles.  Realization instantiates the plan using only edges that were
really sampled: long cycles by randomized greedy path growth with a closing
node adjacent to both endpoints, 2-cycles by maximum bipartite matchings
between the prescribed node groups (looped blocks are split into two halves
and matched across).  Bounded randomized retries stand in for the almost-sure
existence arguments; exhausting them is a reported Failure, not an error.

`max_bipartite_matching` is the one matching front end on a sampled graph:
it runs the word-parallel Hopcroft-Karp on the rows of a left node list
over a right one (`SampledGraph.row_masks`), once per 2-cycle group.

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

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import _kernels
from ._seeds import derive, generator
from .construct import HamDecomposition, block_cycles
from .model import SkeletonGraph
from .sampling import BalancedMatrix, SampledGraph, count_block_edges

# the default retry budget: restarts per phase-1 pattern, phase-2 draws
DEFAULT_ATTEMPTS = 32


class CycleEmbedError(Exception):
    """Raised when a cycle pattern cannot be embedded within the retry budget."""

    def __init__(self, pattern_index: int, attempts: int):
        self.pattern_index = pattern_index
        self.attempts = attempts
        super().__init__(
            f"pattern {pattern_index} not embedded after {attempts} attempts"
        )


@dataclass(frozen=True)
class RealizationOutcome:
    """The realized decomposition (None on failure) and how far it got."""

    decomposition: HamDecomposition | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.decomposition is not None


def _has_perfect_matching(rows, n: int) -> bool:
    match_l, _ = _kernels.hopcroft_karp(rows, n)
    return bool(np.all(match_l >= 0))


def max_bipartite_matching(g: SampledGraph, left, right) -> frozenset[tuple[int, int]]:
    """Maximum matching between two disjoint node lists of g, within its edges.

    Returns (left node, right node) pairs, each an edge of g.  The set's
    iteration order is fixed by the input, because PYTHONHASHSEED does not
    salt the hashes of tuples of ints.  A node out of range, repeated, or in
    both lists raises ValueError.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    lnodes, rnodes = left.tolist(), right.tolist()
    if not set(lnodes).isdisjoint(rnodes):
        raise ValueError("left and right nodes must be disjoint")
    match_l, _ = _kernels.hopcroft_karp(g.row_masks(left, right), right.size)
    return frozenset((lnodes[u], rnodes[v]) for u, v in enumerate(match_l.tolist()) if v != -1)


def oracle_exists(n: int, arcs) -> bool:
    """True iff the digraph on n nodes given by `arcs` has a Hamiltonian
    decomposition, i.e. a permutation using only those arcs.

    Decided by a perfect matching between out-copies and in-copies.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    rows = [0] * n  # bit v of rows[u]: the arc (u, v)
    for u, v in arcs:
        u, v = int(u), int(v)
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
        _check_hall_set(g, np.asarray(witness, dtype=np.int64))
        return False
    if witness.n != g.n:
        raise ValueError(f"a witness on {witness.n} nodes for a graph on {g.n}")
    succ = np.asarray(witness.successor, dtype=np.int64)
    found = g.has_edges(np.arange(g.n), succ)
    if not found.all():
        v = int(np.argmin(found))
        raise RuntimeError(f"witness arc {v}->{int(succ[v])} is not an edge of the graph")
    return True


def _check_hall_set(g: SampledGraph, nodes: np.ndarray) -> None:
    """Raise unless the distinct nodes have fewer neighbours in g than members."""
    found = g.neighbor_count(nodes)
    if found >= nodes.size:
        raise RuntimeError(
            f"Hall set of {nodes.size} nodes has {found} neighbours: it violates nothing"
        )


def embed_cycles(patterns, g: SampledGraph, seed: int, attempts: int = DEFAULT_ATTEMPTS):
    """Find node-disjoint directed cycles in g, one per block pattern.

    Each cycle visits blocks in its pattern's order: a path is grown block
    by block through sampled edges, then closed by a node adjacent to both
    endpoints.  Nodes used by earlier patterns are excluded from later
    ones.  Each pattern gets `attempts` randomized restarts; running out
    raises `CycleEmbedError` with the failing pattern index.
    """
    rng = generator(derive(seed, "embed"))
    free = np.ones(g.n, dtype=bool)  # not taken by an earlier pattern

    cycles = []
    for p_idx, pattern in enumerate(patterns):
        bs = list(pattern.nodes)
        k = len(bs)
        for _ in range(attempts):
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
            raise CycleEmbedError(p_idx, attempts)
        free[chosen] = False
        cycles.append(tuple(chosen))
    return cycles


def realize(
    a: BalancedMatrix, g: SampledGraph, s: SkeletonGraph, seed: int, attempts: int = DEFAULT_ATTEMPTS
) -> RealizationOutcome:
    """Instantiate the block cycles of tally `a` inside g.

    Phase 1 embeds every block cycle of length >= 3.  Phase 2 partitions
    the remaining nodes of each block into groups sized by the tally's
    2-cycle counts and asks for perfect matchings within sampled edges
    (looped blocks: split the group into halves and match across); the
    whole grouping is re-randomized on failure, up to `attempts` times.
    On success the result's block tallies equal the input exactly.
    """
    q = s.node_count
    observed = tuple(int(c) for c in np.bincount(g.blocks, minlength=q))
    if observed != a.row_sums():
        raise ValueError("tally block sizes do not match the graph")
    groups, patterns = block_cycles(a, s)
    diagnostics: dict = {"long_cycle_patterns": len(patterns)}

    # phase 1: cycles of length >= 3
    try:
        long_cycles = embed_cycles(patterns, g, derive(seed, "phase1"), attempts)
    except CycleEmbedError as err:
        diagnostics["phase"] = "long-cycles"
        diagnostics["failed_pattern"] = err.pattern_index
        return RealizationOutcome(None, diagnostics)

    free = np.ones(g.n, dtype=bool)
    free[[v for cyc in long_cycles for v in cyc]] = False
    remaining = [np.flatnonzero(free & (g.blocks == b)) for b in range(q)]
    need = [0] * q
    for (i, j), c in groups.items():  # a looped block's key (i, i) counts twice
        need[i] += c
        need[j] += c
    if need != [len(r) for r in remaining]:  # the block cycles use up the row sums
        raise RuntimeError("tally 2-cycle counts do not match the leftover nodes")

    rng = generator(derive(seed, "phase2"))
    for attempt in range(attempts):
        # each block's nodes in a fresh random order, handed out front to back
        shuffled = [iter(rng.permutation(r).tolist()) for r in remaining]
        pair_cycles: list[tuple[int, int]] = []
        for (i, j), c in groups.items():
            # a looped block (i == j) hands its next c nodes, then the c after
            lset, rset = list(islice(shuffled[i], c)), list(islice(shuffled[j], c))
            # its iteration order, stable (see its docstring), is the order `decompose` prints
            matched = max_bipartite_matching(g, lset, rset)
            if len(matched) < c:
                diagnostics["last_failure"] = {"pair": (i, j), "needed": c, "matched": len(matched)}
                diagnostics["failed_attempt"] = attempt
                break
            pair_cycles.extend(matched)
        else:  # every group matched
            break
    else:  # no attempt matched every group
        diagnostics["phase"] = "two-cycles"
        return RealizationOutcome(None, diagnostics)

    cycles = list(long_cycles) + [tuple(p) for p in pair_cycles]
    decomposition = HamDecomposition(g.n, cycles)
    realized = count_block_edges(decomposition, g.blocks, s)
    if realized.counts != a.counts:
        raise RuntimeError("realized decomposition does not reproduce the tally plan")
    return RealizationOutcome(decomposition, diagnostics)
