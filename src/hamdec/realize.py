"""Realizing a block-level decomposition inside an actual sampled graph.

A decomposition built against the saturated (complete multipartite) graph
is a pattern: its long cycles prescribe block sequences, its 2-cycles
prescribe how many nodes of each block pair off with each block neighbor.
Realization re-instantiates the pattern using only edges that were really
sampled: long cycles by randomized greedy path growth with a closing node
adjacent to both endpoints, 2-cycles by maximum bipartite matchings between
the prescribed node groups (looped blocks are split into two halves and
matched across).  Bounded randomized retries stand in for the almost-sure
existence arguments; exhausting them is a reported Failure, not an error.

Also here: an independent existence oracle.  A Hamiltonian decomposition of
a digraph is exactly a permutation supported on its arcs, so existence is
a perfect matching question between out-copies and in-copies of the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._seeds import derive, generator
from .construct import BlockCycle, HamDecomposition, canonical_blocks
from .model import SkeletonGraph
from .sampling import BalancedMatrix, SampledGraph, build_csr, count_block_edges


class CycleEmbedError(Exception):
    """Raised when a cycle pattern cannot be embedded within the retry budget."""

    def __init__(self, pattern_index: int, attempts: int):
        self.pattern_index = pattern_index
        self.attempts = attempts
        super().__init__(
            f"pattern {pattern_index} not embedded after {attempts} attempts"
        )


@dataclass(frozen=True)
class Matching:
    """A set of disjoint (left, right) pairs, each an edge of the host graph."""

    pairs: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class RealizationOutcome:
    status: str  # "success" or "failure"
    decomposition: HamDecomposition | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "success"


def _has_perfect_matching(n: int, indptr, indices) -> bool:
    match_l, _ = _kernels.hopcroft_karp(n, n, indptr, indices)
    return bool(np.all(match_l >= 0))


def max_bipartite_matching(left, right, edges) -> Matching:
    """Maximum-cardinality matching between two labeled node sets.

    Edges must connect a left label to a right label; labels are arbitrary
    hashables.  The matching is deterministic for a fixed input order.
    """
    left = list(left)
    right = list(right)
    lidx = {v: i for i, v in enumerate(left)}
    ridx = {v: i for i, v in enumerate(right)}
    rows = []
    cols = []
    for u, v in edges:
        if u not in lidx or v not in ridx:
            raise ValueError(f"edge ({u},{v}) does not connect left to right")
        rows.append(lidx[u])
        cols.append(ridx[v])
    indptr, indices = build_csr(len(left), len(right), rows, cols)
    match_l, _ = _kernels.hopcroft_karp(len(left), len(right), indptr, indices)
    pairs = frozenset(
        (left[u], right[int(match_l[u])]) for u in range(len(left)) if match_l[u] != -1
    )
    return Matching(pairs)


def oracle_exists(n: int, arcs) -> bool:
    """True iff the digraph on n nodes given by `arcs` has a Hamiltonian
    decomposition, i.e. a permutation using only those arcs.

    Decided by a perfect matching between out-copies and in-copies.
    """
    arcs = [(int(u), int(v)) for u, v in arcs]
    for u, v in arcs:
        if u == v:
            raise ValueError("self-loops are not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u},{v}) out of range")
    if n == 0:
        return True
    csr = build_csr(n, n, [u for u, _ in arcs], [v for _, v in arcs])
    return _has_perfect_matching(n, *csr)


def graph_has_decomposition(g: SampledGraph) -> bool:
    """Existence oracle on the directed version of a sampled graph.

    Its arcs are both orientations of every edge, which is exactly the
    graph's symmetric CSR adjacency.
    """
    return _has_perfect_matching(g.n, *g.adjacency())


def embed_cycles(patterns, g: SampledGraph, seed: int, attempts: int = 32):
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
        done = None
        for _ in range(attempts):
            chosen: list[int] = []
            avail = free.copy()  # also excludes this attempt's picks
            ok = True
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
                    ok = False
                    break
                v = int(cands[int(rng.integers(cands.size))])
                chosen.append(v)
                avail[v] = False
            if ok:
                done = chosen
                break
        if done is None:
            raise CycleEmbedError(p_idx, attempts)
        free[done] = False
        cycles.append(tuple(done))
    return cycles


def _pattern_groups(h: HamDecomposition, canon) -> dict[tuple[int, int], int]:
    """The pattern's 2-cycle counts per block pair (within-block keyed (i,i))."""
    sizes: dict[tuple[int, int], int] = {}
    for cycle in h.cycles:
        if len(cycle) != 2:
            continue
        a, b = canon[cycle[0]], canon[cycle[1]]
        key = (min(a, b), max(a, b))
        sizes[key] = sizes.get(key, 0) + 1
    return sizes


def realize(
    a: BalancedMatrix,
    h_pattern: HamDecomposition,
    g: SampledGraph,
    s: SkeletonGraph,
    seed: int,
    attempts: int = 32,
) -> RealizationOutcome:
    """Instantiate a saturated-graph decomposition pattern inside g.

    Phase 1 embeds every cycle of length >= 3.  Phase 2 partitions the
    remaining nodes of each block into groups sized by the pattern's
    2-cycle counts and asks for perfect matchings within sampled edges
    (looped blocks: split the group into halves and match across); the
    whole grouping is re-randomized on failure, up to `attempts` times.
    On success the result's block tallies equal the input exactly.
    """
    q = s.node_count
    sizes = a.row_sums()
    observed = tuple(int(c) for c in np.bincount(g.blocks, minlength=q))
    if observed != sizes:
        raise ValueError("pattern block sizes do not match the graph")
    canon = canonical_blocks(sizes)
    diagnostics: dict = {}

    # phase 1: cycles of length >= 3
    patterns = [
        BlockCycle(tuple(canon[v] for v in cyc)) for cyc in h_pattern.long_cycles()
    ]
    diagnostics["long_cycle_patterns"] = len(patterns)
    try:
        long_cycles = embed_cycles(patterns, g, derive(seed, "phase1"), attempts)
    except CycleEmbedError as err:
        diagnostics["phase"] = "long-cycles"
        diagnostics["failed_pattern"] = err.pattern_index
        return RealizationOutcome("failure", None, diagnostics)

    used = {v for cyc in long_cycles for v in cyc}
    remaining: list[list[int]] = [[] for _ in range(q)]
    for v in range(g.n):
        if v not in used:
            remaining[int(g.blocks[v])].append(v)

    groups = _pattern_groups(h_pattern, canon)
    need = [0] * q
    for (i, j), c in groups.items():
        need[i] += 2 * c if i == j else c
        if i != j:
            need[j] += c
    if need != [len(r) for r in remaining]:
        raise ValueError("pattern 2-cycle counts do not match the leftover nodes")

    rng = generator(derive(seed, "phase2"))
    in_rset = np.zeros(g.n, dtype=bool)
    keys = sorted(groups)
    pair_cycles: list[tuple[int, int]] | None = None
    for attempt in range(attempts):
        shuffled = []
        for b in range(q):
            order = np.array(remaining[b], dtype=np.int64)
            rng.shuffle(order)
            shuffled.append([int(v) for v in order])
        cursor = [0] * q

        def slice_of(block: int, count: int) -> list[int]:
            lo = cursor[block]
            cursor[block] += count
            return shuffled[block][lo:lo + count]

        trial: list[tuple[int, int]] = []
        failed = None
        for i, j in keys:
            c = groups[(i, j)]
            if i == j:
                group = slice_of(i, 2 * c)
                halves = (group[:c], group[c:])
            else:
                halves = (slice_of(i, c), slice_of(j, c))
            lset, rset = halves
            in_rset[rset] = True
            edges = []
            for u in lset:
                row = g.neighbors(u)
                edges.extend((u, v) for v in row[in_rset[row]].tolist())
            in_rset[rset] = False
            m = max_bipartite_matching(lset, rset, edges)
            if m.size < c:
                failed = {"pair": (i, j), "needed": c, "matched": m.size}
                break
            trial.extend(m.pairs)
        if failed is None:
            pair_cycles = trial
            break
        diagnostics["last_failure"] = failed
        diagnostics["failed_attempt"] = attempt

    if pair_cycles is None:
        diagnostics["phase"] = "two-cycles"
        return RealizationOutcome("failure", None, diagnostics)

    cycles = list(long_cycles) + [tuple(p) for p in pair_cycles]
    decomposition = HamDecomposition.from_cycles(cycles, g.n)
    realized = count_block_edges(decomposition, g.blocks, q, s)
    if realized.counts != a.counts:
        raise RuntimeError("realized decomposition does not reproduce the tally plan")
    return RealizationOutcome("success", decomposition, diagnostics)
