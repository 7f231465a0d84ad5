"""Constructive pipeline: from an interior vector to a decomposition.

Given a connected skeleton, an interior point x with n x integral and the
caller's strictly positive certificate for x, the pipeline builds a
balanced integer tally matrix (the block-level plan) and reads block
cycles off it:

  1. split x into its loop-generator and pair-generator mass along the
     certificate,
  2. round the loop part to the nearest even-integer vector over n,
  3. re-solve the pair part against the loopless incidence columns (the
     certificate itself when the skeleton has no loops),
  4. round the resulting fractional pair matrix to integers while
     preserving row and column sums exactly (flow-based rounding),
  5. pair off 2-cycles and peel the residual into simple block cycles
     (`block_cycles`); `realize` embeds these in a sampled graph, and
     `build_decomposition` instantiates them with canonical nodes.

All steps are exact.  The tally computes on integer counts over n: the
block counts n x, a certificate's coefficients as numerators over their
common denominator, and in `matrix_round` the entries as numerators over
the matrix's.  `Fraction`s remain in the lemma's public inputs and
outputs: x and the certificates, `split_mass`'s parts, `round_even`'s
vector (each entry 2j / n) and the pair matrix `matrix_round` rounds.
What small n can cost (pair mass outside the loopless polytope, a
skeleton entry rounded to zero) surfaces as `ConstructionError` naming
its stage; a broken guaranteed property raises.
`ConstructionError` is the package's one kind of expected stop, and
`HEADINGS` lists, once, every stage that may stop (`STAGES`) with its
phase's heading: the pipeline's plan, the tally's four (here) and
realization's two phases (`realize`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .flow import MaxFlow
from .model import (
    DisconnectedSkeletonError,
    SkeletonGraph,
    _as_fraction,
    as_int,
    check_count,
    connected_components,
    edge_order,
    doubled_edge_sum,
    incidence,
    int_array,
    is_connected,
    loopless,
)
from .polytope import Membership, MembershipCertificate, positive_certificate
from .sampling import BalancedMatrix

ZERO = Fraction(0)


# every stage that may stop, in pipeline order, with its phase's heading:
# the plan, the tally's four stages, realization's two phases
HEADINGS = {
    "plan": "cannot decompose",
    **dict.fromkeys(("preconditions", "membership", "loopless-membership", "postconditions"),
                    "tally construction failed"),
    **dict.fromkeys(("long-cycles", "two-cycles"), "realization failed"),
}
STAGES = tuple(HEADINGS)


class ConstructionError(Exception):
    """An expected stop of the constructive pipeline: a stage of `STAGES`
    could not meet its contract at this n, and `failures` says what failed.
    It is never a broken invariant, which raises RuntimeError instead.

    A stop is kept as a value, in outcomes and Monte Carlo rows, and sent
    between processes: it pickles as its stage and failures, and is equal
    to, and hashes like, any stop with the same two."""

    def __init__(self, stage: str, failures):
        self.stage = stage
        self.failures = tuple(failures)
        super().__init__(f"{stage}: " + "; ".join(self.failures))

    def __reduce__(self):
        return type(self), (self.stage, self.failures)

    def __eq__(self, other):
        if not isinstance(other, ConstructionError):
            return NotImplemented
        return (self.stage, self.failures) == (other.stage, other.failures)

    def __hash__(self):
        return hash((self.stage, self.failures))


def not_interior(status: Membership) -> ConstructionError:
    """The tally's refusal of a vector whose membership status is `status`."""
    return ConstructionError("membership", [f"x is {status.value}, not interior"])


@dataclass(frozen=True)
class MassSplit:
    """x decomposed as loop_part + edge_part along the certificate."""

    loop_part: tuple[Fraction, ...]
    edge_part: tuple[Fraction, ...]


@dataclass(frozen=True)
class BlockCycle:
    """A cyclic sequence of distinct block indices (a simple cycle plan)."""

    nodes: tuple[int, ...]

    def __post_init__(self):
        nodes = tuple([as_int(v, "block cycle nodes") for v in self.nodes])
        object.__setattr__(self, "nodes", nodes)
        if len(nodes) < 2:
            raise ValueError("a block cycle visits at least two blocks")
        if len(set(nodes)) != len(nodes):
            raise ValueError("block cycle must not repeat blocks")


@dataclass(frozen=True)
class HamDecomposition:
    """A permutation of range(n) split into directed cycles of length >= 2."""

    n: int
    cycles: tuple[tuple[int, ...], ...]
    # v's successor on its cycle, for every node v; derived, not compared
    successor: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if as_int(self.n, "n") < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")
        cycles = tuple(map(tuple, self.cycles))
        lengths = np.fromiter(map(len, cycles), np.int64, len(cycles))
        listed = [v for c in cycles for v in c]
        flat = int_array(listed, "cycle nodes")
        ends = np.cumsum(lengths)
        short = np.flatnonzero(lengths < 2)
        outside = (flat < 0) | (flat >= self.n)
        if short.size or outside.any() or np.bincount(flat).max(initial=0) > 1:
            # report the fault a walk over the cycles in order meets first
            repeat = np.ones(flat.size, dtype=bool)
            repeat[np.unique(flat, return_index=True)[1]] = False
            wrong = np.flatnonzero(outside | repeat)
            if short.size and (not wrong.size or ends[short[0]] - lengths[short[0]] <= wrong[0]):
                raise ValueError("cycles must have length at least 2")
            raise ValueError("cycles must partition the node set")
        if flat.size < self.n:
            raise ValueError("cycles must cover every node")
        if set(map(type, listed)) - {int}:  # re-cut the cycles from the converted nodes
            nodes = flat.tolist()
            cycles = tuple([tuple(nodes[e - k:e]) for e, k in zip(ends.tolist(), lengths.tolist())])
        object.__setattr__(self, "cycles", cycles)
        # each position's successor is the next one, and a cycle's last closes on its first
        after = np.arange(1, flat.size + 1)
        after[ends - 1] = ends - lengths
        succ = np.empty(self.n, dtype=np.int64)
        succ[flat] = flat[after]
        object.__setattr__(self, "successor", tuple(succ.tolist()))

    def long_cycles(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for c in self.cycles if len(c) >= 3)


# ---------------------------------------------------------------------------
# mass splitting and rounding
# ---------------------------------------------------------------------------

def split_mass(x, cert: MembershipCertificate, s: SkeletonGraph) -> MassSplit:
    """Split x into the mass carried by loop columns and the rest.

    The loop part is the certificate-weighted sum of loop columns; the edge
    part is the remainder and is supported on every node touched by a pair
    edge.
    """
    if cert.status is not Membership.INTERIOR:
        raise ValueError("mass splitting needs an interior certificate")
    xs = tuple([_as_fraction(v) for v in x])
    loop_part = [ZERO] * s.node_count
    for idx, (a, b) in enumerate(edge_order(s)):
        if a == b:
            loop_part[a] += cert.coefficients[idx]
    edge_part = tuple(xi - li for xi, li in zip(xs, loop_part))
    return MassSplit(tuple(loop_part), edge_part)


def round_even(vec, n: int) -> tuple[Fraction, ...]:
    """The vector with even entries (over denominator n) closest to n*vec,
    halves rounding down: entry i becomes (2/n) * [n*vec_i / 2]."""
    check_count(n, "n")
    # for v = a / b: [n v / 2], halves down, is ceil((n a - b) / 2b) = (n a + b - 1) // 2b
    return tuple([Fraction(2 * ((n * v.numerator + v.denominator - 1) // (2 * v.denominator)), n)
                  for v in map(_as_fraction, vec)])


def _over_one_denominator(values) -> tuple[list[int], int]:
    """Exact rationals as integer numerators over their least common
    denominator, and that denominator."""
    fs = [_as_fraction(v) for v in values]
    d = math.lcm(*[v.denominator for v in fs])
    return [v.numerator * (d // v.denominator) for v in fs], d


# ---------------------------------------------------------------------------
# flow-based matrix rounding
# ---------------------------------------------------------------------------

def _check_support(matrix, s: SkeletonGraph, what: str):
    q = s.node_count
    if len(matrix) != q:
        raise ValueError(f"{what} has {len(matrix)} rows; the skeleton has {q} blocks")
    for i in range(q):
        for j in range(q):
            if matrix[i][j] != 0 and not s.supports(i, j):
                raise ValueError(f"{what}[{i}][{j}] nonzero: block pair ({i},{j}) not in skeleton")


def matrix_round(matrix, support: SkeletonGraph) -> tuple[tuple[int, ...], ...]:
    """Round each entry to its floor or ceiling, preserving all row and
    column sums exactly and never creating new support.

    Requires integer row and column sums.  Floors everything, then routes
    the per-row deficits to the per-column deficits as an integral flow
    through the fractional cells (each of capacity one); the fractional
    parts themselves are a feasible flow, so a saturating integral flow
    exists.  An integral matrix comes back unchanged.
    """
    rows = [[_as_fraction(v) for v in row] for row in matrix]
    q = len(rows)
    if any(len(r) != q for r in rows):
        raise ValueError("matrix must be square")
    # the entries as integer numerators over the matrix's common denominator d
    flat, d = _over_one_denominator(v for row in rows for v in row)
    rows = [flat[i * q:(i + 1) * q] for i in range(q)]
    if any(v < 0 for v in flat):
        raise ValueError("matrix entries must be nonnegative")
    _check_support(rows, support, "matrix")
    row_sums = [sum(r) for r in rows]
    col_sums = [sum(col) for col in zip(*rows)]
    for what, sums in (("row", row_sums), ("column", col_sums)):
        for i, v in enumerate(sums):
            if v % d:
                raise ValueError(f"{what} {i} sum {Fraction(v, d)} is not an integer")

    floors = [[v // d for v in row] for row in rows]
    rdef = [row_sums[i] // d - sum(floors[i]) for i in range(q)]
    cdef = [col_sums[j] // d - sum(floors[i][j] for i in range(q)) for j in range(q)]
    need = sum(rdef)

    src, dst = 2 * q, 2 * q + 1
    net = MaxFlow(2 * q + 2)
    for i in range(q):
        if rdef[i]:
            net.add(src, i, rdef[i])
    cell_edges = {}
    for i in range(q):
        for j in range(q):
            if rows[i][j] % d:
                cell_edges[(i, j)] = net.add(i, q + j, 1)
    for j in range(q):
        if cdef[j]:
            net.add(q + j, dst, cdef[j])
    pushed = net.run(src, dst)
    if pushed != need:
        raise RuntimeError("rounding flow did not saturate; sums were inconsistent")
    for (i, j), ei in cell_edges.items():
        if net.cap[ei] == 0:
            floors[i][j] += 1
    return tuple(tuple(row) for row in floors)


# ---------------------------------------------------------------------------
# the balanced tally matrix for an interior point
# ---------------------------------------------------------------------------

def _support_failures(counts, s: SkeletonGraph) -> list[str]:
    # support compared undirected: rounding may zero one direction of an
    # edge (the tolerated asymmetry), never both
    q = s.node_count
    fails = []
    for i in range(q):
        if (counts[i][i] > 0) != s.supports(i, i):
            fails.append(f"diagonal support mismatch at {i}")
    for i in range(q):
        for j in range(i + 1, q):
            total = counts[i][j] + counts[j][i]
            if (total > 0) != s.supports(i, j):
                fails.append(f"pair support mismatch at ({i},{j})")
    return fails


def build_balanced_matrix(
    x, n: int, s: SkeletonGraph, cert: MembershipCertificate
) -> BalancedMatrix:
    """Integer tally matrix over n for an interior x with n x integral,
    given `cert`, the membership certificate of x on s.

    The result A satisfies: A 1 = x; n A integer with even diagonal; the
    diagonal within 1/n of the loop mass; off-diagonal asymmetry at most
    1/n; support exactly the skeleton.  Only the support can fail, when n
    is too small; that, a certificate that is not interior, and pair mass
    outside the loopless polytope raise `ConstructionError`, and a break of
    the other properties raises RuntimeError.  An x not summing to 1, or a
    certificate whose coefficients do not solve Z c = x, raises ValueError.
    """
    xs = tuple([_as_fraction(v) for v in x])
    q = s.node_count
    if len(xs) != q:
        raise ValueError("x must have one entry per block")
    nums, den = _over_one_denominator(xs)
    if sum(nums) != den:
        raise ValueError("x must sum to 1")
    check_count(n, "n")
    bad = [i for i, v in enumerate(xs) if n % v.denominator]  # v = a / b in lowest terms
    if bad:
        raise ConstructionError("preconditions", [f"n*x not integral at {bad}"])
    if not is_connected(s):
        raise DisconnectedSkeletonError(connected_components(s))
    k = [v.numerator * (n // v.denominator) for v in xs]  # the block counts n x

    if cert.status is not Membership.INTERIOR:
        raise not_interior(cert.status)
    c, d = _over_one_denominator(cert.coefficients)
    order = edge_order(s)
    if len(c) != len(order):
        raise ValueError(f"{len(c)} coefficients for {len(order)} edges")
    if [n * v for v in doubled_edge_sum(q, order, c)] != [2 * d * v for v in k]:  # 2d Z c = 2d x
        raise ValueError("the certificate's coefficients do not solve Z c = x")

    split = split_mass(xs, cert, s)
    # round_even's entries are 2j / n: n times them are the even loop counts
    loops = [t.numerator * (n // t.denominator) for t in round_even(split.loop_part, n)]
    rest = [ki - t for ki, t in zip(k, loops)]  # the pair counts n x - loops
    if any(v < 0 for v in rest):  # n l rounds to an even number <= n x, as l <= x
        raise RuntimeError("even rounding exceeded x on some block")
    n1 = n - sum(loops)

    counts = [[0] * q for _ in range(q)]
    if n1 > 0:
        s1 = loopless(s)
        order1 = edge_order(s1)
        if not order1:
            raise ConstructionError(
                "loopless-membership", ["pair mass left but the skeleton has no pair edges"]
            )
        # the target is rest / n1; without loops it is x and s1 is s: that LP is already solved
        cert1 = positive_certificate(incidence(s1), [Fraction(v, n1) for v in rest]) if s.loops else cert
        if cert1.status is Membership.EXTERIOR:
            raise ConstructionError(
                "loopless-membership",
                ["normalized pair mass fell outside the loopless polytope; n too small"],
            )
        c1, d1 = _over_one_denominator(cert1.coefficients)
        scaled = [[ZERO] * q for _ in range(q)]
        for (i, j), v in zip(order1, c1):
            scaled[i][j] = scaled[j][i] = Fraction(n1 * v, 2 * d1)
        # the pair matrix has a zero diagonal, and so has its rounding
        counts = [list(row) for row in matrix_round(scaled, s1)]
    for i in range(q):
        counts[i][i] = loops[i]

    # guaranteed by construction, whatever n: a break is a bug
    lnum, ld = _over_one_denominator(split.loop_part)
    for i, row in enumerate(counts):
        if (
            sum(row) != k[i]
            or row[i] % 2
            or abs(ld * row[i] - n * lnum[i]) > ld
            or any(abs(v - counts[j][i]) > 1 for j, v in enumerate(row))
        ):
            raise RuntimeError(f"balanced tally row {i} breaks a guaranteed property")
    fails = _support_failures(counts, s)
    if fails:
        raise ConstructionError("postconditions", fails)
    return BalancedMatrix(tuple(tuple(row) for row in counts))


# ---------------------------------------------------------------------------
# cycle peeling and decomposition assembly
# ---------------------------------------------------------------------------

def peel_cycles(residual: BalancedMatrix, s: SkeletonGraph) -> list[tuple[BlockCycle, int]]:
    """Decompose a balanced zero-diagonal tally into simple block cycles.

    Walk from the lowest-index node with positive out-degree, always taking
    the lowest-index positive out-edge; the first repeated node closes a
    cycle, which is subtracted at its bottleneck multiplicity.  Balance
    guarantees the walk never strands and the process ends at zero.
    """
    q = residual.q
    counts = [list(row) for row in residual.counts]
    _check_support(counts, s, "residual")
    for i in range(q):
        if counts[i][i]:
            raise ValueError("residual tally must have a zero diagonal")
    out: list[tuple[BlockCycle, int]] = []
    while any(map(any, counts)):
        nxt = next(i for i in range(q) if any(counts[i]))
        path: list[int] = []
        pos: dict[int, int] = {}
        while nxt not in pos:
            pos[nxt] = len(path)
            path.append(nxt)
            nxt = next(j for j in range(q) if counts[nxt][j] > 0)
        cycle = path[pos[nxt]:]
        arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
        mult = min(counts[a][b] for a, b in arcs)
        for a, b in arcs:
            counts[a][b] -= mult
        out.append((BlockCycle(tuple(cycle)), mult))
    return out


def block_cycles(
    a: BalancedMatrix, s: SkeletonGraph
) -> tuple[dict[tuple[int, int], int], list[BlockCycle]]:
    """The block cycles of a tally: its 2-cycle counts and its longer cycles.

    The pairwise minima become 2-cycles, counted per block pair (i, j),
    i <= j, with (i, i) the within-block pairs of a looped block; the dict
    holds the nonzero counts in sorted key order.  The residual is peeled
    into simple block cycles, listed in peel order and repeated by
    multiplicity.
    """
    q = a.q
    counts = a.counts
    _check_support(counts, s, "tally")
    pairs = {}
    for i in s.loops:
        if counts[i][i] % 2:
            raise ValueError(f"diagonal tally at {i} must be even")
        pairs[(i, i)] = counts[i][i] // 2
    for i, j in s.edges:
        pairs[(i, j)] = min(counts[i][j], counts[j][i])
    resid = [
        [0 if i == j else counts[i][j] - min(counts[i][j], counts[j][i]) for j in range(q)]
        for i in range(q)
    ]
    longer = [c for c, mult in peel_cycles(BalancedMatrix(resid), s) for _ in range(mult)]
    return {k: pairs[k] for k in sorted(pairs) if pairs[k]}, longer


def canonical_blocks(block_sizes) -> list[int]:
    """Block label per node when blocks occupy consecutive index ranges."""
    blocks = []
    for b, size in enumerate(block_sizes):
        blocks.extend([b] * as_int(size, "block sizes"))
    return blocks


def build_decomposition(a: BalancedMatrix, s: SkeletonGraph) -> HamDecomposition:
    """Hamiltonian decomposition of the complete multipartite graph over the
    skeleton whose block sizes are the tally's row sums, with block-pair
    tallies exactly equal to the input.

    Nodes are numbered consecutively by block (see `canonical_blocks`) and
    consumed in ascending order by the tally's `block_cycles`: within-block
    2-cycles first, then cross 2-cycles, then the peeled cycles.
    """
    pairs, longer = block_cycles(a, s)
    sizes = a.row_sums()
    ends = accumulate(sizes)
    nodes = [iter(range(end - size, end)) for size, end in zip(sizes, ends)]
    twos = sorted(pairs.items(), key=lambda kv: kv[0][0] != kv[0][1])
    patterns = [ij for ij, c in twos for _ in range(c)] + [p.nodes for p in longer]
    try:
        cycles = [tuple([next(nodes[b]) for b in pattern]) for pattern in patterns]
    except StopIteration:
        raise RuntimeError("a block ran out of nodes while assembling") from None
    if any(next(it, None) is not None for it in nodes):
        raise RuntimeError("node accounting failed while assembling")
    return HamDecomposition(a.scale, cycles)
