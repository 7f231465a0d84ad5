"""One-step partition refinements and certificate transport.

Inserting a breakpoint inside a block leaves the graphon unchanged as a
function but splits one skeleton node into two copies: the new node
inherits every adjacency of the split node, and if the split node had a
self-loop both copies get loops plus a connecting edge.  Connectivity,
odd-cycle existence, and polytope membership status are all invariant
under this operation, and membership certificates transport across it in
both directions by exact coefficient bookkeeping.

The push direction scales coefficients of edges at the split node by the
two sub-interval length fractions; when the split node carries a loop, the
connecting edge starts at zero and strict positivity is repaired by
shifting mass from the two loop coefficients onto it (the connecting
column is the average of the two loop columns, so the solution is
preserved).  The pull direction merges coefficients back by summation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (
    DisconnectedSkeletonError,
    Partition,
    StepGraphon,
    concentration,
    connected_components,
    edge_order,
    has_odd_cycle,
    incidence,
    loopless,
    skeleton,
)


@dataclass(frozen=True)
class RefinementRecord:
    """A single breakpoint insertion: which block, where, and the result."""

    split_block: int
    split_point: Fraction
    original: StepGraphon
    refined: StepGraphon

    @property
    def left_fraction(self) -> Fraction:
        """Length fraction of the left sub-interval within the split block."""
        lo, hi = self.original.partition.interval(self.split_block)
        return (self.split_point - lo) / (hi - lo)


def refine_once(w: StepGraphon, block: int, t) -> RefinementRecord:
    """Insert breakpoint t strictly inside the given block's interval.

    The refined graphon is the same function; its skeleton gains one node
    copying the split node's adjacencies (plus loop and connecting edge if
    the split node had a loop).
    """
    point = Fraction(t)
    q = w.q
    if not 0 <= block < q:
        raise ValueError(f"block {block} out of range")
    lo, hi = w.partition.interval(block)
    if not lo < point < hi:
        raise ValueError(f"split point {point} not strictly inside [{lo}, {hi})")
    bps = list(w.partition.breakpoints)
    bps.insert(block + 1, point)
    rows = [list(row) for row in w.values]
    for row in rows:
        row.insert(block + 1, row[block])
    rows.insert(block + 1, list(rows[block]))
    refined = StepGraphon(Partition(tuple(bps)), tuple(tuple(r) for r in rows))
    return RefinementRecord(block, point, w, refined)


def _node_map(rec: RefinementRecord):
    """Old node index -> new index of its (left) copy; the right copy of the
    split block sits at split_block + 1."""
    b = rec.split_block

    def remap(i: int) -> int:
        return i if i <= b else i + 1

    return remap


def push_certificate(c, rec: RefinementRecord) -> tuple[Fraction, ...]:
    """Transport coefficients across a refinement: Z' c' = x' exactly.

    Strictly positive input stays strictly positive: when the split block
    has a loop, the zero-born connecting edge receives 2*eps shifted off
    the two loop coefficients, with eps half their minimum.
    """
    s_old = skeleton(rec.original)
    s_new = skeleton(rec.refined)
    order_old = edge_order(s_old)
    order_new = edge_order(s_new)
    coeffs = tuple(Fraction(v) for v in c)
    if len(coeffs) != len(order_old):
        raise ValueError("coefficient vector does not match the original edge set")
    if incidence(s_old).apply(coeffs) != concentration(rec.original.partition):
        raise ValueError("coefficients do not solve the original system")

    b = rec.split_block
    nb = b + 1
    lam = rec.left_fraction
    remap = _node_map(rec)
    out: dict[tuple[int, int], Fraction] = {e: Fraction(0) for e in order_new}
    for idx, (i, j) in enumerate(order_old):
        cf = coeffs[idx]
        if i == b and j == b:
            out[(b, b)] += lam * cf
            out[(nb, nb)] += (1 - lam) * cf
        elif b in (i, j):
            other = remap(j if i == b else i)
            lo, hi = min(other, b), max(other, b)
            out[(lo, hi)] += lam * cf
            lo, hi = min(other, nb), max(other, nb)
            out[(lo, hi)] += (1 - lam) * cf
        else:
            out[(remap(i), remap(j))] += cf

    if b in s_old.loops:
        eps = min(out[(b, b)], out[(nb, nb)]) / 2
        out[(b, b)] -= eps
        out[(nb, nb)] -= eps
        out[(b, nb)] += 2 * eps

    result = tuple(out[e] for e in order_new)
    if incidence(s_new).apply(result) != concentration(rec.refined.partition):
        raise RuntimeError("pushed certificate fails the refined system")
    return result


def pull_certificate(c_refined, rec: RefinementRecord) -> tuple[Fraction, ...]:
    """Transport coefficients back from the refined skeleton: Z c = x.

    Coefficients of the two edge copies merge by summation; a split loop
    collects both copy loops plus the connecting edge.  Positivity is
    preserved.
    """
    s_old = skeleton(rec.original)
    s_new = skeleton(rec.refined)
    order_old = edge_order(s_old)
    order_new = edge_order(s_new)
    coeffs = {e: Fraction(v) for e, v in zip(order_new, c_refined)}
    if len(c_refined) != len(order_new):
        raise ValueError("coefficient vector does not match the refined edge set")
    vec = tuple(coeffs[e] for e in order_new)
    if incidence(s_new).apply(vec) != concentration(rec.refined.partition):
        raise ValueError("coefficients do not solve the refined system")

    b = rec.split_block
    nb = b + 1
    remap = _node_map(rec)
    out = []
    for i, j in order_old:
        if i == b and j == b:
            out.append(coeffs[(b, b)] + coeffs[(nb, nb)] + coeffs[(b, nb)])
        elif b in (i, j):
            other = remap(j if i == b else i)
            g = (min(other, b), max(other, b))
            h = (min(other, nb), max(other, nb))
            out.append(coeffs[g] + coeffs[h])
        else:
            out.append(coeffs[(remap(i), remap(j))])

    result = tuple(out)
    if incidence(s_old).apply(result) != concentration(rec.original.partition):
        raise RuntimeError("pulled certificate fails the original system")
    return result


def ensure_loopless_odd_cycle(w: StepGraphon) -> StepGraphon:
    """Refine (at most twice) so the loopless skeleton part has an odd cycle.

    Requires a connected skeleton with an odd cycle.  If the pair-edge part
    is already non-bipartite, the graphon is returned unchanged.  Otherwise
    the lowest-index looped block is split at its midpoint: its copies are
    mutually adjacent, so together with any neighbor they form a triangle;
    an isolated looped block needs a second split.
    """
    s = skeleton(w)
    comps = connected_components(s)
    if len(comps) > 1:
        raise DisconnectedSkeletonError(comps)
    if not has_odd_cycle(s):
        raise ValueError("the skeleton has no odd cycle; nothing can restore one")
    current = w
    for _ in range(2):
        s = skeleton(current)
        if has_odd_cycle(loopless(s)):
            return current
        target = min(s.loops)
        lo, hi = current.partition.interval(target)
        current = refine_once(current, target, (lo + hi) / 2).refined
    if not has_odd_cycle(loopless(skeleton(current))):
        raise RuntimeError("two refinements did not produce a loopless odd cycle")
    return current
