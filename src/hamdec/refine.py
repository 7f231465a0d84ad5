"""One-step partition refinements and certificate transport.

Inserting a breakpoint inside a block leaves the graphon unchanged as a
function but splits one skeleton node into two copies: the new node
inherits every adjacency of the split node, and if the split node had a
self-loop both copies get loops plus a connecting edge.  Connectivity,
odd-cycle existence, and polytope membership status are all invariant
under this operation, and membership certificates transport across it in
both directions by exact coefficient bookkeeping.

Both directions read one map from each original edge to the refined
edges it becomes (`_edge_images`).  The push direction scatters each
coefficient over them, scaled at the split node by the two sub-interval
length fractions; when the split node carries a loop, the connecting edge
starts at zero and strict positivity is repaired by shifting mass from the
two loop coefficients onto it (the connecting column is the average of the
two loop columns, so the solution is preserved).  The pull direction
gathers each coefficient back as the sum over the same images.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (
    DisconnectedSkeletonError,
    Partition,
    StepGraphon,
    _as_fraction,
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


def split_point(w: StepGraphon, block: int, t) -> Fraction:
    """t as an exact rational strictly inside the given block's interval;
    a block out of range or a point that is not inside raises ValueError."""
    point = _as_fraction(t)
    lo, hi = w.partition.interval(block)
    if not lo < point < hi:
        raise ValueError(f"split point {point} not strictly inside [{lo}, {hi})")
    return point


def refine_once(w: StepGraphon, block: int, t) -> RefinementRecord:
    """Insert breakpoint t strictly inside the given block's interval.

    The refined graphon is the same function; its skeleton gains one node
    copying the split node's adjacencies (plus loop and connecting edge if
    the split node had a loop).
    """
    point = split_point(w, block, t)
    bps = list(w.partition.breakpoints)
    bps.insert(block + 1, point)
    rows = [list(row) for row in w.values]
    for row in rows:
        row.insert(block + 1, row[block])
    rows.insert(block + 1, list(rows[block]))
    refined = StepGraphon(Partition(tuple(bps)), tuple(tuple(r) for r in rows))
    return RefinementRecord(block, point, w, refined)


def _edge_images(rec: RefinementRecord) -> list[tuple]:
    """Per original edge, in edge order: the refined edges it becomes, each
    with its share of the edge's coefficient.

    An edge at the split block goes to its two copies with shares lambda and
    1 - lambda (the sub-interval length fractions); a split loop also owns
    the connecting edge, with share 0; any other edge moves whole to its
    renumbered copy.
    """
    b, lam = rec.split_block, rec.left_fraction
    nb = b + 1

    def up(i: int) -> int:
        return i if i <= b else i + 1

    images = []
    for i, j in edge_order(skeleton(rec.original)):
        if i == j == b:
            images.append((((b, b), lam), ((nb, nb), 1 - lam), ((b, nb), Fraction(0))))
        elif b in (i, j):
            o = up(i + j - b)  # the other endpoint
            left, right = ((o, b), (o, nb)) if o < b else ((b, o), (nb, o))
            images.append(((left, lam), (right, 1 - lam)))
        else:
            images.append((((up(i), up(j)), Fraction(1)),))
    return images


def push_certificate(c, rec: RefinementRecord) -> tuple[Fraction, ...]:
    """Transport coefficients across a refinement: Z' c' = x' exactly.

    Strictly positive input stays strictly positive: when the split block
    has a loop, the zero-born connecting edge receives 2*eps shifted off
    the two loop coefficients, with eps half their minimum.
    """
    s_old = skeleton(rec.original)
    s_new = skeleton(rec.refined)
    coeffs = tuple([_as_fraction(v) for v in c])
    if len(coeffs) != s_old.edge_count:
        raise ValueError("coefficient vector does not match the original edge set")
    if incidence(s_old).apply(coeffs) != concentration(rec.original.partition):
        raise ValueError("coefficients do not solve the original system")

    out: dict[tuple[int, int], Fraction] = {e: Fraction(0) for e in edge_order(s_new)}
    for cf, images in zip(coeffs, _edge_images(rec)):
        for e, share in images:
            out[e] += share * cf

    b = rec.split_block
    nb = b + 1
    if b in s_old.loops:
        eps = min(out[(b, b)], out[(nb, nb)]) / 2
        out[(b, b)] -= eps
        out[(nb, nb)] -= eps
        out[(b, nb)] += 2 * eps

    result = tuple(out.values())
    if incidence(s_new).apply(result) != concentration(rec.refined.partition):
        raise RuntimeError("pushed certificate fails the refined system")
    return result


def pull_certificate(c_refined, rec: RefinementRecord) -> tuple[Fraction, ...]:
    """Transport coefficients back from the refined skeleton: Z c = x.

    Each coefficient is the sum over its edge images; a split loop's images
    include the connecting edge.  Positivity is preserved.
    """
    s_old = skeleton(rec.original)
    s_new = skeleton(rec.refined)
    order_new = edge_order(s_new)
    if len(c_refined) != len(order_new):
        raise ValueError("coefficient vector does not match the refined edge set")
    vec = tuple([_as_fraction(v) for v in c_refined])
    if incidence(s_new).apply(vec) != concentration(rec.refined.partition):
        raise ValueError("coefficients do not solve the refined system")

    coeffs = dict(zip(order_new, vec))
    result = tuple(sum(coeffs[e] for e, _ in images) for images in _edge_images(rec))
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
