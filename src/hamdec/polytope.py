"""Exact membership tests for edge polytopes.

The edge polytope of a skeleton graph is the convex hull of the incidence
matrix columns.  A point x (summing to 1) lies in the relative interior of
that hull iff it admits a representation Z c = x with c strictly positive;
on the boundary iff the best achievable min-coefficient is exactly zero.
`positive_certificate` decides this; condition B (`driver.analyze`) is
that query for a graphon's concentration vector.

x lies in the polytope exactly when x(N(A)) >= x(A) for every block set A,
N(A) being A's neighbourhood in the skeleton with a looped block its own
neighbour (Gale's supply-demand theorem).  `hall_violator` finds a set
breaking that inequality, or shows there is none, with one integer
max-flow; a set it finds, checked in integers, certifies x exterior.  The
flow starts from a greedy one along the skeleton's edge order and
augments only the remainder; the set it returns, the source side of the
inclusion-minimal minimum cut, is the same for every maximum flow, so the
seed changes the work and never the answer.  One exact linear program
measures the margin of the points inside:

    maximize t   subject to   Z c = x,  c >= t 1

(sum(c) = 1 follows, as every column of Z sums to 1); t* > 0 is interior
and t* = 0 boundary.  It is the only LP the package solves, and it reads
the flow's integer counts D x (D the common denominator of x): its rows
are 2Z's, read off the skeleton's edge order (`IncidenceMatrix.doubled_rows`),
against the right-hand side 2 D x.  A dense two-phase primal simplex with
Bland's rule solves it on rows of Python ints, each over one denominator:
they hold the rationals a `Fraction` tableau would, so the pivots are the
same, without `Fraction`'s gcds.  A pivot touches a row only at the pivot
row's nonzero columns, and scales it only when the pivot row's denominator
does not divide the entry being cleared.  Scaling the rows by 2 and the
right-hand side by D leaves every pivot choice unchanged; only v and t
scale.  The certificate is checked in integers, over one denominator of v
and t, before its `Fraction`s are built.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .flow import MaxFlow
from .model import IncidenceMatrix, SkeletonGraph, _as_fraction, as_int, doubled_edge_sum, edge_order


class Membership(str, enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of a membership query.

    An interior or boundary point carries `coefficients`, an exact solution
    of Z c = x with sum 1 and min entry equal to `margin`; its status is the
    sign of the margin.  An exterior point carries `violator` instead: a
    block set A with x(N(A)) < x(A).
    """

    coefficients: tuple[Fraction, ...] | None = None
    margin: Fraction | None = None
    violator: frozenset[int] | None = None

    def __post_init__(self):
        if (self.coefficients is None) != (self.margin is None):
            raise ValueError("coefficients and margin come together")
        if (self.margin is None) == (self.violator is None):
            raise ValueError("a certificate has coefficients and a margin, or a violator")
        if self.violator is not None:
            if not self.violator:
                raise ValueError("a violator is a nonempty block set")
        elif self.margin < 0:
            raise ValueError("margin must be nonnegative")
        elif (low := min(self.coefficients, default=-1)) < 0 or (low > 0) != (self.margin > 0):
            raise ValueError("the coefficients' minimum and the margin disagree in sign")

    @property
    def status(self) -> Membership:
        if self.violator is not None:
            return Membership.EXTERIOR
        return Membership.INTERIOR if self.margin > 0 else Membership.BOUNDARY


# ---------------------------------------------------------------------------
# exact two-phase simplex for the membership LP, standard form A v = b, v >= 0
# ---------------------------------------------------------------------------
# A row is a list of ints ending in a positive denominator: [a_0, ..., rhs,
# den] reads a_j / den.  A pivot cross-multiplies two rows and divides out
# their gcd (fraction-free pivoting: Edmonds 1967, Bareiss 1968).  A row
# need not be in lowest terms: a sign test reads a numerator over a positive
# denominator, and the ratio rhs / a within a row is the same at any scale.

def _reduced(row):
    g = math.gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _support(prow):
    """The (column, entry) pairs of a pivot row's nonzero entries, its
    denominator left out."""
    return [(k, prow[k]) for k in compress(range(len(prow) - 1), prow)]


def _eliminate(row, prow, col, support):
    """row - row[col] * prow, for a pivot row prow that reads 1 at col and
    has the nonzero entries `support`.  With g = gcd(prow's denominator pd,
    row[col]), every entry of row is scaled by pd / g and only the support's
    entries change; where g = pd (most pivots have pd = 1) nothing is
    scaled and no gcd of the row is taken."""
    pd, f = prow[-1], row[col]
    g = math.gcd(pd, f)
    f //= g
    out = row[:] if g == pd else [a * (pd // g) for a in row]
    for k, p in support:
        out[k] -= f * p
    return out if g == pd else _reduced(out)


def _priced(cost, rows, basis):
    """The cost row reduced through the basis: zero on every basic column."""
    for r, bcol in enumerate(basis):
        if cost[bcol]:
            cost = _eliminate(cost, rows[r], bcol, _support(rows[r]))
    return cost


def _pivot(tableau, basis, row, col):
    old = tableau[row]
    piv = old[col]  # the row over its pivot: the denominator cancels
    tableau[row] = prow = _reduced(old[:-1] + [piv] if piv > 0 else [-a for a in old[:-1]] + [-piv])
    support = _support(prow)
    for r, other in enumerate(tableau):
        if r != row and other[col]:
            tableau[r] = _eliminate(other, prow, col, support)
    basis[row] = col


def _run_simplex(tableau, basis, ncols):
    """Bland's rule iteration to the optimum on a tableau whose last row is
    the objective (stored negated, maximization); each row ends in its rhs
    and denominator.  An improving column with no positive entry raises:
    neither phase of the membership LP is unbounded."""
    m = len(tableau) - 1
    while True:
        obj = tableau[m]
        for col in range(ncols):
            if obj[col] < 0:
                break
        else:
            return
        rows = [r for r in range(m) if tableau[r][col] > 0]
        if not rows:
            raise RuntimeError(f"the membership LP is unbounded in column {col}")
        # the least ratio rhs / a, cross-multiplied; ties to the lowest-index basic variable
        row = rows[0]
        for r in rows[1:]:
            d = tableau[r][-2] * tableau[row][col] - tableau[row][-2] * tableau[r][col]
            if d < 0 or d == 0 and basis[r] < basis[row]:
                row = r
        _pivot(tableau, basis, row, col)


def solve_equality_lp(rows):
    """Maximize t = v[-2] - v[-1] subject to A v = b, v >= 0, exactly.

    `rows` are the integer rows [*A_i, b_i] with b_i >= 0; returns (v, t)
    as Fractions.  A v = b with no solution v >= 0 raises RuntimeError: the
    Hall flow placed the point in the polytope, so the LP must be feasible.
    """
    m, n = len(rows), len(rows[0]) - 1
    # phase 1: one artificial variable per row, every row over denominator 1
    tableau = [row[:n] + [int(k == i) for k in range(m)] + [row[n], 1]
               for i, row in enumerate(rows)]
    # minimize sum of artificials == maximize -sum: -(column sums), 0 on the artificials
    basis = [n + i for i in range(m)]
    tableau.append(_priced([0] * n + [1] * m + [0, 1], tableau, basis))
    _run_simplex(tableau, basis, n + m)
    if tableau[m][-2] != 0:
        raise RuntimeError("the membership LP is infeasible, although the Hall flow "
                           "placed the point in the polytope")

    # drive leftover artificials out of the basis; drop redundant rows
    keep = []
    for r in range(m):
        if basis[r] >= n:
            for col in range(n):
                if tableau[r][col] != 0:
                    _pivot(tableau, basis, r, col)
                    break
            else:
                continue  # redundant constraint
        keep.append(r)

    rows2 = [_reduced(tableau[r][:n] + tableau[r][-2:]) for r in keep]
    basis2 = [basis[r] for r in keep]

    # phase 2: maximize v[-2] - v[-1], stored negated and reduced through the basis
    rows2.append(_priced([0] * (n - 2) + [-1, 1, 0, 1], rows2, basis2))
    _run_simplex(rows2, basis2, n)

    v = [Fraction(0)] * n
    for r, bcol in enumerate(basis2):
        v[bcol] = Fraction(rows2[r][-2], rows2[r][-1])
    return v, Fraction(rows2[-1][-2], rows2[-1][-1])


# ---------------------------------------------------------------------------
# membership certificates
# ---------------------------------------------------------------------------

def positive_certificate(z: IncidenceMatrix, x) -> MembershipCertificate:
    """Classify x against the convex hull of the columns of z.

    The Hall flow on the counts D x (D the least common denominator of x)
    over z's skeleton decides whether x is exterior.  Inside, the simplex
    solves max t s.t. 2Z c = 2 D x, c >= t on the same counts, put in
    standard form by c_j = s_j + t with s >= 0 and t = tp - tm, and its
    solution over D is the certificate.  An x of the wrong length, with a
    negative entry or not summing to 1 raises ValueError; an entry that is
    no exact rational (`model._as_fraction`), a bool say, raises TypeError.
    """
    q, nf = z.shape
    xs = tuple([_as_fraction(v) for v in x])  # from lists: see `model`
    if len(xs) != q:
        raise ValueError(f"x has {len(xs)} entries, incidence matrix has {q} rows")
    if sum(xs) != 1:
        raise ValueError("x must sum to exactly 1")
    if min(xs) < 0:
        raise ValueError("x must be nonnegative")
    scale = math.lcm(*[v.denominator for v in xs])
    counts = [int(v * scale) for v in xs]
    a = hall_violator(z.skeleton, counts)
    if a is not None:
        reached = {k for e in z.edge_order for i, k in (e, e[::-1]) if i in a}
        if sum(counts[k] for k in reached) >= sum(counts[i] for i in a):
            raise RuntimeError(f"Hall set {sorted(a)} violates nothing on counts {counts}")
        return MembershipCertificate(violator=a)

    # t's columns are +-2Z 1 (a block's pair degree, plus 2 if it is looped)
    # and the rhs 2 D x, so v and t are D times those of Z c = x
    rows = [row + [sum(row), -sum(row), 2 * k] for row, k in zip(z.doubled_rows(), counts)]
    v, t = solve_equality_lp(rows)
    # c = (v + t) / D and the margin t / D over one denominator L D, L the
    # lcm of v's and t's: their numerators are cn and tn
    den = math.lcm(t.denominator, *[f.denominator for f in v])
    tn = t.numerator * (den // t.denominator)
    # the flow found some c >= 0, so t = min c >= 0 is feasible, and t <= 1/|F|
    if tn < 0:
        raise RuntimeError(f"x is in the polytope, but the membership LP reads t* = {t / scale}")
    cn = [f.numerator * (den // f.denominator) + tn for f in v[:nf]]
    # internal exactness checks, in integers: 2Z cn = 2 L counts, sum = L D, min = tn
    if (doubled_edge_sum(q, z.edge_order, cn) != [2 * den * k for k in counts]
            or sum(cn) != den * scale or min(cn) != tn):
        raise RuntimeError("membership certificate fails Z c = x, sum c = 1 or min c = t")
    whole = den * scale
    return MembershipCertificate(tuple([Fraction(c, whole) for c in cn]), Fraction(tn, whole))


def extremal_generators(s: SkeletonGraph) -> tuple[int, ...]:
    """Column indices of the hull's extremal generators: all loops plus the
    pair edges not joining two looped nodes."""
    f2 = s.f2_edges
    return tuple([k for k, (a, b) in enumerate(edge_order(s)) if a == b or (a, b) in f2])


def hall_violator(s: SkeletonGraph, counts) -> frozenset[int] | None:
    """The inclusion-minimal block set A of largest deficiency
    counts(A) - counts(N(A)) when that deficiency is positive, else None.

    `counts` are nonnegative integers, one per block, by `model`'s integer
    rule; N(A) is A's neighbourhood in s, a looped block its own
    neighbour.  Such a set exists exactly when counts / sum(counts) is
    exterior: a point of the polytope is Z c = x with c >= 0; giving half
    of each pair edge's coefficient to (i, j) and half to (j, i) makes a
    nonnegative matrix on s's support with row and column sums x, and
    symmetrizing such a matrix gives c.  So one integer max-flow on s's
    double cover decides it: source -> i with capacity counts[i], i -> q+j
    uncapped when s supports (i, j), q+j -> sink with capacity counts[j].
    The flow saturates the source exactly when no set violates.  Otherwise
    the blocks reachable from the source in the residual network are the
    blocks of the inclusion-minimal minimum cut's source side; a source
    side holding the blocks A costs at least total - counts(A) +
    counts(N(A)), and exactly that with the copies of N(A), so they are the
    set above.

    The flow starts from a greedy one: the arcs i -> q+j, walked in edge
    order, each carry min(i's unused supply, j's unused demand), and
    Edmonds-Karp augments only the remainder.  The set cannot change with
    the starting flow: every maximum flow leaves the same nodes reachable
    from the source in its residual network.
    """
    q = s.node_count
    counts = [as_int(c, "counts") for c in counts]
    if len(counts) != q:
        raise ValueError(f"{len(counts)} counts for a skeleton on {q} blocks")
    if min(counts, default=0) < 0:
        raise ValueError("counts must be nonnegative")
    total = sum(counts)
    src, dst = 2 * q, 2 * q + 1
    net = MaxFlow(2 * q + 2)
    supply, demand = [], []
    for i in range(q):
        supply.append(net.add(src, i, counts[i]))
        demand.append(net.add(q + i, dst, counts[i]))
    seeded = 0
    for i, j in edge_order(s):  # uncapped: no arc carries more than the total
        for a, b in ((i, j), (j, i)) if i != j else ((i, i),):
            arc = net.add(a, q + b, total)
            push = min(net.cap[supply[a]], net.cap[demand[b]])
            if push:
                net.push((supply[a], arc, demand[b]), push)
                seeded += push
    if seeded + net.run(src, dst) == total:
        return None
    side = net.source_side(src)
    return frozenset(i for i in range(q) if side[i])
