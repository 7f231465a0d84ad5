"""Exact membership tests for edge polytopes.

The edge polytope of a skeleton graph is the convex hull of the incidence
matrix columns.  A point x (summing to 1) lies in the relative interior of
that hull iff it admits a representation Z c = x with c strictly positive;
on the boundary iff the best achievable min-coefficient is exactly zero.

We decide this with one exact-rational linear program per query:

    maximize t   subject to   Z c = x,  c >= t 1

(the constraint sum(c) = 1 is implied because every column of Z sums to
1).  The optimum t* is the certificate margin: t* > 0 interior, t* = 0
boundary, infeasible or t* < 0 exterior, so a certificate's status is the
sign of t*; condition B (`driver.analyze`) is this query for a graphon's
concentration vector.  The LP is solved by a dense two-phase primal
simplex over `fractions.Fraction` with Bland's rule; problem sizes here
are tiny (q <= ~32, |F| <= ~500), so exactness beats speed.

Exterior points also have a combinatorial witness that trusts no simplex:
x lies in the polytope exactly when x(N(A)) >= x(A) for every block set A,
N(A) being A's neighbourhood in the skeleton with a looped block its own
neighbour (Gale's supply-demand theorem).  `hall_violator` finds a set
breaking that inequality, or shows there is none, with one integer
max-flow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .flow import MaxFlow
from .model import IncidenceMatrix, SkeletonGraph, edge_order

ZERO = Fraction(0)
ONE = Fraction(1)


class Membership(str, enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of a membership query.

    For interior/boundary points, `coefficients` is an exact solution of
    Z c = x with sum 1 and min entry equal to `margin`; an exterior point
    carries neither.  The status is the sign of the margin.
    """

    coefficients: tuple[Fraction, ...] | None = None
    margin: Fraction | None = None

    def __post_init__(self):
        if (self.coefficients is None) != (self.margin is None):
            raise ValueError("coefficients and margin come together")
        if self.margin is not None and self.margin < 0:
            raise ValueError("margin must be nonnegative")

    @property
    def status(self) -> Membership:
        if self.margin is None:
            return Membership.EXTERIOR
        return Membership.INTERIOR if self.margin > 0 else Membership.BOUNDARY


# ---------------------------------------------------------------------------
# exact two-phase simplex, standard form: maximize c.v s.t. A v = b, v >= 0
# ---------------------------------------------------------------------------

def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    inv = ONE / piv
    tableau[row] = [a * inv for a in tableau[row]]
    for r in range(len(tableau)):
        if r != row and tableau[r][col] != 0:
            factor = tableau[r][col]
            prow = tableau[row]
            tableau[r] = [a - factor * p for a, p in zip(tableau[r], prow)]
    basis[row] = col


def _run_simplex(tableau, basis, ncols):
    """Bland's rule iteration on a tableau whose last row is the objective
    (stored negated, maximization) and last column the rhs."""
    m = len(tableau) - 1
    while True:
        obj = tableau[m]
        for col in range(ncols):
            if obj[col] < 0:
                break
        else:
            return True  # optimal
        rows = [r for r in range(m) if tableau[r][col] > 0]
        if not rows:
            return False  # unbounded
        # the least ratio, ties to the lowest-index basic variable
        row = min(rows, key=lambda r: (tableau[r][-1] / tableau[r][col], basis[r]))
        _pivot(tableau, basis, row, col)


def solve_equality_lp(a_rows, b, objective):
    """Maximize objective . v subject to a_rows v = b, v >= 0.

    Returns (status, v, value) with status one of "optimal", "infeasible",
    "unbounded".  All arithmetic is exact.
    """
    m = len(a_rows)
    n = len(objective)
    rows = [list(map(Fraction, r)) for r in a_rows]
    rhs = list(map(Fraction, b))
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-a for a in rows[i]]
            rhs[i] = -rhs[i]

    # phase 1: artificial variable per row
    ncols = n + m
    tableau = []
    for i in range(m):
        row = rows[i] + [ZERO] * m + [rhs[i]]
        row[n + i] = ONE
        tableau.append(row)
    cost = [ZERO] * (ncols + 1)
    for i in range(m):  # minimize sum of artificials == maximize -sum
        for j in range(ncols + 1):
            cost[j] -= tableau[i][j]
    for i in range(m):
        cost[n + i] = ZERO
    tableau.append(cost)
    basis = [n + i for i in range(m)]
    _run_simplex(tableau, basis, ncols)
    if tableau[m][-1] != 0:
        return "infeasible", None, None

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

    rows2 = [tableau[r][:n] + [tableau[r][-1]] for r in keep]
    basis2 = [basis[r] for r in keep]

    # phase 2: restore the real objective, reduced through the basis
    cost = [-Fraction(cj) for cj in objective] + [ZERO]
    for r, bcol in enumerate(basis2):
        if cost[bcol] != 0:
            factor = cost[bcol]
            cost = [a - factor * p for a, p in zip(cost, rows2[r])]
    rows2.append(cost)
    if not _run_simplex(rows2, basis2, n):
        return "unbounded", None, None

    v = [ZERO] * n
    m2 = len(rows2) - 1
    for r in range(m2):
        v[basis2[r]] = rows2[r][-1]
    return "optimal", v, rows2[m2][-1]


# ---------------------------------------------------------------------------
# membership certificates
# ---------------------------------------------------------------------------

def positive_certificate(z: IncidenceMatrix, x) -> MembershipCertificate:
    """Classify x against the convex hull of the columns of z.

    Solves max t s.t. Z c = x, c >= t.  Writing c_j = s_j + t with s >= 0
    and t = tp - tm puts the program in standard form.  A point admits an
    all-positive coefficient vector iff it lies in the relative interior
    of the hull.
    """
    q, nf = z.shape
    xs = tuple(Fraction(v) for v in x)
    if len(xs) != q:
        raise ValueError(f"x has {len(xs)} entries, incidence matrix has {q} rows")
    if sum(xs) != 1:
        raise ValueError("x must sum to exactly 1")
    if nf == 0:
        return MembershipCertificate()

    rowsum = [sum(z.entries[i][j] for j in range(nf)) for i in range(q)]
    a_rows = []
    for i in range(q):
        a_rows.append(list(z.entries[i]) + [rowsum[i], -rowsum[i]])
    objective = [ZERO] * nf + [ONE, -ONE]
    status, v, value = solve_equality_lp(a_rows, xs, objective)
    if status == "infeasible":
        return MembershipCertificate()
    if status != "optimal":  # cannot happen: t <= 1/|F| bounds the objective
        raise RuntimeError("membership LP unbounded")
    t = value
    if t < 0:
        return MembershipCertificate()
    coeffs = tuple(v[j] + t for j in range(nf))
    # internal exactness checks, cheap at these sizes
    if z.apply(coeffs) != xs or sum(coeffs) != 1 or min(coeffs) != t:
        raise RuntimeError("membership certificate fails Z c = x, sum c = 1 or min c = t")
    return MembershipCertificate(coeffs, t)


def extremal_generators(s: SkeletonGraph) -> tuple[int, ...]:
    """Column indices of the hull's extremal generators: all loops plus the
    pair edges not joining two looped nodes."""
    f2 = s.f2_edges
    out = []
    for idx, (a, b) in enumerate(edge_order(s)):
        if a == b or (a, b) in f2:
            out.append(idx)
    return tuple(out)


def hall_violator(s: SkeletonGraph, counts) -> frozenset[int] | None:
    """A block set A with counts(N(A)) < counts(A), or None if there is none.

    `counts` are nonnegative integers, one per block; N(A) is A's
    neighbourhood in s, a looped block its own neighbour.  Such a set exists
    exactly when counts / sum(counts) is exterior: a point of the polytope is
    Z c = x with c >= 0; giving half of each pair edge's coefficient to
    (i, j) and half to (j, i) makes a nonnegative matrix on s's support with
    row and column sums x, and symmetrizing such a matrix gives c.  So one
    integer max-flow on s's double cover decides it: source -> i with
    capacity counts[i], i -> q+j uncapped when s supports (i, j), q+j -> sink
    with capacity counts[j].  The flow saturates the source exactly when no
    set violates; otherwise the blocks on a minimum cut's source side are
    one (their neighbours' copies all lie on that side, and the cut is
    smaller than the total).
    """
    q = s.node_count
    counts = [int(c) for c in counts]
    if len(counts) != q:
        raise ValueError(f"{len(counts)} counts for a skeleton on {q} blocks")
    if any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative")
    total = sum(counts)
    src, dst = 2 * q, 2 * q + 1
    net = MaxFlow(2 * q + 2)
    for i in range(q):
        net.add(src, i, counts[i])
        net.add(q + i, dst, counts[i])
        for j in range(q):
            if s.supports(i, j):
                net.add(i, q + j, total)  # uncapped: no arc carries more than the total
    if net.run(src, dst) == total:
        return None
    side = net.source_side(src)
    return frozenset(i for i in range(q) if side[i])
