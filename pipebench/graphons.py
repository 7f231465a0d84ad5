"""Inputs of the pipeline benchmark: fixed graphons and a seeded generator.

The generator draws q-block interior graphons.  It builds a connected
skeleton that contains a triangle, so the odd-cycle condition holds; it
picks positive integer weights c on the skeleton's edges and sets the
concentration vector to x = Z c / sum(c), so x is a strictly positive
combination of every generator of the edge polytope and lies in its
relative interior.  `check_interior` re-derives Z from the edge list and
checks Z c = x and c > 0 exactly, without the package's simplex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from hamdec.model import StepGraphon, step_graphon

HALF = Fraction(1, 2)
BLOCK_VALUES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
EXTRA_EDGE_SHARE = 0.15  # of the pairs outside the triangle and spanning tree
LOOP_SHARE = 0.3  # of the blocks

ER_HALF = step_graphon([0, 1], [[HALF]])
TRI_HALF = step_graphon(
    [0, Fraction(1, 3), Fraction(2, 3), 1],
    [[0, HALF, HALF], [HALF, 0, HALF], [HALF, HALF, 0]],
)
BIP_03 = step_graphon([0, Fraction(3, 10), 1], [[0, HALF], [HALF, 0]])


@dataclass(frozen=True)
class InteriorGraphon:
    """A generated graphon with the witness it was built from.

    `edges` follows the package's column order: loops (i, i) ascending,
    then pairs (i, j), i < j, lexicographic.  `weights` are the positive
    integers c, one per edge.
    """

    graphon: StepGraphon
    edges: tuple[tuple[int, int], ...]
    weights: tuple[int, ...]


def incidence_rows(q: int, edges) -> list[list[Fraction]]:
    """Z: a loop column is the indicator of its node, a pair column puts 1/2
    on each endpoint."""
    rows = [[Fraction(0)] * len(edges) for _ in range(q)]
    for k, (a, b) in enumerate(edges):
        if a == b:
            rows[a][k] = Fraction(1)
        else:
            rows[a][k] = rows[b][k] = HALF
    return rows


def concentration_of(w: StepGraphon) -> tuple[Fraction, ...]:
    bps = w.partition.breakpoints
    return tuple(b - a for a, b in zip(bps, bps[1:]))


def support_edges(w: StepGraphon) -> tuple[tuple[int, int], ...]:
    """The skeleton's edges in the package's column order."""
    q = w.q
    loops = tuple((i, i) for i in range(q) if w.values[i][i] > 0)
    pairs = tuple((i, j) for i in range(q) for j in range(i + 1, q) if w.values[i][j] > 0)
    return loops + pairs


def interior_graphon(q: int, seed: int) -> InteriorGraphon:
    """A seeded q-block graphon whose concentration vector is interior."""
    if q < 3:
        raise ValueError("q must be at least 3 to hold a triangle")
    rng = random.Random(seed)
    pairs = {(0, 1), (0, 2), (1, 2)}
    for v in range(3, q):
        pairs.add((rng.randrange(v), v))
    free = [(i, j) for i in range(q) for j in range(i + 1, q) if (i, j) not in pairs]
    pairs.update(rng.sample(free, round(EXTRA_EDGE_SHARE * len(free))))
    loops = sorted(rng.sample(range(q), round(LOOP_SHARE * q)))
    edges = tuple((i, i) for i in loops) + tuple(sorted(pairs))
    weights = tuple(rng.randint(1, 4) for _ in edges)
    total = sum(weights)
    z = incidence_rows(q, edges)
    x = [sum(zr[k] * weights[k] for k in range(len(edges))) / total for zr in z]
    bps = [Fraction(0)]
    for v in x:
        bps.append(bps[-1] + v)
    values = [[Fraction(0)] * q for _ in range(q)]
    for a, b in edges:
        values[a][b] = values[b][a] = rng.choice(BLOCK_VALUES)
    return InteriorGraphon(step_graphon(bps, values), edges, weights)


def check_interior(g: InteriorGraphon) -> list[str]:
    """Exact check that the graphon's x equals Z c / sum(c) with c > 0 and
    that its support is the recorded edge list.  Returns the failures."""
    w = g.graphon
    fails = []
    if support_edges(w) != g.edges:
        fails.append("block support differs from the recorded edges")
    if len(g.weights) != len(g.edges) or min(g.weights, default=0) <= 0:
        fails.append("weights are not one positive integer per edge")
        return fails
    total = sum(g.weights)
    x = concentration_of(w)
    for i, zr in enumerate(incidence_rows(w.q, g.edges)):
        if sum(zr[k] * g.weights[k] for k in range(len(g.edges))) != x[i] * total:
            fails.append(f"Z c != x at block {i}")
    return fails
