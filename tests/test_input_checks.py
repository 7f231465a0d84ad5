"""Input checks that no behaviour test reaches: each bad input raises the
documented exception with a message naming what is wrong."""

from fractions import Fraction as F

import numpy as np
import pytest

from hamdec.construct import (
    BlockCycle,
    ConstructionError,
    block_cycles,
    build_balanced_matrix,
    matrix_round,
    round_even,
)
from hamdec.model import Partition, SkeletonGraph, incidence, step_graphon
from hamdec.polytope import positive_certificate
from hamdec.realize import oracle_exists, realize
from hamdec.refine import pull_certificate, push_certificate, refine_once
from hamdec.sampling import BalancedMatrix, SampledGraph, empirical_concentration

HALF = F(1, 2)
PAIR = SkeletonGraph(2, frozenset({0, 1}), frozenset({(0, 1)}))
LOOP = SkeletonGraph(1, frozenset({0}), frozenset())
CENTRE = positive_certificate(incidence(PAIR), (HALF, HALF))
# ER-1/2 split at 1/4: one loop becomes two loops and their connecting edge
SPLIT = refine_once(step_graphon([0, 1], [[HALF]]), 0, F(1, 4))


def _edgeless(blocks):
    n = len(blocks)
    return SampledGraph.from_edges(n, np.zeros(n), np.array(blocks), [])


CASES = {
    "block cycle of one block": (
        lambda: BlockCycle((0,)), ValueError, "at least two blocks"),
    "block cycle repeating a block": (
        lambda: BlockCycle((0, 1, 0)), ValueError, "must not repeat blocks"),
    "round_even at n = 0": (
        lambda: round_even((F(1),), 0), ValueError, "n must be positive"),
    "matrix_round with a fractional column sum": (
        lambda: matrix_round([[HALF, HALF], [0, 1]], PAIR), ValueError, "column 0 sum 1/2 is not an integer"),
    "tally of an x with too few entries": (
        lambda: build_balanced_matrix((F(1),), 2, PAIR, CENTRE), ValueError, "one entry per block"),
    "tally at n = 0": (
        lambda: build_balanced_matrix((HALF, HALF), 0, PAIR, CENTRE), ValueError, "n must be positive"),
    "tally on one looped block at odd n": (
        lambda: build_balanced_matrix((F(1),), 3, LOOP, positive_certificate(incidence(LOOP), (F(1),))),
        ConstructionError, "loopless-membership: pair mass left but the skeleton has no pair edges"),
    "block cycles of an odd loop diagonal": (
        lambda: block_cycles(BalancedMatrix(((1,),)), LOOP), ValueError, "diagonal tally at 0 must be even"),
    "partition of one breakpoint": (
        lambda: Partition((0,)), ValueError, "at least two breakpoints"),
    "block of the point 1": (
        lambda: Partition((0, 1)).block_of(1), ValueError, r"\[0, 1\)"),
    "graphon values of the wrong shape": (
        lambda: step_graphon([0, HALF, 1], [[0]]), ValueError, "2x2 matrix"),
    "graphon value above 1": (
        lambda: step_graphon([0, 1], [[F(3, 2)]]), ValueError, r"values\[0\]\[0\] outside \[0, 1\]"),
    "skeleton of no nodes": (
        lambda: SkeletonGraph(0, frozenset(), frozenset()), ValueError, "at least one node"),
    "skeleton loop out of range": (
        lambda: SkeletonGraph(2, frozenset({2}), frozenset()), ValueError, "loop node 2 out of range"),
    "skeleton edge not ordered": (
        lambda: SkeletonGraph(2, frozenset(), frozenset({(1, 0)})), ValueError, "0 <= i < j < q"),
    "skeleton edge out of range": (
        lambda: SkeletonGraph(2, frozenset(), frozenset({(0, 2)})), ValueError, "0 <= i < j < q"),
    "oracle arc out of range": (
        lambda: oracle_exists(2, [(0, 1), (1, 2)]), ValueError, r"arc \(1,2\) out of range"),
    "realize a tally of other block sizes": (
        lambda: realize(BalancedMatrix(((2,),)), _edgeless([0, 0, 0]), LOOP, 0),
        ValueError, "tally block sizes do not match"),
    "push a certificate of the wrong length": (
        lambda: push_certificate((HALF, HALF), SPLIT), ValueError, "original edge set"),
    "pull a certificate of the wrong length": (
        lambda: pull_certificate((F(1),), SPLIT), ValueError, "refined edge set"),
    "non-square tally": (
        lambda: BalancedMatrix(((1, 0),)), ValueError, "must be square"),
    "negative tally": (
        lambda: BalancedMatrix(((-1,),)), ValueError, "must be nonnegative"),
    "concentration over too few blocks": (
        lambda: empirical_concentration(_edgeless([0, 1]), 1), ValueError, "block index out of range"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_raises(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message):
        call()
