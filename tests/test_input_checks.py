"""Checks that no behaviour test reaches.

Each bad input raises the documented exception with a message naming what
is wrong.  Every integer a caller hands the package follows `model`'s one
integer rule: an int or a numpy integer is accepted, and a bool or a
float, integral or not, raises ValueError.  That covers counts (n, trials,
jobs, which must also be at least 1), seeds, nodes, block labels and
tally entries alike; a graph file's integer fields raise FormatError.
Every rational argument goes through `model._as_fraction`, so a bool or a
Decimal raises TypeError wherever a rational is read, and a coordinate
that is not in [0, 1) (NaN included) raises ValueError.
Each internal invariant check raises RuntimeError once a monkeypatch
breaks what it checks.
"""

import importlib
import json
import tempfile
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import hamdec.polytope
import hamdec.refine
from hamdec.construct import (
    BlockCycle,
    ConstructionError,
    HamDecomposition,
    block_cycles,
    build_balanced_matrix,
    canonical_blocks,
    matrix_round,
    round_even,
    split_mass,
)
from hamdec.driver import montecarlo
from hamdec.flow import MaxFlow
from hamdec.io import FormatError, load_graph
from hamdec.model import Partition, SkeletonGraph, incidence, int_array, step_graphon
from hamdec.polytope import positive_certificate
from hamdec.realize import graph_has_decomposition, max_bipartite_matching, oracle_exists, realize
from hamdec.refine import (
    RefinementRecord,
    ensure_loopless_odd_cycle,
    pull_certificate,
    push_certificate,
    refine_once,
)
from hamdec.sampling import (
    BalancedMatrix,
    SampledGraph,
    count_block_edges,
    empirical_concentration,
    sample_graph,
)

REALIZE_MODULE = importlib.import_module("hamdec.realize")  # `hamdec.realize` is the function

HALF = F(1, 2)
ER_HALF = step_graphon([0, 1], [[HALF]])
PAIR = SkeletonGraph(2, frozenset({0, 1}), frozenset({(0, 1)}))
LOOP = SkeletonGraph(1, frozenset({0}), frozenset())
TRIANGLE = SkeletonGraph(3, frozenset(), frozenset({(0, 1), (0, 2), (1, 2)}))
CENTRE = positive_certificate(incidence(PAIR), (HALF, HALF))
LOOP_CERTIFICATE = positive_certificate(incidence(LOOP), (F(1),))
# ER-1/2 split at 1/4: one loop becomes two loops and their connecting edge
SPLIT = refine_once(ER_HALF, 0, F(1, 4))
SPLIT_CERTIFICATE = push_certificate((F(1),), SPLIT)


def _edgeless(blocks):
    n = len(blocks)
    return SampledGraph.from_edges(n, np.zeros(n), np.array(blocks), [])


ONE_EDGE = SampledGraph.from_edges(3, np.zeros(3), np.zeros(3, dtype=int), [(0, 1)])
TWO_CYCLE = HamDecomposition(2, ((0, 1),))


def _load_graph_doc(**fields):
    """load_graph on a two-node graph file with the given fields replaced."""
    doc = {"n": 2, "coords": [0.1, 0.7], "blocks": [0, 1], "edges": [[0, 1]], **fields}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        path.write_text(json.dumps(doc))
        return load_graph(path)


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
    "round_even at n = 3.0": (
        lambda: round_even((F(1),), 3.0), ValueError, "n: 3.0 is not an integer"),
    "tally at n = 3.0": (
        lambda: build_balanced_matrix((HALF, HALF), 3.0, PAIR, CENTRE), ValueError, "n: 3.0 is not an integer"),
    "sample at n = 2.5": (
        lambda: sample_graph(ER_HALF, 2.5, 1), ValueError, "n: 2.5 is not an integer"),
    "sample at n = 3.0": (
        lambda: sample_graph(ER_HALF, 3.0, 1), ValueError, "n: 3.0 is not an integer"),
    "sample at n = True": (
        lambda: sample_graph(ER_HALF, True, 1), ValueError, "n: True is not an integer"),
    "graph of n = 2.0 nodes": (
        lambda: SampledGraph.from_edges(2.0, np.zeros(2), np.zeros(2, dtype=int), []),
        ValueError, "n: 2.0 is not an integer"),
    "matching of a non-integer node": (
        lambda: max_bipartite_matching(_edgeless([0, 0]), [0.5], [1]), ValueError, "rows: 0.5 is not an integer"),
    "edge test of a non-integer node": (
        lambda: ONE_EDGE.has_edges([0.5], [1]), ValueError, "endpoints: 0.5 is not an integer"),
    "edge test of a bool node": (
        lambda: ONE_EDGE.has_edges([True], [0]), ValueError, "endpoints: True is not an integer"),
    "single edge test of non-integer nodes": (
        lambda: ONE_EDGE.has_edge(0.9, 1.2), ValueError, "endpoints: 0.9 is not an integer"),
    "neighbours of a bool node": (
        lambda: ONE_EDGE.neighbors(True), ValueError, "node: True is not an integer"),
    "neighbours of a non-integer node": (
        lambda: ONE_EDGE.neighbors(1.5), ValueError, "node: 1.5 is not an integer"),
    "neighbours of a node out of range": (
        lambda: ONE_EDGE.neighbors(3), ValueError, "node 3 is not a node of the graph"),
    # each of these was truncated, read True as 1 or ran on the parent commit
    "tally of non-integral entries": (
        lambda: BalancedMatrix(((1.5, 0), (0, 1.5))), ValueError, "tally entries: 1.5 is not an integer"),
    "decomposition of non-integral nodes": (
        lambda: HamDecomposition(2, ((0.7, 1.2),)), ValueError, "cycle nodes: 0.7 is not an integer"),
    "decomposition of a float n": (
        lambda: HamDecomposition(2.0, ((0, 1),)), ValueError, "n: 2.0 is not an integer"),
    "block cycle of a non-integral block": (
        lambda: BlockCycle((0, 1.5)), ValueError, "block cycle nodes: 1.5 is not an integer"),
    "oracle of non-integral arcs": (
        lambda: oracle_exists(2, [(0.9, 1.5), (1, 0)]), ValueError, "arc ends: 0.9 is not an integer"),
    "oracle of a bool n": (
        lambda: oracle_exists(True, []), ValueError, "n: True is not an integer"),
    "matching of a bool among int nodes": (
        lambda: max_bipartite_matching(_edgeless([0, 0, 0, 0]), [0, True], [2, 3]),
        ValueError, "rows: True is not an integer"),
    "matching of a bool array": (
        lambda: max_bipartite_matching(_edgeless([0, 0, 0]), np.array([True]), [2]),
        ValueError, "rows: bool entries are not integers"),
    "tally of a decomposition under non-integral labels": (
        lambda: count_block_edges(TWO_CYCLE, [0.9, 1.2], PAIR), ValueError, "block labels: 0.9 is not an integer"),
    "Hall set of non-integral nodes": (
        lambda: graph_has_decomposition(ONE_EDGE, [0.5, 1.5]), ValueError, "nodes: 0.5 is not an integer"),
    "skeleton of 2.5 nodes": (
        lambda: SkeletonGraph(2.5, frozenset(), frozenset()), ValueError, "node count: 2.5 is not an integer"),
    "skeleton of True nodes": (
        lambda: SkeletonGraph(True, frozenset({0}), frozenset()), ValueError, "node count: True is not an integer"),
    "skeleton of a bool loop": (
        lambda: SkeletonGraph(2, frozenset({True}), frozenset()), ValueError, "loop nodes: True is not an integer"),
    "skeleton of a float edge": (
        lambda: SkeletonGraph(2, frozenset(), frozenset({(0, 1.0)})), ValueError, "edge ends: 1.0 is not an integer"),
    "refinement of block True": (
        lambda: refine_once(ER_HALF, True, "3/4"), ValueError, "block: True is not an integer"),
    "Monte Carlo of seed True": (
        lambda: montecarlo(ER_HALF, 10, 1, True), ValueError, "seed: True is not an integer"),
    "Monte Carlo of seed 1.0": (
        lambda: montecarlo(ER_HALF, 10, 1, 1.0), ValueError, "seed: 1.0 is not an integer"),
    "graph of a bool among the block labels": (
        lambda: SampledGraph.from_edges(2, np.zeros(2), [0, True], []), ValueError, "block labels: True is not"),
    "graph of float block labels": (
        lambda: SampledGraph.from_edges(2, np.zeros(2), np.array([0.0, 1.0]), []),
        ValueError, "block labels: float64 entries are not integers"),
    "graph of an edge end beyond 64 bits": (
        lambda: SampledGraph.from_edges(2, np.zeros(2), [0, 0], [[0, 2**70]]),
        ValueError, "edge endpoints: object entries are not integers"),
    "concentration over 2.0 blocks": (
        lambda: empirical_concentration(_edgeless([0, 1]), 2.0), ValueError, "q: 2.0 is not an integer"),
    "canonical blocks of a non-integral size": (
        lambda: canonical_blocks([1.5]), ValueError, "block sizes: 1.5 is not an integer"),
    "graph file with a bool among the block labels": (
        lambda: _load_graph_doc(blocks=[0, True]), FormatError, "block labels: True is not an integer"),
    "graph file with a non-integral edge end": (
        lambda: _load_graph_doc(edges=[[0, 1.5]]), FormatError, "edge endpoints: 1.5 is not an integer"),
    # each of these wrapped to a negative integer or ran on the parent commit
    "integer list holding 10**19": (
        lambda: int_array([10**19], "x"), ValueError, "x: 10000000000000000000 is beyond int64"),
    "uint64 array holding 2**63": (
        lambda: int_array(np.array([2**63], dtype=np.uint64), "x"), ValueError, "x: 9223372036854775808 is beyond"),
    "graph of a NaN coordinate": (
        lambda: SampledGraph.from_edges(2, [np.nan, 0.5], [0, 0], [[0, 1]]), ValueError, r"coords must lie in \[0, 1\)"),
    "graph of a coordinate of 7.5": (
        lambda: SampledGraph.from_edges(2, [0.5, 7.5], [0, 0], [[0, 1]]), ValueError, r"coords must lie in \[0, 1\)"),
    "graph of a coordinate of 1": (
        lambda: SampledGraph(1, [1.0], [0], np.zeros((1, 1), dtype=np.uint8)), ValueError, "coords must lie"),
    "graph file with a NaN and a negative coordinate": (
        lambda: _load_graph_doc(coords=[float("nan"), -3.0]), FormatError, r"coords must lie in \[0, 1\)"),
    "tally of a bool x": (
        lambda: build_balanced_matrix([True], 2, LOOP, LOOP_CERTIFICATE), TypeError, "cannot interpret True"),
    "tally of a Decimal x": (
        lambda: build_balanced_matrix([Decimal(1)], 2, LOOP, LOOP_CERTIFICATE), TypeError, "cannot interpret Decimal"),
    "mass split of a bool x": (
        lambda: split_mass((True,), LOOP_CERTIFICATE, LOOP), TypeError, "cannot interpret True"),
    "even rounding of a Decimal": (
        lambda: round_even((Decimal("0.5"),), 2), TypeError, "cannot interpret Decimal"),
    "matrix rounding of a bool entry": (
        lambda: matrix_round([[True]], LOOP), TypeError, "cannot interpret True"),
    "push of a bool coefficient": (
        lambda: push_certificate((True,), SPLIT), TypeError, "cannot interpret True"),
    "pull of Decimal coefficients": (
        lambda: pull_certificate((Decimal("0.25"), Decimal("0.75"), Decimal(0)), SPLIT),
        TypeError, "cannot interpret Decimal"),
    "Z c of a Decimal coefficient": (
        lambda: incidence(LOOP).apply([Decimal(1)]), TypeError, "cannot interpret Decimal"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_raises(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message):
        call()


def _lp_reading(real, t_of, v_of=lambda v: v):
    """`solve_equality_lp` whose (v, t) pass through the given maps."""

    def solve(rows):
        v, t = real(rows)
        return v_of(v), t_of(t)

    return solve


def _first_image_only(real):
    """`_edge_images` that keeps only each edge's first image, so a split
    edge's coefficient loses its other copies' share."""
    return lambda rec: [images[:1] for images in real(rec)]


INVARIANT_BREAKS = {
    "rounding flow that does not saturate": (
        MaxFlow, "run", lambda real: lambda self, src, dst: 0,
        lambda: matrix_round([[0, HALF, HALF], [HALF, 0, HALF], [HALF, HALF, 0]], TRIANGLE),
        "did not saturate"),
    "membership LP with a negative margin": (
        hamdec.polytope, "solve_equality_lp", lambda real: _lp_reading(real, lambda t: -t - 1),
        lambda: positive_certificate(incidence(TRIANGLE), (F(1, 3),) * 3),
        r"membership LP reads t\* = -"),
    "membership LP solution off Z c = x": (
        hamdec.polytope, "solve_equality_lp",
        lambda real: _lp_reading(real, lambda t: t, lambda v: [v[0] + 1] + v[1:]),
        lambda: positive_certificate(incidence(TRIANGLE), (F(1, 3),) * 3),
        "fails Z c = x"),
    "realized tally off the plan": (
        REALIZE_MODULE, "count_block_edges", lambda real: lambda h, blocks, s: BalancedMatrix(((0,),)),
        lambda: realize(BalancedMatrix(((2,),)), SampledGraph.from_edges(
            2, np.zeros(2), np.zeros(2, dtype=int), [(0, 1)]), LOOP, 0),
        "does not reproduce the tally plan"),
    "pushed certificate off the refined system": (
        hamdec.refine, "_edge_images", _first_image_only,
        lambda: push_certificate((F(1),), SPLIT),
        "pushed certificate fails the refined system"),
    "pulled certificate off the original system": (
        hamdec.refine, "_edge_images", _first_image_only,
        lambda: pull_certificate(SPLIT_CERTIFICATE, SPLIT),
        "pulled certificate fails the original system"),
    "refinement that splits nothing": (
        hamdec.refine, "refine_once", lambda real: lambda w, block, t: RefinementRecord(block, t, w, w),
        lambda: ensure_loopless_odd_cycle(ER_HALF),
        "two refinements did not produce a loopless odd cycle"),
}


@pytest.mark.parametrize("case", sorted(INVARIANT_BREAKS))
def test_broken_invariant_raises(monkeypatch, case):
    owner, name, break_it, call, message = INVARIANT_BREAKS[case]
    call()  # unbroken, the call passes its check
    monkeypatch.setattr(owner, name, break_it(getattr(owner, name)))
    with pytest.raises(RuntimeError, match=message):
        call()
