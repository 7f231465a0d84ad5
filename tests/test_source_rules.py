"""Rules on the package source that no single behaviour test can see.

Internal invariants are explicit checks that raise: `python -O` strips
`assert` statements, so one in the package would silently stop checking.

Maximum bipartite matching has one front end on a sampled graph,
`realize.max_bipartite_matching`; the existence oracle's
`realize._has_perfect_matching` is the only other place that runs
`_kernels.hopcroft_karp`, so a second inline matching path cannot return.
Likewise `polytope.positive_certificate` is the one caller of the Hall flow
`polytope.hall_violator` (the package root only re-exports it), so every
exterior verdict comes with its checked violator from one engine; and the
one caller of the simplex `polytope.solve_equality_lp`, so the package
solves one LP, the membership LP on the flow's integer counts, and no
general-LP front end can come back.

A sampled graph is its packed bit matrix: `SampledGraph` holds n, the
coordinates, the block labels and the matrix, and nothing else, so no edge
array or cache can come back beside the matrix.  The matrix's layout has
one home: no package module but `sampling` calls `.adjacency()` or reads
`.bits`, so the matching, the oracle and the Hall check take row masks and
neighbour counts from `SampledGraph` methods.  Likewise an incidence
matrix is a view of its skeleton: `IncidenceMatrix` holds the skeleton and
nothing else, and no package module reads an `.entries` attribute, so a
dense copy of Z cannot come back beside the edge order it is read from.

The package depends on numpy only.  Importing `scipy.sparse.csgraph` adds
~33 MB of resident memory and ~0.4 s of start-up, more than the pipeline
benchmark's bound on peak memory allows, and the package has no compiled
(numba) path, so it imports neither.
"""

import ast
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from hamdec.model import IncidenceMatrix, SkeletonGraph, incidence
from hamdec.sampling import SampledGraph

SRC = Path(__file__).resolve().parents[1] / "src" / "hamdec"
FORBIDDEN_IMPORTS = {"scipy", "numba"}


def test_no_assert_statements_in_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imported_roots(node):
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        return {node.module.split(".")[0]}
    return set()


def test_no_scipy_or_numba_imports_in_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if _imported_roots(node) & FORBIDDEN_IMPORTS
    ]
    assert found == []


def test_forbidden_import_detection():
    for src in ("import scipy", "import scipy.sparse as sp", "from numba import njit",
                "from scipy.sparse.csgraph import maximum_bipartite_matching"):
        assert _imported_roots(ast.parse(src).body[0]) & FORBIDDEN_IMPORTS
    for src in ("import numpy as np", "from . import _kernels", "from .scipy_like import x"):
        assert not _imported_roots(ast.parse(src).body[0]) & FORBIDDEN_IMPORTS


MATCHING_CALLERS = {
    "realize._has_perfect_matching",
    "realize.max_bipartite_matching",
}


CERTIFICATE_ENGINE_USERS = {
    "hall_violator": {"__init__.<module>", "polytope.positive_certificate"},
    "solve_equality_lp": {"polytope.positive_certificate"},
}


def _users(name: str, module: str, tree) -> set[str]:
    """`module.function` of every function that names `name`, called or
    not; a name at module level counts as `module.<module>`."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{module}.{node.name}"
        named = (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name
        ) or (
            isinstance(node, ast.alias) and node.name == name
        )
        if named:
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, f"{module}.<module>")
    return found


def _package_users(name: str) -> set[str]:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found |= _users(name, path.stem, tree)
    return found


def test_only_the_matching_front_ends_run_hopcroft_karp():
    assert _package_users("hopcroft_karp") == MATCHING_CALLERS


@pytest.mark.parametrize("name", sorted(CERTIFICATE_ENGINE_USERS))
def test_only_positive_certificate_runs_the_hall_flow(name):
    assert _package_users(name) == CERTIFICATE_ENGINE_USERS[name]


def test_hopcroft_karp_user_detection():
    src = """
from ._kernels import hopcroft_karp as hk
def f(g):
    return _kernels.hopcroft_karp(1, 1, *g)
def h():
    def inner():
        return hopcroft_karp
    return inner
"""
    assert _users("hopcroft_karp", "m", ast.parse(src)) == {"m.<module>", "m.f", "m.inner"}
    assert _users("hopcroft_karp", "m", ast.parse("def hopcroft_karp(): pass")) == set()


SAMPLED_GRAPH_FIELDS = ["n", "coords", "blocks", "bits"]


def test_sampled_graph_holds_only_the_matrix():
    assert [f.name for f in fields(SampledGraph)] == SAMPLED_GRAPH_FIELDS
    g = SampledGraph.from_edges(3, np.zeros(3), np.zeros(3, dtype=int), [[0, 2], [1, 2]])
    g.adjacency(), g.edges, g.edge_count, g.pair_set(), g.neighbors(2), g.has_edges([0], [1])
    assert sorted(vars(g)) == sorted(SAMPLED_GRAPH_FIELDS)  # nothing cached on use


def _attribute_reads(name: str) -> list[str]:
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == name
    ]


def test_only_sampling_reads_the_packed_matrix():
    reads = _attribute_reads("adjacency") + _attribute_reads("bits")
    assert [loc for loc in reads if not loc.startswith("sampling.py:")] == []
    assert reads  # the detection sees sampling's own reads


def test_incidence_matrix_holds_only_its_skeleton():
    assert [f.name for f in fields(IncidenceMatrix)] == ["skeleton"]
    z = incidence(SkeletonGraph(3, {1}, {(0, 1), (1, 2)}))
    z.edge_order, z.shape, z.apply([1, 1, 1]), z.doubled_rows()
    assert list(vars(z)) == ["skeleton"]  # nothing cached on use
    assert _attribute_reads("entries") == []
    assert _attribute_reads("skeleton")  # the detection sees attribute reads
