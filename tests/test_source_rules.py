"""Rules on the package source that no single behaviour test can see.

Internal invariants are explicit checks that raise: `python -O` strips
`assert` statements, so one in the package would silently stop checking.

Maximum bipartite matching has one front end on a sampled graph,
`realize.max_bipartite_matching`; the existence oracle's
`realize._has_perfect_matching` is the only other place that runs the
kernel `realize.hopcroft_karp`, so a second inline matching path cannot
return.
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
neighbour counts from `SampledGraph` methods; and none but `sampling`
calls `np.packbits` or `np.unpackbits`, so byte handling stays there and
phase 2's partner check works on row masks.  Likewise an incidence
matrix is a view of its skeleton: `IncidenceMatrix` holds the skeleton and
nothing else, and no package module reads an `.entries` attribute, so a
dense copy of Z cannot come back beside the edge order it is read from.

The retry budget of realization is one constant, `realize.ATTEMPTS`: no
package function takes an `attempts` parameter, nothing reads a value of
that name, and no module but `realize` names the constant, so the budget
cannot come back as a per-call knob.  And no top-level import of a package
module (the package root's re-exports aside) goes unread, which catches
what a removed parameter or helper leaves behind.

One integer rule holds for every integer a caller hands the package, and
it is stated in `model` alone (`model.as_int`, `model.int_array`): no other
package module tests a value against `bool`, `np.bool_`, `np.integer` or
`numbers.Integral`, so no module can grow its own answer to what an integer
argument is.

An expected stop has one kind, `construct.ConstructionError(stage, ...)`,
and its stages are listed once, in `construct.STAGES`.  So the package
defines no exception class but it, `DisconnectedSkeletonError` and
`FormatError`; every `ConstructionError(...)` names its stage as a literal
of `STAGES` (and each stage is named somewhere); and no `except` in
`driver`, `construct`, `realize` or `refine` catches `ValueError`,
`Exception`, `BaseException` or everything, so a bug's error cannot be
counted as a stop.

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

from hamdec.construct import STAGES
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
    for src in ("import numpy as np", "from . import realize", "from .scipy_like import x"):
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
from .realize import hopcroft_karp as hk
def f(g):
    return realize.hopcroft_karp(1, 1, *g)
def h():
    def inner():
        return hopcroft_karp
    return inner
"""
    assert _users("hopcroft_karp", "m", ast.parse(src)) == {"m.<module>", "m.f", "m.inner"}
    assert _users("hopcroft_karp", "m", ast.parse("def hopcroft_karp(): pass")) == set()


def _parameter_takers(name: str, module: str, tree) -> set[str]:
    """`module.function` of every function or lambda with a parameter `name`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            if any(p.arg == name for p in params):
                found.add(f"{module}.{getattr(node, 'name', '<lambda>')}")
    return found


def test_the_retry_budget_is_one_constant():
    takers = set()
    for path in sorted(SRC.glob("*.py")):
        takers |= _parameter_takers("attempts", path.stem, ast.parse(path.read_text(encoding="utf-8")))
    assert takers == set()
    assert _package_users("attempts") == set()
    assert {user.split(".")[0] for user in _package_users("ATTEMPTS")} == {"realize"}


def test_parameter_taker_detection():
    src = """
def f(g, attempts=3):
    pass
class A:
    def m(self, *, attempts):
        pass
k = lambda attempts: 0
def h(attempt, **kwargs):
    pass
"""
    assert _parameter_takers("attempts", "m", ast.parse(src)) == {"m.f", "m.m", "m.<lambda>"}


def _unread_imports(tree) -> list[str]:
    """The names a module's top-level imports bind that nothing in it reads."""
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(set(bound) - read)


def test_no_unread_imports_in_package_modules():
    found = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"  # the package root imports to re-export
        for name in _unread_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []


def test_unread_import_detection():
    src = """
from __future__ import annotations
import os.path
import numpy as np
from .model import check_count, skeleton as sk
from .realize import ATTEMPTS
def f(x: np.ndarray):
    ATTEMPTS = 1
    return sk(x)
"""
    assert _unread_imports(ast.parse(src)) == ["ATTEMPTS", "check_count", "os"]


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


BYTE_PACKERS = {"packbits", "unpackbits"}


def _byte_packing_calls(tree) -> list[int]:
    """Lines that call np.packbits or np.unpackbits, by any name."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _name(node.func) in BYTE_PACKERS
    ]


def test_only_sampling_packs_bytes():
    found = [f"{stem}.py:{line}" for stem, tree in _trees() for line in _byte_packing_calls(tree)]
    assert [loc for loc in found if not loc.startswith("sampling.py:")] == []
    assert found  # the detection sees sampling's own calls


def test_byte_packing_detection():
    src = """
import numpy as np
from numpy import unpackbits
a = np.packbits(x, axis=1)
b = unpackbits(y)
c = numpy.unpackbits(z, bitorder="little")
d = np.pack(x)
e = x.view(np.uint8)
"""
    assert _byte_packing_calls(ast.parse(src)) == [4, 5, 6]


def test_incidence_matrix_holds_only_its_skeleton():
    assert [f.name for f in fields(IncidenceMatrix)] == ["skeleton"]
    z = incidence(SkeletonGraph(3, {1}, {(0, 1), (1, 2)}))
    z.edge_order, z.shape, z.apply([1, 1, 1]), z.doubled_rows()
    assert list(vars(z)) == ["skeleton"]  # nothing cached on use
    assert _attribute_reads("entries") == []
    assert _attribute_reads("skeleton")  # the detection sees attribute reads


INTEGER_TYPES = {"bool_", "integer", "Integral"}  # np.bool_, np.integer, numbers.Integral


def _integer_type_tests(tree) -> list[int]:
    """Lines that name np.bool_, np.integer or numbers.Integral, or test a
    value against bool by isinstance, issubclass or a comparison."""
    found = []
    for node in ast.walk(tree):
        named = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "issubclass"):
            tested = [n for arg in node.args[1:] for n in ast.walk(arg)]
        elif isinstance(node, ast.Compare):
            tested = [node.left, *node.comparators]
        else:
            tested = []
        if named in INTEGER_TYPES and isinstance(node, (ast.Attribute, ast.Name, ast.alias)) or any(
            isinstance(t, ast.Name) and t.id == "bool" for t in tested
        ):
            found.append(node.lineno)
    return found


def test_only_model_states_the_integer_rule():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _integer_type_tests(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert [loc for loc in found if not loc.startswith("model.py:")] == []
    assert found  # the detection sees the rule itself


def test_integer_type_test_detection():
    for src in ("isinstance(v, bool)", "isinstance(v, (int, np.integer))", "issubclass(t, numbers.Integral)",
                "type(v) is bool", "a.dtype == np.bool_", "from numbers import Integral"):
        assert _integer_type_tests(ast.parse(src)), src
    for src in ("bool(x)", "np.zeros(3, dtype=bool)", "isinstance(v, int)", "x is None",
                "np.asarray(v, dtype=np.int64)"):
        assert not _integer_type_tests(ast.parse(src)), src


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _name(node) -> str | None:
    return getattr(node, "id", None) or getattr(node, "attr", None)


EXCEPTION_CLASSES = {"ConstructionError", "DisconnectedSkeletonError", "FormatError"}


def _exception_classes(tree) -> set[str]:
    """The classes defined on a base named like an exception class."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any((_name(b) or "").endswith(("Error", "Exception", "Warning")) for b in node.bases)
    }


def test_the_package_defines_three_exception_classes():
    assert set().union(*[_exception_classes(tree) for _, tree in _trees()]) == EXCEPTION_CLASSES


def test_exception_class_detection():
    src = """
class A(Exception): pass
class B(ValueError): pass
class C(errors.FormatError): pass
class D(BaseException, Mixin): pass
class E(UserWarning): pass
class F(object): pass
class G: pass
"""
    assert _exception_classes(ast.parse(src)) == {"A", "B", "C", "D", "E"}


BROAD_CATCHES = {"ValueError", "Exception", "BaseException"}
PIPELINE_MODULES = ("driver", "construct", "realize", "refine")


def _broad_catches(tree) -> list[int]:
    """Lines of `except` clauses that catch everything or a broad class."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and (node.type is None or {_name(n) for n in ast.walk(node.type)} & BROAD_CATCHES)
    ]


def test_the_pipeline_catches_no_broad_error():
    found = [f"{stem}.py:{line}" for stem, tree in _trees() if stem in PIPELINE_MODULES
             for line in _broad_catches(tree)]
    assert found == []


def test_broad_catch_detection():
    for src in ("except ValueError: pass", "except (KeyError, Exception) as e: pass",
                "except builtins.BaseException: pass", "except: pass"):
        assert _broad_catches(ast.parse(f"try:\n    f()\n{src}")), src
    for src in ("except ConstructionError: pass", "except (StopIteration, KeyError): pass"):
        assert not _broad_catches(ast.parse(f"try:\n    f()\n{src}")), src


def _construction_stages(tree) -> list[str | None]:
    """The stage of each `ConstructionError(...)` call: its literal string,
    or None when the stage is no string literal."""
    stages = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "ConstructionError":
            keyword = [k.value for k in node.keywords if k.arg == "stage"]
            arg = (node.args or keyword or [None])[0]
            literal = isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            stages.append(arg.value if literal else None)
    return stages


def test_every_stop_names_a_listed_stage():
    found = [stage for _, tree in _trees() for stage in _construction_stages(tree)]
    assert set(found) <= set(STAGES), found
    assert set(found) == set(STAGES)  # each stage is raised somewhere


def test_construction_stage_detection():
    src = """
raise ConstructionError("plan", [why])
construct.ConstructionError(stage="two-cycles", failures=[])
ConstructionError(stage, [])
ConstructionError(f"{name}", [])
ConstructionError()
OtherError("plan")
"""
    assert _construction_stages(ast.parse(src)) == ["plan", "two-cycles", None, None, None]
