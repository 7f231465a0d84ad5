"""Outside-in tracer: spans around calls into the package's layers.

`patched(tracer)` replaces each traced function, for the duration of a
`with` block, at every place in the package that binds it, so a call is
timed under the name its caller looks it up by (`hamdec.driver.realize`,
`hamdec.construct.positive_certificate`, ...).  The package's own code is
not changed and the original functions are restored on exit.

Each span records name, start, end, parent span and operation id; the
operation is the root span a call was made under (one Monte Carlo trial or
one `analyze` call).  Spans stay in memory until `summarize` reads them.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# The package's modules.  `hamdec.realize` is fetched with import_module
# because the package attribute of that name is the function `realize`.
MODULES = (
    "hamdec",
    "hamdec.cli",
    "hamdec.construct",
    "hamdec.driver",
    "hamdec.io",
    "hamdec.model",
    "hamdec.polytope",
    "hamdec.realize",
    "hamdec.refine",
    "hamdec.sampling",
)

# span name -> (defining module, function); "Class.method" for methods.
TRACED = {
    "sampling.sample_graph": ("hamdec.sampling", "sample_graph"),
    "sampling.adjacency": ("hamdec.sampling", "SampledGraph.adjacency"),
    "sampling.count_block_edges": ("hamdec.sampling", "count_block_edges"),
    "realize.graph_has_decomposition": ("hamdec.realize", "graph_has_decomposition"),
    "realize.realize": ("hamdec.realize", "realize"),
    "realize.embed_cycles": ("hamdec.realize", "embed_cycles"),
    "realize.max_bipartite_matching": ("hamdec.realize", "max_bipartite_matching"),
    "polytope.positive_certificate": ("hamdec.polytope", "positive_certificate"),
    "polytope.solve_equality_lp": ("hamdec.polytope", "solve_equality_lp"),
    "construct.build_balanced_matrix": ("hamdec.construct", "build_balanced_matrix"),
    "construct.matrix_round": ("hamdec.construct", "matrix_round"),
    "construct.build_decomposition": ("hamdec.construct", "build_decomposition"),
    "refine.ensure_loopless_odd_cycle": ("hamdec.refine", "ensure_loopless_odd_cycle"),
    "model.skeleton": ("hamdec.model", "skeleton"),
    "model.incidence": ("hamdec.model", "incidence"),
    "driver.run_trial": ("hamdec.driver", "run_trial"),
    "driver.constructive_attempt": ("hamdec.driver", "constructive_attempt"),
    "driver.analyze": ("hamdec.driver", "analyze"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int
    error: str | None = None  # class name of the exception that left the call
    ok: bool | None = None  # the result's `ok`, where it has one


class Tracer:
    """Collects spans; single-threaded, calls nest strictly."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ops = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack:
                parent = self._stack[-1]
                op = self.spans[parent].op
            else:
                parent, op = -1, self._ops
                self._ops += 1
            span = Span(name, self.clock(), 0.0, parent, op)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
                ok = getattr(result, "ok", None)
                span.ok = ok if isinstance(ok, bool) else None
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._stack.pop()
                span.end = self.clock()

        return traced


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    ok: int = 0
    errors: dict = field(default_factory=dict)  # exception class name -> count


def summarize(spans: list[Span]) -> tuple[dict[str, LayerStats], float]:
    """Per span name: call count, self time (duration minus the time its
    direct children cover), results with ok=True and exceptions by class.
    Also returns the total wall time of the root spans."""
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child_time[sp.parent] += sp.end - sp.start
    stats: dict[str, LayerStats] = {}
    root_wall = 0.0
    for sp, inner in zip(spans, child_time):
        st = stats.setdefault(sp.name, LayerStats())
        st.calls += 1
        st.self_s += (sp.end - sp.start) - inner
        st.ok += sp.ok is True
        if sp.error:
            st.errors[sp.error] = st.errors.get(sp.error, 0) + 1
        if sp.parent < 0:
            root_wall += sp.end - sp.start
    return stats, root_wall


def _resolve(module_name: str, attr: str):
    obj = importlib.import_module(module_name)
    *owners, name = attr.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    return obj, name


@contextmanager
def patched(tracer: Tracer):
    """Route every binding of each traced function through `tracer`."""
    modules = [importlib.import_module(m) for m in MODULES]
    undo: list[tuple[object, str, object]] = []
    try:
        for span_name, (module_name, attr) in TRACED.items():
            owner, name = _resolve(module_name, attr)
            original = vars(owner)[name]
            wrapper = tracer.wrap(span_name, original)
            sites = [owner] + [m for m in modules if m is not owner]
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        undo.append((site, key, original))
                        setattr(site, key, wrapper)
        yield tracer
    finally:
        for site, key, original in reversed(undo):
            setattr(site, key, original)
