"""Analysis reports and the Monte Carlo engine.

`analyze` decides the two geometric conditions for a step-graphon.  Its
`AnalysisReport` keeps condition A and condition B's membership
certificate (or one sub-report per skeleton component); the verdict, like
the membership status, is read off them:

  * both hold (connected skeleton, odd cycle, interior concentration
    vector): sampled graphs admit Hamiltonian decompositions with
    probability tending to one;
  * the odd-cycle condition fails or the vector is exterior: the property
    provably fails;
  * boundary membership with an odd cycle: inconclusive, the limit need
    not be 0 or 1;
  * a disconnected skeleton: inconclusive, whatever its components say.

`montecarlo` estimates the decomposition probability at a fixed n: per
trial it samples a graph, runs the constructive pipeline (`run_pipeline`,
also behind `hamdec decompose`), then the exact existence oracle.  The
pipeline passes each object on once: one membership query on the sampled
graph's empirical concentration vector gives its certificate, kept in the
outcome, from which the status and the tally's input are read (a refined
graphon adds the query on its normalized blocks); the tally gives the
block cycles realized in the graph.  The oracle takes a witness where the
trial has one.  A realized decomposition, checked arc by arc against the
sample, answers yes.  An exterior empirical vector's certificate is a
block set A whose neighbour blocks hold fewer nodes than A (Gale's
theorem); sampled edges join only skeleton neighbours, so the nodes of A's
blocks have fewer neighbours than members, and that Hall set, counted on
the sample, answers no.  A perfect matching decides every trial with
neither witness.  So constructive successes never exceed oracle
successes, and every oracle value is the one the matching would give.
Trials are independent with derived seeds; reports are deterministic.  A
`MonteCarloReport` holds the rows in trial order, and its counts, estimate
and Wilson interval are computed from them.
"""

from __future__ import annotations

import enum
import math
import multiprocessing.connection
import numbers
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from copy import copy
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._seeds import derive
from .construct import ConstructionError, HamDecomposition, build_balanced_matrix, not_interior
from .model import (
    IncidenceMatrix,
    Partition,
    StepGraphon,
    concentration,
    connected_components,
    has_odd_cycle,
    incidence,
    skeleton,
)
from .polytope import Membership, MembershipCertificate, positive_certificate
from .realize import DEFAULT_ATTEMPTS, graph_has_decomposition, realize
from .sampling import BalancedMatrix, SampledGraph, assign_blocks, empirical_concentration, sample_graph
from .refine import ensure_loopless_odd_cycle

WILSON_Z = 1.959963984540054  # the standard normal's 0.975 quantile


class Verdict(str, enum.Enum):
    PREDICTS_H = "predicts-h"
    PREDICTS_NOT_H = "predicts-not-h"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class AnalysisReport:
    """Condition A, and condition B's certificate or per-component reports."""

    condition_a: bool
    certificate: MembershipCertificate | None
    components: tuple["AnalysisReport", ...] = ()

    def __post_init__(self):
        if (self.certificate is None) == self.connected:
            raise ValueError("a report has a certificate exactly when it has no components")

    @property
    def connected(self) -> bool:
        return not self.components

    @property
    def condition_b_status(self) -> Membership | None:
        return self.certificate.status if self.connected else None

    @property
    def verdict(self) -> Verdict:
        """The rule in the module docstring."""
        status = self.condition_b_status
        if status is None or (self.condition_a and status is Membership.BOUNDARY):
            return Verdict.INCONCLUSIVE
        if self.condition_a and status is Membership.INTERIOR:
            return Verdict.PREDICTS_H
        return Verdict.PREDICTS_NOT_H

    def to_dict(self) -> dict:
        out = {
            "connected": self.connected,
            "condition_a": self.condition_a,
            "condition_b_status": (
                self.condition_b_status.value if self.condition_b_status else None
            ),
            "verdict": self.verdict.value,
        }
        if self.certificate is not None and self.certificate.margin is not None:
            out["margin"] = str(self.certificate.margin)
            out["coefficients"] = [str(c) for c in self.certificate.coefficients]
        if self.components:
            out["components"] = [c.to_dict() for c in self.components]
        return out


def _component_graphon(w: StepGraphon, nodes: frozenset[int]) -> StepGraphon:
    """The induced sub-graphon on a component, intervals renormalized."""
    members = sorted(nodes)
    lengths = [concentration(w.partition)[i] for i in members]
    total = sum(lengths)
    bps = [Fraction(0)]
    for ln in lengths:
        bps.append(bps[-1] + ln / total)
    bps[-1] = Fraction(1)
    values = tuple(tuple(w.values[i][j] for j in members) for i in members)
    return StepGraphon(Partition(tuple(bps)), values)


def analyze(w: StepGraphon) -> AnalysisReport:
    """Decide both conditions and produce the verdict.

    Disconnected skeletons get one sub-report per component (each analyzed
    as its own renormalized graphon) and an overall inconclusive verdict;
    the split is informational only.
    """
    s = skeleton(w)
    comps = connected_components(s)
    cond_a = has_odd_cycle(s)
    if len(comps) > 1:
        subs = tuple(analyze(_component_graphon(w, c)) for c in comps)
        return AnalysisReport(cond_a, None, subs)
    return AnalysisReport(cond_a, positive_certificate(incidence(s), concentration(w.partition)))


@dataclass(frozen=True)
class TrialResult:
    trial: int
    seed: int
    oracle: bool
    x_interior: bool
    failure: str | None = None  # why the pipeline stopped; not in the CSV

    @property
    def constructive(self) -> bool:
        return self.failure is None


@dataclass(frozen=True)
class MonteCarloReport:
    """The rows of a Monte Carlo run in trial order; the rest is counted."""

    n: int
    master_seed: int
    rows: tuple[TrialResult, ...] = field(repr=False)

    @property
    def trials(self) -> int:
        return len(self.rows)

    @property
    def successes_oracle(self) -> int:
        return sum(r.oracle for r in self.rows)

    @property
    def successes_constructive(self) -> int:
        return sum(r.constructive for r in self.rows)

    @property
    def estimate(self) -> float:
        return self.successes_oracle / self.trials if self.rows else 0.0

    @property
    def ci_low(self) -> float:
        return wilson_interval(self.successes_oracle, self.trials)[0]

    @property
    def ci_high(self) -> float:
        return wilson_interval(self.successes_oracle, self.trials)[1]

    def to_csv(self) -> str:
        lines = ["trial,seed,n,oracle,constructive,x_interior"]
        for r in self.rows:
            lines.append(
                f"{r.trial},{r.seed},{self.n},{int(r.oracle)},"
                f"{int(r.constructive)},{int(r.x_interior)}"
            )
        return "\n".join(lines) + "\n"


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    z2 = WILSON_Z * WILSON_Z
    denom = 1 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = WILSON_Z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class GraphonSkeleton:
    """A graphon with its skeleton's incidence matrix, which holds the
    skeleton (`incidence.skeleton`)."""

    graphon: StepGraphon
    incidence: IncidenceMatrix


@dataclass(frozen=True)
class Plan:
    """What the constructive pipeline needs of a graphon: the graphon with its
    skeleton, and its loopless-odd normalization (the same object when no
    refinement is needed), or None and the reason there is none."""

    base: GraphonSkeleton
    normalized: GraphonSkeleton | None
    reason: str | None = None


@lru_cache(maxsize=16)
def plan(w: StepGraphon) -> Plan:
    """The pipeline plan of a graphon, memoized per graphon value."""
    base = GraphonSkeleton(w, incidence(skeleton(w)))
    try:
        wn = ensure_loopless_odd_cycle(w)
    except ValueError as exc:  # no odd cycle, or a DisconnectedSkeletonError
        return Plan(base, None, str(exc))
    if wn is w:
        return Plan(base, base)
    return Plan(base, GraphonSkeleton(wn, incidence(skeleton(wn))))


@dataclass(frozen=True)
class PipelineOutcome:
    """The membership certificate of the sampled graph's empirical
    concentration vector on the graphon's skeleton, and the tally with its
    realized decomposition, or why the pipeline stopped."""

    certificate: MembershipCertificate
    tally: BalancedMatrix | None = None
    decomposition: HamDecomposition | None = None
    failure: str | None = None

    @property
    def status(self) -> Membership:
        return self.certificate.status

    @property
    def interior(self) -> bool:
        return self.status is Membership.INTERIOR

    @property
    def ok(self) -> bool:
        return self.failure is None


def run_pipeline(
    p: Plan, g: SampledGraph, seed: int, attempts: int = DEFAULT_ATTEMPTS
) -> PipelineOutcome:
    """Decide the membership status of g's empirical vector, g sampled from
    `p.base.graphon`; re-block g under the normalized graphon, build the
    tally and realize its block cycles with `seed`.  Expected failures come
    back in the outcome; anything else raises."""
    if attempts < 1:
        raise ValueError("attempts must be positive")
    x = empirical_concentration(g, p.base.incidence.shape[0])
    base = cert = positive_certificate(p.base.incidence, x)
    if p.normalized is None:
        return PipelineOutcome(base, failure=f"cannot decompose: {p.reason}")
    sn = p.normalized.incidence.skeleton
    try:
        if p.normalized is not p.base:
            if base.status is Membership.EXTERIOR:
                # A Hall violator A of x lifts to its refined copies A': they
                # inherit every adjacency, and a split looped block gives
                # looped copies joined by an edge, so x'(N(A')) = x(N(A)) <
                # x(A) = x'(A').  The refined vector is exterior too.
                raise not_interior(base.status)
            g = copy(g)  # new blocks on the sample's matrix
            g.blocks = assign_blocks(p.normalized.graphon, g.coords)
            x = empirical_concentration(g, sn.node_count)
            cert = positive_certificate(p.normalized.incidence, x)
        tally = build_balanced_matrix(x, g.n, sn, cert)
    except ConstructionError as exc:
        return PipelineOutcome(base, failure=f"tally construction failed: {exc}")
    outcome = realize(tally, g, sn, seed, attempts)
    if not outcome.ok:
        return PipelineOutcome(base, failure=f"realization failed: {outcome.diagnostics}")
    return PipelineOutcome(base, tally, outcome.decomposition)


def constructive_attempt(
    p: Plan, g: SampledGraph, seed: int, attempts: int = DEFAULT_ATTEMPTS
) -> PipelineOutcome:
    """Run the constructive pipeline for the Monte Carlo trial with seed
    `seed`.  A refined skeleton's interior vector aggregates to an interior
    one, so the pipeline succeeds only if the trial's vector is interior."""
    return run_pipeline(p, g, derive(seed, "realize"), attempts)


def run_trial(
    w: StepGraphon, n: int, master_seed: int, trial: int, attempts: int = DEFAULT_ATTEMPTS
) -> TrialResult:
    seed = derive(master_seed, "trial", trial)
    g = sample_graph(w, n, seed)
    out = constructive_attempt(plan(w), g, seed, attempts)
    a = out.certificate.violator  # exterior: its blocks' nodes are a Hall set
    witness = out.decomposition if a is None else np.flatnonzero(np.isin(g.blocks, list(a)))
    oracle = graph_has_decomposition(g, witness)
    return TrialResult(trial, seed, oracle, out.interior, out.failure)


def _exit_with_parent() -> None:
    """Pool worker initializer: exit when the parent process ends, even by a
    kill that leaves it no chance to shut the pool down."""
    parent, ppid = multiprocessing.parent_process(), os.getppid()

    def watch():
        # a child the parent forked keeps the sentinel open: also exit once
        # re-parented (the parent is a forkserver under that start method)
        while os.getppid() == ppid and not multiprocessing.connection.wait([parent.sentinel], 1):
            pass
        os._exit(0)

    threading.Thread(target=watch, daemon=True).start()


_pool: tuple[int, ProcessPoolExecutor] | None = None  # (workers, pool), kept across calls
_pool_lock = threading.RLock()  # calls from several threads share the one pool


def _drop_pool(pool: ProcessPoolExecutor | None = None, kill: bool = False) -> None:
    """Shut the kept pool down and forget it; given `pool`, only if that is
    the one kept.  With `kill`, its workers are killed first: a worker that
    died idle may have held the task queue's read lock, and a clean
    shutdown would wait forever on the others."""
    global _pool
    with _pool_lock:
        if _pool is None or (pool is not None and pool is not _pool[1]):
            return
        kept = _pool[1]
        _pool = None
        if kill:
            for p in kept._processes.values():
                p.kill()
        kept.shutdown()


def _forget_pool() -> None:
    # a forked child does not own its parent's workers, nor a lock that
    # another of its parent's threads may have held at the fork
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.RLock()


if hasattr(os, "register_at_fork"):  # without fork there is nothing to forget
    os.register_at_fork(after_in_child=_forget_pool)


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """The process's pool of `workers` workers, started at first use and kept
    until the count changes or a worker is gone."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            kept, pool = _pool
            # a worker killed while the pool sat idle shows in the executor's
            # own record of its workers: a ready sentinel, or the pool marked
            # broken
            sentinels = [p.sentinel for p in pool._processes.values()]
            damaged = bool(multiprocessing.connection.wait(sentinels, 0)) or bool(pool._broken)
            if damaged or kept != workers:
                _drop_pool(kill=damaged)
        if _pool is None:
            _pool = (workers, ProcessPoolExecutor(max_workers=workers, initializer=_exit_with_parent))
        return _pool[1]


def _positive(k) -> bool:
    return isinstance(k, numbers.Integral) and not isinstance(k, bool) and k >= 1


def montecarlo(
    w: StepGraphon,
    n: int,
    trials: int,
    master_seed: int,
    attempts: int = DEFAULT_ATTEMPTS,
    jobs: int = 1,
) -> MonteCarloReport:
    """Estimate the decomposition probability at size n over seeded trials.

    Each trial derives its own seed from (master_seed, trial index), so the
    report is reproducible and trials can run in parallel processes: at most
    `jobs`, one per trial and one per CPU this process may run on.  The
    worker pool lives as long as the process and serves every later call
    with the same worker count; its workers exit when the process exits or
    is killed.  Workers keep the package state they were forked with, so a
    monkeypatch made after the first pooled call does not reach them.
    """
    if not (_positive(n) and _positive(trials)):
        raise ValueError("n and trials must be positive")
    if not _positive(jobs):
        raise ValueError("jobs must be positive")
    if not _positive(attempts):
        raise ValueError("attempts must be positive")
    args = [(w, n, master_seed, t, attempts) for t in range(trials)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, trials, cpus or 1)
    if workers > 1:
        pool = _worker_pool(workers)
        chunk = max(1, trials // (4 * workers))
        try:
            rows = list(pool.map(run_trial, *zip(*args), chunksize=chunk))
        except BrokenProcessPool:  # a worker died during the call
            _drop_pool(pool, kill=True)
            raise
    else:
        rows = [run_trial(*a) for a in args]
    return MonteCarloReport(n, master_seed, tuple(rows))
