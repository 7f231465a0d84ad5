import importlib
import json
import multiprocessing.connection
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import hamdec.construct
import hamdec.driver
import hamdec.polytope
import hamdec.refine
import hamdec.sampling
from hamdec import cli, io
from hamdec._seeds import derive
from hamdec.construct import HEADINGS, STAGES, ConstructionError, HamDecomposition, build_balanced_matrix
from hamdec.driver import (
    AnalysisReport,
    MonteCarloReport,
    TrialResult,
    Verdict,
    analyze,
    montecarlo,
    plan,
    run_pipeline,
    run_trial,
    wilson_interval,
)
from hamdec.model import Partition, SkeletonGraph, incidence, step_graphon
from hamdec.polytope import Membership, MembershipCertificate, positive_certificate
from hamdec.sampling import empirical_concentration, sample_graph

ER_HALF = step_graphon([0, 1], [[F(1, 2)]])
BIP_UNEVEN = step_graphon([0, F(3, 10), 1], [[0, F(1, 2)], [F(1, 2), 0]])
TRI_GRAPHON = step_graphon(
    [0, F(1, 3), F(2, 3), 1],
    [[0, F(1, 2), F(1, 2)], [F(1, 2), 0, F(1, 2)], [F(1, 2), F(1, 2), 0]],
)
TRI_EXTERIOR = step_graphon(
    [0, F(3, 5), F(4, 5), 1],
    [[0, F(1, 2), F(1, 2)], [F(1, 2), 0, F(1, 2)], [F(1, 2), F(1, 2), 0]],
)
# two looped blocks that no edge joins
DISCONNECTED = step_graphon([0, F(1, 2), 1], [[F(1, 2), 0], [0, F(1, 2)]])
# a looped block joined only to a loopless one three times its length
LOOP_EXTERIOR = step_graphon([0, F(1, 4), 1], [[F(1, 2), F(1, 2)], [F(1, 2), 0]])


def _half_on(q, pairs):
    """q blocks of equal length, 1/2 on each block pair of `pairs`."""
    values = [[0] * q for _ in range(q)]
    for i, j in pairs:
        values[i][j] = values[j][i] = F(1, 2)
    return step_graphon([F(k, q) for k in range(q + 1)], values)


# boundary graphons whose loopless part has no odd cycle, so each is refined
BOUNDARY_A = _half_on(2, [(0, 1), (1, 1)])
BOUNDARY_B = _half_on(4, [(0, 1), (2, 3), (1, 3), (1, 1), (3, 3)])
BOUNDARY_C = _half_on(4, [(0, 1), (1, 2), (2, 3), (1, 1), (3, 3)])
# an interior one, refined too: a looped block twice its loopless neighbour
LOOP_EDGE = step_graphon([0, F(2, 3), 1], [[F(1, 4), F(1, 2)], [F(1, 2), 0]])

REALIZE_MODULE = importlib.import_module("hamdec.realize")  # `hamdec.realize` is the function


@pytest.fixture
def no_kept_pool():
    """No worker pool is kept before or after the test."""
    hamdec.driver._drop_pool()
    yield
    hamdec.driver._drop_pool()


def _above_x(real):
    return lambda vec, n: (F(2),) * len(vec)


def _row_sums_lost(real):
    return lambda m, s: tuple((0,) * len(row) for row in real(m, s))


def _one_two_cycle_more(real):
    def skewed(a, s):
        pairs, longer = real(a, s)
        return {k: c + 1 for k, c in pairs.items()}, longer

    return skewed


class TestAnalyze:
    def test_er_predicts(self):
        r = analyze(ER_HALF)
        assert r.connected and r.condition_a
        assert r.condition_b_status is Membership.INTERIOR
        assert r.verdict is Verdict.PREDICTS_H

    def test_bipartite_uneven_rules_out(self):
        r = analyze(BIP_UNEVEN)
        assert not r.condition_a
        assert r.condition_b_status is Membership.EXTERIOR
        assert r.verdict is Verdict.PREDICTS_NOT_H

    def test_triangle_predicts(self):
        r = analyze(TRI_GRAPHON)
        assert r.verdict is Verdict.PREDICTS_H

    def test_verdict_truth_table(self):
        # loop + far point: condition A true, exterior -> ruled out
        w = step_graphon(
            [0, F(9, 10), 1], [[F(1, 2), 0], [0, F(1, 2)]]
        )
        # disconnected: inconclusive with sub-reports
        r = analyze(w)
        assert not r.connected and r.verdict is Verdict.INCONCLUSIVE
        assert len(r.components) == 2
        for sub in r.components:
            assert sub.verdict is Verdict.PREDICTS_H  # each block alone is fine

        # boundary with condition A: inconclusive
        wb = step_graphon([0, F(1, 2), 1], [[F(1, 2), F(1, 2)], [F(1, 2), 0]])
        rb = analyze(wb)
        # x* = (1/2, 1/2); hull of {(1,0), (1/2,1/2)} has x* as an endpoint
        assert rb.condition_a
        assert rb.condition_b_status is Membership.BOUNDARY
        assert rb.verdict is Verdict.INCONCLUSIVE

        # condition A true + interior: predicted
        assert analyze(ER_HALF).verdict is Verdict.PREDICTS_H
        # condition A false + exterior: ruled out
        assert analyze(BIP_UNEVEN).verdict is Verdict.PREDICTS_NOT_H


def _old_verdict(condition_a, status, disconnected):
    """The verdict rule as `analyze` used to spell it out."""
    if disconnected:
        return Verdict.INCONCLUSIVE
    if not condition_a or status is Membership.EXTERIOR:
        return Verdict.PREDICTS_NOT_H
    if status is Membership.INTERIOR:
        return Verdict.PREDICTS_H
    return Verdict.INCONCLUSIVE


class TestAnalysisReport:
    CERTS = {
        Membership.INTERIOR: MembershipCertificate((F(1),), F(1)),
        Membership.BOUNDARY: MembershipCertificate((F(1), F(0)), F(0)),
        Membership.EXTERIOR: MembershipCertificate(violator=frozenset({0})),
    }

    def test_verdict_table_matches_the_old_rule(self):
        sub = analyze(ER_HALF)
        for condition_a in (False, True):
            for status, cert in self.CERTS.items():
                r = AnalysisReport(condition_a, cert)
                assert r.connected and r.condition_b_status is status
                assert r.verdict is _old_verdict(condition_a, status, False)
            r = AnalysisReport(condition_a, None, (sub, sub))
            assert not r.connected and r.condition_b_status is None
            assert r.verdict is _old_verdict(condition_a, None, True)

    def test_certificate_exactly_when_connected(self):
        with pytest.raises(ValueError, match="certificate"):
            AnalysisReport(True, None)
        with pytest.raises(ValueError, match="certificate"):
            AnalysisReport(True, self.CERTS[Membership.INTERIOR], (analyze(ER_HALF),))


class TestMonteCarloReport:
    def test_counts_are_read_off_the_rows(self):
        rows = (
            TrialResult(0, 10, True, True),
            TrialResult(1, 11, True, False, ConstructionError("membership", ["x"])),
            TrialResult(2, 12, False, False, ConstructionError("two-cycles", ["y"])),
            TrialResult(3, 13, True, True),
        )
        r = MonteCarloReport(7, 99, rows)
        assert [row.constructive for row in rows] == [True, False, False, True]
        assert (r.trials, r.successes_oracle, r.successes_constructive) == (4, 3, 2)
        assert r.estimate == 0.75
        assert (r.ci_low, r.ci_high) == wilson_interval(3, 4)
        assert r.to_csv().splitlines()[1:] == [
            "0,10,7,1,1,1", "1,11,7,1,0,0", "2,12,7,0,0,0", "3,13,7,1,1,1",
        ]

    def test_montecarlo_counts_match_a_hand_tally(self):
        r = montecarlo(ER_HALF, 30, 12, 4)
        assert [row.trial for row in r.rows] == list(range(12))
        assert r.trials == 12 and r.n == 30 and r.master_seed == 4
        assert r.successes_oracle == len([row for row in r.rows if row.oracle])
        assert r.successes_constructive == len([row for row in r.rows if row.failure is None])
        assert r.estimate == r.successes_oracle / 12


class TestWilson:
    def test_known_value(self):
        lo, hi = wilson_interval(8, 10)
        assert 0.49 < lo < 0.50 and 0.94 < hi < 0.95

    def test_bounds(self):
        assert wilson_interval(0, 20)[0] == 0.0
        assert wilson_interval(20, 20)[1] == 1.0
        assert wilson_interval(0, 0) == (0.0, 1.0)  # no trials: no information


class TestMonteCarlo:
    def test_zero_graphon_estimate_zero(self):
        w = step_graphon([0, 1], [[0]])
        r = montecarlo(w, 8, 12, 5)
        assert r.successes_oracle == 0 and r.estimate == 0.0

    def test_witness_never_exceeds_oracle(self):
        r = montecarlo(ER_HALF, 30, 25, 17)
        assert r.successes_constructive <= r.successes_oracle <= r.trials

    def test_constructive_success_implies_oracle(self):
        for t in range(25):
            tr = run_trial(ER_HALF, 30, 17, t)
            if tr.constructive:
                assert tr.oracle

    def test_report_deterministic(self):
        a = montecarlo(ER_HALF, 25, 10, 23)
        b = montecarlo(ER_HALF, 25, 10, 23)
        assert a == b
        assert a.to_csv() == b.to_csv()

    def test_csv_shape(self):
        r = montecarlo(ER_HALF, 12, 4, 9)
        lines = r.to_csv().strip().split("\n")
        assert lines[0] == "trial,seed,n,oracle,constructive,x_interior"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "12"

    def test_bipartite_uneven_never_decomposes(self):
        r = montecarlo(BIP_UNEVEN, 50, 30, 123)
        assert r.successes_oracle == 0

    def test_parallel_jobs_match_sequential(self):
        # pooled rows come back pickled: their stops must equal this process's
        for w in (ER_HALF, BIP_UNEVEN):  # BIP_UNEVEN: every trial stops at its plan
            seq = montecarlo(w, 20, 8, 31, jobs=1)
            par = montecarlo(w, 20, 8, 31, jobs=2)
            assert seq == par
        assert {row.failure.stage for row in par.rows} == {"plan"}

    def test_failure_reason_is_kept(self):
        rows = montecarlo(ER_HALF, 20, 3, 3).rows
        assert rows[0].failure.stage == "two-cycles"
        assert rows[1].constructive and rows[1].failure is None
        assert rows[2].failure.stage == "postconditions"
        assert not rows[0].constructive and not rows[2].constructive

    def test_pool_is_bounded_by_trials_and_cpus(self, monkeypatch, no_kept_pool):
        started = []

        class FakePool:  # runs in this process, records the pool size
            _processes, _broken = {}, False  # no worker to lose

            def __init__(self, max_workers, initializer=None):
                started.append(max_workers)

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

            def shutdown(self):
                pass

        monkeypatch.setattr(hamdec.driver, "ProcessPoolExecutor", FakePool)

        def four_cpus(pid):
            return {0, 1, 2, 3}

        monkeypatch.setattr(hamdec.driver.os, "sched_getaffinity", four_cpus, raising=False)
        serial = montecarlo(ER_HALF, 12, 3, 1)
        assert montecarlo(ER_HALF, 12, 3, 1, jobs=5000) == serial
        montecarlo(ER_HALF, 12, 10, 1, jobs=5000)
        # without an affinity call, every CPU counts
        monkeypatch.delattr(hamdec.driver.os, "sched_getaffinity")
        monkeypatch.setattr(hamdec.driver.os, "cpu_count", lambda: 2)
        montecarlo(ER_HALF, 12, 10, 1, jobs=8)
        monkeypatch.setattr(hamdec.driver.os, "cpu_count", lambda: None)
        montecarlo(ER_HALF, 12, 10, 1, jobs=8)
        assert started == [3, 4, 2]

    def test_pool_is_bounded_by_the_usable_cpus(self, monkeypatch):
        # a process pinned to one CPU of a larger host runs its trials serially
        def no_pool(max_workers):
            raise AssertionError(f"started a {max_workers}-worker pool")

        monkeypatch.setattr(hamdec.driver, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(hamdec.driver.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(hamdec.driver.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        pinned = montecarlo(ER_HALF, 30, 4, 1, jobs=2)
        assert pinned.to_csv() == montecarlo(ER_HALF, 30, 4, 1, jobs=1).to_csv()


def _two_cpus(monkeypatch):
    monkeypatch.setattr(hamdec.driver.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _state(pid):
    """A process's state letter from /proc, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):  # gone before the open or the read
        return None


def _gone_within(pids, seconds=5.0):
    """Poll until every pid has exited (gone, or a zombie nobody reaped yet)."""
    deadline = time.monotonic() + seconds
    while any(_state(p) not in (None, "Z") for p in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


POOL_SCRIPT = """
import multiprocessing, os, signal, sys, time
from fractions import Fraction as F
from hamdec.driver import montecarlo
from hamdec.model import SkeletonGraph, incidence, step_graphon
os.sched_getaffinity = lambda pid: {0, 1}  # two workers on any host
er = step_graphon([0, 1], [[F(1, 2)]])
if sys.argv[1] in ("forkserver", "spawn"):
    multiprocessing.set_start_method(sys.argv[1])
first = montecarlo(er, 30, 6, 31, jobs=2).to_csv()
print(*[p.pid for p in multiprocessing.active_children()], flush=True)
if sys.argv[1] == "wait":
    time.sleep(60)
elif sys.argv[1] == "fork":
    child = os.fork()
    if child == 0:
        signal.alarm(20)  # a child stuck on its parent's pool ends anyway
        os._exit(0 if montecarlo(er, 30, 6, 31, jobs=2).to_csv() == first else 1)
    _, status = os.waitpid(child, 0)
    sys.exit(os.waitstatus_to_exitcode(status))
elif sys.argv[1] == "fork-wait":
    child = os.fork()
    if child == 0:
        time.sleep(30)
        os._exit(0)
    print(child, flush=True)
    time.sleep(60)
elif sys.argv[1] in ("forkserver", "spawn"):
    sys.exit(0 if montecarlo(er, 30, 6, 31).to_csv() == first else 1)
"""


def _pool_script(mode):
    """Start POOL_SCRIPT in a fresh interpreter; return the process and the
    pids of its pool's workers."""
    env = dict(os.environ, PYTHONPATH=str(Path(hamdec.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", POOL_SCRIPT, mode], stdout=subprocess.PIPE, text=True, env=env)
    return proc, [int(p) for p in proc.stdout.readline().split()]


class TestWorkerPool:
    """`montecarlo` keeps one worker pool per process across calls."""

    def test_kept_pool_gives_the_serial_bytes(self, monkeypatch, no_kept_pool):
        _two_cpus(monkeypatch)
        er = montecarlo(ER_HALF, 30, 8, 31, jobs=1).to_csv()
        bip = montecarlo(BIP_UNEVEN, 30, 8, 31, jobs=1).to_csv()
        assert montecarlo(ER_HALF, 30, 8, 31, jobs=2).to_csv() == er
        pool = hamdec.driver._pool
        workers = {p.pid for p in multiprocessing.active_children()}
        assert len(workers) == 2
        assert montecarlo(ER_HALF, 30, 8, 31, jobs=2).to_csv() == er
        assert montecarlo(BIP_UNEVEN, 30, 8, 31, jobs=2).to_csv() == bip
        assert montecarlo(ER_HALF, 30, 8, 31, jobs=2).to_csv() == er
        assert hamdec.driver._pool is pool
        assert {p.pid for p in multiprocessing.active_children()} == workers

    def test_changed_worker_count_replaces_the_pool(self, monkeypatch, no_kept_pool):
        events = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                events.append(("start", max_workers))
                super().__init__(max_workers, **kwargs)

            def shutdown(self, *args, **kwargs):
                events.append(("shutdown", self._max_workers))
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(hamdec.driver, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(hamdec.driver.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        serial = montecarlo(ER_HALF, 20, 6, 3).to_csv()
        assert montecarlo(ER_HALF, 20, 6, 3, jobs=2).to_csv() == serial
        assert montecarlo(ER_HALF, 20, 6, 3, jobs=2).to_csv() == serial
        old = multiprocessing.active_children()
        assert montecarlo(ER_HALF, 20, 6, 3, jobs=3).to_csv() == serial
        assert events == [("start", 2), ("shutdown", 2), ("start", 3)]
        assert len(old) == 2 and not any(p.is_alive() for p in old)

    def test_worker_killed_while_idle_does_not_fail_the_next_call(self, monkeypatch, no_kept_pool):
        _two_cpus(monkeypatch)
        serial = montecarlo(ER_HALF, 30, 8, 31).to_csv()
        assert montecarlo(ER_HALF, 30, 8, 31, jobs=2).to_csv() == serial
        victim = multiprocessing.active_children()[0]
        os.kill(victim.pid, signal.SIGKILL)
        # dead once its end of the sentinel pipe is closed; not reaped here,
        # as the pool's own thread may reap it
        assert multiprocessing.connection.wait([victim.sentinel], 5)
        assert montecarlo(ER_HALF, 30, 8, 31, jobs=2).to_csv() == serial
        assert victim.pid not in {p.pid for p in multiprocessing.active_children()}

    # from Python 3.12 the pool's first fork warns here: these threads are alive
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_threads_share_one_pool(self, monkeypatch, no_kept_pool):
        # concurrent first calls start one pool between them, not one each
        _two_cpus(monkeypatch)
        serial = montecarlo(ER_HALF, 20, 4, 7).to_csv()
        csvs = []

        def call():
            csvs.append(montecarlo(ER_HALF, 20, 4, 7, jobs=2).to_csv())

        threads = [threading.Thread(target=call) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert csvs == [serial] * len(threads)
        assert len(multiprocessing.active_children()) == 2

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
    @pytest.mark.parametrize("mode", ["exit", "wait"])
    def test_no_worker_outlives_its_process(self, mode):
        # "exit" returns normally; "wait" idles with its pool until killed
        proc, workers = _pool_script(mode)
        try:
            assert len(workers) == 2
            if mode == "wait":
                assert all(_state(p) not in (None, "Z") for p in workers)  # kept while idle
                proc.send_signal(signal.SIGKILL)
            assert proc.wait(10) == (-signal.SIGKILL if mode == "wait" else 0)
        finally:
            proc.kill()
            proc.stdout.close()
        assert _gone_within(workers)

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
    def test_no_worker_outlives_its_process_while_a_forked_child_lives(self):
        # the child holds the killed process's end of the workers' sentinel
        # pipe open; the workers still go, and the child keeps sleeping
        proc, workers = _pool_script("fork-wait")
        child = int(proc.stdout.readline())
        try:
            assert len(workers) == 2
            assert all(_state(p) not in (None, "Z") for p in workers)  # kept while idle
            proc.send_signal(signal.SIGKILL)
            assert proc.wait(10) == -signal.SIGKILL
            assert _gone_within(workers, 3.0)
            assert _state(child) not in (None, "Z")
        finally:
            proc.kill()
            proc.stdout.close()
            if _state(child) not in (None, "Z"):
                os.kill(child, signal.SIGKILL)

    @pytest.mark.parametrize("method", ["forkserver", "spawn"])
    def test_other_start_methods_give_the_serial_bytes(self, method):
        # a forkserver's worker is the server's child, not its owner's
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method")
        proc, workers = _pool_script(method)
        try:
            assert len(workers) == 2 and proc.wait(30) == 0
        finally:
            proc.kill()
            proc.stdout.close()
        assert _gone_within(workers)

    def test_forked_child_starts_its_own_pool(self):
        # a child forked after a pooled call does not reuse its parent's workers
        proc, workers = _pool_script("fork")
        try:
            assert len(workers) == 2 and proc.wait(30) == 0
        finally:
            proc.kill()
            proc.stdout.close()

    @pytest.mark.parametrize(
        "n, trials, master_seed, jobs, message",
        [
            (20, True, 3, 1, "^trials:"),
            (20.0, 2, 3, 1, "^n:"),
            (20, 2, 3, True, "jobs"),
            (20, 2, 3, 1.5, "jobs"),
        ],
    )
    def test_counts_must_be_integers(self, monkeypatch, n, trials, master_seed, jobs, message):
        def no_pool(max_workers, **kwargs):
            raise AssertionError(f"started a {max_workers}-worker pool")

        monkeypatch.setattr(hamdec.driver, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match=message):
            montecarlo(ER_HALF, n, trials, master_seed, jobs)


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestPipeline:
    def test_graphon_planned_once_per_run(self, monkeypatch):
        calls = _counting(monkeypatch, hamdec.driver, "ensure_loopless_odd_cycle")
        plan.cache_clear()
        montecarlo(ER_HALF, 20, 8, 31, jobs=1)
        plan.cache_clear()
        assert len(calls) == 1

    def test_invariant_break_raises_from_montecarlo(self, monkeypatch):
        def broken(*args):
            raise ValueError("injected invariant break")

        monkeypatch.setattr(hamdec.driver, "realize", broken)
        with pytest.raises(ValueError, match="injected"):
            montecarlo(TRI_GRAPHON, 60, 4, 5)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_runtime_error_in_a_trial_raises_from_montecarlo(self, monkeypatch, no_kept_pool, jobs):
        # a broken invariant in any trial, in this process or in a worker
        # forked after the patch, is never a constructive=0 row
        if jobs > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("only forked workers see a monkeypatch")
        _two_cpus(monkeypatch)

        def broken(a, g, s, seed):
            raise RuntimeError("injected invariant break")

        monkeypatch.setattr(hamdec.driver, "realize", broken)
        with pytest.raises(RuntimeError, match="injected"):
            montecarlo(TRI_GRAPHON, 60, 8, 5, jobs=jobs)

    def test_one_lp_per_trial_without_refinement(self, monkeypatch):
        lps = _counting(monkeypatch, hamdec.driver, "positive_certificate")
        lps_tally = _counting(monkeypatch, hamdec.construct, "positive_certificate")
        decompositions = _counting(monkeypatch, hamdec.construct, "build_decomposition")
        r = montecarlo(TRI_GRAPHON, 60, 4, 5)
        assert r.successes_constructive > 0
        assert len(lps) + len(lps_tally) == 4 and decompositions == []

    def test_reblocking_reuses_the_adjacency(self, monkeypatch):
        # the re-blocked graph is a copy of the sample under new blocks: its
        # matrix is the sample's matrix object, not a second one
        realized = _counting(monkeypatch, hamdec.driver, "realize")
        g = sample_graph(ER_HALF, 100, 3)
        p = plan(ER_HALF)
        assert p.refined is not None  # ER-1/2 is refined twice
        out = run_pipeline(p, g, 5)
        assert out.ok and len(realized) == 1
        reblocked = realized[0][1]
        assert reblocked is not g and reblocked.adjacency() is g.adjacency()
        assert reblocked.blocks.max() > g.blocks.max() == 0

    def test_exterior_sample_skips_the_refined_lp(self, monkeypatch):
        # a vector that is not interior stops before re-blocking, refined
        # plan or not: one LP per trial, and the failure the refined tally
        # would have reported
        lps = _counting(monkeypatch, hamdec.driver, "positive_certificate")
        lps_tally = _counting(monkeypatch, hamdec.construct, "positive_certificate")
        tallies = _counting(monkeypatch, hamdec.driver, "build_balanced_matrix")
        cases = [(LOOP_EXTERIOR, seed, Membership.EXTERIOR) for seed in range(4)]
        cases += [(BOUNDARY_A, seed, Membership.BOUNDARY) for seed in (1, 4)]
        for w, seed, status in cases:
            p = plan(w)
            assert p.refined is not None
            out = run_pipeline(p, sample_graph(w, 60, seed), seed)
            assert out.status is status
            assert str(out.failure) == f"membership: x is {status.value}, not interior"
        assert len(lps) == len(cases) and lps_tally == [] and tallies == []

    @pytest.mark.parametrize(
        "w", [BOUNDARY_A, BOUNDARY_B, BOUNDARY_C, LOOP_EDGE], ids=["A", "B", "C", "loop-edge"]
    )
    def test_refinement_keeps_a_non_interior_status(self, w):
        # what the membership stop before re-blocking rests on: a sample's
        # refined vector has the status of its vector when that is not interior
        p = plan(w)
        wn, z = p.refined
        seen = set()
        for n in range(3, 201):
            for seed in range(4):
                g = sample_graph(w, n, seed)
                status = positive_certificate(p.base, empirical_concentration(g, w.q)).status
                if status is Membership.INTERIOR:
                    continue
                refined = replace(g, blocks=wn.partition.float_blocks(g.coords))
                x = empirical_concentration(refined, z.shape[0])
                assert positive_certificate(z, x).status is status, (n, seed)
                seen.add(status)
        assert seen == {Membership.BOUNDARY, Membership.EXTERIOR}

    def test_expected_failures_are_outcomes(self):
        zero = step_graphon([0, 1], [[0]])
        out = run_pipeline(plan(zero), sample_graph(zero, 10, 1), 1)
        assert not out.ok and out.failure.stage == "plan"
        out = run_pipeline(plan(TRI_GRAPHON), sample_graph(TRI_GRAPHON, 7, 1), 1)
        assert not out.ok and out.failure.stage == "membership"

    @pytest.mark.parametrize(
        "module, name, break_it, message",
        [
            (hamdec.construct, "round_even", _above_x, "even rounding"),
            (hamdec.construct, "matrix_round", _row_sums_lost, "guaranteed property"),
            (REALIZE_MODULE, "block_cycles", _one_two_cycle_more, "leftover nodes"),
        ],
    )
    def test_guaranteed_property_break_raises(self, monkeypatch, module, name, break_it, message):
        # a broken invariant propagates; it is never a failure outcome
        g = sample_graph(TRI_GRAPHON, 60, 5)
        assert run_pipeline(plan(TRI_GRAPHON), g, 5).ok
        monkeypatch.setattr(module, name, break_it(getattr(module, name)))
        with pytest.raises(RuntimeError, match=message):
            run_pipeline(plan(TRI_GRAPHON), g, 5)

    def test_value_error_in_the_refinement_raises_from_montecarlo(self, monkeypatch):
        # only a disconnected skeleton or one without an odd cycle is a
        # "plan" stop; any other error of the refinement is no expected stop
        def boom(*args):
            raise ValueError("boom")

        plan.cache_clear()
        monkeypatch.setattr(hamdec.refine, "refine_once", boom)
        with pytest.raises(ValueError, match="boom"):
            montecarlo(ER_HALF, 60, 4, 1)
        plan.cache_clear()

    @pytest.mark.parametrize(
        "w, why",
        [
            (BIP_UNEVEN, "the skeleton has no odd cycle"),
            (step_graphon([0, 1], [[0]]), "the skeleton has no odd cycle"),
            (DISCONNECTED, "skeleton graph is disconnected; components: {0}, {1}"),
            (TRI_GRAPHON, None),
            (ER_HALF, None),
            (LOOP_EXTERIOR, None),
        ],
    )
    def test_plan_refuses_what_analyze_rules_out(self, w, why):
        # the two skeleton tests `analyze` runs: connected, with an odd cycle
        p = plan(w)
        report = analyze(w)
        assert (p.failure is None) == (report.connected and report.condition_a)
        if why is None:
            return
        assert p.failure.stage == "plan" and p.failure.failures == (why,)
        out = run_pipeline(p, sample_graph(w, 10, 1), 1)
        assert out.failure is p.failure and str(out.failure) == f"plan: {why}"

    def test_reblocking_runs_the_graph_checks(self, monkeypatch):
        # the re-blocked sample is built by `SampledGraph`, which checks its labels
        g = sample_graph(ER_HALF, 60, 1)
        monkeypatch.setattr(Partition, "float_blocks", lambda self, coords: -np.ones(len(coords), dtype=int))
        with pytest.raises(ValueError, match="block labels must be nonnegative"):
            run_pipeline(plan(ER_HALF), g, 1)

    def test_jobs_must_be_positive(self, tmp_path):
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs"):
                montecarlo(ER_HALF, 20, 2, 1, jobs=jobs)
        path = tmp_path / "w.json"
        io.dump_graphon(ER_HALF, path)
        args = ["montecarlo", str(path), "--n", "20", "--trials", "2", "--seed", "1"]
        assert cli.main(args + ["--jobs", "0"]) == 2
        assert cli.main(args + ["--jobs", "-3"]) == 2

    def test_attempts_must_be_positive(self, tmp_path):
        # the retry budget is a positive constant, not an argument
        assert type(REALIZE_MODULE.ATTEMPTS) is int and REALIZE_MODULE.ATTEMPTS >= 1
        with pytest.raises(TypeError, match="attempts"):
            montecarlo(ER_HALF, 20, 2, 1, attempts=3)
        path = tmp_path / "w.json"
        io.dump_graphon(ER_HALF, path)
        for args in (["montecarlo", str(path), "--n", "20", "--trials", "2", "--seed", "1"],
                     ["decompose", str(path), "--n", "20", "--seed", "1"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(args + ["--attempts", "3"])
            assert exc.value.code == 2


PAIR = SkeletonGraph(2, frozenset({0, 1}), frozenset({(0, 1)}))
LOOP = SkeletonGraph(1, frozenset({0}), frozenset())
TRIANGLE = SkeletonGraph(3, frozenset(), frozenset({(0, 1), (0, 2), (1, 2)}))
HALF = F(1, 2)


def _stop(call) -> ConstructionError:
    with pytest.raises(ConstructionError) as err:
        call()
    return err.value


def _tally(x, n, s):
    return build_balanced_matrix(x, n, s, hamdec.polytope.positive_certificate(incidence(s), x))


def _realization_stop(n, seed) -> ConstructionError:
    """`realize`'s stop on the triangle-1/2 sample that `decompose` draws
    for n and seed; triangle-1/2 needs no refinement."""
    g = sample_graph(TRI_GRAPHON, n, seed)
    z = plan(TRI_GRAPHON).base
    a = _tally(empirical_concentration(g, 3), n, z.skeleton)
    out = REALIZE_MODULE.realize(a, g, z.skeleton, derive(seed, "decompose"))
    assert not out.ok and out.decomposition is None
    return out.failure


# each stage reached through the public function that stops there
STAGE_STOPS = {
    "plan": lambda: plan(BIP_UNEVEN).failure,
    "preconditions": lambda: _stop(lambda: _tally((HALF, HALF), 3, PAIR)),
    "membership": lambda: _stop(lambda: _tally((F(6, 10), F(3, 10), F(1, 10)), 10, TRIANGLE)),
    "loopless-membership": lambda: _stop(lambda: _tally((F(1),), 3, LOOP)),
    "postconditions": lambda: _stop(lambda: _tally((HALF, HALF), 2, PAIR)),
    "long-cycles": lambda: _realization_stop(5, 2),
    "two-cycles": lambda: _realization_stop(5, 3),
}


class TestStages:
    def test_every_stage_has_a_case(self):
        assert tuple(STAGE_STOPS) == STAGES

    @pytest.mark.parametrize("stage", STAGES)
    def test_stage_is_reached(self, stage):
        err = STAGE_STOPS[stage]()
        assert isinstance(err, ConstructionError) and err.stage == stage
        assert str(err) == f"{stage}: " + "; ".join(err.failures)

    @pytest.mark.parametrize("stage", STAGES)
    def test_stop_survives_pickling(self, stage):
        # a pooled Monte Carlo row comes back pickled, with its stop
        err = STAGE_STOPS[stage]()
        back = pickle.loads(pickle.dumps(err))
        assert back is not err and type(back) is ConstructionError
        assert (back.stage, back.failures, str(back)) == (err.stage, err.failures, str(err))
        assert back == err and hash(back) == hash(err)
        assert back != ConstructionError(stage, err.failures + ("another",))

    def test_kept_stops_hold_no_traceback(self):
        # a caught stop's traceback keeps the catching frames, and the sample
        # in their locals, alive for as long as the stop is kept
        kept = [
            run_pipeline(plan(TRI_GRAPHON), sample_graph(TRI_GRAPHON, 7, 1), 1).failure,
            run_pipeline(plan(TRI_GRAPHON), sample_graph(TRI_GRAPHON, 5, 2), derive(2, "decompose")).failure,
            run_trial(TRI_GRAPHON, 7, 0, 0).failure,
            run_trial(TRI_GRAPHON, 5, 0, 3).failure,
            _realization_stop(5, 2),
        ]
        assert [err.stage for err in kept] == ["membership", "long-cycles"] * 2 + ["long-cycles"]
        assert all(err.__traceback__ is None for err in kept)

    @pytest.mark.parametrize(
        "seed, stage", [(1, "plan"), (1, "membership"), (2, "long-cycles"), (3, "two-cycles")]
    )
    def test_decompose_names_the_realization_stage(self, tmp_path, capsys, seed, stage):
        # a stop of each phase under its heading: a bipartite graphon stops at
        # its plan, triangle-1/2 at n = 7 in its tally and at n = 5 in realization
        w, n, heading = {
            "plan": (BIP_UNEVEN, 10, "cannot decompose"),
            "membership": (TRI_GRAPHON, 7, "tally construction failed"),
        }.get(stage, (TRI_GRAPHON, 5, "realization failed"))
        path = tmp_path / "w.json"
        io.dump_graphon(w, path)
        assert cli.main(["decompose", str(path), "--n", str(n), "--seed", str(seed)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        stop = run_pipeline(plan(w), sample_graph(w, n, seed), derive(seed, "decompose")).failure
        assert stop.stage == stage and HEADINGS[stage] == heading
        assert captured.err == f"{heading}: {stop}\n"
        if heading == "realization failed":
            assert stop == _realization_stop(5, seed)


def _shifted(real):
    """`realize` whose decomposition is relabelled v -> v + 1 (mod n), which
    at p = 1/2 routes some arc through a non-edge of the sample."""

    def shifted(*args):
        out = real(*args)
        if not out.ok:
            return out
        h = out.decomposition
        cycles = [tuple((v + 1) % h.n for v in c) for c in h.cycles]
        return replace(out, decomposition=HamDecomposition(h.n, cycles))

    return shifted


class TestWitnessFirstOracle:
    @pytest.mark.parametrize(
        "w, n, trial, constructive, oracle, matchings, hall_checks",
        [
            (TRI_GRAPHON, 60, 1, True, True, 0, 0),  # the realized decomposition answers
            (TRI_GRAPHON, 60, 0, False, False, 0, 1),  # exterior: a Hall set answers
            (ER_HALF, 30, 3, False, True, 1, 0),  # one exists, but realization failed
            (BIP_UNEVEN, 60, 0, False, False, 0, 1),  # no odd cycle, and exterior
            (TRI_EXTERIOR, 61, 2, False, False, 0, 1),  # an exterior graphon
            (LOOP_EXTERIOR, 60, 0, False, False, 0, 1),  # exterior, and needs refinement
        ],
    )
    def test_matching_runs_only_without_a_witness(
        self, monkeypatch, w, n, trial, constructive, oracle, matchings, hall_checks
    ):
        oracles = _counting(monkeypatch, hamdec.driver, "graph_has_decomposition")
        hk = _counting(monkeypatch, REALIZE_MODULE, "_has_perfect_matching")
        halls = _counting(monkeypatch, REALIZE_MODULE, "_check_hall_set")
        matrices = _counting(monkeypatch, hamdec.sampling.SampledGraph, "adjacency")
        tr = run_trial(w, n, 5, trial)
        assert (tr.constructive, tr.oracle) == (constructive, oracle)
        assert len(oracles) == 1 and len(hk) == matchings and len(halls) == hall_checks
        # ER-1/2 realizes in a re-blocked copy; it reads the sample's matrix
        assert len({id(g.bits) for g, in matrices}) == 1

    def test_witness_off_the_sample_raises_from_montecarlo(self, monkeypatch):
        # an invariant break, never a failed trial and never a fallback
        hk = _counting(monkeypatch, REALIZE_MODULE, "_has_perfect_matching")
        monkeypatch.setattr(hamdec.driver, "realize", _shifted(hamdec.driver.realize))
        with pytest.raises(RuntimeError, match="is not an edge of the graph"):
            montecarlo(TRI_GRAPHON, 60, 4, 5)
        assert hk == []  # trial 0's Hall set answers; trial 1 raises

    def test_hall_set_that_violates_nothing_raises_from_montecarlo(self, monkeypatch):
        # every block: as many neighbours as nodes, so Hall's condition holds
        hk = _counting(monkeypatch, REALIZE_MODULE, "_has_perfect_matching")
        monkeypatch.setattr(
            hamdec.polytope, "hall_violator", lambda s, counts: frozenset(range(s.node_count))
        )
        # the certificate's integer check refuses it before the sample's check
        with pytest.raises(RuntimeError, match=r"Hall set \[0, 1, 2\] violates nothing on counts"):
            montecarlo(TRI_GRAPHON, 60, 4, 5)
        assert hk == []

    def test_lp_and_flow_disagreeing_raises_from_montecarlo(self, monkeypatch):
        # a flow that places every vector inside; the uneven bipartite one
        # lies off Z's column space, so the real LP's phase 1 finds no c
        hk = _counting(monkeypatch, REALIZE_MODULE, "_has_perfect_matching")
        monkeypatch.setattr(hamdec.polytope, "hall_violator", lambda s, counts: None)
        with pytest.raises(RuntimeError, match="membership LP is infeasible"):
            montecarlo(BIP_UNEVEN, 60, 4, 5)
        assert hk == []

    def test_decompose_prints_no_arc_off_the_sample(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "w.json"
        io.dump_graphon(ER_HALF, path)
        args = ["decompose", str(path), "--n", "60", "--seed", "4"]
        monkeypatch.setattr(hamdec.driver, "realize", _shifted(hamdec.driver.realize))
        with pytest.raises(RuntimeError, match="is not an edge of the graph"):
            cli.main(args)
        assert capsys.readouterr().out == ""


class TestIO:
    def test_graphon_round_trip(self, tmp_path):
        path = tmp_path / "w.json"
        io.dump_graphon(TRI_GRAPHON, path)
        again = io.load_graphon(path)
        assert again == TRI_GRAPHON

    def test_decimal_is_exact(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"sigma": [0, 0.3, 1], "values": [[0, 0.5], [0.5, 0]]}')
        w = io.load_graphon(path)
        assert w.partition.breakpoints == (F(0), F(3, 10), F(1))
        assert w.values[0][1] == F(1, 2)

    def test_fraction_strings(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"sigma": ["0", "1/3", "1"], "values": [["1/7", "0"], ["0", "2/7"]]}')
        w = io.load_graphon(path)
        assert w.partition.breakpoints == (F(0), F(1, 3), F(1))
        assert w.values[0][0] == F(1, 7)

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"sigma": [0, 1], "values": [[0.5]')
        with pytest.raises(io.FormatError) as err:
            io.load_graphon(path)
        assert "line" in str(err.value)

    def test_field_error_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"sigma": [0, "x/y", 1], "values": [[0.5]]}')
        with pytest.raises(io.FormatError) as err:
            io.load_graphon(path)
        assert "sigma[1]" in str(err.value)

    def test_non_list_sigma_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"sigma": 5, "values": [[0.5]]}')
        with pytest.raises(io.FormatError, match="sigma"):
            io.load_graphon(path)
        assert cli.main(["analyze", str(path)]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"sigma": [0, 1]}', "missing field 'values'"),
            ('{"sigma": [0, 1], "values": [0.5]}', "'values' must be a matrix"),
            ('{"sigma": [0, 0.5, 1], "values": [[0, 1], [0.5, 0]]}', "must be symmetric"),
        ],
    )
    def test_graphon_schema_error_is_a_format_error(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(io.FormatError, match=message):
            io.load_graphon(path)
        assert cli.main(["analyze", str(path)]) == 2

    def test_graph_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("5")
        with pytest.raises(io.FormatError, match="top level"):
            io.load_graph(path)

    @pytest.mark.parametrize(
        "field,value",
        [("coords", {"a": 1}), ("edges", [[0, 1, 2]]), ("edges", [[0, "x"]])],
    )
    def test_malformed_graph_field_is_a_format_error(self, tmp_path, field, value):
        doc = {"n": 2, "coords": [0.1, 0.7], "blocks": [0, 0], "edges": [[0, 1]]}
        doc[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(io.FormatError, match="bad.json"):
            io.load_graph(path)

    def test_graph_length_checked_before_the_matrix(self, tmp_path):
        # n = 10^7 would take 12.5 TB of matrix: the lengths refuse it first
        doc = {"n": 10**7, "coords": [0.1], "blocks": [0], "edges": []}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(io.FormatError, match="length n"):
            io.load_graph(path)

    def test_graph_shape_and_range_errors_are_format_errors(self, tmp_path):
        for field, value in (
            ("coords", [0.1]),
            ("blocks", [0, 0, 0]),
            ("edges", [[0, 2]]),
            ("edges", [[0, 1], [1, 0]]),
        ):
            doc = {"n": 2, "coords": [0.1, 0.7], "blocks": [0, 0], "edges": [[0, 1]]}
            doc[field] = value
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(io.FormatError):
                io.load_graph(path)

    @pytest.mark.parametrize(
        "fields",
        [
            {"blocks": [0.7, 1.2]},
            {"edges": [[0, 1.9]]},
            {"blocks": [0, -1]},
            {"n": True, "coords": [0.1], "blocks": [0], "edges": []},
            {"blocks": [0, True]},
            {"n": 2.5},
        ],
    )
    def test_bad_graph_number_is_a_format_error(self, tmp_path, fields):
        # non-integral labels and endpoints were truncated, a negative label
        # and a boolean n were taken as they stood
        doc = {"n": 2, "coords": [0.1, 0.7], "blocks": [0, 1], "edges": [[0, 1]], **fields}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(io.FormatError, match="bad.json"):
            io.load_graph(path)

    def test_integral_json_numbers_are_integers(self, tmp_path):
        # one rule for n, blocks and edges: 2.0 is the integer 2
        doc = {"n": 2.0, "coords": [0.0, 0.7], "blocks": [0.0, 1e0], "edges": [[0, 1.0]]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        g = io.load_graph(path)
        assert (g.n, g.blocks.tolist(), g.pair_set()) == (2, [0, 1], {(0, 1)})
        assert g.coords.tolist() == [0.0, 0.7]

    def test_integral_float_edges_load(self, tmp_path):
        doc = {"n": 2, "coords": [0.1, 0.7], "blocks": [0, 1], "edges": [[0.0, 1.0]]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        assert io.load_graph(path).pair_set() == {(0, 1)}

    def test_reversed_edges_load_canonical(self, tmp_path):
        doc = {"n": 3, "coords": [0.1, 0.5, 0.7], "blocks": [0, 0, 0], "edges": [[2, 0], [1, 0]]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        assert io.load_graph(path).edges.tolist() == [[0, 1], [0, 2]]

    def test_graph_round_trip(self, tmp_path):
        g = sample_graph(ER_HALF, 25, 3)
        path = tmp_path / "g.json"
        io.dump_graph(g, path)
        again = io.load_graph(path)
        assert again.n == g.n
        assert np.array_equal(again.coords, g.coords)
        assert np.array_equal(again.blocks, g.blocks)
        assert np.array_equal(again.edges, g.edges)


class TestCLI:
    def _write(self, tmp_path, w=None):
        path = tmp_path / "w.json"
        io.dump_graphon(w or ER_HALF, path)
        return str(path)

    def test_analyze_exit_and_text(self, tmp_path, capsys):
        path = self._write(tmp_path)
        assert cli.main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "condition A (odd cycle): yes" in out
        assert "H-property predicted" in out

    def test_analyze_json_report(self, tmp_path):
        path = self._write(tmp_path)
        report = tmp_path / "r.json"
        assert cli.main(["analyze", path, "--json", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["verdict"] == "predicts-h"
        assert doc["condition_a"] is True

    def test_sample_decompose(self, tmp_path, capsys):
        path = self._write(tmp_path)
        out = tmp_path / "g.json"
        assert cli.main(["sample", path, "--n", "20", "--seed", "4", "--out", str(out)]) == 0
        assert io.load_graph(out).n == 20
        assert cli.main(["decompose", path, "--n", "60", "--seed", "4"]) == 0
        text = capsys.readouterr().out
        assert "tally matrix" in text and "2-cycle" in text

    def test_decompose_failure_exit_one(self, tmp_path):
        # all-zero graphon: pipeline cannot start
        path = self._write(tmp_path, step_graphon([0, 1], [[0]]))
        assert cli.main(["decompose", path, "--n", "10", "--seed", "1"]) == 1

    def test_seed_outside_64_bits_exit_two(self, tmp_path, capsys):
        path = self._write(tmp_path)
        out = str(tmp_path / "g.json")
        commands = (
            ["montecarlo", path, "--n", "40", "--trials", "2"],
            ["sample", path, "--n", "40", "--out", out],
            ["decompose", path, "--n", "40"],
        )
        for args in commands:
            for seed in (-1, 2**64):
                assert cli.main(args + ["--seed", str(seed)]) == 2
                assert capsys.readouterr().err == f"error: seed {seed} is outside [0, 2**64)\n"
            assert cli.main(args + ["--seed", str(2**64 - 1)]) == 0

    def test_montecarlo_csv_byte_identical(self, tmp_path):
        path = self._write(tmp_path)
        c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["montecarlo", path, "--n", "20", "--trials", "6", "--seed", "7"]
        assert cli.main(args + ["--csv", str(c1)]) == 0
        assert cli.main(args + ["--csv", str(c2)]) == 0
        assert c1.read_bytes() == c2.read_bytes()

    def test_refine_round_trip(self, tmp_path, capsys):
        path = self._write(tmp_path)
        out = tmp_path / "w2.json"
        assert cli.main(["refine", path, "--block", "0", "--at", "0.5", "--out", str(out)]) == 0
        w2 = io.load_graphon(out)
        assert w2.partition.breakpoints == (F(0), F(1, 2), F(1))
        assert w2.values == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))

    def test_bad_file_exit_two(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert cli.main(["analyze", missing]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert cli.main(["analyze", str(bad)]) == 2

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        path = self._write(tmp_path)
        capsys.readouterr()
        for args in (
            ["sample", path, "--n", "5", "--seed", "1", "--out", str(tmp_path)],
            ["analyze", path, "--json", str(tmp_path)],
        ):
            assert cli.main(args) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err

    def test_memory_error_exit_two(self, tmp_path, capsys, monkeypatch):
        def refuse(w, n, seed):
            raise MemoryError("cannot allocate the pair uniforms")

        monkeypatch.setattr(cli, "sample_graph", refuse)
        path = self._write(tmp_path)
        capsys.readouterr()
        out = str(tmp_path / "g.json")
        assert cli.main(["sample", path, "--n", "5", "--seed", "1", "--out", out]) == 2
        assert capsys.readouterr().err == "error: cannot allocate the pair uniforms\n"

    def test_refine_bad_point_exit_two(self, tmp_path, capsys):
        path = self._write(tmp_path)
        assert cli.main(["refine", path, "--block", "0", "--at", "1", "--out", "x"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert cli.main(["refine", path, "--block", "3", "--at", "0.5", "--out", "x"]) == 2
        assert capsys.readouterr().err == "error: block 3 out of range\n"

    def test_refine_zero_denominator_exit_two(self, tmp_path, capsys):
        path = self._write(tmp_path)
        out = tmp_path / "x.json"
        assert cli.main(["refine", path, "--block", "0", "--at", "1/0", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_values_checked_before_the_run(self, tmp_path, capsys, monkeypatch):
        def run(*args, **kwargs):
            raise AssertionError("the run started")

        for name in ("montecarlo", "analyze", "sample_graph", "refine_once"):
            monkeypatch.setattr(cli, name, run)
        path = self._write(tmp_path)
        args = ["montecarlo", path, "--n", "20", "--trials", "2", "--seed", "1"]
        for flag, message in (("--n", "n"), ("--trials", "trials"), ("--jobs", "jobs")):
            assert cli.main(args + [flag, "0"]) == 2
            assert capsys.readouterr().err == f"error: {message} must be positive, got 0\n"
        # an output path that is a directory or lies in a missing one (or in a
        # file) fails as the write would, but before the run and with no output
        for out in (str(tmp_path), str(tmp_path / "no" / "x.json"), path + "/x.json"):
            with pytest.raises(OSError) as write:
                open(out, "w")
            for argv in (
                args + ["--csv", out],
                ["analyze", path, "--json", out],
                ["sample", path, "--n", "5", "--seed", "1", "--out", out],
                ["refine", path, "--block", "0", "--at", "1/2", "--out", out],
            ):
                assert cli.main(argv) == 2
                assert capsys.readouterr() == ("", f"error: {write.value}\n")

    def test_a_value_error_in_the_run_is_a_bug(self, tmp_path, monkeypatch):
        # only the checked input reads as bad input: a ValueError raised
        # inside the pipeline ends in a traceback, not in exit code 2
        def broken(*args):
            raise ValueError("boom")

        monkeypatch.setattr(hamdec.refine, "refine_once", broken)
        path = self._write(tmp_path)
        plan.cache_clear()  # planning ER-1/2 afresh splits its looped block
        try:
            with pytest.raises(ValueError, match="boom"):
                cli.main(["montecarlo", path, "--n", "60", "--trials", "2", "--seed", "1"])
        finally:
            plan.cache_clear()
