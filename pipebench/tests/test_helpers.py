"""Tests of the benchmark's own helpers: tracer arithmetic and patching,
the interior graphon generator, and the correctness gate's digests."""

import importlib
from dataclasses import replace

import hamdec
from hamdec import driver
from hamdec.polytope import Membership, positive_certificate
from hamdec.model import concentration, incidence, skeleton

from pipebench import gate
from pipebench.graphons import TRI_HALF, check_interior, interior_graphon
from pipebench.trace import TRACED, Tracer, patched, summarize
from pipebench.yardstick import NOMINAL_S, WINDOW_S, Yardstick


def test_self_time_of_a_synthetic_nested_call():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0, 20.0, 21.0])
    tr = Tracer(clock=lambda: next(ticks))
    inner = tr.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tr.wrap("outer", body)
    outer()  # outer 0..10, inner 1..3 and 4..7
    inner()  # a second operation: 20..21
    stats, root_wall = summarize(tr.spans)
    assert stats["outer"].calls == 1 and stats["outer"].self_s == 5.0
    assert stats["inner"].calls == 3 and stats["inner"].self_s == 6.0
    assert root_wall == 11.0
    assert [sp.op for sp in tr.spans] == [0, 0, 0, 1]
    assert [sp.parent for sp in tr.spans] == [-1, 0, 0, -1]


def test_span_records_exception_and_ok_flag():
    tr = Tracer()

    class Outcome:
        ok = False

    def boom():
        raise KeyError("x")

    tr.wrap("f", lambda: Outcome())()
    try:
        tr.wrap("g", boom)()
    except KeyError:
        pass
    f, g = tr.spans
    assert f.ok is False and f.error is None
    assert g.ok is None and g.error == "KeyError"
    assert g.end >= g.start


def test_patched_wraps_caller_bindings_and_restores_them():
    realize_mod = importlib.import_module("hamdec.realize")
    originals = {
        "driver.realize": driver.realize,
        "package.realize": hamdec.realize,
        "module.realize": realize_mod.realize,
        "driver.graph_has_decomposition": driver.graph_has_decomposition,
    }
    assert callable(hamdec.realize) and not hasattr(hamdec.realize, "__path__")
    base = driver.montecarlo(TRI_HALF, 40, 3, 9)
    tr = Tracer()
    with patched(tr):
        assert driver.realize is not originals["driver.realize"]
        assert hamdec.realize is not originals["package.realize"]
        traced = driver.montecarlo(TRI_HALF, 40, 3, 9)
    assert driver.realize is originals["driver.realize"]
    assert hamdec.realize is originals["package.realize"]
    assert realize_mod.realize is originals["module.realize"]
    assert driver.graph_has_decomposition is originals["driver.graph_has_decomposition"]
    assert traced.to_csv() == base.to_csv()
    stats, _ = summarize(tr.spans)
    assert len({sp.op for sp in tr.spans}) == 3 and stats["driver.run_trial"].calls == 3
    assert stats["realize.graph_has_decomposition"].calls == 3
    assert stats["sampling.adjacency"].calls >= 3
    assert set(stats) <= set(TRACED)


def test_generator_is_deterministic_and_interior():
    a, b = interior_graphon(16, 5), interior_graphon(16, 5)
    assert a == b
    assert interior_graphon(16, 6) != a
    assert check_interior(a) == []
    s = skeleton(a.graphon)
    assert s.node_count == 16 and {(0, 1), (0, 2), (1, 2)} <= s.edges
    cert = positive_certificate(incidence(s), concentration(a.graphon.partition))
    assert cert.status is Membership.INTERIOR


def test_interior_check_catches_a_wrong_witness():
    g = interior_graphon(8, 3)
    bumped = (g.weights[0] + 1,) + g.weights[1:]
    assert check_interior(replace(g, weights=bumped))
    assert check_interior(replace(g, weights=(0,) + g.weights[1:]))
    assert check_interior(replace(g, edges=g.edges[1:], weights=g.weights[1:]))


def test_digests_are_stable_across_calls():
    g = interior_graphon(8, 4).graphon
    d1 = gate.digest(driver.montecarlo(g, 60, 3, 17).to_csv())
    d2 = gate.digest(driver.montecarlo(g, 60, 3, 17).to_csv())
    assert d1 == d2
    assert gate.report_digest(driver.analyze(g)) == gate.report_digest(driver.analyze(g))


def test_gate_rejects_witness_without_oracle_and_bad_certificate():
    rep = driver.montecarlo(TRI_HALF, 40, 2, 3)
    csv = rep.to_csv()
    assert gate.check_montecarlo_csv(csv, 40, 2) == ([], 0)
    header, row, *rest = csv.splitlines()
    fields = row.split(",")
    fields[3], fields[4] = "0", "1"
    bad = "\n".join([header, ",".join(fields), *rest]) + "\n"
    fails, count = gate.check_montecarlo_csv(bad, 40, 2)
    assert count == 1 and "constructive" in fails[0]
    assert gate.check_montecarlo_csv(csv, 40, 3)[1] == 3

    g = interior_graphon(8, 4).graphon
    report = driver.analyze(g)
    assert gate.check_analysis(report, g, "predicts-h") == []
    assert gate.check_analysis(report, g, "predicts-not-h")
    cert = report.certificate
    c, d = cert.coefficients, cert.margin / 2  # same sum, different Z c
    moved = (c[0] + d, c[1] - d) + c[2:]
    broken = replace(report, certificate=replace(cert, coefficients=moved))
    assert any("Z c != x" in f for f in gate.check_analysis(broken, g, "predicts-h"))


def test_yardstick_scales_by_the_median_around_an_operation():
    ys = Yardstick()
    ys.ends = [0.0, 0.5, 1.0, 3.0, 5.0, 9.0]
    ys.durations = [d * NOMINAL_S for d in (1, 2, 3, 4, 5, 6)]
    assert WINDOW_S == 1.0
    # within a second of 3.2..4.8: the yardsticks ending at 3 and 5
    assert abs(ys.slowness(3.2, 4.8) - 4.5) < 1e-12
    assert abs(ys.scale(3.2, 4.8) - 1.6 / 4.5) < 1e-12
    # none after 7.5 within the window: the next one, at 9, still counts
    assert abs(ys.slowness(5.5, 7.5) - 5.5) < 1e-12
    # 0.2..0.4: the ones at 0, 0.5 and 1.0
    assert abs(ys.slowness(0.2, 0.4) - 2.0) < 1e-12


def test_yardstick_measures_at_most_once_per_interval():
    now = [0.0]
    ys = Yardstick(clock=lambda: now[0])
    ys.maybe()
    ys.maybe()
    assert len(ys.durations) == 1
    now[0] = 10.0
    ys.maybe()
    assert ys.ends == [0.0, 10.0]
