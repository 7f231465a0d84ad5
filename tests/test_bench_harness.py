"""`benchmarks/harness.py` times calls between yardstick runs, takes raw
and scaled medians, and writes every `BENCH_*.json` report in one layout."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "harness.py"
HEAD = ["benchmark", "command", "host", "python", "numpy"]
TAIL = ["yardstick", "results"]

_saved = sys.path[:]
spec = importlib.util.spec_from_file_location("harness", SCRIPT)
harness = importlib.util.module_from_spec(spec)
spec.loader.exec_module(harness)
LOADED_PATH = sys.path[:3]
sys.path[:] = _saved  # the rest of the suite keeps its own import paths


class FakeYardstick:
    """Logs its runs; scales every span to half its length."""

    def __init__(self, log=None, durations=()):
        self.log = log if log is not None else []
        self.durations = list(durations)

    def maybe(self):
        self.log.append("yardstick")

    def scale(self, start, end):
        return (end - start) / 2


def test_importing_puts_the_checkout_first():
    assert LOADED_PATH == [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT)]


def test_medians_of_no_spans():
    assert harness.medians(FakeYardstick(), []) == (None, None)


def test_medians_raw_and_scaled():
    spans = [(0.0, 0.001), (1.0, 1.003), (2.0, 2.002)]
    assert harness.medians(FakeYardstick(), spans) == (2.0, 1.0)


def test_timed_spans_one_call_per_repeat_after_the_yardstick():
    log = []
    calls = [lambda: log.append("a"), lambda: log.append("b")]
    spans = harness.timed(FakeYardstick(log), calls, 3)
    assert log == ["yardstick", "a", "yardstick", "b"] * 3
    assert len(spans) == 6
    assert all(t0 <= t1 for t0, t1 in spans)
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def test_write_report_layout(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["bench_membership.py", "--repeats", "1"])
    out = tmp_path / "BENCH_membership.json"
    rows = [{"q": 8}]
    yardstick = FakeYardstick(durations=[0.01, 0.02])
    harness.write_report(out, "membership", yardstick, rows, repeats=1, seeds=[0])
    assert capsys.readouterr().out == f"wrote {out}\n"
    report = json.loads(out.read_text(encoding="utf-8"))
    assert list(report) == HEAD + ["repeats", "seeds"] + TAIL
    assert report["command"] == "python3 benchmarks/bench_membership.py --repeats 1"
    assert list(report["host"]) == ["platform", "machine", "cpu_count"]
    assert report["yardstick"] == {"nominal_ms": 10.0, "runs": 2, "median_ms": 15.0}
    assert (report["repeats"], report["seeds"], report["results"]) == (1, [0], rows)


@pytest.mark.parametrize("path", sorted((ROOT / "benchmarks").glob("BENCH_*.json")),
                         ids=lambda p: p.name)
def test_committed_reports_share_the_layout(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    keys = list(report)
    assert keys[:len(HEAD)] == HEAD and keys[-len(TAIL):] == TAIL
    script = f"benchmarks/bench_{report['benchmark']}.py"
    assert (ROOT / script).exists() and report["command"].split()[:2] == ["python3", script]


def test_the_layout_test_reads_the_committed_reports():
    names = {p.name for p in (ROOT / "benchmarks").glob("BENCH_*.json")}
    assert {"BENCH_membership.json", "BENCH_phase2.json"} <= names
