#!/usr/bin/env python3
"""Pipeline benchmark for hamdec: Monte Carlo throughput, `analyze` latency,
and where the time goes, layer by layer.

One workload, one fresh process:

    python3 pipebench/run.py --workload mc-tri-n1000 --seed 3 --seconds 35 --trace 0

Every workload in turn, each in its own process, as a table:

    python3 pipebench/run.py --all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

Re-record the default-seed CSV digests after a declared sampler change:

    python3 pipebench/run.py --record

The last line of a workload run is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the environment and the counts behind the metrics.  With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones from
an outside-in trace (see `trace.py`).  Every timed `montecarlo` and
`analyze` report passes the correctness gate (see `gate.py`), and CSV
digests for the default seed must equal `digests.json`; a failure exits 1.
The package is imported from `src/` beside this directory; without it the
run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 1
PRIMARY_SHARE = 0.75  # of an untraced run's busy time; the other operation gets the rest
SETUP_PROBES = 4  # fresh processes that repeat the set-up, besides the run's own
RECORD_UNITS = {"mc-tri-n1000": 24, "analyze-sweep": 40, "mc-mix-n200-jobs2": 12}
E2E_UNITS = {
    "trials_per_s": "1/s",
    "analyze_p50_ms": "ms",
    "analyze_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
MC, AN = "montecarlo", "analyze"
# Reached on some workloads only (a tally that needs rounding, a successful
# realization), so elsewhere their times would read 0 on every run: only
# their call counts are metrics.  The info line has their times.
CALLS_ONLY = ("sampling.count_block_edges", "construct.matrix_round")


def fail_usage(msg: str):
    print(f"pipebench: {msg}", file=sys.stderr)
    sys.exit(2)


def use_source():
    """Import the package from this checkout's `src/` and nowhere else."""
    if not (SRC / "hamdec" / "__init__.py").is_file():
        fail_usage(f"no package source at {SRC.relative_to(ROOT)}/hamdec")
    sys.path[:0] = [str(SRC), str(ROOT)]


def setup(name: str, seed: int):
    """Import the package and generate the workload's inputs; timed.
    Returns the raw seconds, the seconds scaled by yardsticks taken just
    before and after (see `yardstick.py`), and the inputs."""
    use_source()
    from pipebench.yardstick import Yardstick

    ys = Yardstick()
    ys.measure()
    t0 = time.perf_counter()
    import hamdec

    from pipebench import workloads

    if name not in workloads.WORKLOADS:
        fail_usage(f"unknown workload {name}")
    mc_items, an_items = workloads.inputs(name, seed)
    t1 = time.perf_counter()
    ys.measure()
    if Path(hamdec.__file__).resolve().parent != SRC / "hamdec":
        fail_usage(f"imported hamdec from {hamdec.__file__}, not from {SRC}")
    return t1 - t0, ys.scale(t0, t1), {MC: mc_items, AN: an_items}


@dataclass
class Pass:
    """What one pass over a workload's operations did and measured."""

    units: dict = field(default_factory=dict)  # kind -> units run
    mc_wall: float = 0.0  # seconds inside timed montecarlo calls
    trials: int = 0
    constructive: int = 0
    latencies: list = field(default_factory=list)  # analyze seconds, per call
    mc_spans: list = field(default_factory=list)  # (start, end) of each timed montecarlo call
    an_spans: list = field(default_factory=list)  # (graphon label, start, end) of each timed analyze call
    yardstick: object = None  # pipebench.yardstick.Yardstick, timed between operations
    digests: dict = field(default_factory=lambda: {MC: [], AN: []})
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def fail(self, ops: int, *why: str):
        self.failed += ops
        self.failures.extend(why)

    def absorb(self, other: "Pass"):
        """Count another pass's operations and failures into this one."""
        self.attempted += other.attempted
        self.fail(other.failed, *other.failures)
        self.digests[MC].extend(other.digests[MC])

    @property
    def op_wall(self) -> float:
        return self.mc_wall + sum(self.latencies)


def interleave(units: dict, order: tuple, seconds: float, share: float, at_least: dict) -> dict:
    """Run the units of two kinds, unit(0), unit(1), ... of each, switching so
    that order[0] gets `share` of the busy time and both span the whole run.
    Stops before a unit that is expected to end after `seconds`, once each
    kind has run `at_least[kind]` units (the second kind runs only that
    often when `share` is 1).  Returns the counts."""
    first, second = order
    spent = {first: 0.0, second: 0.0}
    done = {first: 0, second: 0}
    last = {first: 0.0, second: 0.0}
    t0 = time.perf_counter()
    while True:
        behind = spent[second] < spent[first] * (1 - share) / share
        kind = second if behind or (done[first] and not done[second]) else first
        if done[kind] and time.perf_counter() - t0 + last[kind] > seconds:
            short = [k for k in order if done[k] < at_least[k]]
            if not short:
                return done
            kind = short[0]
        s = time.perf_counter()
        units[kind](done[kind])
        last[kind] = time.perf_counter() - s
        spent[kind] += last[kind]
        done[kind] += 1


def run_pass(wl, items: dict, seed: int, jobs: int, *, seconds=None, share=PRIMARY_SHARE, counts=None,
             every_graphon=False) -> Pass:
    """Run the workload's operations for `seconds`, interleaved (see
    `interleave`), or exactly `counts` = {kind: units}.  One unit is one
    `montecarlo` call per Monte Carlo graphon, or one `analyze` call per
    graphon of an analyze group; unit k uses group k mod len.  With
    `every_graphon`, a timed pass runs every analyze group at least once."""
    # `driver.montecarlo` and `driver.analyze` are looked up per call, so a
    # traced pass sees the wrapped functions
    from hamdec import driver

    from pipebench import gate
    from pipebench.workloads import mix_seed
    from pipebench.yardstick import Yardstick

    p = Pass(yardstick=Yardstick())

    def mc_unit(k):
        for it in items[MC]:
            p.attempted += wl.trials_per_call
            master = mix_seed(wl.name, seed, k, it.label)
            p.yardstick.maybe()
            t0 = time.perf_counter()
            try:
                rep = driver.montecarlo(it.graphon, wl.n, wl.trials_per_call, master, jobs=jobs)
            except Exception as exc:  # counted against the run, which goes on
                p.fail(wl.trials_per_call, f"montecarlo {it.label} unit {k}: {exc!r}")
                continue
            t1 = time.perf_counter()
            p.mc_wall += t1 - t0
            p.mc_spans.append((t0, t1))
            csv = rep.to_csv()
            fails, bad = gate.check_montecarlo_csv(csv, wl.n, wl.trials_per_call)
            p.fail(bad, *(f"montecarlo {it.label} unit {k}: {f}" for f in fails))
            p.trials += rep.trials
            p.constructive += rep.successes_constructive
            p.digests[MC].append((f"{k}:{it.label}", gate.digest(csv)))

    def an_unit(k):
        for it in items[AN][k % len(items[AN])]:
            p.attempted += 1
            p.yardstick.maybe()
            t0 = time.perf_counter()
            try:
                rep = driver.analyze(it.graphon)
            except Exception as exc:  # counted against the run, which goes on
                p.fail(1, f"analyze {it.label}: {exc!r}")
                continue
            t1 = time.perf_counter()
            p.latencies.append(t1 - t0)
            p.an_spans.append((it.label, t0, t1))
            fails = gate.check_analysis(rep, it.graphon, it.verdict)
            if fails:
                p.fail(1, *(f"analyze {it.label}: {f}" for f in fails))
            p.digests[AN].append((f"{k}:{it.label}", gate.report_digest(rep)))

    units = {MC: mc_unit, AN: an_unit}
    if counts is None:
        order = (MC, AN) if wl.primary == MC else (AN, MC)
        at_least = {MC: 1, AN: len(items[AN]) if every_graphon else 1}
        p.units = interleave(units, order, seconds, share, at_least)
    else:
        for kind, count in counts.items():
            for k in range(count):
                units[kind](k)
        p.units = dict(counts)
    p.yardstick.measure()  # so the last operation has one after it
    return p


def check_recorded(p: Pass, want: dict) -> None:
    """Default-seed CSV digests must equal the ones recorded for this code;
    the first unit must have one."""
    for key, got in p.digests[MC]:
        if key in want:
            if want[key] != got:
                p.fail(1, f"montecarlo unit {key}: CSV digest differs from digests.json")
        elif key.startswith("0:"):
            p.fail(1, f"montecarlo unit {key}: no digest recorded in digests.json")


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it waited for (pool workers)."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024


def setup_probes(name: str, seed: int) -> list[tuple[float, float]]:
    """Repeat the set-up in fresh interpreters; each prints its raw and
    scaled seconds."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw, scaled = proc.stdout.split()[-2:]
        out.append((float(raw), float(scaled)))
    return out


def environment(seed: int) -> dict:
    from hamdec import _kernels

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "numba_enabled": bool(_kernels.NUMBA_ENABLED),
        "seed": seed,
    }


def per_graphon_ms(spans, duration) -> list[float]:
    """Each graphon's median `analyze` time over the run, in ms, sorted."""
    times: dict[str, list[float]] = {}
    for label, start, end in spans:
        times.setdefault(label, []).append(duration(start, end) * 1000)
    return sorted(statistics.median(v) for v in times.values())


def untraced_metrics(wl, items, seed: int, seconds: float) -> tuple[dict, Pass, dict]:
    """Times are scaled to nominal host speed by the yardstick (see
    `yardstick.py`); the info line keeps the raw ones.  The `analyze`
    percentiles are over graphons, each graphon counting once with its
    median time, so that which graphons a run happened to repeat does not
    move them."""
    p = run_pass(wl, items, seed, wl.jobs, seconds=seconds, every_graphon=True)
    ys = p.yardstick
    lat_ms = per_graphon_ms(p.an_spans, ys.scale)
    raw_ms = per_graphon_ms(p.an_spans, lambda s, e: e - s)
    metrics = {
        "trials_per_s": p.trials / sum(ys.scale(s, e) for s, e in p.mc_spans),
        "analyze_p50_ms": statistics.median(lat_ms),
        "analyze_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = {
        "trials_per_s": p.trials / p.mc_wall,
        "analyze_p50_ms": statistics.median(raw_ms),
        "analyze_p90_ms": statistics.quantiles(raw_ms, n=10)[8],
        "yardstick_ms_median": statistics.median(ys.durations) * 1000,
        "yardsticks": len(ys.durations),
    }
    return metrics, p, {"analyze_calls": len(p.an_spans), "analyze_graphons": len(lat_ms), "raw": raw}


def traced_metrics(wl, items, seed: int, seconds: float) -> tuple[dict, Pass, dict]:
    """A pass at the workload's jobs sets the work: the primary operation
    for the time, and one unit of the other so that every layer it reaches
    is seen.  An untraced and a traced replay of it at jobs=1 give the
    overhead and the per-layer numbers.  Per-operation figures
    divide by the primary operations (trials, or `analyze` calls on the
    sweep).  Parallel efficiency compares the first pass with the untraced
    replay: the jobs=2 gain on the pool workload, 1 up to noise elsewhere."""
    from pipebench.trace import TRACED, LayerStats, Tracer, patched, summarize

    a = run_pass(wl, items, seed, wl.jobs, seconds=seconds * (0.3 if wl.jobs == 1 else 0.2), share=1.0)
    b = run_pass(wl, items, seed, 1, counts=a.units)
    tracer = Tracer()
    with patched(tracer):
        c = run_pass(wl, items, seed, 1, counts=a.units)
    if not a.digests == b.digests == c.digests:
        c.fail(1, "passes over the same work give different digests")

    stats, root_wall = summarize(tracer.spans)
    ops = c.trials if wl.primary == MC else len(c.latencies)
    metrics, layers = {}, {}
    for name in TRACED:
        st = stats.get(name, LayerStats())
        layers[name] = {"calls": st.calls, "self_ms": st.self_s * 1000, "errors": st.errors}
        metrics[f"{name}.calls"] = st.calls / ops
        if name not in CALLS_ONLY:
            metrics[f"{name}.self_ms"] = st.self_s * 1000 / ops
            metrics[f"{name}.share"] = st.self_s / root_wall
    rz = stats.get("realize.realize")
    metrics["realize.realize.ok_ratio"] = rz.ok / rz.calls if rz else 0.0
    bb = stats.get("construct.build_balanced_matrix")
    metrics["construct.build_balanced_matrix.error_ratio"] = (
        bb.errors.get("ConstructionError", 0) / bb.calls if bb else 0.0
    )
    metrics["driver.constructive_rate"] = c.constructive / c.trials if c.trials else 0.0
    metrics["driver.parallel_efficiency"] = (a.trials / a.mc_wall) / (wl.jobs * b.trials / b.mc_wall)
    metrics["trace.overhead_share"] = (c.op_wall - b.op_wall) / b.op_wall

    merged = Pass(units=a.units, trials=c.trials, constructive=c.constructive)
    for part in (a, b, c):
        merged.absorb(part)
    return metrics, merged, {"primary_ops": ops, "layers": layers}


def layer_unit(metric: str) -> str:
    suffix = metric.rsplit(".", 1)[-1]
    return {"calls": "count", "self_ms": "ms"}.get(suffix, "ratio")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    setup_raw, setup_scaled, items = setup(name, seed)
    from pipebench.workloads import WORKLOADS

    wl = WORKLOADS[name]
    recorded = json.loads(DIGESTS.read_text()).get(name, {}) if DIGESTS.is_file() else {}
    metrics, p, extra = (traced_metrics if trace else untraced_metrics)(wl, items, seed, seconds)
    if seed == DEFAULT_SEED:
        check_recorded(p, recorded)
    else:  # the gate always sees default-seed bytes: replay the first unit
        ref = run_pass(wl, items, DEFAULT_SEED, wl.jobs, counts={MC: 1})
        check_recorded(ref, recorded)
        p.absorb(ref)
    if not trace:
        setups = [(setup_raw, setup_scaled)] + setup_probes(name, seed)
        metrics["setup_s"] = statistics.median(s for _, s in setups)
        extra["raw"]["setup_s"] = statistics.median(r for r, _ in setups)

    info = {
        "workload": name,
        "trace": int(trace),
        "env": environment(seed),
        "units_run": p.units,
        "trials": p.trials,
        "constructive_rate": p.constructive / p.trials if p.trials else None,
        "error_share": p.failed / p.attempted,
        "failures": p.failures[:20],
        **extra,
    }
    out = {k: {"value": v, "unit": layer_unit(k) if trace else E2E_UNITS[k]} for k, v in metrics.items()}
    correct = p.failed == 0
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": p.attempted, "failed": p.failed, "metrics": out}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool, out: Path | None) -> int:
    use_source()
    from pipebench.workloads import WORKLOADS

    status, results = 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            status = 1
            print(f"{name}: exit {proc.returncode}\n{proc.stderr.strip()}")
        if len(lines) < 2:
            continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        results[name] = {"info": info, "result": result}
        print(f"{name}  correct={result['correct']}  attempted={result['attempted']}  failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:48s} {m['value']:14.4f} {m['unit']}")
    if out is not None:
        out.write_text(json.dumps(results, indent=1) + "\n")
    return status


def record() -> int:
    """Write the CSV digests of the first units of each workload's Monte
    Carlo phase at the default seed."""
    use_source()
    from pipebench import workloads

    digests = {}
    for name, wl in workloads.WORKLOADS.items():
        mc_items, an_items = workloads.inputs(name, DEFAULT_SEED)
        p = run_pass(wl, {MC: mc_items, AN: an_items}, DEFAULT_SEED, wl.jobs, counts={MC: RECORD_UNITS[name]})
        if p.failed:
            print(f"{name}: {p.failures}", file=sys.stderr)
            return 1
        digests[name] = dict(p.digests[MC])
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    ap.add_argument("--out", type=Path, help="with --all: write every result to this JSON file")
    ap.add_argument("--record", action="store_true", help="re-record digests.json")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail_usage("--seconds must be positive")
    if args.record:
        return record()
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace), args.out)
    if not args.workload:
        fail_usage("give --workload NAME or --all")
    if args.setup_probe:
        raw, scaled, _ = setup(args.workload, args.seed)
        print(raw, scaled)
        return 0
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
