#!/usr/bin/env python3
"""Count and time realization's phase 2 in Monte Carlo trials, and check
its outcomes against the loop that matches every draw.

    python3 benchmarks/bench_phase2.py [--trials 40] [--repeats 5] [--check] [--out benchmarks/BENCH_phase2.json]

Four graphons, each over trials 0 .. trials - 1 of master seed 1 (a
trial's seed is derived from both, as `montecarlo` derives it):
`pipebench.graphons.interior_graphon(8, 1)` at n = 200, whose tallies
often run out of phase-2 draws, ER-1/2 and triangle-1/2 at n = 200, and
triangle-1/2 at n = 1000.  A counting pass runs the trials once and
records, per `realize` call, the `max_bipartite_matching` calls and the
draws the partner check (`realize._all_have_partners`) rejected; these
counts are the same on every host.  With `--check` the pass also hands
every `realize` input to `tests/helpers.py:realize_reference`, which
matches every draw, and exits 1, writing nothing, if an outcome (the
cycles, or the failure text) differs.  A timed pass then runs the trials
`--repeats` times and records the median wall time of a trial.  The JSON
holds the counts, the times and the host, Python and numpy versions.  The
package is imported from `src/` beside this directory.

The raw medians follow the host's speed, which on a shared host drifts by
up to ~1.9x within minutes, so they cannot compare two commits.  Each timed
trial runs between `pipebench.yardstick.Yardstick.maybe()` calls, and
`scaled_ms_per_trial` is the median of the trials' `Yardstick.scale`
times: what a trial takes on a host where the yardstick takes its nominal
time.  Compare two commits by their scaled medians.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT)]

import numpy as np  # noqa: E402

import hamdec.driver  # noqa: E402
from hamdec.driver import run_trial  # noqa: E402
from helpers import realization_key, realize_reference  # noqa: E402
from pipebench.graphons import ER_HALF, TRI_HALF, interior_graphon  # noqa: E402
from pipebench.yardstick import NOMINAL_S, Yardstick  # noqa: E402

realize_module = importlib.import_module("hamdec.realize")  # the package binds `realize` to the function

MASTER_SEED = 1
CASES = (
    ("q8-interior", interior_graphon(8, 1).graphon, 200),
    ("er-half", ER_HALF, 200),
    ("tri-half", TRI_HALF, 200),
    ("tri-half", TRI_HALF, 1000),
)


def counting_pass(w, n: int, trials: int, check: bool) -> tuple[dict, str | None]:
    """Per-`realize` counts over the trials, and the first outcome that
    differs from the reference's (with `check`), or None."""
    realize = realize_module.realize
    matching = realize_module.max_bipartite_matching
    partners = realize_module._all_have_partners
    calls = {"realize": 0, "ok": 0, "matchings": 0, "checks": 0, "rejected": 0}
    differs = []

    def counting_realize(a, g, s, seed):
        calls["realize"] += 1
        out = realize(a, g, s, seed)
        calls["ok"] += out.ok
        if check and not differs and realization_key(out) != realization_key(realize_reference(a, g, s, seed)):
            differs.append(f"realize seed {seed}: the outcome differs from the reference's")
        return out

    def counting_matching(g, left, right):
        calls["matchings"] += 1
        return matching(g, left, right)

    def counting_partners(rows, draw):
        calls["checks"] += 1
        found = partners(rows, draw)
        calls["rejected"] += not found
        return found

    hamdec.driver.realize = counting_realize
    realize_module.max_bipartite_matching = counting_matching
    realize_module._all_have_partners = counting_partners
    try:
        for trial in range(trials):
            run_trial(w, n, MASTER_SEED, trial)
    finally:
        hamdec.driver.realize = realize
        realize_module.max_bipartite_matching = matching
        realize_module._all_have_partners = partners
    per = max(calls["realize"], 1)
    counts = {
        "realize_calls": calls["realize"],
        "realized": calls["ok"],
        "matchings_per_realize": round(calls["matchings"] / per, 3),
        "checks_per_realize": round(calls["checks"] / per, 3),
        "rejected_draws_per_realize": round(calls["rejected"] / per, 3),
    }
    return counts, (differs[0] if differs else None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=40, help="trials per graphon")
    parser.add_argument("--repeats", type=int, default=5, help="timed passes over the trials")
    parser.add_argument("--check", action="store_true", help="compare every outcome with the reference")
    parser.add_argument("--out", type=Path, default=ROOT / "benchmarks" / "BENCH_phase2.json")
    args = parser.parse_args()
    if args.trials < 1 or args.repeats < 1:
        parser.error("--trials and --repeats must be positive")

    yardstick = Yardstick()
    rows = []
    for name, w, n in CASES:
        counts, differs = counting_pass(w, n, args.trials, args.check)
        if differs is not None:
            print(f"{name} n={n}: {differs}", file=sys.stderr)
            return 1
        spans = []
        for _ in range(args.repeats):
            for trial in range(args.trials):
                yardstick.maybe()
                t0 = time.perf_counter()
                run_trial(w, n, MASTER_SEED, trial)
                spans.append((t0, time.perf_counter()))
        rows.append((name, n, counts, spans))
    yardstick.measure()  # one after the last trial, so every trial has one on each side
    results = []
    for name, n, counts, spans in rows:
        row = {
            "graphon": name,
            "n": n,
            "trials": args.trials,
            **counts,
            "ms_per_trial": round(statistics.median(1e3 * (t1 - t0) for t0, t1 in spans), 3),
            "scaled_ms_per_trial": round(
                statistics.median(1e3 * yardstick.scale(t0, t1) for t0, t1 in spans), 3),
            "timed_trials": len(spans),
        }
        results.append(row)
        print(f"{name:12s} n={n:5d}  {row['realized']:3d}/{row['realize_calls']:3d} realized  "
              f"{row['matchings_per_realize']:7.2f} matchings and "
              f"{row['rejected_draws_per_realize']:6.2f} rejected draws per realize  "
              f"{row['ms_per_trial']:7.3f} ms (scaled {row['scaled_ms_per_trial']:7.3f}) per trial",
              flush=True)

    report = {
        "benchmark": "phase2",
        "command": " ".join(["python3", "benchmarks/bench_phase2.py", *sys.argv[1:]]),
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "master_seed": MASTER_SEED,
        "repeats": args.repeats,
        "checked": args.check,
        "yardstick": {
            "nominal_ms": 1e3 * NOMINAL_S,
            "runs": len(yardstick.durations),
            "median_ms": round(1e3 * statistics.median(yardstick.durations), 3),
        },
        "results": results,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
