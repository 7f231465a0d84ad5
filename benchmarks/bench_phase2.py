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
draws the partner check (`realize._all_have_partners`) rejected, and per
trial the existence oracle's full-graph matchings
(`graph_has_decomposition(g, None)`, a trial no witness settles); these
counts are the same on every host.  With `--check` the pass also hands
every `realize` input to `tests/helpers.py:realize_reference`, which
matches every draw, and exits 1, writing nothing, if an outcome (the
cycles, or the failure text) differs, or if a count differs from the one
the committed `benchmarks/BENCH_phase2.json` records for the same trials.
A timed pass then runs the trials `--repeats` times and records the
median wall time of a trial, and times each oracle matching of the
counting pass `--repeats` times for the median wall time of one.  The
JSON holds the counts, the times and the host, Python and numpy versions.
Two commits compare by `scaled_ms_per_trial`
(`scaled_ms_per_oracle_matching`), the yardstick-scaled median of
`benchmarks/harness.py`.
"""

from __future__ import annotations

from harness import ROOT, Yardstick, medians, timed, write_report  # first: it sets the import paths

import argparse
import importlib
import json
import sys
from pathlib import Path

import hamdec.driver
from hamdec.driver import run_trial
from helpers import realization_key, realize_reference
from pipebench.graphons import ER_HALF, TRI_HALF, interior_graphon

realize_module = importlib.import_module("hamdec.realize")  # the package binds `realize` to the function
COMMITTED = ROOT / "benchmarks" / "BENCH_phase2.json"
# the counting pass's fields, which `--check` compares with the committed ones
COUNTS = ("realize_calls", "realized", "matchings_per_realize", "checks_per_realize",
          "rejected_draws_per_realize", "oracle_matchings_per_trial")

MASTER_SEED = 1
CASES = (
    ("q8-interior", interior_graphon(8, 1).graphon, 200),
    ("er-half", ER_HALF, 200),
    ("tri-half", TRI_HALF, 200),
    ("tri-half", TRI_HALF, 1000),
)


def counting_pass(w, n: int, trials: int, check: bool) -> tuple[dict, list, str | None]:
    """Per-`realize` and per-trial counts over the trials, the graphs the
    oracle matched in full, and the first outcome that differs from the
    reference's (with `check`), or None."""
    realize = realize_module.realize
    matching = realize_module.max_bipartite_matching
    partners = realize_module._all_have_partners
    oracle = hamdec.driver.graph_has_decomposition
    calls = {"realize": 0, "ok": 0, "matchings": 0, "checks": 0, "rejected": 0}
    matched_graphs = []
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

    def counting_oracle(g, witness=None):
        if witness is None:
            matched_graphs.append(g)
        return oracle(g, witness)

    hamdec.driver.realize = counting_realize
    hamdec.driver.graph_has_decomposition = counting_oracle
    realize_module.max_bipartite_matching = counting_matching
    realize_module._all_have_partners = counting_partners
    try:
        for trial in range(trials):
            run_trial(w, n, MASTER_SEED, trial)
    finally:
        hamdec.driver.realize = realize
        hamdec.driver.graph_has_decomposition = oracle
        realize_module.max_bipartite_matching = matching
        realize_module._all_have_partners = partners
    per = max(calls["realize"], 1)
    counts = {
        "realize_calls": calls["realize"],
        "realized": calls["ok"],
        "matchings_per_realize": round(calls["matchings"] / per, 3),
        "checks_per_realize": round(calls["checks"] / per, 3),
        "rejected_draws_per_realize": round(calls["rejected"] / per, 3),
        "oracle_matchings_per_trial": round(len(matched_graphs) / trials, 3),
    }
    return counts, matched_graphs, (differs[0] if differs else None)


def committed_counts() -> dict:
    """The committed JSON's counts by (graphon, n, trials), each row's
    fields of `COUNTS` that it records; none if the file is absent."""
    if not COMMITTED.exists():
        return {}
    rows = json.loads(COMMITTED.read_text(encoding="utf-8"))["results"]
    return {(r["graphon"], r["n"], r["trials"]): {k: r[k] for k in COUNTS if k in r} for r in rows}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=40, help="trials per graphon")
    parser.add_argument("--repeats", type=int, default=5, help="timed passes over the trials")
    parser.add_argument("--check", action="store_true", help="compare every outcome with the reference")
    parser.add_argument("--out", type=Path, default=ROOT / "benchmarks" / "BENCH_phase2.json")
    args = parser.parse_args()
    if args.trials < 1 or args.repeats < 1:
        parser.error("--trials and --repeats must be positive")

    committed = committed_counts() if args.check else {}
    yardstick = Yardstick()
    rows = []
    for name, w, n in CASES:
        counts, matched_graphs, differs = counting_pass(w, n, args.trials, args.check)
        if differs is not None:
            print(f"{name} n={n}: {differs}", file=sys.stderr)
            return 1
        recorded = committed.get((name, n, args.trials))
        if args.check and recorded is None:
            print(f"{name} n={n}: counts not compared: {COMMITTED.name} records none "
                  f"for {args.trials} trials", file=sys.stderr)
        elif args.check and recorded != {k: counts[k] for k in recorded}:
            print(f"{name} n={n}: counts {counts} differ from the committed {recorded}", file=sys.stderr)
            return 1
        trials = [lambda t=t: run_trial(w, n, MASTER_SEED, t) for t in range(args.trials)]
        oracles = [lambda g=g: realize_module.graph_has_decomposition(g, None) for g in matched_graphs]
        rows.append((name, n, counts,
                     timed(yardstick, trials, args.repeats), timed(yardstick, oracles, args.repeats)))
    yardstick.measure()  # one after the last span, so every span has one on each side
    results = []
    for name, n, counts, spans, oracle_spans in rows:
        ms, scaled = medians(yardstick, spans)
        oracle_ms, oracle_scaled = medians(yardstick, oracle_spans)
        row = {
            "graphon": name,
            "n": n,
            "trials": args.trials,
            **counts,
            "ms_per_trial": ms,
            "scaled_ms_per_trial": scaled,
            "timed_trials": len(spans),
            "ms_per_oracle_matching": oracle_ms,
            "scaled_ms_per_oracle_matching": oracle_scaled,
        }
        results.append(row)
        oracle_note = ""
        if oracle_ms is not None:
            oracle_note = f", {oracle_ms:.3f} ms (scaled {oracle_scaled:.3f}) per oracle matching"
        print(f"{name:12s} n={n:5d}  {row['realized']:3d}/{row['realize_calls']:3d} realized  "
              f"{row['matchings_per_realize']:7.2f} matchings and "
              f"{row['rejected_draws_per_realize']:6.2f} rejected draws per realize  "
              f"{row['oracle_matchings_per_trial']:5.3f} oracle matchings per trial  "
              f"{ms:7.3f} ms (scaled {scaled:7.3f}) per trial{oracle_note}",
              flush=True)

    write_report(args.out, "phase2", yardstick, results,
                 master_seed=MASTER_SEED, repeats=args.repeats, checked=args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
