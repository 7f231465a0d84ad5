#!/usr/bin/env python3
"""Time the exact membership query `positive_certificate` on generated
interior graphons, q in {8, 16, 24, 32}, seeds 0-3, and check it on
exterior points near them.

    python3 benchmarks/bench_membership.py [--repeats 7] [--out benchmarks/BENCH_membership.json]

Each graphon is `pipebench.graphons.interior_graphon(q, seed)`; its
certificate must equal the one the `Fraction`-tableau reference simplex in
`tests/helpers.py` gives.  Its counts D x (D the common denominator of x)
are then made exterior by raising one unlooped block's count, by 1, 2, 4,
... in turn, until the Hall flow `hall_violator` finds a violating block
set; the certificate of that point must carry the set, the set must
violate Hall's condition on the counts in integers, and the reference LP
must read the point exterior.  Any failure exits 1 before anything is
written.  The JSON holds, per q, the median wall time of a certificate and
of the Hall flow on its own over all seeds and repeats, the per-seed
medians, the Hall flow's BFS passes per certificate (a count, the same on
every host), the reference's time for one call and the number of timed
calls; with them the host, Python and numpy versions.  The package is
imported from `src/` beside this directory.

The raw medians follow the host's speed, which on a shared host drifts by
up to ~1.9x within minutes, so they cannot compare two commits.  Each timed
pair of calls therefore runs between `pipebench.yardstick.Yardstick.maybe()`
calls, and `scaled_median_ms` (`hall_scaled_median_ms`) is the median of
the calls' `Yardstick.scale` times: what a call takes on a host where the
yardstick takes its nominal time.  Compare two commits by their scaled
medians.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT)]

import numpy as np  # noqa: E402

import hamdec.flow  # noqa: E402
import hamdec.polytope  # noqa: E402
from hamdec.model import concentration, incidence, skeleton  # noqa: E402
from hamdec.polytope import Membership  # noqa: E402
from helpers import reference_certificate  # noqa: E402
from pipebench.graphons import interior_graphon  # noqa: E402
from pipebench.yardstick import NOMINAL_S, Yardstick  # noqa: E402

QS = (8, 16, 24, 32)
SEEDS = range(4)


def bfs_passes(z, x) -> int:
    """The Hall flow's residual BFS passes in one `positive_certificate`."""
    real, calls = hamdec.flow.MaxFlow._bfs, []

    def counting(net, src):
        calls.append(src)
        return real(net, src)

    hamdec.flow.MaxFlow._bfs = counting
    try:
        hamdec.polytope.positive_certificate(z, x)
    finally:
        hamdec.flow.MaxFlow._bfs = real
    return len(calls)


def exterior_failure(z, counts) -> str | None:
    """Raise one unlooped block's count until the Hall flow finds a
    violator, and check that point's certificate; the failure, or None."""
    s = z.skeleton
    block = min(set(range(s.node_count)) - s.loops)  # raising a looped block makes no violator
    counts, step, a = list(counts), 1, None
    while a is None:
        counts[block] += step
        step *= 2
        a = hamdec.polytope.hall_violator(s, counts)
    total = sum(counts)
    x = [Fraction(k, total) for k in counts]
    cert = hamdec.polytope.positive_certificate(z, x)
    if cert.violator != a:
        return f"block {block} raised to {counts[block]}: the certificate carries {cert.violator}"
    reached = {j for i in a for j in range(s.node_count) if s.supports(i, j)}
    if sum(counts[j] for j in reached) >= sum(counts[i] for i in a):
        return f"block {block} raised to {counts[block]}: {sorted(a)} violates nothing"
    # the skeleton is connected and holds a triangle, so Z has full row rank
    # and the reference LP is feasible: it reads exterior as t* < 0
    if reference_certificate(z, x)[0] is not Membership.EXTERIOR:
        return f"block {block} raised to {counts[block]}: the reference reads it inside"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7, help="timed calls per graphon")
    parser.add_argument("--out", type=Path, default=ROOT / "benchmarks" / "BENCH_membership.json")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be positive")

    yardstick = Yardstick()
    rows = []
    for q in QS:
        spans, hall_spans, per_seed, reference_ms, edges, passes = [], [], [], [], [], []
        for seed in SEEDS:
            w = interior_graphon(q, seed).graphon
            z, x = incidence(skeleton(w)), concentration(w.partition)
            scale = math.lcm(*[v.denominator for v in x])
            counts = [int(v * scale) for v in x]
            edges.append(z.shape[1])
            t0 = time.perf_counter()
            expected = reference_certificate(z, x)
            reference_ms.append(1e3 * (time.perf_counter() - t0))
            cert = hamdec.polytope.positive_certificate(z, x)
            if (cert.status, cert.coefficients, cert.margin) != expected:
                print(f"q={q} seed={seed}: certificate differs from the reference",
                      file=sys.stderr)
                return 1
            failure = exterior_failure(z, counts)
            if failure is not None:
                print(f"q={q} seed={seed}: exterior point: {failure}", file=sys.stderr)
                return 1
            passes.append(bfs_passes(z, x))
            runs = []
            for _ in range(args.repeats):
                yardstick.maybe()
                t0 = time.perf_counter()
                hamdec.polytope.positive_certificate(z, x)
                t1 = time.perf_counter()
                hamdec.polytope.hall_violator(z.skeleton, counts)
                t2 = time.perf_counter()
                spans.append((t0, t1))
                hall_spans.append((t1, t2))
                runs.append(1e3 * (t1 - t0))
            per_seed.append(round(statistics.median(runs), 3))
        rows.append((q, edges, spans, hall_spans, per_seed, reference_ms, passes))
    yardstick.measure()  # one after the last call, so every call has one on each side
    results = []
    for q, edges, spans, hall_spans, per_seed, reference_ms, passes in rows:
        row = {
            "q": q,
            "edges": edges,
            "median_ms": round(statistics.median(1e3 * (t1 - t0) for t0, t1 in spans), 3),
            "scaled_median_ms": round(
                statistics.median(1e3 * yardstick.scale(t0, t1) for t0, t1 in spans), 3),
            "seed_median_ms": per_seed,
            "hall_median_ms": round(
                statistics.median(1e3 * (t1 - t0) for t0, t1 in hall_spans), 3),
            "hall_scaled_median_ms": round(
                statistics.median(1e3 * yardstick.scale(t0, t1) for t0, t1 in hall_spans), 3),
            "hall_bfs_passes": passes,
            "reference_ms": [round(v, 1) for v in reference_ms],
            "timed_calls": len(spans),
        }
        results.append(row)
        print(f"q={row['q']:2d}  median {row['median_ms']:8.3f} ms  "
              f"scaled {row['scaled_median_ms']:8.3f} ms  "
              f"Hall flow scaled {row['hall_scaled_median_ms']:7.3f} ms "
              f"({statistics.mean(passes):4.1f} BFS passes)  "
              f"reference {statistics.median(row['reference_ms']):8.1f} ms", flush=True)

    report = {
        "benchmark": "membership",
        "command": " ".join(["python3", "benchmarks/bench_membership.py", *sys.argv[1:]]),
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": args.repeats,
        "seeds": list(SEEDS),
        "timed_calls": sum(row["timed_calls"] for row in results),
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
