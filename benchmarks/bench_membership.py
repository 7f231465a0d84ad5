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
calls; with them the host, Python and numpy versions.  Two commits
compare by `scaled_median_ms` (`hall_scaled_median_ms`), the
yardstick-scaled median of `benchmarks/harness.py`.
"""

from __future__ import annotations

from harness import ROOT, Yardstick, medians, timed, write_report  # first: it sets the import paths

import argparse
import math
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import hamdec.flow
import hamdec.polytope
from hamdec.model import concentration, incidence, skeleton
from hamdec.polytope import Membership
from helpers import reference_certificate
from pipebench.graphons import interior_graphon

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
        seed_spans, reference_ms, edges, passes = [], [], [], []
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
            # the certificate and the Hall flow alternate: even spans, odd spans
            seed_spans.append(timed(yardstick, [
                lambda: hamdec.polytope.positive_certificate(z, x),
                lambda: hamdec.polytope.hall_violator(z.skeleton, counts),
            ], args.repeats))
        rows.append((q, edges, seed_spans, reference_ms, passes))
    yardstick.measure()  # one after the last call, so every call has one on each side
    results = []
    for q, edges, seed_spans, reference_ms, passes in rows:
        spans = [span for s in seed_spans for span in s[::2]]
        hall_spans = [span for s in seed_spans for span in s[1::2]]
        ms, scaled = medians(yardstick, spans)
        hall_ms, hall_scaled = medians(yardstick, hall_spans)
        row = {
            "q": q,
            "edges": edges,
            "median_ms": ms,
            "scaled_median_ms": scaled,
            "seed_median_ms": [medians(yardstick, s[::2])[0] for s in seed_spans],
            "hall_median_ms": hall_ms,
            "hall_scaled_median_ms": hall_scaled,
            "hall_bfs_passes": passes,
            "reference_ms": [round(v, 1) for v in reference_ms],
            "timed_calls": len(spans),
        }
        results.append(row)
        print(f"q={row['q']:2d}  median {ms:8.3f} ms  scaled {scaled:8.3f} ms  "
              f"Hall flow scaled {hall_scaled:7.3f} ms "
              f"({statistics.mean(passes):4.1f} BFS passes)  "
              f"reference {statistics.median(row['reference_ms']):8.1f} ms", flush=True)

    write_report(args.out, "membership", yardstick, results,
                 repeats=args.repeats, seeds=list(SEEDS),
                 timed_calls=sum(row["timed_calls"] for row in results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
