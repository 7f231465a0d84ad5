"""What the `BENCH_*.json` scripts beside this file share.

Importing this module puts `src/`, `tests/` and the checkout root first on
`sys.path`, so a script imports the package from this checkout, its
references from `tests/helpers.py`, and `pipebench`.

Raw times follow the host's speed, which on a shared host drifts by up to
~1.9x within minutes, so they cannot compare two commits.  `timed` runs
each call after `Yardstick.maybe()` (`pipebench.yardstick`'s, which a
script takes from here), and `medians` gives beside the raw median the
median of the calls' `Yardstick.scale` times: what a call takes on a host
where the yardstick takes its nominal time.  Compare two commits by their scaled medians.  A script calls
`Yardstick.measure()` once after its last timed call, so that every call
has a yardstick on each side, before it takes the medians.

`write_report` writes the JSON report: the benchmark's name, the command
that ran it, the host, Python and numpy versions, the script's own fields,
the yardstick's runs and the result rows, in that order.
"""

from __future__ import annotations

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

from pipebench.yardstick import NOMINAL_S, Yardstick  # noqa: E402


def timed(yardstick: Yardstick, calls, repeats: int) -> list[tuple[float, float]]:
    """The (start, end) of each call, in order, over `repeats` passes."""
    spans = []
    for _ in range(repeats):
        for call in calls:
            yardstick.maybe()
            t0 = time.perf_counter()
            call()
            spans.append((t0, time.perf_counter()))
    return spans


def medians(yardstick: Yardstick, spans) -> tuple[float | None, float | None]:
    """The median raw and scaled milliseconds of the spans, or None twice."""
    if not spans:
        return None, None
    return (round(statistics.median(1e3 * (t1 - t0) for t0, t1 in spans), 3),
            round(statistics.median(1e3 * yardstick.scale(t0, t1) for t0, t1 in spans), 3))


def write_report(path: Path, name: str, yardstick: Yardstick, results: list, **fields) -> None:
    """Write the report of `benchmarks/bench_<name>.py` to `path`."""
    report = {
        "benchmark": name,
        "command": " ".join(["python3", f"benchmarks/bench_{name}.py", *sys.argv[1:]]),
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        **fields,
        "yardstick": {
            "nominal_ms": 1e3 * NOMINAL_S,
            "runs": len(yardstick.durations),
            "median_ms": round(1e3 * statistics.median(yardstick.durations), 3),
        },
        "results": results,
    }
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
